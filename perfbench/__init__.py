"""End-to-end benchmark harness; the command is ``python3 perfbench/run.py``."""
