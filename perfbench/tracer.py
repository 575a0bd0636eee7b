"""In-memory span recorder that times calls from outside the program.

The program has no tracer of its own, so the traced run wraps public
functions with timing shims, the way ``benchmarks/profile_kernels.py`` wraps
the kernel dispatch attributes.  Each call becomes a span: name, start, end,
enclosing span, the harness's current batch (or the query id a call
carries) and the run phase.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

from perfbench.stats import self_times

# Span record fields, stored as lists for speed.
NAME, START, END, PARENT, IDENT, PHASE = range(6)

Observer = Callable[["Tracer", tuple, dict, Any, Any], None]


class Tracer:
    """Spans and counters recorded at patched call boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.batch: int | None = None
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        before: Callable[[tuple, dict], Any] | None = None,
        observe: Observer | None = None,
    ) -> Callable:
        """Return ``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``observe(tracer, args, kwargs, result, before_value)``,
        which runs after the span closes, so counting stays outside it.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            stack = tracer._stack
            ident = kwargs.get("query_id", tracer.batch)
            span = [
                name,
                perf_counter_ns(),
                0,
                stack[-1] if stack else -1,
                ident,
                tracer.phase,
            ]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result, pre)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a shim."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def self_ns(self) -> list[int]:
        """Self time of every span, index-aligned with :attr:`spans`."""
        return self_times([(s[START], s[END], s[PARENT]) for s in self.spans])

    def dump(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header, counters and every span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    **header,
                    "fields": ["name", "start_ns", "end_ns", "parent", "id", "phase"],
                    "counters": dict(self.counters),
                    "spans": self.spans,
                },
                handle,
                default=str,
            )
