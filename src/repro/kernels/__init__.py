"""Hot-loop kernels of the batch walk.

The batch walk's per-hop selection (``repro.core.batch``) calls its inner
loop through :mod:`repro.kernels.dispatch`, which holds the one numpy
implementation (and three kernels that no longer have a caller; see that
module).  Callers import the *module* and call through its attributes
(``from repro.kernels import dispatch as kernels``), which keeps one patch
point per kernel for instrumentation.  For that reason this package
re-exports only :func:`kernel_info`: a package-level alias of a kernel
would be a second binding that a patch of the module never reaches.
"""

from repro.kernels.dispatch import kernel_info

__all__ = ["kernel_info"]
