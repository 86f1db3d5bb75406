"""Kernel backend selection for gf_mul, gf_pow and gf_geom_sum.

Imports the compiled extension when available, otherwise the pure-Python
fallback.  Set the environment variable ``GKSPEC_PURE=1`` before import to
force the fallback (useful for benchmarking and differential testing).

The extension's SL2 enumeration kernel is not used.  PSL2 orders have one
pure implementation in ``gkspec.groups``: the trace recurrence fixes each
order, every determinant-one matrix is still visited, and the total is
still checked against |SL2(q)|.
"""

import os

if os.environ.get("GKSPEC_PURE"):
    from . import _fallback as _impl
else:
    try:
        from . import _speedups as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _fallback as _impl

gf_mul = _impl.gf_mul
gf_pow = _impl.gf_pow
gf_geom_sum = _impl.gf_geom_sum


def backend_name() -> str:
    """'compiled' when the extension module is active, else 'pure'."""
    return "compiled" if _impl.COMPILED else "pure"
