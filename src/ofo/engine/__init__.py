"""Closed-loop stepping kernels with import-time selection.

The compiled kernel (`_kernel.c`, built and loaded by `_speedup`) is used
whenever it loads, for stepping and for formatting CSV rows; the
pure-Python reference (`pure`) is then not imported.
When it cannot be built or loaded, the pure-Python reference takes over
with identical semantics and bit-identical output, and a RuntimeWarning
says why.
"""

from __future__ import annotations

import warnings

from .params import SegmentResult, SegmentSpec

try:
    from . import _speedup as _selected
    HAVE_COMPILED = True
except ImportError as exc:
    warnings.warn(f"compiled stepping kernel unavailable ({exc}); "
                  "using the pure-Python kernel", RuntimeWarning)
    from . import pure as _selected
    HAVE_COMPILED = False

__all__ = [
    "SegmentResult", "SegmentSpec",
    "HAVE_COMPILED", "active_kernel", "format_rows", "kernel_name", "run_segment",
]

#: Formats a segment's samples as CSV rows, ASCII bytes with every field in
#: plain decimal notation (see pure.format_rows); raises InputError on inf
#: or nan.
format_rows = _selected.format_rows


def active_kernel():
    """The module whose run_segment is used: the compiled one when it loaded."""
    return _selected


def kernel_name() -> str:
    return "compiled" if HAVE_COMPILED else "pure-python"


def run_segment(spec: SegmentSpec) -> SegmentResult:
    return _selected.run_segment(spec)
