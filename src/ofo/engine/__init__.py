"""Closed-loop stepping kernels with import-time selection.

The compiled kernel (`_kernel.c`, built and loaded by `_speedup`) is used
whenever it loads, for stepping and for formatting CSV rows.
When it cannot be built or loaded, the pure-Python reference takes over
with identical semantics and bit-identical output, and a RuntimeWarning
says why.
"""

from __future__ import annotations

import warnings

from . import pure
from .params import SegmentResult, SegmentSpec

try:
    from . import _speedup
except ImportError as exc:
    _speedup = None
    warnings.warn(f"compiled stepping kernel unavailable ({exc}); "
                  "using the pure-Python kernel", RuntimeWarning)
HAVE_COMPILED = _speedup is not None

__all__ = [
    "SegmentResult", "SegmentSpec",
    "HAVE_COMPILED", "active_kernel", "format_rows", "kernel_name", "run_segment",
]

#: Formats a segment's samples as CSV rows, every field in plain decimal
#: notation (see pure.format_rows); raises InputError on inf or nan.
format_rows = pure.format_rows if _speedup is None else _speedup.format_rows


def active_kernel():
    """The module whose run_segment is used: the compiled one when it loaded."""
    return pure if _speedup is None else _speedup


def kernel_name() -> str:
    return "pure-python" if _speedup is None else "compiled"


def run_segment(spec: SegmentSpec) -> SegmentResult:
    return active_kernel().run_segment(spec)
