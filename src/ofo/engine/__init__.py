"""Closed-loop stepping kernels, chosen on first use.

The first call of `active_kernel`, `kernel_name`, `run_segment` or
`format_rows`, or the first read of `HAVE_COMPILED`, chooses the kernel, so
importing this package builds and loads nothing and a caller that never
steps (`ofo certify`) needs no C compiler.  The first read of `SegmentSpec`
imports it from `spec`, so neither importing this package nor choosing the
kernel loads `dataclasses`.  The compiled kernel
(`_kernel.c`, built and loaded by `_speedup`) is used whenever it loads, for
stepping and for formatting CSV rows; the pure-Python reference (`pure`) is
then not imported.  When it cannot be built or loaded, the pure-Python
reference takes over with identical semantics and bit-identical output, and
a RuntimeWarning says why.
"""

from __future__ import annotations

import threading
import warnings
from typing import TYPE_CHECKING

from .params import SegmentResult

if TYPE_CHECKING:
    from .spec import SegmentSpec

__all__ = [
    "SegmentResult", "SegmentSpec",
    "HAVE_COMPILED", "active_kernel", "format_rows", "kernel_name", "run_segment",
]

#: The chosen kernel module, None until the first use.
_selected = None
_choosing = threading.Lock()


def _choose():
    """Import the compiled kernel, or the pure one when it fails; once."""
    global _selected, HAVE_COMPILED
    with _choosing:
        if _selected is None:
            try:
                from . import _speedup as kernel
                compiled = True
            except ImportError as exc:
                warnings.warn(f"compiled stepping kernel unavailable ({exc}); "
                              "using the pure-Python kernel", RuntimeWarning)
                from . import pure as kernel
                compiled = False
            HAVE_COMPILED = compiled
            _selected = kernel
    return _selected


def __getattr__(name: str):
    # HAVE_COMPILED becomes a plain module global once the kernel is chosen,
    # SegmentSpec once it is first read
    if name == "HAVE_COMPILED":
        _choose()
        return HAVE_COMPILED
    if name == "SegmentSpec":
        global SegmentSpec
        from .spec import SegmentSpec
        return SegmentSpec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def active_kernel():
    """The module whose run_segment is used: the compiled one when it loads."""
    return _selected or _choose()


def kernel_name() -> str:
    active_kernel()
    return "compiled" if HAVE_COMPILED else "pure-python"


def run_segment(spec: SegmentSpec) -> SegmentResult:
    return active_kernel().run_segment(spec)


def format_rows(samples: SegmentResult, n: int, p: int, w_text: str, ustar_text: str) -> bytes:
    """Formats a segment's samples as CSV rows, ASCII bytes with every field
    in plain decimal notation (see pure.format_rows); raises InputError on
    inf or nan."""
    return active_kernel().format_rows(samples, n, p, w_text, ustar_text)
