"""The result record the stepping kernels return, and `fmt12`, the one
rule for a printed number: the pure CSV formatter prints every sample
through it, the compiled one (`_kernel.c`'s `put_double`) follows it, and
`ofo.sim` and `ofo.certificate` print every other number with it.

A result's sample columns are `array('d')` buffers, which the compiled
kernel writes and reads in place, and its final state a list.  The kernels'
input record, SegmentSpec, lives in `spec`.
"""

from __future__ import annotations

from array import array

from .._record import Record
from ..errors import InputError


class SegmentResult(Record):
    """Strided samples plus exact final state of one segment: per record one
    time, n states (flat in xs), one input, p outputs (flat in ys) and one V."""

    __slots__ = ("times", "xs", "us", "ys", "vs", "final_x", "final_u", "max_violation",
                 "blowup_time")

    def __init__(self, times: array | None = None, xs: array | None = None,
                 us: array | None = None, ys: array | None = None, vs: array | None = None,
                 final_x: list[float] | None = None, final_u: float = 0.0,
                 max_violation: float = 0.0, blowup_time: float | None = None):
        # a column not given starts empty
        self.times, self.xs, self.us, self.ys, self.vs = (
            array("d") if column is None else column for column in (times, xs, us, ys, vs))
        self.final_x = [] if final_x is None else final_x
        self.final_u, self.max_violation, self.blowup_time = final_u, max_violation, blowup_time


def fmt12(x: float) -> str:
    """x as `%.12g` in plain decimal notation: an exponent form is expanded
    by placing its printed digits, -0 becomes 0, inf and nan raise.

    `%.12g` prints an exponent only for a decimal exponent below -4 or at
    least 12, and never more than 12 digits, so the decimal point falls
    before the first printed digit or after the last one, never between."""
    text = "%.12g" % x
    mantissa, _, exponent = text.partition("e")
    if not exponent:
        if "n" in text:
            raise InputError("cannot format a non-finite value")
        return "0" if text == "-0" else text
    sign = "-" if mantissa[0] == "-" else ""
    digits = mantissa.lstrip("-").replace(".", "")
    point = int(exponent) + 1      # digits before the decimal point
    if point <= 0:
        return f"{sign}0.{'0' * -point}{digits}"
    return sign + digits + "0" * (point - len(digits))
