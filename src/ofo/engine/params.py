"""Flat parameter and result records exchanged with the stepping kernels,
and the plain-notation rule for a printed field that both CSV formatters
and `ofo.sim.fmt12` follow.

A spec is plain floats, ints, and lists so the compiled and pure kernels
can consume the same object; a result's sample columns are `array('d')`
buffers, which the compiled kernel writes and reads in place, and its final
state a list.  The input is a scalar (the plant refuses any
other B), so u, its box bounds and its anchor are floats.  Matrices are
row-major flat lists; the disturbance enters only through the precomputed
drift vector B_w w, which is constant within a segment.  Every sample
comes with the composite function V = max(xi (x-x*)^T P (x-x*), (u-u*)^2 / 2)
at the weight `lyap_xi`, the matrix `lyap_p` and the anchor (`xstar`,
`ustar`); simulate() passes the plant's own P, but the kernels take any.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..errors import InputError


@dataclass
class SegmentSpec:
    """One constant-disturbance integration segment."""

    n: int
    p: int
    sine: bool              # sine input nonlinearity; linear otherwise
    a: list[float]          # n*n
    b: list[float]          # n
    drift: list[float]      # n, equals B_w w
    c: list[float]          # p*n
    sens0: list[float]      # p, sensitivity before any input-dependent scaling
    sqrtplus: bool          # sqrt-plus cost (scalar output); quadratic otherwise
    cq1: float              # q_u (quadratic) or a (sqrt-plus)
    cq2: float              # q_y (quadratic; unused otherwise)
    mu4: float              # extra input curvature from regularization
    projected: bool         # projected law onto [lo, hi]; gradient law otherwise
    alpha: float
    beta: float
    lo: float               # -inf allowed
    hi: float               # +inf allowed
    x0: list[float]
    u0: float
    t0: float
    t_end: float
    dt: float
    n_full: int
    last_dt: float
    record_stride: int
    include_final: bool
    lyap_xi: float          # weight xi of V
    lyap_p: list[float]     # n*n
    xstar: list[float]      # n, the anchor of V
    ustar: float            # the anchor of V


@dataclass
class SegmentResult:
    """Strided samples plus exact final state of one segment."""

    times: array = field(default_factory=lambda: array("d"))
    xs: array = field(default_factory=lambda: array("d"))   # flat, n per record
    us: array = field(default_factory=lambda: array("d"))   # one input per record
    ys: array = field(default_factory=lambda: array("d"))   # flat, p per record
    vs: array = field(default_factory=lambda: array("d"))   # one V per record
    final_x: list[float] = field(default_factory=list)
    final_u: float = 0.0
    max_violation: float = 0.0
    blowup_time: float | None = None


def plain_field(text: str) -> str:
    """One `%.12g` field in plain decimal notation: an exponent form is
    expanded by placing its printed digits, -0 becomes 0, inf and nan raise.

    `%.12g` prints an exponent only for a decimal exponent below -4 or at
    least 12, and never more than 12 digits, so the decimal point falls
    before the first printed digit or after the last one, never between."""
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
