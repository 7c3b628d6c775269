"""The parameter record of one stepping-kernel call.

A spec is plain floats, ints, and lists so the compiled and pure kernels
can consume the same object.  The input is a scalar (the plant refuses any
other B), so u, its box bounds and its anchor are floats.  Matrices are
row-major flat lists; the disturbance enters only through the precomputed
drift vector B_w w, which is constant within a segment.  Every sample
comes with the composite function V = max(xi (x-x*)^T P (x-x*), (u-u*)^2 / 2)
at the weight `lyap_xi`, the matrix `lyap_p` and the anchor (`xstar`,
`ustar`); simulate() passes the plant's own P, but the kernels take any.

`ofo.engine` imports this module when SegmentSpec is first read, so
`dataclasses` is loaded only by a run that steps.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class SegmentSpec:
    """One constant-disturbance integration segment.

    This is the one dataclass in ofo, for a single reason: the benchmark's
    tracer (`perfbench/traced.py`) records a segment's spec with
    `dataclasses.asdict`, and `perfbench/run.py` rebuilds it from that dict
    with `SegmentSpec(**doc)`."""

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
