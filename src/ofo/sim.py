"""Closed-loop simulation under piecewise-constant disturbance schedules.

simulate() stitches together one stepping-kernel call per constant-disturbance
segment, recording strided samples, per-segment reference optima, and (for the
projected law) the worst box violation seen at any integration step.  The
module also houses the steady-state optimizer used as the reference for
every convergence claim, Lyapunov traces with their exponential
envelope check, and deterministic gain sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter, mul, sub
from typing import Callable, Sequence, TextIO

from . import engine
from .controllers import BoxSet
from .costs import CostModel, QuadraticCost, RegularizedCost, reduced_gradient
from .errors import DivergenceError, InputError, NotStabilizedError
from .linalg import (
    Matrix,
    Vector,
    as_vector,
    quad_form,
    solve_lyapunov,
    spectral_norm,
    vec_norm,
    vec_sub,
)
from .ode import plan_steps
from .plants import LinearPlant, SinePlant

DEFAULT_MAX_RECORDS = 20000
_BRACKET = 1e6
_SCAN_POINTS = 4097
_SCAN_ROUNDS = 3


def _plain(text: str) -> str:
    """One `%.12g` field in plain decimal notation: an exponent form is
    expanded by placing its printed digits, -0 becomes 0, inf and nan raise."""
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
    if point >= len(digits):
        return sign + digits + "0" * (point - len(digits))
    return f"{sign}{digits[:point]}.{digits[point:]}"


def fmt12(x: float) -> str:
    """Format a float with 12 significant digits in plain decimal notation."""
    return _plain("%.12g" % float(x))


@dataclass(frozen=True)
class DisturbanceSchedule:
    """Ordered (t_start, w) segments; the first segment must start at 0."""

    segments: tuple[tuple[float, Vector], ...]

    def __post_init__(self):
        if not self.segments:
            raise InputError("schedule must contain at least one segment")
        cleaned = []
        for idx, (t_start, w) in enumerate(self.segments):
            cleaned.append((float(t_start), as_vector(w, f"schedule segment {idx + 1} disturbance")))
        object.__setattr__(self, "segments", tuple(cleaned))
        if self.segments[0][0] != 0.0:
            raise InputError("the first schedule segment must start at t = 0")
        for (t_prev, _), (t_next, _) in zip(self.segments, self.segments[1:]):
            if not t_next > t_prev:
                raise InputError("schedule start times must be strictly increasing")
        widths = {len(w) for _, w in self.segments}
        if len(widths) != 1:
            raise InputError("all schedule disturbances must have the same dimension")

    @property
    def q(self) -> int:
        return len(self.segments[0][1])


@dataclass(frozen=True)
class LyapunovSpec:
    """Composite-function weights: V = max(xi * (x-x*)^T P (x-x*), ||u-u*||^2 / 2)."""

    xi: float
    p: Matrix

    def __post_init__(self):
        if self.xi <= 0.0:
            raise InputError("xi must be positive")


@dataclass
class Trajectory:
    """Strided closed-loop samples plus per-segment metadata."""

    t: list[float]
    x: list[Vector]
    u: list[Vector]
    y: list[Vector]
    w: list[Vector]
    seg_of: list[int]
    v: list[float] | None
    segment_marks: list[int]
    segment_starts: list[float]
    segment_ends: list[float]
    ustar: list[Vector]
    xstar: list[Vector]
    seg_final_x: list[Vector]
    seg_final_u: list[Vector]
    max_box_violation: float
    dt: float
    warnings: list[str] = field(default_factory=list)

    def segment_indices(self, k: int) -> range:
        lo = self.segment_marks[k]
        hi = self.segment_marks[k + 1] if k + 1 < len(self.segment_marks) else len(self.t)
        return range(lo, hi)


@dataclass(frozen=True)
class RunSummary:
    final_error: float
    settling_time: float
    overshoot: float
    max_violation: float


def default_dt(plant: LinearPlant, cost: CostModel, alpha: float) -> float:
    """Step size that keeps explicit stepping stable across the gain sweep.

    Scales 0.1 by the fastest of: unit rate, the plant's spectral norm, and an
    estimate alpha * (L + ell_phi_y * ell_g * ell_h) of the controller field's
    stiffness; clamped to [1e-6, 2.5e-3].  The upper clamp keeps the
    step-halving end-state agreement below 1e-6 even for lightly damped loops.
    """
    ell_h, ell_grad_h = plant.steady_moduli
    desc = cost.descriptor(ell_h, ell_grad_h)
    stiffness = desc.lip_grad_u + desc.ell_phi_y * spectral_norm(plant.c) * ell_h
    dt = 0.1 / max(1.0, spectral_norm(plant.a), alpha * stiffness)
    return min(2.5e-3, max(1e-6, dt))


def _cost_parts(cost: CostModel) -> tuple[int, float, float, float]:
    mu4 = 0.0
    base = cost
    if isinstance(base, RegularizedCost):
        mu4 = base.mu4
        base = base.base
    if isinstance(base, QuadraticCost):
        return engine.COST_QUADRATIC, base.q_u, base.q_y, mu4
    return engine.COST_SQRTPLUS, base.a, 0.0, mu4


def _closed_form_optimum(plant: LinearPlant, cost: CostModel, w: Vector,
                         box: BoxSet | None) -> float | None:
    """Exact optimum for an affine steady map y = h u + h_off with quadratic cost.

    The input is scalar and the output may have any dimension p:
    u = -2 q_y h.h_off / (2 q_u + mu4 + 2 q_y ||h||^2).
    """
    cost_kind, q_u, q_y, mu4 = _cost_parts(cost)
    if isinstance(plant, SinePlant) or cost_kind != engine.COST_QUADRATIC:
        return None
    h = plant.base_sensitivity.data
    h_off = plant.steady_output((0.0,), w)
    # -0.0 is the exact additive identity, so p = 1 keeps the sign of a zero term
    num = sum((2.0 * q_y * hi * oi for hi, oi in zip(h, h_off)), -0.0)
    u = -num / (2.0 * q_u + mu4 + sum(2.0 * q_y * hi * hi for hi in h))
    if box is not None:
        u = min(max(u, box.lo[0]), box.hi[0])
    return u


def _bisect(grad: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a reduced gradient on [lo, hi], halved down to adjacent floats.

    When the gradient does not change sign on the interval, the bound it never
    crosses is returned.
    """
    if grad(lo) >= 0.0:
        return lo
    if grad(hi) <= 0.0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        g = grad(mid)
        if g == 0.0:
            return mid
        if g < 0.0:
            lo = mid
        else:
            hi = mid


def _searched_optimum(plant: LinearPlant, cost: CostModel, w: Vector,
                      box: BoxSet | None) -> float:
    """Optimum found from the reduced gradient, for plants without a closed form.

    A positive gap mu_phi - ell_phi_u makes the reduced gradient strictly
    increasing, so one bisection over the box (or the +-1e6 bracket) is exact.
    Otherwise the objective may have several local minima: a 4097-point scan,
    repeated inside the bracket around its best point, narrows the search to
    one basin before the bisection, and the result is compared against the
    best scanned point and the box corners.
    """
    lo, hi = -_BRACKET, _BRACKET
    if box is not None:
        lo = box.lo[0] if math.isfinite(box.lo[0]) else lo
        hi = box.hi[0] if math.isfinite(box.hi[0]) else hi
    if not lo < hi:
        return lo

    def objective(u: float) -> float:
        return cost.phi((u,), plant.steady_output((u,), w))

    def grad(u: float) -> float:
        return reduced_gradient(cost, plant.sensitivity((u,)), (u,),
                                plant.steady_output((u,), w))[0]

    desc = cost.descriptor(*plant.steady_moduli)
    if desc.mu_phi - desc.ell_phi_u > 0.0:
        return _bisect(grad, lo, hi)

    corners = [lo, hi] if box is not None else []
    for _ in range(_SCAN_ROUNDS):
        step = (hi - lo) / (_SCAN_POINTS - 1)
        best = min(range(_SCAN_POINTS), key=lambda i: objective(lo + i * step))
        scanned = lo + best * step
        lo, hi = lo + max(0, best - 1) * step, lo + min(_SCAN_POINTS - 1, best + 1) * step
    return min([_bisect(grad, lo, hi), scanned, *corners], key=objective)


def optimal_input(plant: LinearPlant, cost: CostModel, w, box: BoxSet | None = None) -> Vector:
    """Reference optimum of the steady-state problem min_u phi(u, h(u, w)) over the box.

    An affine plant with a quadratic cost (with or without mu4) gets the
    clamped closed form; every other configuration is solved from its reduced
    gradient (see _searched_optimum).
    """
    if plant.m != 1:
        raise InputError("the bundled optimizer handles scalar inputs only; "
                         "supply a reference optimum for multi-input plants")
    if box is not None and box.dim != 1:
        raise InputError("box dimension must match the scalar input")
    w = as_vector(w, "disturbance")
    exact = _closed_form_optimum(plant, cost, w, box)
    if exact is not None:
        return (exact,)
    return (_searched_optimum(plant, cost, w, box),)


def simulate(config: RunConfig, alpha: float) -> Trajectory:
    """Integrate the plant-controller loop of config (see RunConfig for the
    law) at gain alpha across all schedule segments.

    The disturbance is held constant within each segment and switched exactly
    at segment boundaries (the integration lands on every boundary).  Records
    are strided to stay near config.max_records in total; final states are exact.
    """
    if not 0.0 < alpha < math.inf:
        raise InputError(f"controller gain alpha must be positive and finite, got {alpha}")
    plant, cost, box, schedule = config.plant, config.cost, config.box, config.schedule
    x0 = as_vector(config.x0, "x0")
    u0 = as_vector(config.u0, "u0")
    t_end = config.t_end
    if len(x0) != plant.n:
        raise InputError(f"x0 has length {len(x0)}, expected {plant.n}")
    if len(u0) != plant.m:
        raise InputError(f"u0 has length {len(u0)}, expected {plant.m}")
    if t_end <= 0.0:
        raise InputError("t_end must be positive")
    if schedule.q != plant.bw.cols:
        raise InputError("schedule disturbance dimension does not match the plant")
    if schedule.segments[-1][0] >= t_end:
        raise InputError("schedule extends beyond t_end")
    dt = config.dt if config.dt is not None else default_dt(plant, cost, alpha)
    if dt <= 0.0:
        raise InputError("dt must be positive")
    lyapunov = config.lyapunov
    if lyapunov is not None and (lyapunov.p.rows, lyapunov.p.cols) != (plant.n, plant.n):
        raise InputError(f"the Lyapunov matrix must be {plant.n}x{plant.n}")

    warnings: list[str] = []
    if box is None:
        ctrl_kind, beta = engine.CTRL_GRADIENT, 0.0
        lo, hi = [-math.inf] * plant.m, [math.inf] * plant.m
    else:
        if box.dim != plant.m:
            raise InputError("box dimension does not match the plant input")
        if not box.contains(u0):
            warnings.append("u0 lies outside the input box; forward invariance is not guaranteed")
        ctrl_kind, lo, hi = engine.CTRL_PROJECTED, list(box.lo), list(box.hi)
        beta = config.beta if config.beta is not None else 1.0 / cost.grad_u_lipschitz
    cost_kind, cq1, cq2, mu4 = _cost_parts(cost)
    plant_kind = engine.PLANT_SINE if isinstance(plant, SinePlant) else engine.PLANT_LINEAR
    lyap_xi, lyap_p = (lyapunov.xi, list(lyapunov.p.data)) if lyapunov is not None else (0.0, [])

    boundaries = [t for t, _ in schedule.segments] + [t_end]
    n_segments = len(schedule.segments)
    per_seg_records = max(2, config.max_records // n_segments)

    traj = Trajectory(
        t=[], x=[], u=[], y=[], w=[], seg_of=[], v=None if lyapunov is None else [],
        segment_marks=[], segment_starts=[], segment_ends=[],
        ustar=[], xstar=[], seg_final_x=[], seg_final_u=[],
        max_box_violation=0.0, dt=dt, warnings=warnings,
    )

    ustar_cache: dict[Vector, Vector] = {}
    x = list(x0)
    u = list(u0)
    for k, (t_start, w) in enumerate(schedule.segments):
        t_stop = boundaries[k + 1]
        if w not in ustar_cache:
            ustar_cache[w] = optimal_input(plant, cost, w, box=box)
        ustar = ustar_cache[w]
        xstar = plant.steady_state(ustar, w)

        n_full, last_dt = plan_steps(t_start, t_stop, dt)
        n_tot = n_full + (1 if last_dt > 0.0 else 0)
        stride = max(1, -(-n_tot // per_seg_records))
        spec = engine.SegmentSpec(
            n=plant.n, m=plant.m, p=plant.p,
            plant_kind=plant_kind,
            a=list(plant.a.data), b=list(plant.b.data),
            drift=list(plant.bw.matvec(w)),
            c=list(plant.c.data),
            sens0=list(plant.base_sensitivity.data),
            cost_kind=cost_kind, cq1=cq1, cq2=cq2, mu4=mu4,
            ctrl_kind=ctrl_kind, alpha=alpha, beta=beta, lo=lo, hi=hi,
            x0=x, u0=u, t0=t_start, t_end=t_stop, dt=dt,
            n_full=n_full, last_dt=last_dt, record_stride=stride,
            include_final=(k == n_segments - 1),
            lyap_xi=lyap_xi, lyap_p=lyap_p, xstar=list(xstar), ustar=list(ustar),
        )
        res = engine.run_segment(spec)
        if res.blowup_time is not None:
            raise DivergenceError(
                f"divergence detected at t = {res.blowup_time:.6g} in segment {k + 1}",
                time=res.blowup_time, segment=k + 1)

        traj.segment_marks.append(len(traj.t))
        traj.segment_starts.append(t_start)
        traj.segment_ends.append(t_stop)
        traj.ustar.append(ustar)
        traj.xstar.append(xstar)
        n_rec = len(res.times)
        traj.t += res.times
        # zip over n references to one iterator yields consecutive n-tuples
        traj.x += zip(*[iter(res.xs)] * plant.n)
        traj.u += zip(*[iter(res.us)] * plant.m)
        traj.y += zip(*[iter(res.ys)] * plant.p)
        traj.w += [w] * n_rec
        traj.seg_of += [k] * n_rec
        if traj.v is not None:
            traj.v += res.vs
        traj.seg_final_x.append(tuple(res.final_x))
        traj.seg_final_u.append(tuple(res.final_u))
        traj.max_box_violation = max(traj.max_box_violation, res.max_violation)
        x = res.final_x
        u = res.final_u
    return traj


def lyapunov_trace(traj: Trajectory, spec: LyapunovSpec) -> list[float]:
    """Composite-function samples along a trajectory, re-anchored per segment.

    This is the reference for the V that the stepping kernel records during
    simulate().  Both add left to right, as sum() does before Python 3.12, so
    there they agree bit for bit.
    """
    out = []
    for i in range(len(traj.t)):
        k = traj.seg_of[i]
        dx = vec_sub(traj.x[i], traj.xstar[k])
        du = vec_sub(traj.u[i], traj.ustar[k])
        vx = quad_form(spec.p, dx)
        vu = 0.5 * sum(v * v for v in du)
        out.append(max(spec.xi * vx, vu))
    return out


def envelope_check(
    v: Sequence[float],
    times: Sequence[float],
    tau: float,
    rel_slack: float = 1e-6,
) -> tuple[bool, float]:
    """Check V(t) <= V(0) exp(-tau (t - t0)) (1 + rel_slack) at every sample.

    Returns (ok, worst ratio of sample to envelope).
    """
    if tau < 0.0:
        raise InputError("tau must be nonnegative")
    if len(v) != len(times) or not v:
        raise InputError("series and times must have equal nonzero length")
    v0 = v[0]
    worst = 0.0
    ok = True
    for t, val in zip(times, v):
        bound = v0 * math.exp(-tau * (t - times[0]))
        if bound > 0.0:
            worst = max(worst, val / bound)
        elif val > 0.0:
            worst = math.inf
        if val > bound * (1.0 + rel_slack):
            ok = False
    return ok, worst


def _distances(points: list[Vector], target: Vector) -> list[float]:
    """vec_norm(vec_sub(point, target)) for every point, in the same operation
    order but column by column, so the arithmetic runs inside map()."""
    squares = [0.0] * len(points)
    for j, value in enumerate(target):
        diffs = list(map(sub, map(itemgetter(j), points), repeat(value)))
        squares = list(map(add, squares, map(mul, diffs, diffs)))
    return list(map(math.sqrt, squares))


def summarize(traj: Trajectory) -> RunSummary:
    """Per-run metrics: final error, settling into the 1% band, overshoot."""
    settling = 0.0
    overshoot = 0.0
    n_seg = len(traj.segment_starts)
    for k in range(n_seg):
        idx = traj.segment_indices(k)
        seg_u = traj.u[idx.start:idx.stop]
        ustar = traj.ustar[k]
        band = 0.01 * (1.0 + vec_norm(ustar))
        seg_settling = traj.segment_ends[k] - traj.segment_starts[k]
        # the exact segment end state is not among the strided samples
        if vec_norm(vec_sub(traj.seg_final_u[k], ustar)) <= band:
            # settled from the first of the trailing samples inside the band
            inside = list(map(band.__ge__, _distances(seg_u, ustar)))[::-1]
            inside = inside.index(False) if False in inside else len(inside)
            if inside:
                seg_settling = traj.t[idx.stop - inside] - traj.segment_starts[k]
        settling = max(settling, seg_settling)

        if not seg_u:
            continue
        # u_j - u*_j is monotone in u_j, so the largest excess comes from the
        # extreme sample in the direction of approach
        for j, target in enumerate(ustar):
            if target >= seg_u[0][j]:
                excess = max(map(itemgetter(j), seg_u)) - target
            else:
                excess = -1.0 * (min(map(itemgetter(j), seg_u)) - target)
            overshoot = max(overshoot, excess)
    final_error = vec_norm(vec_sub(traj.seg_final_u[-1], traj.ustar[-1]))
    return RunSummary(
        final_error=final_error,
        settling_time=settling,
        overshoot=overshoot,
        max_violation=traj.max_box_violation,
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to run one scenario at a chosen gain.

    The law is the projected one exactly when box is set, and the gradient
    law otherwise.  A given beta must satisfy 0 < beta <= 1/L; None means
    1/L, worked out at each run, so a replaced cost keeps no stale stepsize.
    """

    plant: LinearPlant
    cost: CostModel
    schedule: DisturbanceSchedule
    x0: Vector
    u0: Vector
    t_end: float
    beta: float | None = None
    box: BoxSet | None = None
    dt: float | None = None
    max_records: int = DEFAULT_MAX_RECORDS
    lyapunov: LyapunovSpec | None = None

    def __post_init__(self):
        if self.beta is not None:
            if not self.beta > 0.0:
                raise InputError("stepsize beta must be positive")
            limit = 1.0 / self.cost.grad_u_lipschitz
            if self.beta > limit:
                raise InputError(
                    f"stepsize beta = {self.beta} violates the projected-law precondition "
                    f"beta <= 1/L = {limit}")

    def hurwitz(self, alpha: float) -> bool | None:
        """Whether the closed loop at this gain is Hurwitz, for the loops that
        are affine: a linear plant with a quadratic cost (with or without
        mu4) under the gradient law, whose matrix is
        [[A, B], [-2 alpha q_y H^T C, -alpha (2 q_u + mu4) I]], H = -C A^-1 B.
        None for every other loop."""
        cost_kind, q_u, q_y, mu4 = _cost_parts(self.cost)
        plant = self.plant
        if (self.box is not None or isinstance(plant, SinePlant)
                or cost_kind != engine.COST_QUADRATIC):
            return None
        n, m = plant.n, plant.m
        feedback = plant.base_sensitivity.transpose().matmul(plant.c).scale(-2.0 * alpha * q_y)
        damping = -alpha * (2.0 * q_u + mu4)
        rows = [plant.a.row(i) + plant.b.row(i) for i in range(n)]
        rows += [feedback.row(j) + tuple(damping if i == j else 0.0 for i in range(m))
                 for j in range(m)]
        try:
            solve_lyapunov(Matrix.from_rows(rows), Matrix.identity(n + m))
        except NotStabilizedError:
            return False
        return True

    def run(self, alpha: float) -> tuple[Trajectory, RunSummary]:
        traj = simulate(self, alpha)
        return traj, summarize(traj)


@dataclass
class SweepRow:
    alpha: float
    trajectory: Trajectory | None
    summary: RunSummary | None
    error: str | None = None


def sweep_alpha(config: RunConfig, alphas: Sequence[float]) -> list[SweepRow]:
    """Run the scenario once per gain, in the given order; per-run failures are
    recorded without aborting."""
    if not alphas:
        raise InputError("sweep requires at least one alpha")
    for a in alphas:
        if not 0.0 < a < math.inf:
            raise InputError(f"sweep alphas must be positive and finite, got {a}")

    def one(alpha: float) -> SweepRow:
        try:
            traj, summary = config.run(alpha)
            return SweepRow(alpha=alpha, trajectory=traj, summary=summary)
        except DivergenceError as exc:
            return SweepRow(alpha=alpha, trajectory=None, summary=None, error=str(exc))

    return [one(a) for a in alphas]


CSV_ENCODING = "utf-8"


def csv_header(n: int, m: int, p: int, q: int) -> str:
    cols = (["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"u{j + 1}" for j in range(m)]
            + [f"y{i + 1}" for i in range(p)]
            + [f"w{i + 1}" for i in range(q)]
            + ["V"]
            + [f"ustar{j + 1}" for j in range(m)])
    return ",".join(cols)


def _plain_row(row: str) -> str:
    return ",".join([_plain(text) for text in row.split(",")])


def write_csv(traj: Trajectory, stream: TextIO) -> None:
    """Trajectory CSV: fixed column schema, 12 significant digits, LF endings.

    Each row is one `%.12g` format of its samples, with the segment's
    disturbance and optimum already in place as text.  Only a row whose
    printout holds an exponent, inf, nan or -0 is taken apart field by field.
    """
    if traj.v is None:
        raise InputError("trajectory has no Lyapunov samples; simulate with a LyapunovSpec")
    n = len(traj.x[0])
    m = len(traj.u[0])
    p = len(traj.y[0])
    q = len(traj.w[0])
    stream.write(csv_header(n, m, p, q) + "\n")
    samples = "%.12g," * (1 + n + m + p)
    for k in range(len(traj.segment_marks)):
        idx = traj.segment_indices(k)
        if not idx:
            continue
        lo, hi = idx.start, idx.stop
        w_text = ",".join(map(fmt12, traj.w[lo]))
        ustar_text = ",".join(map(fmt12, traj.ustar[k]))
        row = f"{samples}{w_text},%.12g,{ustar_text}\n"
        rows = [row % (t, *x, *u, *y, v) for t, x, u, y, v in
                zip(traj.t[lo:hi], traj.x[lo:hi], traj.u[lo:hi], traj.y[lo:hi], traj.v[lo:hi])]
        # every printed field is followed by a comma, so "-0," marks a -0 field
        stream.write("".join([_plain_row(r) if "e" in r or "n" in r or "-0," in r else r
                              for r in rows]))
