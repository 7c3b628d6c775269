"""Closed-loop simulation under piecewise-constant disturbance schedules.

simulate() stitches together one stepping-kernel call per constant-disturbance
segment and keeps each call's samples, with the segment's reference optimum,
as one Segment of the run's Trajectory.  The module also houses the
steady-state optimizer used as the reference for every convergence claim,
Lyapunov traces with their exponential envelope check, and deterministic
gain sweeps.
"""

from __future__ import annotations

import math
from typing import BinaryIO, Callable, Sequence

from . import engine
from ._record import FrozenRecord, Record, set_fields
from .controllers import BoxSet
from .costs import CostModel, QuadraticCost, check_fit, reduced_gradient
from .engine.params import plain_field
from .errors import DivergenceError, InputError, StepLimitError
from .linalg import (
    Matrix,
    Vector,
    as_vector,
    quad_form,
    routh_hurwitz,
    vec_sub,
)
from .plants import LinearPlant, SinePlant

DEFAULT_MAX_RECORDS = 20000
_BRACKET = 1e6
_SCAN_POINTS = 4097
_SCAN_ROUNDS = 3
_DT_FLOOR = 1e-6


def fmt12(x: float) -> str:
    """Format a float with 12 significant digits in plain decimal notation."""
    return plain_field("%.12g" % float(x))


class DisturbanceSchedule(FrozenRecord):
    """Ordered (t_start, w) segments; the first segment must start at 0."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[tuple[float, Vector], ...]):
        if not segments:
            raise InputError("schedule must contain at least one segment")
        segments = tuple((float(t_start), as_vector(w, f"schedule segment {idx + 1} disturbance"))
                         for idx, (t_start, w) in enumerate(segments))
        if segments[0][0] != 0.0:
            raise InputError("the first schedule segment must start at t = 0")
        for (t_prev, _), (t_next, _) in zip(segments, segments[1:]):
            if not t_next > t_prev:
                raise InputError("schedule start times must be strictly increasing")
        widths = {len(w) for _, w in segments}
        if len(widths) != 1:
            raise InputError("all schedule disturbances must have the same dimension")
        set_fields(self, segments=segments)

    @property
    def q(self) -> int:
        return len(self.segments[0][1])


class Segment(Record):
    """One constant-disturbance segment of a run: its span from start to
    end, its disturbance, the reference optimum u* with its steady state x*,
    and the stepping kernel's result for it as returned.  samples.xs holds n
    values and samples.ys p values per record, and samples.vs one V."""

    __slots__ = ("start", "end", "w", "ustar", "xstar", "samples")

    def __init__(self, start: float, end: float, w: Vector, ustar: float, xstar: Vector,
                 samples: engine.SegmentResult):
        self.start, self.end, self.w = start, end, w
        self.ustar, self.xstar, self.samples = ustar, xstar, samples


class Trajectory(Record):
    """A run: one Segment per disturbance segment, in time order."""

    # weakly referenced, so a caller can tell when a sweep has let a run go
    __slots__ = ("segments", "__weakref__")

    def __init__(self, segments: list[Segment] | None = None):
        self.segments = [] if segments is None else segments

    @property
    def t(self) -> list[float]:
        """Every sample time of the run, in order."""
        return [t for seg in self.segments for t in seg.samples.times]


class RunSummary(FrozenRecord):
    __slots__ = ("final_error", "settling_time", "overshoot", "max_violation")

    def __init__(self, final_error: float, settling_time: float, overshoot: float,
                 max_violation: float):
        set_fields(self, final_error=final_error, settling_time=settling_time,
                   overshoot=overshoot, max_violation=max_violation)


def default_dt(plant: LinearPlant, cost: CostModel, alpha: float,
               beta: float | None = None) -> float:
    """Step size that keeps explicit stepping stable across the gain sweep.

    Scales 0.1 by the faster of the plant's spectral norm (positive: A is
    Hurwitz) and the controller field's rate at this gain.  With stiffness =
    L + ell_phi_y * ell_g * ell_h, an estimate of the gradient field's
    stiffness per unit gain, that rate is alpha * stiffness for the gradient
    law (beta None) and alpha * (1 + beta * stiffness) for the projected law
    with stepsize beta, whose field alpha (proj(u - beta g) - u) moves no
    faster.  The cap 2.5e-3 is an accuracy bound: it keeps c08's
    step-halving end-state agreement below 1e-6 even for lightly damped
    loops.  A step below the floor 1e-6 is refused with StepLimitError
    rather than clamped, because a clamped step would break that bound and
    report a divergence of the integrator as one of the loop.  Cap and
    floor are the rule's two absolute time constants, so refusal depends on
    the time unit: fig2 with A, B, B_w and the gain x10 is refused at gain
    1e5, though it needs only the original's steps at 1e4 (ROADMAP item 5).
    """
    ell_h, ell_grad_h = plant.steady_moduli
    a_norm, c_norm = plant.spectral_norms
    ell_phi_y = cost.coupling_moduli(ell_h, ell_grad_h)[1]
    stiffness = cost.grad_u_lipschitz + ell_phi_y * c_norm * ell_h
    rate = alpha * stiffness if beta is None else alpha * (1.0 + beta * stiffness)
    dt = 0.1 / max(a_norm, rate)
    if dt < _DT_FLOOR:
        raise StepLimitError(
            f"step-limited: alpha = {alpha:.6g} needs dt = {dt:.6g} for explicit stepping "
            f"to stay stable; the floor is {_DT_FLOOR:g}")
    return min(2.5e-3, dt)


def plan_steps(t0: float, t1: float, dt: float) -> tuple[int, float]:
    """Split [t0, t1] into full dt steps plus one shortened final step.

    Returns (n_full, last_dt).  One tolerance, the larger of 1e-12 dt and 2
    ulps of the end times, marks rounding: a remainder within it of a full
    step is that step, and one within it of zero is dropped (last_dt 0.0).
    dt over the span gives (0, span).
    """
    if dt <= 0.0:
        raise InputError("dt must be positive")
    span = t1 - t0
    if span <= 0.0:
        raise InputError("time span must have t1 > t0")
    tol = max(1e-12 * dt, 2.0 * math.ulp(max(abs(t0), abs(t1))))
    n_full = math.floor(span / dt)
    rem = span - n_full * dt
    if rem >= dt - tol:
        n_full, rem = n_full + 1, 0.0
    elif rem <= tol:
        rem = 0.0
    return n_full, rem


def _closed_form_optimum(plant: LinearPlant, cost: CostModel, w: Vector,
                         box: BoxSet | None) -> float | None:
    """Exact optimum for an affine steady map y = h u + h_off with quadratic cost.

    The input is scalar and the output may have any dimension p:
    u = -2 q_y h.h_off / (2 q_u + mu4 + 2 q_y ||h||^2).
    """
    if isinstance(plant, SinePlant) or not isinstance(cost, QuadraticCost):
        return None
    q_u, q_y, mu4 = cost.q_u, cost.q_y, cost.mu4
    h = plant.base_sensitivity.data
    h_off = plant.steady_output(0.0, w)
    # -0.0 is the exact additive identity, so p = 1 keeps the sign of a zero term
    num = sum((2.0 * q_y * hi * oi for hi, oi in zip(h, h_off)), -0.0)
    u = -num / (2.0 * q_u + mu4 + sum(2.0 * q_y * hi * hi for hi in h))
    if box is not None:
        u = min(max(u, box.lo), box.hi)
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
        lo = box.lo if math.isfinite(box.lo) else lo
        hi = box.hi if math.isfinite(box.hi) else hi
    if not lo < hi:
        return lo

    def objective(u: float) -> float:
        return cost.phi(u, plant.steady_output(u, w))

    def grad(u: float) -> float:
        return reduced_gradient(cost, plant.sensitivity(u), u, plant.steady_output(u, w))

    if cost.grad_u_lipschitz - cost.coupling_moduli(*plant.steady_moduli)[0] > 0.0:
        return _bisect(grad, lo, hi)

    corners = [lo, hi] if box is not None else []
    for _ in range(_SCAN_ROUNDS):
        step = (hi - lo) / (_SCAN_POINTS - 1)
        best = min(range(_SCAN_POINTS), key=lambda i: objective(lo + i * step))
        scanned = lo + best * step
        lo, hi = lo + max(0, best - 1) * step, lo + min(_SCAN_POINTS - 1, best + 1) * step
    return min([_bisect(grad, lo, hi), scanned, *corners], key=objective)


def optimal_input(plant: LinearPlant, cost: CostModel, w, box: BoxSet | None = None) -> float:
    """Reference optimum of the steady-state problem min_u phi(u, h(u, w)) over the box.

    An affine plant with a quadratic cost gets the clamped closed form; every
    other configuration is solved from its reduced gradient (see
    _searched_optimum).
    """
    w = as_vector(w, "disturbance")
    exact = _closed_form_optimum(plant, cost, w, box)
    return exact if exact is not None else _searched_optimum(plant, cost, w, box)


def simulate(config: RunConfig, alpha: float) -> Trajectory:
    """Integrate the plant-controller loop of config (see RunConfig for the
    law) at gain alpha across all schedule segments.

    The disturbance is held constant within each segment and switched exactly
    at segment boundaries (the integration lands on every boundary).  Records
    are strided to stay near config.max_records in total; final states are exact.
    Without config.dt, the step is default_dt's rule for the run's law: the
    gradient law's at beta None, and the projected law's at the run's
    stepsize beta (the given one, or 1/L).  A gain whose default step falls
    below its floor raises StepLimitError.
    """
    if not 0.0 < alpha < math.inf:
        raise InputError(f"controller gain alpha must be positive and finite, got {alpha}")
    plant, cost, box, schedule = config.plant, config.cost, config.box, config.schedule

    lo, hi, beta = -math.inf, math.inf, 0.0
    if box is not None:
        lo, hi = box.lo, box.hi
        beta = config.beta if config.beta is not None else 1.0 / cost.grad_u_lipschitz
    dt = config.dt if config.dt is not None else default_dt(
        plant, cost, alpha, None if box is None else beta)
    quadratic = isinstance(cost, QuadraticCost)
    cq1, cq2 = (cost.q_u, cost.q_y) if quadratic else (cost.a, 0.0)
    # the kernel inputs that every segment shares
    a, b, c = list(plant.a.data), list(plant.b.data), list(plant.c.data)
    sens0, lyap_p = list(plant.base_sensitivity.data), list(plant.lyapunov_p.data)

    boundaries = [t for t, _ in schedule.segments] + [config.t_end]
    n_segments = len(schedule.segments)
    per_seg_records = max(2, config.max_records // n_segments)

    traj = Trajectory()
    x = list(config.x0)
    u = config.u0
    for k, (t_start, w) in enumerate(schedule.segments):
        t_stop = boundaries[k + 1]
        ustar, xstar, drift = config.reference(w)

        n_full, last_dt = plan_steps(t_start, t_stop, dt)
        n_tot = n_full + (1 if last_dt > 0.0 else 0)
        stride = max(1, -(-n_tot // per_seg_records))
        spec = engine.SegmentSpec(
            n=plant.n, p=plant.p,
            sine=isinstance(plant, SinePlant),
            a=a, b=b, drift=list(drift), c=c, sens0=sens0,
            sqrtplus=not quadratic, cq1=cq1, cq2=cq2, mu4=cost.mu4,
            projected=box is not None, alpha=alpha, beta=beta, lo=lo, hi=hi,
            x0=x, u0=u, t0=t_start, t_end=t_stop, dt=dt,
            n_full=n_full, last_dt=last_dt, record_stride=stride,
            include_final=(k == n_segments - 1),
            lyap_xi=config.xi, lyap_p=lyap_p, xstar=list(xstar), ustar=ustar,
        )
        res = engine.run_segment(spec)
        # the kernel goes on from a finite state whose recorded output or V
        # overflows; each column whose sum is not finite is scanned for it
        bad = [i // width for values, width in ((res.ys, plant.p), (res.vs, 1))
               if not math.isfinite(sum(values))
               for i, v in enumerate(values) if not math.isfinite(v)]
        if bad:
            t_bad = res.times[min(bad)]
            raise DivergenceError(
                f"divergence detected at t = {t_bad:.6g} in segment {k + 1}: "
                "a recorded output or V is not finite", time=t_bad, segment=k + 1)
        if res.blowup_time is not None:
            raise DivergenceError(
                f"divergence detected at t = {res.blowup_time:.6g} in segment {k + 1}",
                time=res.blowup_time, segment=k + 1)
        traj.segments.append(Segment(start=t_start, end=t_stop, w=w, ustar=ustar,
                                     xstar=xstar, samples=res))
        x = res.final_x
        u = res.final_u
    return traj


def lyapunov_trace(traj: Trajectory, xi: float, p: Matrix) -> list[float]:
    """Composite-function samples V = max(xi (x-x*)^T P (x-x*), (u-u*)^2 / 2)
    along a trajectory, re-anchored per segment.

    This is the reference for the V that the stepping kernel records during
    simulate().  Both add left to right, as sum() does before Python 3.12, so
    there they agree bit for bit.
    """
    out = []
    for seg in traj.segments:
        # zip over n references to one iterator yields consecutive n-tuples
        xs = zip(*[iter(seg.samples.xs)] * len(seg.xstar))
        for x, u in zip(xs, seg.samples.us):
            vx = quad_form(p, vec_sub(x, seg.xstar))
            du = u - seg.ustar
            out.append(max(xi * vx, 0.5 * (du * du)))
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


def summarize(traj: Trajectory) -> RunSummary:
    """Per-run metrics: final error, settling into the 1% band, overshoot."""
    settling = 0.0
    overshoot = 0.0
    for seg in traj.segments:
        times, us, ustar = seg.samples.times, seg.samples.us, seg.ustar
        band = 0.01 * (1.0 + abs(ustar))
        seg_settling = seg.end - seg.start
        # the exact segment end state is not among the strided samples
        if abs(seg.samples.final_u - ustar) <= band:
            # settled from the first of the trailing samples inside the band
            outside = [abs(u - ustar) > band for u in us]
            first_in = len(us) - outside[::-1].index(True) if True in outside else 0
            if first_in < len(us):
                seg_settling = times[first_in] - seg.start
        settling = max(settling, seg_settling)
        # u - u* is monotone in u, so the largest excess comes from the
        # extreme sample in the direction of approach
        excess = max(us) - ustar if ustar >= us[0] else ustar - min(us)
        overshoot = max(overshoot, excess)
    last = traj.segments[-1]
    return RunSummary(
        final_error=abs(last.samples.final_u - last.ustar),
        settling_time=settling,
        overshoot=overshoot,
        max_violation=max(seg.samples.max_violation for seg in traj.segments),
    )


def _check_xi(xi: float) -> None:
    if not 0.0 < xi < math.inf:
        raise InputError(f"xi must be positive and finite, got {xi}")


class RunConfig(FrozenRecord):
    """Everything needed to run one scenario at a chosen gain.

    u0 is a finite float and a given box an interval.  The run's fit is
    checked here, once for every gain.  The law is the projected one exactly
    when box is set, and the gradient law otherwise.  A given beta needs a
    box and must satisfy 0 < beta <= 1/L; None means 1/L, worked out at each
    run, so a configuration built with another cost keeps no stale stepsize.
    Every run records V = max(xi (x-x*)^T P (x-x*), (u-u*)^2 / 2) with the
    plant's own P = plant.lyapunov_p and the positive, finite weight xi.
    """

    __slots__ = ("plant", "cost", "schedule", "x0", "u0", "t_end", "beta", "box", "dt",
                 "max_records", "xi", "_references")

    def __init__(self, plant: LinearPlant, cost: CostModel, schedule: DisturbanceSchedule,
                 x0: Vector, u0: float, t_end: float, beta: float | None = None,
                 box: BoxSet | None = None, dt: float | None = None,
                 max_records: int = DEFAULT_MAX_RECORDS, xi: float = 1.0):
        check_fit(cost, plant.p)
        x0, u0 = as_vector(x0, "x0"), float(u0)
        if len(x0) != plant.n:
            raise InputError(f"x0 has length {len(x0)}, expected {plant.n}")
        if not math.isfinite(u0):
            raise InputError(f"u0 must be finite, got {u0}")
        if not 0.0 < t_end < math.inf:
            raise InputError(f"t_end must be positive and finite, got {t_end}")
        if schedule.q != plant.bw.cols:
            raise InputError("schedule disturbance dimension does not match the plant")
        if schedule.segments[-1][0] >= t_end:
            raise InputError("schedule extends beyond t_end")
        if dt is not None and not 0.0 < dt < math.inf:
            raise InputError(f"dt must be positive and finite, got {dt}")
        if isinstance(max_records, bool) or not isinstance(max_records, int) or max_records < 2:
            raise InputError(f"max_records must be an integer of at least 2, got {max_records!r}")
        _check_xi(xi)
        if beta is not None:
            if box is None:
                raise InputError("stepsize beta is only valid for the projected law, "
                                 "which needs a box")
            if not beta > 0.0:
                raise InputError("stepsize beta must be positive")
            limit = 1.0 / cost.grad_u_lipschitz
            if beta > limit:
                raise InputError(
                    f"stepsize beta = {beta} violates the projected-law precondition "
                    f"beta <= 1/L = {limit}")
        # _references maps each disturbance level to its reference, filled
        # by reference(); it is no field, so == and repr leave it out
        set_fields(self, plant=plant, cost=cost, schedule=schedule, x0=x0, u0=u0, t_end=t_end,
                   beta=beta, box=box, dt=dt, max_records=max_records, xi=xi, _references={})

    def with_xi(self, xi: float) -> RunConfig:
        """This configuration with the weight xi of V.  Only xi is checked:
        the other fields passed this configuration's checks, and the copy
        shares its references, which do not depend on xi."""
        _check_xi(xi)
        copy = object.__new__(RunConfig)
        set_fields(copy, **{name: getattr(self, name) for name in self.__slots__} | {"xi": xi})
        return copy

    @property
    def warnings(self) -> tuple[str, ...]:
        """What this configuration does not guarantee, the same at every gain."""
        if self.box is not None and not self.box.contains(self.u0):
            return ("u0 lies outside the input box; forward invariance is not guaranteed",)
        return ()

    def reference(self, w: Vector) -> tuple[float, Vector, Vector]:
        """The level w's optimum u*, its steady state x* and the drift
        B_w w.  None of them depends on the gain, so each is worked out once
        per configuration and shared by every gain run with it."""
        ref = self._references.get(w)
        if ref is None:
            ustar = optimal_input(self.plant, self.cost, w, box=self.box)
            ref = (ustar, self.plant.steady_state(ustar, w), self.plant.bw.matvec(w))
            self._references[w] = ref
        return ref

    def hurwitz(self, alpha: float) -> bool | None:
        """Whether the closed loop at this gain is Hurwitz, for the loops that
        are affine: a linear plant with a quadratic cost under the gradient
        law, whose matrix is
        M = [[A, B], [-2 alpha q_y H^T C, -alpha (2 q_u + mu4)]], H = -C A^-1 B.
        A Schur complement on the input row gives
        det(sI - M) = s a(s) + alpha ((2 q_u + mu4) a(s) + 2 q_y N(s)) with
        the plant's loop_polynomials a and N, and Routh's test decides.
        None for every other loop."""
        plant, cost = self.plant, self.cost
        if (self.box is not None or isinstance(plant, SinePlant)
                or not isinstance(cost, QuadraticCost)):
            return None
        char, adj = plant.loop_polynomials
        damping, coupling = 2.0 * cost.q_u + cost.mu4, 2.0 * cost.q_y
        # the gain's polynomial, of degree n; s a(s) = s^(n+1) + ... has one more
        gain_poly = [damping * c for c in char]
        for k, c in enumerate(adj):
            gain_poly[k + 1] += coupling * c
        return routh_hurwitz([1.0] + [c + alpha * g for c, g in zip((*char[1:], 0.0), gain_poly)])

    def run(self, alpha: float) -> tuple[Trajectory, RunSummary]:
        traj = simulate(self, alpha)
        return traj, summarize(traj)


class SweepRow(Record):
    __slots__ = ("alpha", "trajectory", "summary", "error")

    def __init__(self, alpha: float, trajectory: Trajectory | None, summary: RunSummary | None,
                 error: str | None = None):
        self.alpha, self.trajectory, self.summary, self.error = alpha, trajectory, summary, error


def sweep_alpha(config: RunConfig, alphas: Sequence[float]) -> list[SweepRow]:
    """Run the scenario once per gain, in the given order.  A divergence, or a
    gain whose default step falls below its floor (see default_dt), is
    recorded as the row's error without aborting the sweep."""
    if not alphas:
        raise InputError("sweep requires at least one alpha")
    for a in alphas:
        if not 0.0 < a < math.inf:
            raise InputError(f"sweep alphas must be positive and finite, got {a}")

    def one(alpha: float) -> SweepRow:
        try:
            traj, summary = config.run(alpha)
            return SweepRow(alpha=alpha, trajectory=traj, summary=summary)
        except (DivergenceError, StepLimitError) as exc:
            return SweepRow(alpha=alpha, trajectory=None, summary=None, error=str(exc))

    return [one(a) for a in alphas]


def csv_header(n: int, p: int, q: int) -> str:
    cols = (["t"]
            + [f"x{i + 1}" for i in range(n)]
            + ["u1"]
            + [f"y{i + 1}" for i in range(p)]
            + [f"w{i + 1}" for i in range(q)]
            + ["V", "ustar1"])
    return ",".join(cols)


def write_csv(traj: Trajectory, stream: BinaryIO) -> None:
    """Trajectory CSV as ASCII bytes: fixed column schema, 12 significant
    digits, LF endings.

    Each segment's rows are formatted by engine.format_rows (in C when the
    compiled kernel loaded), with the segment's disturbance and optimum
    already in place as text, and written to the binary stream before the
    next segment is formatted.
    """
    first = traj.segments[0]
    n = len(first.xstar)
    p = len(first.samples.ys) // len(first.samples.times)
    stream.write(f"{csv_header(n, p, len(first.w))}\n".encode("ascii"))
    for seg in traj.segments:
        w_text = ",".join(map(fmt12, seg.w))
        stream.write(engine.format_rows(seg.samples, n, p, w_text, fmt12(seg.ustar)))
