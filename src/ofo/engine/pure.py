"""Pure-Python closed-loop stepping kernel and CSV row formatter.

This is the reference implementation: the compiled kernel (_kernel.c)
mirrors it so that both produce bit-identical trajectories and CSV text.
Both formatters print one sample at a time by the one rule of
`params.fmt12`.  Any change here must be replicated there.
"""

from __future__ import annotations

from math import cos, isfinite, sin, sqrt
from typing import TYPE_CHECKING

from .params import SegmentResult, fmt12

if TYPE_CHECKING:
    from .spec import SegmentSpec


def format_rows(samples: SegmentResult, n: int, p: int, w_text: str, ustar_text: str) -> bytes:
    """A segment's CSV rows t,x1..xn,u,y1..yp,<w_text>,V,<ustar_text> as
    ASCII bytes, one per sample, each sample printed by fmt12, as the
    compiled formatter's put_double prints it; samples.xs holds n values and
    samples.ys p values per row."""
    s = samples
    xs = zip(*[iter(s.xs)] * n)
    ys = zip(*[iter(s.ys)] * p)
    return "".join([f"{','.join(map(fmt12, (t, *x, u, *y)))},{w_text},{fmt12(v)},{ustar_text}\n"
                    for t, x, u, y, v in zip(s.times, xs, s.us, ys, s.vs)]).encode("ascii")


def run_segment(spec: SegmentSpec) -> SegmentResult:
    n = spec.n
    p = spec.p
    sine = spec.sine
    sqrtplus = spec.sqrtplus
    projected = spec.projected
    a = spec.a
    b = spec.b
    drift = spec.drift
    c = spec.c
    s0 = spec.sens0
    cq1 = spec.cq1
    cq2 = spec.cq2
    mu4 = spec.mu4
    alpha = spec.alpha
    beta = spec.beta
    lo = spec.lo
    hi = spec.hi
    dt = spec.dt
    n_full = spec.n_full
    last_dt = spec.last_dt
    stride = spec.record_stride
    include_final = spec.include_final
    t0 = spec.t0
    t_end = spec.t_end

    x = list(spec.x0)
    u = spec.u0
    xt = [0.0] * n
    kx1 = [0.0] * n
    kx2 = [0.0] * n
    kx3 = [0.0] * n
    kx4 = [0.0] * n
    y = [0.0] * p
    gy = [0.0] * p

    def eval_field(xs, us, kx):
        """Writes dx/dt into kx and returns du/dt."""
        for i in range(p):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += c[base + j] * xs[j]
            y[i] = acc
        if sine:
            pu = us + sin(us)
            fac = 1.0 + cos(us)
        else:
            pu = us
            fac = 1.0
        for i in range(n):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += a[base + j] * xs[j]
            kx[i] = (acc + b[i] * pu) + drift[i]
        acc = 2.0 * cq1 * us + mu4 * us
        if sqrtplus:
            gy[0] = y[0] / sqrt(y[0] * y[0] + 1.0)
        else:
            for i in range(p):
                gy[i] = 2.0 * cq2 * y[i]
        for i in range(p):
            acc += (s0[i] * fac) * gy[i]
        if projected:
            v = us - beta * acc
            if v < lo:
                v = lo
            elif v > hi:
                v = hi
            return alpha * (v - us)
        return -alpha * acc

    res = SegmentResult(final_x=x)
    rec_t = res.times
    rec_x = res.xs
    rec_u = res.us
    rec_y = res.ys
    rec_v = res.vs
    n_tot = n_full + (1 if last_dt > 0.0 else 0)
    xi = spec.lyap_xi
    lp = spec.lyap_p
    xstar = spec.xstar
    ustar = spec.ustar
    dx = [0.0] * n

    def record(step: int):
        rec_t.append(t_end if step == n_tot else t0 + step * dt)
        for j in range(n):
            rec_x.append(x[j])
        rec_u.append(u)
        for i in range(p):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += c[base + j] * x[j]
            rec_y.append(acc)
        # the operation order of ofo.sim.lyapunov_trace
        for j in range(n):
            dx[j] = x[j] - xstar[j]
        vx = 0.0
        for i in range(n):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += lp[base + j] * dx[j]
            vx += dx[i] * acc
        d = u - ustar
        vu = 0.5 * (d * d)
        vx = xi * vx
        rec_v.append(vu if vu > vx else vx)

    record(0)
    max_violation = 0.0
    for i in range(n_tot):
        h = dt if i < n_full else last_dt
        h2 = 0.5 * h
        h6 = h / 6.0
        ku1 = eval_field(x, u, kx1)
        for j in range(n):
            xt[j] = x[j] + h2 * kx1[j]
        ku2 = eval_field(xt, u + h2 * ku1, kx2)
        for j in range(n):
            xt[j] = x[j] + h2 * kx2[j]
        ku3 = eval_field(xt, u + h2 * ku2, kx3)
        for j in range(n):
            xt[j] = x[j] + h * kx3[j]
        ku4 = eval_field(xt, u + h * ku3, kx4)
        for j in range(n):
            x[j] = x[j] + h6 * (kx1[j] + 2.0 * kx2[j] + 2.0 * kx3[j] + kx4[j])
        u = u + h6 * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
        step = i + 1
        ok = isfinite(u)
        for j in range(n):
            if not isfinite(x[j]):
                ok = False
        if not ok:
            res.blowup_time = t_end if step == n_tot else t0 + step * dt
            break
        if projected:
            d = u - hi
            if d > max_violation:
                max_violation = d
            d = lo - u
            if d > max_violation:
                max_violation = d
        if (step % stride == 0 and step < n_tot) or (step == n_tot and include_final):
            record(step)
    res.final_u = u
    res.max_violation = max_violation
    return res
