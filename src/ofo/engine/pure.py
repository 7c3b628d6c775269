"""Pure-Python closed-loop stepping kernel and CSV plain-notation rewrite.

This is the reference implementation: the compiled kernel (_kernel.c)
mirrors it expression by expression so that both produce bit-identical
trajectories and CSV text.  Any change here must be replicated there.
"""

from __future__ import annotations

from math import cos, isfinite, sin, sqrt

from ..errors import InputError
from .params import SegmentResult, SegmentSpec


def plain_field(text: str) -> str:
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


def plain_text(text: str) -> str:
    """Every field of a CSV text of `%.12g` printouts through plain_field.
    A line without "e", "n" or "-0" has no field to change."""
    return "\n".join([",".join(map(plain_field, line.split(",")))
                      if "e" in line or "n" in line or "-0" in line else line
                      for line in text.split("\n")])


def run_segment(spec: SegmentSpec) -> SegmentResult:
    n = spec.n
    m = spec.m
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
    u = list(spec.u0)
    xt = [0.0] * n
    ut = [0.0] * m
    kx1 = [0.0] * n
    kx2 = [0.0] * n
    kx3 = [0.0] * n
    kx4 = [0.0] * n
    ku1 = [0.0] * m
    ku2 = [0.0] * m
    ku3 = [0.0] * m
    ku4 = [0.0] * m
    y = [0.0] * p
    gu = [0.0] * m
    gy = [0.0] * p
    pu = [0.0] * m

    def eval_field(xs, us, kx, ku):
        for i in range(p):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += c[base + j] * xs[j]
            y[i] = acc
        if sine:
            pu[0] = us[0] + sin(us[0])
            fac = 1.0 + cos(us[0])
        else:
            for j in range(m):
                pu[j] = us[j]
            fac = 1.0
        for i in range(n):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += a[base + j] * xs[j]
            base = i * m
            for j in range(m):
                acc += b[base + j] * pu[j]
            kx[i] = acc + drift[i]
        if sqrtplus:
            gu[0] = 2.0 * cq1 * us[0] + mu4 * us[0]
            gy[0] = y[0] / sqrt(y[0] * y[0] + 1.0)
        else:
            for j in range(m):
                gu[j] = 2.0 * cq1 * us[j] + mu4 * us[j]
            for i in range(p):
                gy[i] = 2.0 * cq2 * y[i]
        for j in range(m):
            acc = gu[j]
            for i in range(p):
                acc += (s0[i * m + j] * fac) * gy[i]
            if projected:
                v = us[j] - beta * acc
                lj = lo[j]
                hj = hi[j]
                if v < lj:
                    v = lj
                elif v > hj:
                    v = hj
                ku[j] = alpha * (v - us[j])
            else:
                ku[j] = -alpha * acc

    res = SegmentResult(final_x=x, final_u=u)
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
        for j in range(m):
            rec_u.append(u[j])
        for i in range(p):
            acc = 0.0
            base = i * n
            for j in range(n):
                acc += c[base + j] * x[j]
            rec_y.append(acc)
        if xi:
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
            vu = 0.0
            for j in range(m):
                d = u[j] - ustar[j]
                vu += d * d
            vu = 0.5 * vu
            vx = xi * vx
            rec_v.append(vu if vu > vx else vx)

    record(0)
    h2_main = 0.5 * dt
    h6_main = dt / 6.0
    max_violation = 0.0
    for i in range(n_tot):
        if i < n_full:
            h = dt
            h2 = h2_main
            h6 = h6_main
        else:
            h = last_dt
            h2 = 0.5 * h
            h6 = h / 6.0
        eval_field(x, u, kx1, ku1)
        for j in range(n):
            xt[j] = x[j] + h2 * kx1[j]
        for j in range(m):
            ut[j] = u[j] + h2 * ku1[j]
        eval_field(xt, ut, kx2, ku2)
        for j in range(n):
            xt[j] = x[j] + h2 * kx2[j]
        for j in range(m):
            ut[j] = u[j] + h2 * ku2[j]
        eval_field(xt, ut, kx3, ku3)
        for j in range(n):
            xt[j] = x[j] + h * kx3[j]
        for j in range(m):
            ut[j] = u[j] + h * ku3[j]
        eval_field(xt, ut, kx4, ku4)
        for j in range(n):
            x[j] = x[j] + h6 * (kx1[j] + 2.0 * kx2[j] + 2.0 * kx3[j] + kx4[j])
        for j in range(m):
            u[j] = u[j] + h6 * (ku1[j] + 2.0 * ku2[j] + 2.0 * ku3[j] + ku4[j])
        step = i + 1
        ok = True
        for j in range(n):
            if not isfinite(x[j]):
                ok = False
        for j in range(m):
            if not isfinite(u[j]):
                ok = False
        if not ok:
            res.blowup_time = t_end if step == n_tot else t0 + step * dt
            break
        if projected:
            for j in range(m):
                d = u[j] - hi[j]
                if d > max_violation:
                    max_violation = d
                d = lo[j] - u[j]
                if d > max_violation:
                    max_violation = d
        if (step % stride == 0 and step < n_tot) or (step == n_tot and include_final):
            record(step)
    res.max_violation = max_violation
    return res
