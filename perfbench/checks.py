"""Checks of the program's outputs against references computed here, apart
from the program, with numpy and scipy.

Each trajectory CSV and its `summary.csv` row are compared with:

- the exact solution of the affine closed loop (linear plant, quadratic
  cost, gradient law) from `scipy.linalg.expm`, propagated segment by
  segment, or else a `scipy.integrate.solve_ivp` integration of the closed
  loop field written here in numpy;
- the per-segment optimum: the numpy closed form for the affine-quadratic
  case, `scipy.optimize.minimize_scalar` over the box otherwise;
- `V = max(xi (x-x*)^T P (x-x*), ||u-u*||^2 / 2)` with `P` from
  `scipy.linalg.solve_continuous_lyapunov` (A^T P + P A = -I);
- the box, for the projected law: every sampled `u` lies in it;
- `final_error = ||u(t_end) - u*||` from the reference end state;
- the status: `ok` exactly when numpy finds the closed loop Hurwitz.

A check returns a list of failure messages, each starting with the name of
the check; an empty list means the gain passed.  Run as a script it checks
one output directory and prints one such list per gain as JSON:

    python3 perfbench/checks.py <scenario.yaml> <out-dir> <xi> <gain>...

The benchmark runs it in a separate process, so that numpy and scipy never
enter the process that launches the timed invocations: Linux carries the
launcher's peak memory into the child's `ru_maxrss`.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.optimize import minimize_scalar

#: Worst error of a sample as a share of the reference state's magnitude
#: there (max norm, floored at 1e-6 of the segment's largest).  The
#: fixed-step RK4 outputs stay below 2e-5 on every workload.
TRAJ_RTOL = 1e-4
#: CSV values carry 12 significant digits.
PRINT_RTOL = 1e-10
#: Bounded scalar search is exact to its x tolerance; the box is 1e-4 wide on
#: fig2, so this still tells the two corners apart by six orders.
USTAR_BOX_RTOL = 1e-6


@dataclass
class Loop:
    """Reference model of one scenario."""

    a: np.ndarray
    b: np.ndarray
    bw: np.ndarray
    c: np.ndarray
    sine: bool
    quadratic: bool
    q_u: float
    q_y: float
    a_weight: float
    mu4: float
    projected: bool
    beta: float
    lo: np.ndarray | None
    hi: np.ndarray | None
    starts: np.ndarray
    levels: np.ndarray
    t_end: float
    z0: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def affine(self) -> bool:
        return not self.sine and self.quadratic and not self.projected

    def sens0(self) -> np.ndarray:
        return -self.c @ np.linalg.solve(self.a, self.b)


def load_loop(text: str) -> Loop:
    doc = yaml.safe_load(text)
    plant, cost, ctrl, sim = doc["plant"], doc["cost"], doc["controller"], doc["sim"]
    mat = lambda rows: np.array(rows, dtype=float)
    a, b, bw, c = mat(plant["A"]), mat(plant["B"]), mat(plant["B_w"]), mat(plant["C"])
    quadratic = cost["kind"] == "quadratic"
    mu4 = float(cost.get("mu4", 0.0))
    q_u = float(cost["q_u"]) if quadratic else 0.0
    a_weight = 0.0 if quadratic else float(cost["a"])
    projected = ctrl["kind"] == "projected"
    lip = (2.0 * q_u if quadratic else 2.0 * a_weight) + mu4
    lo = hi = None
    if projected:
        lo = np.array(ctrl["box"]["lo"], dtype=float)
        hi = np.array(ctrl["box"]["hi"], dtype=float)
    n, m = a.shape[0], b.shape[1]
    z0 = np.concatenate([np.array(sim.get("x0", [0.0] * n), dtype=float),
                         np.array(sim.get("u0", [0.0] * m), dtype=float)])
    return Loop(
        a=a, b=b, bw=bw, c=c, sine=plant["kind"] == "sine", quadratic=quadratic,
        q_u=q_u, q_y=float(cost.get("q_y", 1.0)) if quadratic else 0.0,
        a_weight=a_weight, mu4=mu4, projected=projected,
        beta=float(ctrl.get("beta", 1.0 / lip)), lo=lo, hi=hi,
        starts=np.array([row[0] for row in doc["schedule"]], dtype=float),
        levels=np.array([row[1:] for row in doc["schedule"]], dtype=float),
        t_end=float(sim["t_end"]), z0=z0,
    )


# ---------- reference computations ----------

def steady_state(loop: Loop, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    effect = u + np.sin(u) if loop.sine else u
    return -np.linalg.solve(loop.a, loop.b @ effect + loop.bw @ w)


def reference_optimum(loop: Loop, w: np.ndarray) -> np.ndarray:
    if loop.b.shape[1] != 1:
        raise ValueError("reference optimum covers scalar inputs only")
    if loop.quadratic and not loop.sine:
        h = loop.sens0()
        h_off = loop.c @ steady_state(loop, np.zeros(1), w)
        u = -(2.0 * loop.q_y * h.T @ h_off) / (2.0 * loop.q_u + loop.mu4
                                                + 2.0 * loop.q_y * (h.T @ h)[0, 0])
        if loop.projected:
            u = np.clip(u, loop.lo, loop.hi)
        return u

    def phi(u: float) -> float:
        uu = np.array([u])
        y = loop.c @ steady_state(loop, uu, w)
        if loop.quadratic:
            return loop.q_u * u * u + loop.q_y * float(y @ y) + 0.5 * loop.mu4 * u * u
        return loop.a_weight * u * u + math.sqrt(y[0] * y[0] + 1.0) + 0.5 * loop.mu4 * u * u

    lo, hi = (loop.lo[0], loop.hi[0]) if loop.projected else (-1e6, 1e6)
    res = minimize_scalar(phi, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-9 * (hi - lo)})
    u = res.x
    for corner in (lo, hi):
        if phi(corner) <= phi(u):
            u = corner
    return np.array([u])


def field(loop: Loop, alpha: float, w: np.ndarray):
    """Closed-loop vector field z = (x, u) -> dz/dt for one disturbance level."""
    n = loop.n
    s0 = loop.sens0()
    drift = loop.bw @ w

    def f(_t, z):
        x, u = z[:n], z[n:]
        if loop.sine:
            dx = loop.a @ x + loop.b @ (u + np.sin(u)) + drift
            sens = s0 * (1.0 + np.cos(u))
        else:
            dx = loop.a @ x + loop.b @ u + drift
            sens = s0
        y = loop.c @ x
        if loop.quadratic:
            g = 2.0 * loop.q_u * u + loop.mu4 * u + sens.T @ (2.0 * loop.q_y * y)
        else:
            g = 2.0 * loop.a_weight * u + loop.mu4 * u + sens.T @ (y / np.sqrt(y * y + 1.0))
        if loop.projected:
            du = alpha * (np.clip(u - loop.beta * g, loop.lo, loop.hi) - u)
        else:
            du = -alpha * g
        return np.concatenate([dx, du])

    return f


def closed_loop_matrix(a, b, c, q_u, q_y, alpha, mu4=0.0) -> np.ndarray:
    """The gradient law on a linear plant with quadratic cost is affine in
    z = (x, u) with matrix [[A, B], [-2 alpha q_y H^T C, -alpha (2 q_u + mu4) I]],
    H = -C A^-1 B."""
    h = -c @ np.linalg.solve(a, b)
    m = b.shape[1]
    return np.block([[a, b], [-2.0 * alpha * q_y * h.T @ c,
                              -alpha * (2.0 * q_u + mu4) * np.eye(m)]])


def hurwitz(m: np.ndarray) -> bool:
    return bool(np.linalg.eigvals(m).real.max() < 0.0)


def affine_matrix(loop: Loop, alpha: float) -> np.ndarray:
    return closed_loop_matrix(loop.a, loop.b, loop.c, loop.q_u, loop.q_y, alpha, loop.mu4)


def is_hurwitz(loop: Loop, alpha: float) -> bool:
    """numpy verdict on the closed loop: the affine matrix when the loop is
    affine, else the Jacobian of the field at every segment's equilibrium."""
    if loop.affine:
        return hurwitz(affine_matrix(loop, alpha))
    size = loop.n + loop.b.shape[1]
    for w in loop.levels:
        u = reference_optimum(loop, w)
        z = np.concatenate([steady_state(loop, u, w), u])
        f = field(loop, alpha, w)
        jac = np.empty((size, size))
        for j in range(size):
            h = 1e-7 * max(1e-3, abs(z[j]))
            e = np.zeros(size)
            e[j] = h
            jac[:, j] = (f(0.0, z + e) - f(0.0, z - e)) / (2.0 * h)
        if not hurwitz(jac):
            return False
    return True


def reference_states(loop: Loop, alpha: float, t: np.ndarray, seg: np.ndarray):
    """Reference (x, u) at each sample time, and the exact state at t_end."""
    out = np.empty((len(t), len(loop.z0)))
    z = loop.z0.copy()
    bounds = list(loop.starts) + [loop.t_end]
    mat = affine_matrix(loop, alpha) if loop.affine else None
    for k, w in enumerate(loop.levels):
        t0, t1 = bounds[k], bounds[k + 1]
        rows = np.nonzero(seg == k)[0]
        taus = np.clip(t[rows], t0, t1) - t0
        if mat is not None:
            forcing = np.concatenate([loop.bw @ w, np.zeros(loop.b.shape[1])])
            zstar = -np.linalg.solve(mat, forcing)
            props = expm(mat[None, :, :] * np.append(taus, t1 - t0)[:, None, None])
            states = zstar + props @ (z - zstar)
            out[rows] = states[:-1]
            z = states[-1]
        else:
            t_eval = np.unique(np.append(taus, t1 - t0))
            sol = solve_ivp(field(loop, alpha, w), (0.0, t1 - t0), z, method="DOP853",
                            t_eval=t_eval, rtol=1e-12, atol=1e-18)
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            out[rows] = sol.y[:, np.searchsorted(t_eval, taus)].T
            z = sol.y[:, -1]
    return out, z


def lyapunov_matrix(loop: Loop) -> np.ndarray:
    return solve_continuous_lyapunov(loop.a.T, -np.eye(loop.n))


# ---------- reading outputs ----------

def read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def read_summary(path) -> dict[str, dict[str, str]]:
    with open(path, newline="") as fh:
        return {row["alpha"]: row for row in csv.DictReader(fh)}


# ---------- the check ----------

def check_gain(loop: Loop, alpha: float, row: dict[str, str],
               table: tuple[list[str], np.ndarray] | None, xi: float) -> list[str]:
    """All checks of one gain: its summary row and, when present, its CSV."""
    failures = []
    hurwitz = is_hurwitz(loop, alpha)
    status = row["status"]
    if (status == "ok") != hurwitz:
        failures.append(f"status: summary says {status!r} but numpy finds the closed loop "
                        f"{'Hurwitz' if hurwitz else 'not Hurwitz'}")
    if table is None:
        if status == "ok":
            failures.append("trajectory: status ok but no trajectory CSV")
        return failures

    header, data = table
    n, m = loop.n, loop.b.shape[1]
    p, q = loop.c.shape[0], loop.bw.shape[1]
    expected = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)]
                + [f"y{i + 1}" for i in range(p)] + [f"w{i + 1}" for i in range(q)]
                + ["V"] + [f"ustar{j + 1}" for j in range(m)])
    if header != expected or data.ndim != 2 or len(data) < 2:
        return failures + [f"trajectory: unexpected CSV layout {header}"]
    t = data[:, 0]
    x = data[:, 1:1 + n]
    u = data[:, 1 + n:1 + n + m]
    y = data[:, 1 + n + m:1 + n + m + p]
    w = data[:, 1 + n + m + p:1 + n + m + p + q]
    v = data[:, 1 + n + m + p + q]
    ustar = data[:, 2 + n + m + p + q:]
    if np.any(np.diff(t) < 0.0) or t[0] != 0.0 or t[-1] != loop.t_end:
        failures.append("trajectory: sample times are not increasing over [0, t_end]")
        return failures
    seg = np.searchsorted(loop.starts, t, side="right") - 1
    # A segment can end with a step far below the printed precision, so its
    # last sample prints with the next segment's start time.  Each segment
    # records its start once, so of equal times at a switch only the last
    # row belongs to the new segment.
    tail = np.append((t[1:] == t[:-1]) & (t[:-1] == loop.starts[seg[:-1]]) & (seg[:-1] > 0),
                     False)
    seg[tail] -= 1

    ref, z_end = reference_states(loop, alpha, t, seg)
    ref_y = ref[:, :n] @ loop.c.T
    opt = np.array([reference_optimum(loop, lv) for lv in loop.levels])
    p_mat = lyapunov_matrix(loop)
    got = np.hstack([x, u])
    for k in range(len(loop.levels)):
        rows = seg == k
        if not rows.any():
            failures.append(f"trajectory: segment {k + 1} has no samples")
            continue
        mag = np.abs(ref[rows]).max(axis=1)
        tol = TRAJ_RTOL * (mag + 1e-6 * mag.max()) + 1e-300
        err = np.maximum(np.abs(got[rows] - ref[rows]).max(axis=1),
                         np.abs(y[rows] - ref_y[rows]).max(axis=1))
        if np.any(err > tol):
            i = int(np.argmax(err / tol))
            failures.append(f"trajectory: segment {k + 1} at t = {t[rows][i]:.12g} deviates by "
                            f"{err[i]:.3g} from a state of size {mag[i]:.3g}")
        if np.any(np.abs(w[rows] - loop.levels[k]) > PRINT_RTOL * np.abs(loop.levels[k])):
            failures.append(f"trajectory: segment {k + 1} disturbance column is wrong")
        uk = opt[k]
        box_width = (loop.hi - loop.lo) if loop.projected else 0.0
        tol = np.maximum(PRINT_RTOL * np.abs(uk), USTAR_BOX_RTOL * box_width) + 1e-300
        if np.any(np.abs(ustar[rows] - uk) > tol):
            failures.append(f"ustar: segment {k + 1} has {ustar[rows][0][0]:.12g} against "
                            f"reference {uk[0]:.12g}")
        xs = steady_state(loop, uk, loop.levels[k])
        dx = x[rows] - xs
        du = u[rows] - uk
        vx = xi * np.einsum("ri,ij,rj->r", dx, p_mat, dx)
        vu = 0.5 * np.sum(du * du, axis=1)
        v_ref = np.maximum(vx, vu)
        # CSV rounding of x and u moves V by about its gradient times 1e-12 |z|.
        grad = (2.0 * xi * np.abs(dx @ p_mat).sum(axis=1) * np.abs(x[rows]).max(axis=1)
                + np.abs(du).sum(axis=1) * np.abs(u[rows]).max(axis=1))
        v_tol = 1e-7 * v_ref + 1e-10 * grad + 1e-300
        bad = np.abs(v[rows] - v_ref) > v_tol
        if bad.any():
            i = np.nonzero(bad)[0][0]
            failures.append(f"V: segment {k + 1} has {v[rows][i]:.12g} against reference "
                            f"{v_ref[i]:.12g}")
    if loop.projected and (np.any(u < loop.lo) or np.any(u > loop.hi)):
        failures.append(f"box: sampled u leaves [{loop.lo}, {loop.hi}]")

    if row["final_error"] != "":
        final_ref = float(np.linalg.norm(z_end[n:] - opt[-1]))
        final = float(row["final_error"])
        scale = max(np.abs(ref[seg == len(loop.levels) - 1]).max(), np.abs(z_end).max())
        if not abs(final - final_ref) <= TRAJ_RTOL * scale + PRINT_RTOL * final_ref:
            failures.append(f"final_error: summary has {final:.12g} against reference "
                            f"{final_ref:.12g}")
    return failures


def check_dir(loop: Loop, out: Path, gains: list[str], xi: float) -> list[list[str]]:
    """Failures per gain of one sweep output directory; gains are named as
    the CLI names their files."""
    try:
        summary = read_summary(out / "summary.csv")
    except OSError as exc:
        return [[f"invocation: {exc}"]] * len(gains)
    result = []
    for label in gains:
        if label not in summary:
            result.append([f"invocation: gain {label} missing from summary.csv"])
            continue
        csv_path = out / f"alpha_{label}.csv"
        table = read_table(csv_path) if csv_path.is_file() else None
        failures = check_gain(loop, float(label), summary[label], table, xi)
        result.append([f"{msg} (gain {label})" for msg in failures])
    return result


def main(argv: list[str]) -> int:
    scenario, out, xi, *gains = argv
    loop = load_loop(Path(scenario).read_text(encoding="utf-8"))
    print(json.dumps(check_dir(loop, Path(out), gains, float(xi))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
