"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import math
import os
import random

import numpy as np
import pytest

from ofo import engine
from ofo.certificate import (
    SimplifyingConstants,
    check_mu_bound,
    decay_rate,
    derive_dominance_params,
    feasible_xi,
    certify,
)
from ofo.cli import main
from ofo.controllers import BoxSet
from ofo.engine import pure
from ofo.errors import DivergenceError
from ofo.linalg import Matrix, solve_lyapunov, vec_sub
from ofo.sim import DisturbanceSchedule, optimal_input

from conftest import (
    bundled_scenario,
    bundled_scenario_path,
    final_state,
    inputs,
    integrate,
    proj_box,
    random_hurwitz_rows,
    replace,
    to_rows,
    vec_norm,
)


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def draw_constants(rng: random.Random) -> SimplifyingConstants:
    """Log-uniform draws spanning six orders of magnitude."""
    def lu(lo=-3.0, hi=3.0):
        return 10.0 ** rng.uniform(lo, hi)

    c3, d3 = sorted((lu(), lu()))
    mu_phi = lu()
    k = SimplifyingConstants(
        ell_f=lu(), ell_g=lu(), c3=c3, d3=d3, mu3=lu(), zeta3=lu(),
        mu_phi=mu_phi, ell_phi_u=mu_phi * rng.random() ** 3, ell_phi_y=lu())
    rng.random()  # drawn and unused, so each seed gives the sets c01 and c02 were set on
    return k


def draw_certified_constants(rng: random.Random) -> SimplifyingConstants:
    """Random constants with mu_phi placed above the certification threshold."""
    def lu(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    c3, d3 = sorted((lu(-1, 1), lu(-1, 1)))
    probe = SimplifyingConstants(
        ell_f=lu(-1, 1), ell_g=lu(-1, 1), c3=c3, d3=d3, mu3=lu(-1, 1),
        zeta3=lu(-1, 1), mu_phi=1.0, ell_phi_u=0.0, ell_phi_y=lu(-1, 1))
    _, rhs = check_mu_bound(probe)
    ell_phi_u = rhs * rng.uniform(0.0, 0.5)
    mu_phi = ell_phi_u + rhs * rng.uniform(1.1, 10.0)
    k = SimplifyingConstants(
        ell_f=probe.ell_f, ell_g=probe.ell_g, c3=probe.c3, d3=probe.d3,
        mu3=probe.mu3, zeta3=probe.zeta3, mu_phi=mu_phi, ell_phi_u=ell_phi_u,
        ell_phi_y=probe.ell_phi_y)
    rng.random()  # drawn and unused, so each seed gives the sets c01 and c02 were set on
    assert check_mu_bound(k)[0]
    return k


def test_c01_dominance_formula_exactness():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(1000):
        k = draw_constants(rng)
        p = derive_dominance_params(k)
        gap = k.mu_phi - k.ell_phi_u
        # independently arranged closed forms
        refs = (
            0.5 * (k.mu3 / k.d3),
            0.5 * (k.ell_f * k.zeta3) ** 2 / k.mu3,
            0.5 * gap,
            (k.ell_g * k.ell_phi_y) ** 2 / (2.0 * gap * k.c3),
        )
        for got, ref in zip((p.mu1, p.theta1, p.mu2, p.theta2), refs):
            worst = max(worst, abs(got - ref) / abs(ref))
    _criterion(1, worst <= 1e-12,
               f"four dominance closed forms on 1000 draws, worst relative error {worst:.2e}")


def test_c02_bound_interval_equivalence():
    rng = random.Random(202)
    certified_count = 0
    mismatches = 0
    for _ in range(1000):
        k = draw_constants(rng)
        certified, _ = check_mu_bound(k)
        interval = feasible_xi(derive_dominance_params(k))
        if certified != (interval is not None):
            mismatches += 1
        certified_count += certified
    _criterion(2, mismatches == 0 and 20 <= certified_count <= 980,
               f"scalar bound vs weight interval on 1000 draws: {mismatches} disagreements, "
               f"{certified_count} certified")


def test_c03_comparison_system_envelope():
    rng = random.Random(303)
    worst_ratio = 0.0
    runs = 0
    for _ in range(100):
        k = draw_certified_constants(rng)
        p = derive_dominance_params(k)
        xi = feasible_xi(p)
        assert xi is not None
        vx0, vu0 = rng.random(), rng.random()
        for alpha in (0.01, 1.0, 1000.0):
            tau = decay_rate(p, xi.chosen, alpha)
            assert tau > 0.0

            def field(state, p=p, alpha=alpha):
                vx, vu = state
                return (-p.mu1 * vx + p.theta1 * vu,
                        alpha * (p.theta2 * vx - p.mu2 * vu))

            gersh = max(p.mu1 + p.theta1, alpha * (p.mu2 + p.theta2))
            dt = 0.02 / gersh
            steps = min(1500, max(100, int(math.ceil(3.0 / (tau * dt)))))
            times, states = integrate(field, (vx0, vu0), (0.0, steps * dt), dt)
            v = [max(xi.chosen * vx, vu) for vx, vu in states]
            envelope = [v[0] * math.exp(-tau * t) for t in times]
            for val, bound in zip(v, envelope):
                if bound > 0.0:
                    worst_ratio = max(worst_ratio, val / bound)
                assert val <= bound * (1.0 + 1e-6)
            runs += 1
    _criterion(3, runs == 300,
               f"decay envelope held at every sample of {runs} comparison-system runs "
               f"(worst sample/envelope ratio {worst_ratio:.9f})")


def test_c04_resonant_scenario_convergence():
    scenario = bundled_scenario("fig1")
    config = scenario.config
    plant, cost = config.plant, config.cost

    # reference optima: the hand-derived closed form and optimal_input must agree to 1e-6
    agreement_ok = True
    for w in (10.0, -10.0):
        h_gain = 10.0 / 101.0
        h_off = (11.0 / 101.0) * w
        exact = -(2.0 * h_gain * h_off) / (0.02 + 2.0 * h_gain ** 2)
        found = optimal_input(plant, cost, (w,))
        agreement_ok &= abs(found - exact) <= 1e-6
    assert agreement_ok

    # numpy oracle: the gradient law on a linear plant with a quadratic cost
    # is the affine loop [[A, B], [-2 alpha q_y H^T C, -2 alpha q_u I]]
    a = np.array(to_rows(scenario.config.plant.a))
    b = np.array(to_rows(scenario.config.plant.b))
    c = np.array(to_rows(scenario.config.plant.c))
    h = -c @ np.linalg.inv(a) @ b

    def abscissa(alpha):
        loop = np.block([[a, b], [-2.0 * alpha * cost.q_y * h.T @ c,
                                  -2.0 * alpha * cost.q_u * np.eye(b.shape[1])]])
        return float(np.max(np.linalg.eigvals(loop).real))

    def final_errors(traj):
        errs = [vec_norm(vec_sub((seg.samples.final_u,), (seg.ustar,))) for seg in traj.segments]
        bands = [1e-2 * (1.0 + vec_norm((seg.ustar,))) for seg in traj.segments]
        return errs, bands

    stable_alphas, unstable_alpha = (1.0, 10.0, 100.0), 1000.0
    s = {alpha: abscissa(alpha) for alpha in stable_alphas + (unstable_alpha,)}
    assert all(s[alpha] < 0.0 for alpha in stable_alphas), s
    assert s[unstable_alpha] > 0.0, s

    # stable gains: the bundled levels, each held until the slowest mode has
    # decayed by a factor of 1e4
    levels = [w for _, w in config.schedule.segments]
    failures = []
    settling = {}
    detail = []
    for alpha in stable_alphas:
        seg_len = math.ceil(math.log(1e4) / -s[alpha])
        schedule = DisturbanceSchedule(tuple((k * seg_len, w) for k, w in enumerate(levels)))
        traj, summary = replace(config, schedule=schedule,
                                t_end=len(levels) * seg_len).run(alpha)
        settling[alpha] = summary.settling_time
        errs, bands = final_errors(traj)
        for k, (err, band) in enumerate(zip(errs, bands)):
            if err > band:
                failures.append(
                    f"alpha={alpha:g} segment {k + 1}: final error {err:.3g} > band {band:.3g}")
        detail.append(f"alpha={alpha:g}: abscissa {s[alpha]:.4g}, {seg_len}-unit segments, "
                      f"worst final error {max(errs):.3g}, settling {settling[alpha]:.4g}")

    # settling follows the slowest mode: strictly faster as -abscissa grows
    by_rate = sorted(stable_alphas, key=lambda alpha: -s[alpha])
    if not all(settling[lo] > settling[hi] for lo, hi in zip(by_rate, by_rate[1:])):
        failures.append(f"settling times {settling} not ordered as abscissas {s} predict")

    # unstable gain on the bundled 5-unit schedule: the error must grow
    try:
        traj, _ = config.run(unstable_alpha)
    except DivergenceError as exc:
        detail.append(f"alpha={unstable_alpha:g}: abscissa {s[unstable_alpha]:.4g}, "
                      f"diverged ({exc})")
    else:
        errs, bands = final_errors(traj)
        growing = all(e2 > e1 for e1, e2 in zip(errs, errs[1:]))
        if not (growing and errs[-1] > 100.0 * bands[-1]):
            failures.append(f"alpha={unstable_alpha:g} did not diverge: final errors {errs}")
        detail.append(f"alpha={unstable_alpha:g}: abscissa {s[unstable_alpha]:.4g}, "
                      f"segment-final errors {', '.join(f'{e:.3g}' for e in errs)}")

    _criterion(4, not failures,
               "gradient law on the resonant plant reaches the 1% band per segment for the "
               "Hurwitz gains and not for the unstable one; " + "; ".join(detail)
               + ("" if not failures else "; " + "; ".join(failures)))


def test_c05_box_invariance_and_active_bound():
    scenario = bundled_scenario("fig2")
    config = scenario.config

    # derived active-bound optima via dense grid over the box
    grid = np.linspace(-5e-5, 5e-5, 100001)
    a = np.array(to_rows(scenario.config.plant.a))
    b = np.array(to_rows(scenario.config.plant.b))[:, 0]
    bw = np.array(to_rows(scenario.config.plant.bw))[:, 0]
    c = np.array(to_rows(scenario.config.plant.c))[0]

    def grid_opt(w):
        states = -np.linalg.inv(a) @ (np.outer(b, grid + np.sin(grid))
                                      + np.outer(bw, np.full_like(grid, w)))
        phis = 11.0 * grid ** 2 + np.sqrt((c @ states) ** 2 + 1.0)
        return float(grid[int(np.argmin(phis))])

    expected = {w: grid_opt(w) for w in (-0.001, 0.001)}
    assert expected[0.001] == pytest.approx(5e-5, abs=1e-9)
    assert expected[-0.001] == pytest.approx(-5e-5, abs=1e-9)

    problems = []
    for alpha in (1.0, 10.0, 100.0):
        traj, summary = config.run(alpha)
        if summary.max_violation > 1e-12:
            problems.append(f"alpha={alpha:g}: box violation {summary.max_violation:.3e}")
        for u in inputs(traj):
            if abs(u) > 5e-5 + 1e-12:
                problems.append(f"alpha={alpha:g}: sample outside the box: {u!r}")
                break
        for k, seg in enumerate(traj.segments):
            fin, w = seg.samples.final_u, seg.w[0]
            if abs(fin - expected[w]) > 1e-7:
                problems.append(
                    f"alpha={alpha:g} segment {k + 1}: |u - {expected[w]:g}| = "
                    f"{abs(fin - expected[w]):.3e} > 1e-7")
    _criterion(5, not problems,
               "projected runs at alphas 1,10,100: every sample inside the box and "
               "segment-final inputs within 1e-7 of the active bounds"
               + ("" if not problems else "; " + "; ".join(problems)))


def test_c06_constrained_scenario_certifies(capsys):
    rc = main(["certify", bundled_scenario_path("fig2")])
    out = capsys.readouterr().out
    taus = []
    scenario = bundled_scenario("fig2")
    for alpha in (1.0, 10.0, 100.0):
        report = certify(scenario.config.plant, scenario.config.cost, alpha, scenario.overrides)
        taus.append(report.tau_at_alpha)
    _criterion(6, rc == 0 and "certified = true" in out and all(t > 0.0 for t in taus),
               f"certify exits 0 and tau(alpha) > 0 for alphas 1,10,100: {[f'{t:.4g}' for t in taus]}")


def test_c07_discrepancy_reported_not_asserted(capsys):
    rc = main(["certify", bundled_scenario_path("fig1")])
    out = capsys.readouterr().out
    scenario = bundled_scenario("fig1")
    k = None
    for line in out.splitlines():
        if line.startswith("mu_bound_rhs = "):
            k = float(line.split(" = ")[1])
    # independent recomputation of the bound from first principles (numpy)
    a = np.array(to_rows(scenario.config.plant.a))
    p = np.linalg.solve(np.kron(np.eye(2), a.T) + np.kron(a.T, np.eye(2)),
                        -np.eye(2).reshape(-1)).reshape(2, 2)
    lam = np.linalg.eigvalsh(0.5 * (p + p.T))
    ell_h = abs(float(np.array([1.0, 0.0]) @ np.linalg.inv(a) @ np.array([0.0, 1.0])))
    rhs_ref = math.sqrt(1.0 ** 2 * (2.0 * ell_h) ** 2 * lam[-1] * (2.0 * lam[-1]) ** 2 * 1.0
                        / (lam[0] * 1.0))
    ok = (rc == 3
          and "claimed_mu_bound_rhs = 0.0198" in out
          and k is not None and abs(k - rhs_ref) <= 1e-9 * rhs_ref)
    _criterion(7, ok,
               f"report prints claimed threshold 0.0198 alongside computed bound "
               f"{k!r} (independent recomputation {rhs_ref:.12g}); verdict follows the computed bound")


def test_c08_numerics_gates():
    # Lyapunov residuals on every solve
    rng = random.Random(808)
    worst_residual = 0.0
    mats = [np.array([[-1.0, 10.0], [-10.0, -1.0]]), np.array([[0.0, -0.1], [0.1, -0.1]])]
    mats += [np.array(random_hurwitz_rows(rng, rng.choice((2, 3, 4)))) for _ in range(30)]
    for a_np in mats:
        n = a_np.shape[0]
        for orient in (a_np, a_np.T):
            p_np = np.array(to_rows(solve_lyapunov(Matrix.from_rows(orient.tolist()))))
            res = float(np.max(np.abs(orient @ p_np + p_np @ orient.T + np.eye(n))))
            worst_residual = max(worst_residual, res)
    residual_ok = worst_residual <= 1e-10

    # fourth-order convergence on the resonant linear field
    import scipy.linalg

    a_np = mats[0]

    def field(state):
        return tuple(a_np @ np.array(state))

    ref = scipy.linalg.expm(a_np) @ np.array([1.0, 1.0])

    def end_error(dt):
        _, states = integrate(field, (1.0, 1.0), (0.0, 1.0), dt)
        return float(np.linalg.norm(np.array(states[-1]) - ref))

    ratio = end_error(0.01) / end_error(0.005)
    order_ok = 12.0 <= ratio <= 20.0

    # step-halving agreement on the bundled scenarios (stable gains), from
    # the step simulate takes (the projected law's at the run's beta),
    # relative to the end state's size
    from ofo.sim import default_dt

    worst_rel = 0.0
    for name, alphas in (("fig1", (1.0, 10.0, 100.0)), ("fig2", (1.0, 10.0, 100.0))):
        config = bundled_scenario(name).config
        beta = None
        if config.box is not None:
            beta = config.beta if config.beta is not None else 1.0 / config.cost.grad_u_lipschitz
        for alpha in alphas:
            dt = default_dt(config.plant, config.cost, alpha, beta)
            t1, _ = replace(config, dt=dt).run(alpha)
            t2, _ = replace(config, dt=0.5 * dt).run(alpha)
            end1 = final_state(t1)
            end2 = final_state(t2)
            rel = vec_norm(vec_sub(end1, end2)) / vec_norm(end2)
            worst_rel = max(worst_rel, rel)
    halving_ok = worst_rel <= 1e-6

    _criterion(8, residual_ok and order_ok and halving_ok,
               f"Lyapunov residual <= 1e-10 (worst {worst_residual:.2e}), "
               f"step-halving end-state ratio {ratio:.2f} in [12, 20], "
               f"dt vs dt/2 end states within {worst_rel:.2e} <= 1e-6")


def test_c09_projection_properties():
    rng = random.Random(909)
    boxes = (BoxSet(lo=-1.0, hi=1.0), BoxSet(lo=-0.5, hi=0.25), BoxSet(lo=0.0, hi=math.inf))
    nonexpansive_ok = idempotent_ok = True
    for _ in range(1000):
        for box in boxes:
            a, b = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
            pa, pb = proj_box(a, box), proj_box(b, box)
            idempotent_ok &= proj_box(pa, box) == pa
            nonexpansive_ok &= abs(pa - pb) <= abs(a - b)
    _criterion(9, nonexpansive_ok and idempotent_ok,
               "projection idempotent (exact) and nonexpansive on 1000 random pairs "
               "per interval")


def test_c10_reproduce_determinism(tmp_path, monkeypatch):
    # two ordinary runs, then one with the pure CSV row formatter in place of
    # the selected (compiled, when it loaded) one
    def run(figure, out_dir, formatter=None):
        with monkeypatch.context() as patch:
            if formatter is not None:
                patch.setattr(engine, "format_rows", formatter)
            assert main(["reproduce", figure, "--out", str(out_dir)]) == 0

    def snapshot(out_dir):
        return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}

    identical = True
    detail = []
    for figure in ("fig1", "fig2"):
        base = tmp_path / f"{figure}_a"
        again = tmp_path / f"{figure}_b"
        formatted = tmp_path / f"{figure}_c"
        run(figure, base)
        run(figure, again)
        run(figure, formatted, pure.format_rows)
        s0, s1, s2 = snapshot(base), snapshot(again), snapshot(formatted)
        same = (s0 == s1 == s2)
        identical &= same
        detail.append(f"{figure}: {len(s0)} files {'identical' if same else 'DIFFER'}")
    _criterion(10, identical,
               "reproduce outputs bit-identical across two runs and a third with the pure "
               f"CSV row formatter in place of the {engine.kernel_name()} one ({'; '.join(detail)})")
