import io
import math
import os
import random
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest

from ofo import engine, plants, sim
from ofo.certificate import assemble_constants, certify, required_regularization
from ofo.cli import _run_config, main
from ofo.controllers import BoxSet
from ofo.costs import QuadraticCost, RegularizedCost
from ofo.engine import pure
from ofo.errors import DivergenceError, InputError
from ofo.linalg import Matrix, vec_norm, vec_sub
from ofo.ode import dini_upper_estimate, integrate
from ofo.plants import LinearPlant, SinePlant
from ofo.sim import (
    DisturbanceSchedule,
    LyapunovSpec,
    RunConfig,
    csv_header,
    default_dt,
    envelope_check,
    fmt12,
    lyapunov_trace,
    optimal_input,
    sweep_alpha,
    write_csv,
)

from conftest import (
    bundled_scenario,
    closed_loop_field,
    random_hurwitz_rows,
    random_spd_rows,
)


def gradient_config(plant, cost, schedule, t_end, **kw):
    return RunConfig(plant=plant, cost=cost,
                     schedule=schedule, x0=(0.0, 0.0), u0=(0.0,), t_end=t_end, **kw)


class TestFmt12:
    def test_plain(self):
        assert fmt12(100.0) == "100"
        assert fmt12(0.1) == "0.1"
        assert fmt12(-0.0) == "0"

    def test_scientific_expanded(self):
        assert fmt12(5e-05) == "0.00005"
        assert fmt12(-5.44527e-05) == "-0.0000544527"
        assert "e" not in fmt12(1.234567890123e-8)

    def test_twelve_significant_digits(self):
        assert fmt12(1.0 / 3.0) == "0.333333333333"

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            fmt12(math.inf)


class TestSchedule:
    def test_validation(self):
        with pytest.raises(InputError, match="t = 0"):
            DisturbanceSchedule(((1.0, (0.0,)),))
        with pytest.raises(InputError, match="strictly increasing"):
            DisturbanceSchedule(((0.0, (0.0,)), (0.0, (1.0,))))
        with pytest.raises(InputError, match="same dimension"):
            DisturbanceSchedule(((0.0, (0.0,)), (1.0, (1.0, 2.0))))


class TestOptimalInput:
    def test_zero_disturbance_gives_origin(self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        assert abs(optimal_input(fast_plant, quad_cost, (0.0,))[0]) <= 1e-8
        box = BoxSet(lo=(-5e-5,), hi=(5e-5,))
        assert abs(optimal_input(slow_sine_plant, sqrt_cost, (0.0,), box=box)[0]) <= 1e-8

    def test_resonant_example_matches_closed_form(self, fast_plant, quad_cost):
        u = optimal_input(fast_plant, quad_cost, (10.0,))[0]
        h_gain = 10.0 / 101.0
        h_off = 110.0 / 101.0
        exact = -(2.0 * h_gain * h_off) / (0.02 + 2.0 * h_gain ** 2)
        assert u == pytest.approx(exact, abs=1e-6)
        assert exact == pytest.approx(-5.44527, abs=1e-5)
        y = fast_plant.steady_output((u,), (10.0,))[0]
        assert y == pytest.approx(0.54997, abs=1e-4)

    def test_sine_example_hits_active_bound(self, slow_sine_plant, sqrt_cost):
        box = BoxSet(lo=(-5e-5,), hi=(5e-5,))
        u = optimal_input(slow_sine_plant, sqrt_cost, (0.001,), box=box)[0]
        # oracle: vectorized grid search over the box at 1e-9 resolution
        grid = np.linspace(-5e-5, 5e-5, 100001)
        a = np.array(slow_sine_plant.a.to_rows())
        b = np.array(slow_sine_plant.b.to_rows())[:, 0]
        bw = np.array(slow_sine_plant.bw.to_rows())[:, 0]
        c = np.array(slow_sine_plant.c.to_rows())[0]
        states = -np.linalg.inv(a) @ (np.outer(b, grid + np.sin(grid))
                                      + np.outer(bw, np.full_like(grid, 0.001)))
        ys = c @ states
        phis = 11.0 * grid ** 2 + np.sqrt(ys ** 2 + 1.0)
        best = grid[int(np.argmin(phis))]
        assert best == pytest.approx(5e-5, abs=1e-9)
        assert u == 5e-5
        # the unconstrained minimizer lies outside the box
        u_free = optimal_input(slow_sine_plant, sqrt_cost, (0.001,))[0]
        assert u_free > 5e-5

    def test_symmetry(self, slow_sine_plant, sqrt_cost):
        box = BoxSet(lo=(-5e-5,), hi=(5e-5,))
        assert optimal_input(slow_sine_plant, sqrt_cost, (-0.001,), box=box)[0] == -5e-5

    def test_reduced_gradient_vanishes_at_unconstrained_optimum(
            self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        from ofo.costs import reduced_gradient

        cases = [(fast_plant, quad_cost, (10.0,)), (fast_plant, quad_cost, (-10.0,)),
                 (slow_sine_plant, sqrt_cost, (0.001,)), (slow_sine_plant, sqrt_cost, (-0.001,))]
        for plant, cost, w in cases:
            ustar = optimal_input(plant, cost, w)
            rg = reduced_gradient(cost, plant.sensitivity(ustar), ustar, plant.steady_output(ustar, w))
            assert abs(rg[0]) <= 1e-8, (w, rg)

    def test_search_agrees_with_closed_form(self):
        # the search path (bisection of the reduced gradient) against the
        # closed form, at the tolerance the optimizer once checked at run time
        scenario = bundled_scenario("fig1")
        cases = [(scenario.build_plant(), scenario.build_cost(), (w,), None) for w in (10.0, -10.0)]
        rng = random.Random(404)
        for _ in range(6):
            plant = LinearPlant(a=Matrix.from_rows(random_hurwitz_rows(rng, 3)),
                                b=Matrix.from_rows([[rng.uniform(-2, 2)] for _ in range(3)]),
                                bw=Matrix.from_rows([[rng.uniform(-2, 2)] for _ in range(3)]),
                                c=Matrix.from_rows([[rng.uniform(-2, 2) for _ in range(3)]]))
            cost = QuadraticCost(q_u=10 ** rng.uniform(-2, 1), q_y=10 ** rng.uniform(-1, 1))
            w = (rng.uniform(-10.0, 10.0),)
            cases.append((plant, cost, w, None))
            cases.append((plant, RegularizedCost(base=cost, mu4=0.5), w, None))
            cases.append((plant, cost, w, BoxSet(lo=(-0.1,), hi=(0.1,))))
        for plant, cost, w, box in cases:
            exact = sim._closed_form_optimum(plant, cost, w, box)
            found = sim._searched_optimum(plant, cost, w, box)
            assert abs(found - exact) <= 1e-6 * (1.0 + abs(exact)), (w, found, exact)
            assert optimal_input(plant, cost, w, box=box) == (exact,)

    def test_closed_form_with_vector_output(self):
        # a linear plant with two outputs: the closed form uses every output,
        # checked against a numpy solve of the normal equation and the search
        rng = random.Random(405)
        for _ in range(6):
            a = random_hurwitz_rows(rng, 3)
            b = [[rng.uniform(-2, 2)] for _ in range(3)]
            bw = [[rng.uniform(-2, 2)] for _ in range(3)]
            c = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(2)]
            plant = LinearPlant(a=Matrix.from_rows(a), b=Matrix.from_rows(b),
                                bw=Matrix.from_rows(bw), c=Matrix.from_rows(c))
            q_u, q_y, mu4 = 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-1, 1), 0.5
            w = (rng.uniform(-10.0, 10.0),)
            # oracle: y = h u + h_off with h = -C A^-1 B, h_off = -C A^-1 B_w w
            a_inv_c = -np.array(c) @ np.linalg.inv(np.array(a))
            h = (a_inv_c @ np.array(b))[:, 0]
            h_off = (a_inv_c @ np.array(bw))[:, 0] * w[0]
            for cost, reg in [(QuadraticCost(q_u=q_u, q_y=q_y), 0.0),
                              (RegularizedCost(base=QuadraticCost(q_u=q_u, q_y=q_y), mu4=mu4), mu4)]:
                u_np = float(np.linalg.solve([[2 * q_u + reg + 2 * q_y * h @ h]],
                                             [-2 * q_y * h @ h_off])[0])
                for box in (None, BoxSet(lo=(-0.1,), hi=(0.1,))):
                    expected = u_np if box is None else min(max(u_np, -0.1), 0.1)
                    u = optimal_input(plant, cost, w, box=box)[0]
                    assert u == pytest.approx(expected, rel=1e-9, abs=1e-12)
                    found = sim._searched_optimum(plant, cost, w, box)
                    assert abs(found - u) <= 1e-6 * (1.0 + abs(u)), (w, found, u)

    def test_scan_path_on_sine_plant_with_quadratic_cost(self):
        # the quadratic cost has no finite coupling modulus on a sine plant, so
        # the gap is not positive and the scan picks the bracket; the objective
        # has several local minima once |w| is large
        plant = SinePlant(a=Matrix.identity(2).scale(-1.0), b=Matrix.from_rows([[1.0], [0.0]]),
                          bw=Matrix.from_rows([[1.0], [0.0]]), c=Matrix.from_rows([[1.0, 0.0]]))
        cost = QuadraticCost(q_u=1.0, q_y=0.1)
        desc = cost.descriptor(*plant.steady_moduli)
        assert not desc.mu_phi - desc.ell_phi_u > 0.0
        grid = np.linspace(-200.0, 200.0, 400001)
        for w, box in [(-300.0, None), (-30.0, None), (0.0, None), (5.0, None),
                       (1000.0, None), (-300.0, BoxSet(lo=(-5.0,), hi=(20.0,))),
                       (30.0, BoxSet(lo=(0.5,), hi=(4.0,)))]:
            u = optimal_input(plant, cost, (w,), box=box)[0]
            found = cost.phi((u,), plant.steady_output((u,), (w,)))
            pts = grid if box is None else np.linspace(box.lo[0], box.hi[0], 100001)
            # oracle: y = u + sin u + w for this plant
            phis = pts ** 2 + 0.1 * (pts + np.sin(pts) + w) ** 2
            assert found <= float(phis.min()) * (1.0 + 1e-12), (w, u, pts[int(np.argmin(phis))])
            if box is not None:
                assert box.contains((u,))

    def test_multi_input_rejected(self):
        plant = LinearPlant(a=Matrix.identity(2).scale(-1.0),
                            b=Matrix.identity(2),
                            bw=Matrix.from_rows([[1.0], [1.0]]),
                            c=Matrix.from_rows([[1.0, 0.0]]))
        with pytest.raises(InputError, match="scalar"):
            optimal_input(plant, QuadraticCost(q_u=1.0), (0.0,))


class TestDefaultDt:
    def test_resonant_plant_values(self, fast_plant, quad_cost):
        # slow gains hit the upper clamp; stiff gains scale with alpha
        assert default_dt(fast_plant, quad_cost, 1.0) == 2.5e-3
        stiff = 0.02 + (20.0 / 101.0) * 1.0 * (10.0 / 101.0)
        assert default_dt(fast_plant, quad_cost, 3000.0) == pytest.approx(0.1 / (3000.0 * stiff), rel=1e-9)

    def test_clamped(self, fast_plant, quad_cost):
        assert default_dt(fast_plant, quad_cost, 1e12) == 1e-6


class TestSimulate:
    def test_equilibrium_residence(self, fast_plant, quad_cost):
        w = (10.0,)
        ustar = optimal_input(fast_plant, quad_cost, w)
        xstar = fast_plant.steady_state(ustar, w)
        schedule = DisturbanceSchedule(((0.0, w),))
        cfg = RunConfig(plant=fast_plant, cost=quad_cost,
                        schedule=schedule, x0=xstar, u0=ustar, t_end=5.0)
        traj, summary = cfg.run(100.0)
        drift = max(max(abs(a - b) for a, b in zip(x, xstar)) for x in traj.x)
        drift = max(drift, max(abs(u[0] - ustar[0]) for u in traj.u))
        assert drift <= 1e-8
        assert summary.final_error <= 1e-8

    def test_sweep_does_not_rebuild_the_plant(self, fast_plant, quad_cost, monkeypatch):
        # switching the disturbance builds no plant, so the Hurwitz gate runs
        # only when the plant itself is built
        calls = []
        real = plants.solve_lyapunov

        def counting(*args):
            calls.append(args)
            return real(*args)

        schedule = DisturbanceSchedule(((0.0, (10.0,)), (0.5, (-10.0,)),
                                        (1.0, (3.0,)), (1.5, (-3.0,))))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=2.0)
        monkeypatch.setattr(plants, "solve_lyapunov", counting)
        rows = sweep_alpha(cfg, [1.0, 10.0])
        assert all(row.error is None for row in rows)
        assert len(rows[0].trajectory.ustar) == 4
        assert calls == []

    def test_gradient_convergence_over_long_segment(self, fast_plant, quad_cost):
        # moderate gain, horizon longer than the closed-loop time constant
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=40.0)
        traj, summary = cfg.run(10.0)
        assert summary.final_error <= 1e-5

    def test_gradient_convergence_with_adequate_horizons(self, fast_plant, quad_cost):
        # exponential convergence holds per gain once the horizon covers the
        # slowest closed-loop mode (which is resonance-limited at high gain)
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        for alpha, t_end, tol in ((1.0, 200.0, 5e-3), (10.0, 40.0, 1e-5), (100.0, 80.0, 2e-2)):
            cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=t_end)
            _, summary = cfg.run(alpha)
            assert summary.final_error <= tol, (alpha, summary.final_error)

    def test_segment_boundaries_and_marks(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (5.0, (-10.0,))))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=8.0)
        traj, _ = cfg.run(10.0)
        assert traj.segment_marks[0] == 0
        k = traj.segment_marks[1]
        assert traj.t[k] == 5.0
        assert traj.w[k - 1] == (10.0,)
        assert traj.w[k] == (-10.0,)
        assert traj.t[-1] == 8.0
        assert all(t2 > t1 for t1, t2 in zip(traj.t, traj.t[1:]))

    def test_output_consistency_and_determinism(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (2.0, (-10.0,))))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=4.0)
        t1, _ = cfg.run(50.0)
        t2, _ = cfg.run(50.0)
        assert t1.t == t2.t and t1.x == t2.x and t1.u == t2.u
        c = np.array(fast_plant.c.to_rows())
        for x, y in zip(t1.x, t1.y):
            assert y[0] == (c @ np.array(x))[0]

    def test_divergence_reports_time_and_segment(self, fast_plant, quad_cost):
        # dt far beyond the explicit stability limit of the resonant plant
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=150.0, dt=1.0)
        with pytest.raises(DivergenceError) as err:
            cfg.run(1.0)
        assert err.value.segment == 1
        assert err.value.time is not None and 0.0 < err.value.time <= 150.0

    def test_u0_outside_box_warns(self, slow_sine_plant, sqrt_cost):
        schedule = DisturbanceSchedule(((0.0, (0.001,)),))
        cfg = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                        schedule=schedule, x0=(0.0, 0.0), u0=(1e-3,), t_end=1.0,
                        box=BoxSet(lo=(-5e-5,), hi=(5e-5,)))
        traj, _ = cfg.run(1.0)
        assert traj.warnings and "box" in traj.warnings[0]

    def test_step_halving_consistency_short(self, slow_sine_plant, sqrt_cost):
        schedule = DisturbanceSchedule(((0.0, (-0.001,)), (5.0, (0.001,))))
        box = BoxSet(lo=(-5e-5,), hi=(5e-5,))
        base = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                         schedule=schedule, x0=(0.0, 0.0), u0=(0.0,), t_end=10.0, box=box)
        dt = default_dt(slow_sine_plant, sqrt_cost, 10.0)
        t1, _ = replace(base, dt=dt).run(10.0)
        t2, _ = replace(base, dt=0.5 * dt).run(10.0)
        end1 = t1.seg_final_x[-1] + t1.seg_final_u[-1]
        end2 = t2.seg_final_x[-1] + t2.seg_final_u[-1]
        scale = max(1.0, vec_norm(end2))
        assert vec_norm(vec_sub(end1, end2)) <= 1e-6 * scale

    def test_bound_to_bound_switching_at_large_gain(self, slow_sine_plant, sqrt_cost):
        # with a large gain the projected input rides the box bounds
        schedule = DisturbanceSchedule(((0.0, (-0.001,)), (50.0, (0.001,))))
        cfg = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                        schedule=schedule, x0=(0.0, 0.0), u0=(0.0,), t_end=100.0,
                        box=BoxSet(lo=(-5e-5,), hi=(5e-5,)))
        traj, _ = cfg.run(100.0)
        us = [u[0] for u in traj.u]
        assert max(us) >= 5e-5 * (1.0 - 1e-6)
        assert min(us) <= -5e-5 * (1.0 - 1e-6)
        assert max(abs(v) for v in us) <= 5e-5 * (1.0 + 1e-6)


class TestKernels:
    def collect_specs(self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        captured = []
        orig = engine.run_segment

        def capture(spec):
            captured.append(spec)
            return orig(spec)

        engine.run_segment = capture
        try:
            sched1 = DisturbanceSchedule(((0.0, (10.0,)), (1.5, (-10.0,))))
            gradient_config(fast_plant, quad_cost, sched1, t_end=3.0).run(25.0)
            sched2 = DisturbanceSchedule(((0.0, (-0.001,)), (1.0, (0.001,))))
            cfg2 = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                             schedule=sched2, x0=(0.0, 0.0), u0=(0.0,), t_end=2.0,
                             box=BoxSet(lo=(-5e-5,), hi=(5e-5,)))
            cfg2.run(10.0)
            # sensitivity -0.7, not a power of two, so the grouping of
            # (sens0 * fac) * gy shows in the last bits
            sine_c = replace(slow_sine_plant, c=Matrix.from_rows([[0.7, 1.0]]))
            replace(cfg2, plant=sine_c).run(10.0)
            reg = RegularizedCost(base=quad_cost, mu4=0.7)
            gradient_config(fast_plant, reg, sched1, t_end=3.0).run(5.0)
            # RK4 at dt = 1 is unstable on this plant: the last spec blows up
            sched3 = DisturbanceSchedule(((0.0, (10.0,)),))
            with pytest.raises(DivergenceError):
                gradient_config(fast_plant, quad_cost, sched3, t_end=150.0, dt=1.0).run(1.0)
        finally:
            engine.run_segment = orig
        return captured

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_matches_pure_bitwise(self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        from ofo.engine import _speedup

        specs = self.collect_specs(fast_plant, slow_sine_plant, quad_cost, sqrt_cost)
        assert len(specs) >= 9
        assert pure.run_segment(specs[-1]).blowup_time is not None
        # every spec once more with V recorded: a P that is not symmetric, so
        # its index order shows, an anchor off the origin and a weight that is
        # not a power of two
        assert all(spec.n == 2 and spec.m == 1 for spec in specs)
        weighted = [replace(spec, lyap_xi=0.37, lyap_p=[1.3, -0.45, 0.2, 0.9],
                            xstar=[0.25, -1.5], ustar=[0.7]) for spec in specs]
        for spec in specs + weighted:
            a = pure.run_segment(spec)
            b = _speedup.run_segment(spec)
            assert len(a.vs) == (len(a.times) if spec.lyap_xi else 0)
            assert bits(a.times) == bits(b.times)
            assert bits(a.xs) == bits(b.xs)
            assert bits(a.us) == bits(b.us)
            assert bits(a.ys) == bits(b.ys)
            assert bits(a.vs) == bits(b.vs)
            assert bits(a.final_x) == bits(b.final_x)
            assert bits(a.final_u) == bits(b.final_u)
            assert bits([a.max_violation]) == bits([b.max_violation])
            assert a.blowup_time == b.blowup_time

    def test_kernel_matches_generic_integrator(self, fast_plant, slow_sine_plant, quad_cost,
                                               sqrt_cost):
        # dual route: the specialized stepper against the generic RK4 over the
        # closed-loop field written from the law's definition, for the linear
        # plant under the gradient law, the sine plant under the projected law
        # (the step target is clamped at the upper bound in 545 of the 601
        # samples) and a mu4-regularized cost
        dt = 0.005
        linear_w = DisturbanceSchedule(((0.0, (10.0,)),))
        sine_w = DisturbanceSchedule(((0.0, (0.01,)),))
        cases = [
            (gradient_config(fast_plant, quad_cost, linear_w, 3.0, dt=dt), 25.0),
            (RunConfig(plant=slow_sine_plant, cost=sqrt_cost, schedule=sine_w, x0=(0.0, 0.0),
                       u0=(0.0,), t_end=3.0, dt=dt, box=BoxSet(lo=(-5e-5,), hi=(5e-5,))), 10.0),
            (gradient_config(fast_plant, RegularizedCost(base=quad_cost, mu4=0.7), linear_w, 3.0,
                             dt=dt), 5.0),
        ]
        for config, alpha in cases:
            field = closed_loop_field(config, alpha, config.schedule.segments[0][1])
            _, states = integrate(field, config.x0 + config.u0, (0.0, config.t_end), dt)
            traj, _ = config.run(alpha)
            end_kernel = traj.seg_final_x[-1] + traj.seg_final_u[-1]
            assert np.array(end_kernel) == pytest.approx(np.array(states[-1]), rel=1e-12,
                                                         abs=1e-12)

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_kernel_rejects_malformed_spec(self, fast_plant, slow_sine_plant,
                                                    quad_cost, sqrt_cost):
        # sizes are checked before any pointer reaches the C code
        from ofo.engine import _speedup

        spec = self.collect_specs(fast_plant, slow_sine_plant, quad_cost, sqrt_cost)[0]
        for bad in (dict(a=spec.a[:-1]), dict(lo=[]), dict(x0=spec.x0 + [0.0]),
                    dict(record_stride=0), dict(n_full=-3)):
            with pytest.raises(ValueError):
                _speedup.run_segment(replace(spec, **bad))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_kernel_selected_when_cc_exists(self):
        assert engine.HAVE_COMPILED
        assert engine.kernel_name() == "compiled"
        assert engine.active_kernel() is not pure

    @staticmethod
    def fresh_python(args, cache, **env):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=dict(os.environ, XDG_CACHE_HOME=str(cache), **env))

    def test_fallback_without_cc_warns_and_writes_same_bytes(self, tmp_path):
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        cache = tmp_path / "cache"
        cache.mkdir()
        code = ("import sys; from ofo import engine; from ofo.cli import main; "
                "print(engine.kernel_name()); sys.exit(main(sys.argv[1:]))")
        fallback = self.fresh_python(["-c", code, "reproduce", "fig1", "--out",
                                      str(tmp_path / "pure")], cache, PATH=str(no_cc))
        assert fallback.returncode == 0, fallback.stderr
        assert fallback.stdout.splitlines()[0] == "pure-python"
        assert fallback.stderr.count("RuntimeWarning") == 1
        assert "compiled stepping kernel unavailable" in fallback.stderr
        assert main(["reproduce", "fig1", "--out", str(tmp_path / "selected")]) == 0
        names = sorted(os.listdir(tmp_path / "selected"))
        assert sorted(os.listdir(tmp_path / "pure")) == names
        for name in names:
            assert ((tmp_path / "pure" / name).read_bytes()
                    == (tmp_path / "selected" / name).read_bytes()), name

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_kernel_cache_is_private_and_reused(self, tmp_path):
        code = ["-c", "from ofo import engine; print(engine.kernel_name())"]
        first = self.fresh_python(code, tmp_path)
        assert (first.returncode, first.stdout.strip(), first.stderr) == (0, "compiled", "")
        cache = tmp_path / "ofo"
        assert cache.stat().st_mode & 0o777 == 0o700
        (lib,) = cache.iterdir()
        built = lib.stat().st_mtime_ns
        second = self.fresh_python(code, tmp_path)
        assert (second.returncode, second.stdout.strip()) == (0, "compiled")
        assert list(cache.iterdir()) == [lib]
        assert lib.stat().st_mtime_ns == built

        cache.chmod(0o770)
        shared = self.fresh_python(code, tmp_path)
        assert shared.stdout.strip() == "pure-python"
        assert "not private to this user" in shared.stderr


def bits(values):
    return struct.pack(f"{len(values)}d", *values)


def two_output_config(seed: int, **kw) -> RunConfig:
    """A seeded three-state linear plant with two outputs under the gradient law."""
    rng = random.Random(seed)
    plant = LinearPlant(a=Matrix.from_rows(random_hurwitz_rows(rng, 3)),
                        b=Matrix.from_rows([[0.5], [1.0], [-0.3]]),
                        bw=Matrix.from_rows([[1.0], [0.2], [0.0]]),
                        c=Matrix.from_rows([[1.0, 0.0, 0.5], [0.0, 1.0, -1.0]]))
    schedule = DisturbanceSchedule(((0.0, (3.0,)), (2.0, (-1.5,))))
    return RunConfig(plant=plant, cost=QuadraticCost(q_u=0.1, q_y=1.0), schedule=schedule,
                     x0=(0.0, 0.0, 0.0), u0=(0.0,), t_end=4.0, **kw)


class TestLyapunovMachinery:
    def test_kernel_v_matches_lyapunov_trace(self):
        fig1 = _run_config(bundled_scenario("fig1"))
        fig2 = bundled_scenario("fig2")
        rng = random.Random(11)
        weights = LyapunovSpec(xi=0.37, p=Matrix.from_rows(random_spd_rows(rng, 3)))
        runs = [(fig1, alpha) for alpha in (1.0, 10.0, 100.0, 1000.0)]
        runs += [(_run_config(fig2), fig2.alpha),
                 (two_output_config(11, lyapunov=weights), 5.0)]
        for config, alpha in runs:
            traj, _ = config.run(alpha)
            reference = lyapunov_trace(traj, config.lyapunov)
            assert len(traj.v) == len(traj.t) == len(reference)
            if sys.version_info < (3, 12):
                assert bits(traj.v) == bits(reference)
            else:
                # from Python 3.12 on, sum() compensates its rounding, so the
                # reference no longer adds strictly left to right
                assert traj.v == pytest.approx(reference, rel=1e-12, abs=0.0)

    def test_lyapunov_matrix_must_match_the_plant(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (1.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0,
                              lyapunov=LyapunovSpec(xi=1.0, p=Matrix.identity(3)))
        with pytest.raises(InputError, match="2x2"):
            cfg.run(1.0)

    def test_trace_values_at_anchor_and_unit_offsets(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (0.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0)
        traj, _ = cfg.run(1.0)
        spec = LyapunovSpec(xi=1.0, p=Matrix.identity(2))
        # anchor is (numerically) the origin here (w = 0); fabricate offsets
        traj.x = [(0.0, 0.0), (1.0, 0.0)]
        traj.u = [(0.0,), (0.0,)]
        traj.t = [0.0, 1.0]
        traj.seg_of = [0, 0]
        v = lyapunov_trace(traj, spec)
        assert v[0] == pytest.approx(0.0, abs=1e-16)
        assert v[1] == pytest.approx(1.0, abs=1e-9)

    def test_envelope_check_basics(self):
        assert envelope_check([0.0, 0.0, 0.0], [0.0, 1.0, 2.0], 1.0) == (True, 0.0)
        times = [0.01 * i for i in range(200)]
        fast = [math.exp(-2.0 * t) for t in times]
        ok, worst = envelope_check(fast, times, 1.0)
        assert ok and worst <= 1.0
        slow = [math.exp(-0.5 * t) for t in times]
        ok, worst = envelope_check(slow, times, 1.0)
        assert not ok and worst > 1.0

    def test_dini_decrease_on_certified_regularized_loop(self, fast_plant, quad_cost):
        # regularize until the certificate passes with real margin, then check
        # the sampled decay inequality along the closed loop
        k, _, _ = assemble_constants(fast_plant, quad_cost)
        mu4 = required_regularization(k, margin=0.5)
        reg = RegularizedCost(base=quad_cost, mu4=mu4)
        report = certify(fast_plant, reg, 1.0)
        assert report.certified
        spec = LyapunovSpec(xi=report.xi.chosen, p=report.p_matrix)
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (6.0, (-10.0,))))
        cfg = RunConfig(plant=fast_plant, cost=reg,
                        schedule=schedule, x0=(0.0, 0.0), u0=(0.0,), t_end=12.0,
                        lyapunov=spec)
        for alpha in (0.5, 5.0, 50.0):
            tau = report.tau(alpha)
            assert tau > 0.0
            traj, _ = cfg.run(alpha)
            total = ok = 0
            for seg in range(2):
                idx = list(traj.segment_indices(seg))
                for i in idx[:-1]:
                    estimate = dini_upper_estimate(traj.t, traj.v, i)
                    slack = tau * traj.v[i] * 0.05 + 1e-9
                    total += 1
                    if estimate <= -tau * traj.v[i] + slack:
                        ok += 1
            assert ok / total >= 0.99, f"alpha={alpha}: {ok}/{total}"

    def test_per_segment_decay_within_constant_disturbance(self, fast_plant, quad_cost):
        # same certified setup; V must obey its exponential envelope per segment
        k, _, _ = assemble_constants(fast_plant, quad_cost)
        reg = RegularizedCost(base=quad_cost, mu4=required_regularization(k, margin=0.5))
        report = certify(fast_plant, reg, 2.0)
        spec = LyapunovSpec(xi=report.xi.chosen, p=report.p_matrix)
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (6.0, (-10.0,))))
        cfg = RunConfig(plant=fast_plant, cost=reg,
                        schedule=schedule, x0=(0.0, 0.0), u0=(0.0,), t_end=12.0,
                        lyapunov=spec)
        traj, _ = cfg.run(2.0)
        tau = report.tau(2.0)
        for seg in range(2):
            idx = list(traj.segment_indices(seg))
            ok, worst = envelope_check([traj.v[i] for i in idx],
                                       [traj.t[i] for i in idx], tau, rel_slack=1e-3)
            assert ok, f"segment {seg}: worst ratio {worst}"


def reference_summarize(traj) -> tuple[float, float, float, float]:
    """summarize() as a plain loop over every sample."""
    settling = 0.0
    overshoot = 0.0
    for k in range(len(traj.segment_starts)):
        idx = list(traj.segment_indices(k))
        ustar = traj.ustar[k]
        band = 0.01 * (1.0 + vec_norm(ustar))
        settled_at = None
        for i in reversed(idx):
            if vec_norm(vec_sub(traj.u[i], ustar)) <= band:
                settled_at = i
            else:
                break
        if settled_at is not None and vec_norm(vec_sub(traj.seg_final_u[k], ustar)) <= band:
            seg_settling = traj.t[settled_at] - traj.segment_starts[k]
        else:
            seg_settling = traj.segment_ends[k] - traj.segment_starts[k]
        settling = max(settling, seg_settling)
        u_first = traj.u[idx[0]] if idx else traj.seg_final_u[k]
        for j in range(len(ustar)):
            direction = 1.0 if ustar[j] >= u_first[j] else -1.0
            for i in idx:
                excess = direction * (traj.u[i][j] - ustar[j])
                if excess > overshoot:
                    overshoot = excess
    final_error = vec_norm(vec_sub(traj.seg_final_u[-1], traj.ustar[-1]))
    return final_error, settling, overshoot, traj.max_box_violation


class TestSummaries:
    def test_matches_per_sample_loop_bitwise(self, fast_plant, quad_cost):
        fig1 = _run_config(bundled_scenario("fig1"))
        fig2 = bundled_scenario("fig2")
        settles = gradient_config(fast_plant, quad_cost,
                                  DisturbanceSchedule(((0.0, (10.0,)), (20.0, (-10.0,)))),
                                  t_end=40.0)
        # u* lies below u0 = 0, and the input overshoots it on the way down
        from_above = gradient_config(fast_plant, quad_cost,
                                     DisturbanceSchedule(((0.0, (10.0,)),)), t_end=5.0)
        runs = [(fig1, alpha) for alpha in (1.0, 10.0, 100.0, 1000.0)]
        runs += [(_run_config(fig2), fig2.alpha), (settles, 10.0), (two_output_config(3), 5.0),
                 (from_above, 100.0)]
        settled = 0
        for config, alpha in runs:
            traj, summary = config.run(alpha)
            settled += summary.settling_time < traj.segment_ends[0] - traj.segment_starts[0]
            assert bits([summary.final_error, summary.settling_time, summary.overshoot,
                         summary.max_violation]) == bits(reference_summarize(traj))
        assert settled >= 2
        assert traj.ustar[0][0] < 0.0 and summary.overshoot > 0.0

    def test_settled_run(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=40.0)
        traj, summary = cfg.run(10.0)
        assert summary.final_error <= 1e-5
        assert 0.0 < summary.settling_time < 40.0
        assert summary.max_violation == 0.0

    def test_unsettled_run_capped_at_segment_length(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=5.0)
        _, summary = cfg.run(1.0)
        assert summary.settling_time == 5.0


class TestHurwitzVerdict:
    @staticmethod
    def numpy_verdict(config: RunConfig, alpha: float) -> bool:
        plant = config.plant
        a, b, c = (np.array(mat.to_rows()) for mat in (plant.a, plant.b, plant.c))
        cost = config.cost
        mu4 = cost.mu4 if isinstance(cost, RegularizedCost) else 0.0
        base = cost.base if isinstance(cost, RegularizedCost) else cost
        h = -c @ np.linalg.solve(a, b)
        m = np.block([[a, b], [-2.0 * alpha * base.q_y * h.T @ c,
                               -alpha * (2.0 * base.q_u + mu4) * np.eye(b.shape[1])]])
        return bool(np.linalg.eigvals(m).real.max() < 0.0)

    def test_affine_loops_match_numpy(self):
        fig1 = _run_config(bundled_scenario("fig1"))
        configs = [fig1, replace(fig1, cost=RegularizedCost(base=fig1.cost, mu4=0.5))]
        configs += [two_output_config(seed) for seed in range(6)]
        verdicts = []
        for config in configs:
            for alpha in (1.0, 10.0, 100.0, 1000.0):
                verdict = config.hurwitz(alpha)
                assert verdict is self.numpy_verdict(config, alpha), (config.plant, alpha)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts
        assert [fig1.hurwitz(a) for a in (1.0, 10.0, 100.0, 1000.0)] == [True, True, True, False]

    def test_other_loops_have_no_verdict(self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        schedule = DisturbanceSchedule(((0.0, (1.0,)),))
        box = BoxSet(lo=(-1.0,), hi=(1.0,))
        assert _run_config(bundled_scenario("fig2")).hurwitz(10.0) is None
        assert gradient_config(fast_plant, sqrt_cost, schedule, 1.0).hurwitz(10.0) is None
        assert gradient_config(slow_sine_plant, quad_cost, schedule, 1.0).hurwitz(10.0) is None
        projected = replace(gradient_config(fast_plant, quad_cost, schedule, 1.0), box=box)
        assert projected.hurwitz(10.0) is None


class TestSweep:
    def test_single_alpha_matches_plain_run(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (2.0, (-10.0,))))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=4.0)
        rows = sweep_alpha(cfg, [50.0])
        traj, summary = cfg.run(50.0)
        assert rows[0].alpha == 50.0
        assert rows[0].error is None
        assert rows[0].trajectory.t == traj.t
        assert rows[0].trajectory.u == traj.u
        assert rows[0].summary == summary

    def test_rows_keep_input_order(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=2.0)
        alphas = [1.0, 10.0, 100.0]
        assert [r.alpha for r in sweep_alpha(cfg, alphas)] == alphas

    def test_per_row_errors_do_not_abort(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=150.0, dt=1.0,
                              max_records=200)
        rows = sweep_alpha(cfg, [1.0])
        assert rows[0].error is not None and "divergence" in rows[0].error

    def test_invalid_alphas(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(InputError):
                sweep_alpha(cfg, [1.0, bad])
        with pytest.raises(InputError):
            sweep_alpha(cfg, [])


class TestCsv:
    def test_header_and_shape(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        from ofo.certificate import derive_plant_constants

        spec = LyapunovSpec(xi=1.0, p=derive_plant_constants(fast_plant).p)
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0,
                              lyapunov=spec, max_records=50)
        traj, _ = cfg.run(10.0)
        buf = io.StringIO()
        write_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x1,x2,u1,y1,w1,V,ustar1"
        assert lines[0] == csv_header(2, 1, 1, 1)
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[5] == "10"
        assert "e" not in buf.getvalue() and "E" not in buf.getvalue()

    def test_v_required(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0)
        traj, _ = cfg.run(10.0)
        with pytest.raises(InputError):
            write_csv(traj, io.StringIO())

    @staticmethod
    def oracle_fmt12(x: float) -> str:
        # the per-field rule the CSV writer used to apply: "%.12g", then
        # Decimal expands an exponent form
        x = float(x)
        if not math.isfinite(x):
            raise InputError("cannot format a non-finite value")
        if x == 0.0:
            return "0"
        s = f"{x:.12g}"
        if "e" in s:
            s = format(Decimal(s), "f")
        return s

    @staticmethod
    def table(segments) -> sim.Trajectory:
        """A two-state, one-input, one-output trajectory from
        (w, ustar, rows) segments, each row a (t, x1, x2, u1, y1, V) tuple."""
        traj = sim.Trajectory(
            t=[], x=[], u=[], y=[], w=[], seg_of=[], v=[], segment_marks=[],
            segment_starts=[], segment_ends=[], ustar=[], xstar=[], seg_final_x=[],
            seg_final_u=[], max_box_violation=0.0, dt=0.1)
        for k, (w, ustar, rows) in enumerate(segments):
            traj.segment_marks.append(len(traj.t))
            traj.ustar.append((ustar,))
            for t, x1, x2, u1, y1, v in rows:
                traj.t.append(t)
                traj.x.append((x1, x2))
                traj.u.append((u1,))
                traj.y.append((y1,))
                traj.w.append((w,))
                traj.v.append(v)
                traj.seg_of.append(k)
        return traj

    def oracle_csv(self, traj) -> str:
        lines = [csv_header(2, 1, 1, 1)]
        for i in range(len(traj.t)):
            fields = [traj.t[i], *traj.x[i], *traj.u[i], *traj.y[i], *traj.w[i], traj.v[i],
                      *traj.ustar[traj.seg_of[i]]]
            lines.append(",".join(self.oracle_fmt12(f) for f in fields))
        return "\n".join(lines) + "\n"

    def assert_matches_oracle(self, segments):
        traj = self.table(segments)
        buf = io.StringIO()
        write_csv(traj, buf)
        got, want = buf.getvalue(), self.oracle_csv(traj)
        if got != want:
            # name the first differing line; a diff of megabytes takes minutes
            lines = zip(got.split("\n"), want.split("\n"))
            first = next((a, b) for a, b in lines if a != b)
            pytest.fail(f"row differs from the oracle: {first}")

    def test_rows_match_per_field_decimal_oracle(self):
        # 200k random bit patterns, 40k at a time, on 50-row segments
        rng = random.Random(2024)
        for _ in range(5):
            values = []
            while len(values) < 40000:
                x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                if math.isfinite(x):
                    values.append(x)
            step = 2 + 6 * 50
            self.assert_matches_oracle(
                [(chunk[0], chunk[1], list(zip(*[iter(chunk[2:])] * 6)))
                 for chunk in (values[i:i + step] for i in range(0, len(values), step))])

    def test_edge_values_match_per_field_decimal_oracle(self):
        # each value in every column: as w and ustar, then once per sample column
        edges = [-0.0, 0.0, 1e-4, -1e-4, 9.99999999999995e-5, 1e12, -1e12, 999999999999.5,
                 5e-324, -5e-324, 2.2250738585072e-308, 1.5e-310, 1.7e308, -1.7e308,
                 1e-5, 1e16, 0.1, -123456.789012345]
        self.assert_matches_oracle(
            [(e, e, [tuple(e if j == i else 0.5 for j in range(6)) for i in range(6)])
             for e in edges])

    def test_non_finite_rejected_in_every_column(self):
        for bad in (math.inf, -math.inf, math.nan):
            cases = [(bad, 0.5, [(0.0,) * 6]), (0.5, bad, [(0.0,) * 6])]
            cases += [(0.5, 0.5, [tuple(bad if j == i else 0.0 for j in range(6))])
                      for i in range(6)]
            for segment in cases:
                with pytest.raises(InputError, match="non-finite"):
                    write_csv(self.table([segment]), io.StringIO())
