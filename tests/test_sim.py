import io
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import time
from array import array
from decimal import Decimal

import numpy as np
import pytest
import yaml

from ofo import engine, plants, sim
from ofo.certificate import assemble_constants, certify, decay_rate, required_regularization
from ofo.cli import _run_config, main
from ofo.controllers import BoxSet
from ofo.costs import QuadraticCost, SqrtPlusCost
from ofo.engine import pure
from ofo.errors import DivergenceError, InputError, StepLimitError
from ofo.linalg import Matrix, vec_sub
from ofo.plants import LinearPlant, SinePlant
from ofo.sim import (
    DisturbanceSchedule,
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
    bundled_scenario_path,
    checkout_env,
    closed_loop_field,
    dini_upper_estimate,
    final_state,
    inputs,
    integrate,
    outputs,
    random_hurwitz_rows,
    replace,
    states,
    to_rows,
    vec_norm,
)


def gradient_config(plant, cost, schedule, t_end, **kw):
    return RunConfig(plant=plant, cost=cost,
                     schedule=schedule, x0=(0.0, 0.0), u0=0.0, t_end=t_end, **kw)


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
        assert abs(optimal_input(fast_plant, quad_cost, (0.0,))) <= 1e-8
        box = BoxSet(lo=-5e-5, hi=5e-5)
        assert abs(optimal_input(slow_sine_plant, sqrt_cost, (0.0,), box=box)) <= 1e-8

    def test_resonant_example_matches_closed_form(self, fast_plant, quad_cost):
        u = optimal_input(fast_plant, quad_cost, (10.0,))
        h_gain = 10.0 / 101.0
        h_off = 110.0 / 101.0
        exact = -(2.0 * h_gain * h_off) / (0.02 + 2.0 * h_gain ** 2)
        assert u == pytest.approx(exact, abs=1e-6)
        assert exact == pytest.approx(-5.44527, abs=1e-5)
        y = fast_plant.steady_output(u, (10.0,))[0]
        assert y == pytest.approx(0.54997, abs=1e-4)

    def test_sine_example_hits_active_bound(self, slow_sine_plant, sqrt_cost):
        box = BoxSet(lo=-5e-5, hi=5e-5)
        u = optimal_input(slow_sine_plant, sqrt_cost, (0.001,), box=box)
        # oracle: vectorized grid search over the box at 1e-9 resolution
        grid = np.linspace(-5e-5, 5e-5, 100001)
        a = np.array(to_rows(slow_sine_plant.a))
        b = np.array(to_rows(slow_sine_plant.b))[:, 0]
        bw = np.array(to_rows(slow_sine_plant.bw))[:, 0]
        c = np.array(to_rows(slow_sine_plant.c))[0]
        states = -np.linalg.inv(a) @ (np.outer(b, grid + np.sin(grid))
                                      + np.outer(bw, np.full_like(grid, 0.001)))
        ys = c @ states
        phis = 11.0 * grid ** 2 + np.sqrt(ys ** 2 + 1.0)
        best = grid[int(np.argmin(phis))]
        assert best == pytest.approx(5e-5, abs=1e-9)
        assert u == 5e-5
        # the unconstrained minimizer lies outside the box
        u_free = optimal_input(slow_sine_plant, sqrt_cost, (0.001,))
        assert u_free > 5e-5

    def test_symmetry(self, slow_sine_plant, sqrt_cost):
        box = BoxSet(lo=-5e-5, hi=5e-5)
        assert optimal_input(slow_sine_plant, sqrt_cost, (-0.001,), box=box) == -5e-5

    def test_reduced_gradient_vanishes_at_unconstrained_optimum(
            self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        from ofo.costs import reduced_gradient

        cases = [(fast_plant, quad_cost, (10.0,)), (fast_plant, quad_cost, (-10.0,)),
                 (slow_sine_plant, sqrt_cost, (0.001,)), (slow_sine_plant, sqrt_cost, (-0.001,))]
        for plant, cost, w in cases:
            ustar = optimal_input(plant, cost, w)
            rg = reduced_gradient(cost, plant.sensitivity(ustar), ustar, plant.steady_output(ustar, w))
            assert abs(rg) <= 1e-8, (w, rg)

    def test_search_agrees_with_closed_form(self):
        # the search path (bisection of the reduced gradient) against the
        # closed form, at the tolerance the optimizer once checked at run time
        scenario = bundled_scenario("fig1")
        cases = [(scenario.config.plant, scenario.config.cost, (w,), None) for w in (10.0, -10.0)]
        rng = random.Random(404)
        for _ in range(6):
            plant = LinearPlant(a=Matrix.from_rows(random_hurwitz_rows(rng, 3)),
                                b=Matrix.from_rows([[rng.uniform(-2, 2)] for _ in range(3)]),
                                bw=Matrix.from_rows([[rng.uniform(-2, 2)] for _ in range(3)]),
                                c=Matrix.from_rows([[rng.uniform(-2, 2) for _ in range(3)]]))
            cost = QuadraticCost(q_u=10 ** rng.uniform(-2, 1), q_y=10 ** rng.uniform(-1, 1))
            w = (rng.uniform(-10.0, 10.0),)
            cases.append((plant, cost, w, None))
            cases.append((plant, replace(cost, mu4=0.5), w, None))
            cases.append((plant, cost, w, BoxSet(lo=-0.1, hi=0.1)))
        for plant, cost, w, box in cases:
            exact = sim._closed_form_optimum(plant, cost, w, box)
            found = sim._searched_optimum(plant, cost, w, box)
            assert abs(found - exact) <= 1e-6 * (1.0 + abs(exact)), (w, found, exact)
            assert optimal_input(plant, cost, w, box=box) == exact

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
                              (QuadraticCost(q_u=q_u, q_y=q_y, mu4=mu4), mu4)]:
                u_np = float(np.linalg.solve([[2 * q_u + reg + 2 * q_y * h @ h]],
                                             [-2 * q_y * h @ h_off])[0])
                for box in (None, BoxSet(lo=-0.1, hi=0.1)):
                    expected = u_np if box is None else min(max(u_np, -0.1), 0.1)
                    u = optimal_input(plant, cost, w, box=box)
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
        assert not cost.grad_u_lipschitz - cost.coupling_moduli(*plant.steady_moduli)[0] > 0.0
        grid = np.linspace(-200.0, 200.0, 400001)
        for w, box in [(-300.0, None), (-30.0, None), (0.0, None), (5.0, None),
                       (1000.0, None), (-300.0, BoxSet(lo=-5.0, hi=20.0)),
                       (30.0, BoxSet(lo=0.5, hi=4.0))]:
            u = optimal_input(plant, cost, (w,), box=box)
            found = cost.phi(u, plant.steady_output(u, (w,)))
            pts = grid if box is None else np.linspace(box.lo, box.hi, 100001)
            # oracle: y = u + sin u + w for this plant
            phis = pts ** 2 + 0.1 * (pts + np.sin(pts) + w) ** 2
            assert found <= float(phis.min()) * (1.0 + 1e-12), (w, u, pts[int(np.argmin(phis))])
            if box is not None:
                assert box.contains(u)


class TestDefaultDt:
    def test_resonant_plant_values(self, fast_plant, quad_cost):
        # slow gains hit the upper clamp; stiff gains scale with alpha
        assert default_dt(fast_plant, quad_cost, 1.0) == 2.5e-3
        stiff = 0.02 + (20.0 / 101.0) * 1.0 * (10.0 / 101.0)
        assert default_dt(fast_plant, quad_cost, 3000.0) == pytest.approx(0.1 / (3000.0 * stiff), rel=1e-9)

    def test_refused_below_floor(self, fast_plant, quad_cost):
        # the step that keeps alpha * stiffness * dt <= 0.1 is refused, not
        # clamped, once it falls below 1e-6
        stiff = 0.02 + (20.0 / 101.0) * 1.0 * (10.0 / 101.0)
        edge = 0.1 / (stiff * 1e-6)
        assert default_dt(fast_plant, quad_cost, edge * (1.0 - 1e-9)) >= 1e-6
        for alpha in (edge * (1.0 + 1e-9), 1e12):
            with pytest.raises(StepLimitError, match="step-limited"):
                default_dt(fast_plant, quad_cost, alpha)

    # fast_plant with quad_cost: stiffness = L + ell_phi_y ||C|| ell_h, L = 0.02
    STIFF = 0.02 + (20.0 / 101.0) * 1.0 * (10.0 / 101.0)

    @staticmethod
    def run_steps(monkeypatch, config, alpha):
        """The step of every segment that simulate hands to the kernel."""
        seen = []
        real = engine.run_segment
        monkeypatch.setattr(engine, "run_segment", lambda spec: seen.append(spec.dt) or real(spec))
        sim.simulate(config, alpha)
        return seen

    @staticmethod
    def boxed(plant, cost, **kw):
        return gradient_config(plant, cost, DisturbanceSchedule(((0.0, (10.0,)),)), 1e-4,
                               box=BoxSet(lo=-1.0, hi=1.0), **kw)

    @pytest.mark.parametrize("beta", [None, 10.0])
    def test_projected_rule(self, fast_plant, quad_cost, monkeypatch, beta):
        # the projected field alpha (proj(u - beta g) - u) moves at most at
        # alpha (1 + beta stiffness), with beta the given stepsize or 1/L = 50
        config = self.boxed(fast_plant, quad_cost, beta=beta)
        run_beta = 50.0 if beta is None else beta
        alpha = 3000.0
        dt = default_dt(fast_plant, quad_cost, alpha, run_beta)
        assert dt == pytest.approx(0.1 / (alpha * (1.0 + run_beta * self.STIFF)), rel=1e-12)
        assert self.run_steps(monkeypatch, config, alpha) == [dt]

    def test_gradient_rule_unmoved(self, fast_plant, quad_cost, monkeypatch):
        config = gradient_config(fast_plant, quad_cost, DisturbanceSchedule(((0.0, (10.0,)),)), 1e-4)
        alpha = 3000.0
        (dt,) = self.run_steps(monkeypatch, config, alpha)
        assert dt == default_dt(fast_plant, quad_cost, alpha)
        assert dt == pytest.approx(0.1 / (alpha * self.STIFF), rel=1e-12)

    @pytest.mark.parametrize("beta", [None, 10.0])
    def test_projected_floor_edge(self, fast_plant, quad_cost, beta):
        # the projected step is refused, not clamped, below 1e-6 too
        config = self.boxed(fast_plant, quad_cost, beta=beta)
        run_beta = 50.0 if beta is None else beta
        edge = 0.1 / ((1.0 + run_beta * self.STIFF) * 1e-6)
        _, summary = config.run(edge * (1.0 - 1e-9))
        assert summary.max_violation == 0.0
        with pytest.raises(StepLimitError, match="step-limited"):
            config.run(edge * (1.0 + 1e-9))

    def test_fig2_step_halving_at_projected_step(self):
        # bundled fig2 on its first 2 time units (the switch moved to t = 1),
        # at the step simulate takes and at half of it.  fig2's states there
        # are about 1e-5, so the usual 1e-6 * max(1, |end|) alone would let
        # them differ by a tenth; they must also agree to 1e-6 of their size.
        config = bundled_scenario("fig2").config
        (_, w1), (_, w2) = config.schedule.segments
        config = replace(config, t_end=2.0,
                         schedule=DisturbanceSchedule(((0.0, w1), (1.0, w2))))
        beta = 1.0 / config.cost.grad_u_lipschitz
        for alpha in (1.0, 10.0, 100.0, 1000.0):
            dt = default_dt(config.plant, config.cost, alpha, beta)
            # config sets no dt, so its run takes the projected rule's step
            runs = [config.run(alpha), replace(config, dt=0.5 * dt).run(alpha)]
            end1, end2 = (final_state(traj) for traj, _ in runs)
            gap = vec_norm(vec_sub(end1, end2))
            assert gap <= 1e-6 * max(1.0, vec_norm(end2)), alpha
            assert gap <= 1e-6 * vec_norm(end2), alpha
            assert all(summary.max_violation == 0.0 for _, summary in runs)


class TestSimulate:
    def test_equilibrium_residence(self, fast_plant, quad_cost):
        w = (10.0,)
        ustar = optimal_input(fast_plant, quad_cost, w)
        xstar = fast_plant.steady_state(ustar, w)
        schedule = DisturbanceSchedule(((0.0, w),))
        cfg = RunConfig(plant=fast_plant, cost=quad_cost,
                        schedule=schedule, x0=xstar, u0=ustar, t_end=5.0)
        traj, summary = cfg.run(100.0)
        drift = max(max(abs(a - b) for a, b in zip(x, xstar)) for x in states(traj))
        drift = max(drift, max(abs(u - ustar) for u in inputs(traj)))
        assert drift <= 1e-8
        assert summary.final_error <= 1e-8

    @pytest.mark.parametrize("fault, fragment", [
        (dict(x0=(0.0,)), "x0 has length 1, expected 2"),
        (dict(u0=math.nan), "u0 must be finite"),
        (dict(schedule=DisturbanceSchedule(((0.0, (10.0, 1.0)),))),
         "disturbance dimension does not match"),
        (dict(t_end=0.5), "beyond t_end"),
        (dict(t_end=0.25), "beyond t_end"),
        (dict(t_end=math.inf), "t_end must be positive and finite"),
        (dict(t_end=math.nan), "t_end must be positive and finite"),
        (dict(dt=math.inf), "dt must be positive and finite"),
        (dict(dt=math.nan), "dt must be positive and finite"),
        (dict(beta=0.001), "only valid for the projected law"),
        (dict(plant=LinearPlant(a=Matrix.from_rows([[-1.0, 10.0], [-10.0, -1.0]]),
                                b=Matrix.from_rows([[0.0], [1.0]]),
                                bw=Matrix.from_rows([[1.0], [1.0]]), c=Matrix.identity(2)),
              cost=SqrtPlusCost(a=1.0)),
         "the sqrtplus cost requires a scalar output"),
        (dict(u0=-math.inf), "u0 must be finite"),
    ])
    def test_config_refuses_cross_field_faults_when_built(self, fast_plant, quad_cost,
                                                          fault, fragment):
        # a run's own faults are found once, when its configuration is built,
        # not again at every gain
        fields = dict(plant=fast_plant, cost=quad_cost, x0=(0.0, 0.0), u0=0.0, t_end=1.0,
                      schedule=DisturbanceSchedule(((0.0, (10.0,)), (0.5, (-10.0,)))))
        RunConfig(**fields)
        with pytest.raises(InputError, match=re.escape(fragment)):
            RunConfig(**{**fields, **fault})

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
        assert len(rows[0].trajectory.segments) == 4
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

    def test_segment_boundaries_and_marks(self, fast_plant, quad_cost, monkeypatch):
        # one Segment per schedule entry, holding the very result object the
        # kernel returned for it
        returned = []
        real = engine.run_segment

        def recording(spec):
            returned.append(real(spec))
            return returned[-1]

        monkeypatch.setattr(engine, "run_segment", recording)
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (5.0, (-10.0,))))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=8.0)
        traj, _ = cfg.run(10.0)
        assert len(returned) == len(traj.segments) == 2
        assert all(seg.samples is res for seg, res in zip(traj.segments, returned))
        assert ([(seg.start, seg.end, seg.w) for seg in traj.segments]
                == [(0.0, 5.0, (10.0,)), (5.0, 8.0, (-10.0,))])
        first, second = traj.segments
        assert first.samples.times[0] == 0.0 and first.samples.times[-1] < 5.0
        assert second.samples.times[0] == 5.0
        assert traj.t == [*first.samples.times, *second.samples.times]
        assert traj.t[-1] == 8.0
        assert all(t2 > t1 for t1, t2 in zip(traj.t, traj.t[1:]))

    def test_output_consistency_and_determinism(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (2.0, (-10.0,))))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=4.0)
        t1, _ = cfg.run(50.0)
        t2, _ = cfg.run(50.0)
        assert t1.t == t2.t and states(t1) == states(t2) and inputs(t1) == inputs(t2)
        c = np.array(to_rows(fast_plant.c))
        assert len(outputs(t1)) == len(t1.t)
        for x, y in zip(states(t1), outputs(t1)):
            assert y[0] == (c @ np.array(x))[0]

    def test_divergence_reports_time_and_segment(self, fast_plant, quad_cost):
        # dt far beyond the explicit stability limit of the resonant plant
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=150.0, dt=1.0)
        with pytest.raises(DivergenceError) as err:
            cfg.run(1.0)
        assert err.value.segment == 1
        assert err.value.time is not None and 0.0 < err.value.time <= 150.0

    def test_kernel_blowup_reports_time_and_segment(self, kernel, fast_plant, quad_cost):
        # at this gain the state overflows between the two records, so the
        # kernel's own blow-up time is reported, not a non-finite record
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=150.0, dt=1.0,
                              max_records=2)
        with pytest.raises(DivergenceError) as err:
            cfg.run(1e4)
        assert err.value.segment == 1
        assert err.value.time == 40.0
        assert str(err.value) == "divergence detected at t = 40 in segment 1"

    def test_overflowing_record_reports_time_and_segment(self, kernel, fast_plant, quad_cost):
        # xi = 1e308 with x0 away from x* overflows V at the first record
        # while every state stays finite, so the kernel runs on and the
        # record, not a blow-up time, is reported
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0, xi=1e308)
        with pytest.raises(DivergenceError) as err:
            replace(cfg, x0=(10.0, 10.0)).run(1.0)
        assert err.value.time == 0.0 and err.value.segment == 1
        assert str(err.value).endswith("a recorded output or V is not finite")

    def test_u0_outside_box_warns(self, slow_sine_plant, sqrt_cost):
        schedule = DisturbanceSchedule(((0.0, (0.001,)),))
        cfg = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                        schedule=schedule, x0=(0.0, 0.0), u0=1e-3, t_end=1.0,
                        box=BoxSet(lo=-5e-5, hi=5e-5))
        assert len(cfg.warnings) == 1 and "box" in cfg.warnings[0]
        assert replace(cfg, u0=0.0).warnings == ()

    def test_step_halving_consistency_short(self, slow_sine_plant, sqrt_cost):
        schedule = DisturbanceSchedule(((0.0, (-0.001,)), (5.0, (0.001,))))
        box = BoxSet(lo=-5e-5, hi=5e-5)
        base = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                         schedule=schedule, x0=(0.0, 0.0), u0=0.0, t_end=10.0, box=box)
        dt = default_dt(slow_sine_plant, sqrt_cost, 10.0)
        t1, _ = replace(base, dt=dt).run(10.0)
        t2, _ = replace(base, dt=0.5 * dt).run(10.0)
        end1 = final_state(t1)
        end2 = final_state(t2)
        scale = max(1.0, vec_norm(end2))
        assert vec_norm(vec_sub(end1, end2)) <= 1e-6 * scale

    def test_bound_to_bound_switching_at_large_gain(self, slow_sine_plant, sqrt_cost):
        # with a large gain the projected input rides the box bounds
        schedule = DisturbanceSchedule(((0.0, (-0.001,)), (50.0, (0.001,))))
        cfg = RunConfig(plant=slow_sine_plant, cost=sqrt_cost,
                        schedule=schedule, x0=(0.0, 0.0), u0=0.0, t_end=100.0,
                        box=BoxSet(lo=-5e-5, hi=5e-5))
        traj, _ = cfg.run(100.0)
        us = inputs(traj)
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
                             schedule=sched2, x0=(0.0, 0.0), u0=0.0, t_end=2.0,
                             box=BoxSet(lo=-5e-5, hi=5e-5))
            cfg2.run(10.0)
            # sensitivity -0.7, not a power of two, so the grouping of
            # (sens0 * fac) * gy shows in the last bits
            sine_c = replace(slow_sine_plant, c=Matrix.from_rows([[0.7, 1.0]]))
            replace(cfg2, plant=sine_c).run(10.0)
            reg = replace(quad_cost, mu4=0.7)
            gradient_config(fast_plant, reg, sched1, t_end=3.0).run(5.0)
            # the sqrt-plus branch with mu4 under both laws
            sqrt_reg = SqrtPlusCost(a=11.0, mu4=0.3)
            replace(cfg2, cost=sqrt_reg).run(10.0)
            gradient_config(slow_sine_plant, sqrt_reg, sched2, t_end=2.0).run(10.0)
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
        assert len(specs) >= 13
        assert pure.run_segment(specs[-1]).blowup_time is not None
        # every spec once more with V recorded: a P that is not symmetric, so
        # its index order shows, an anchor off the origin and a weight that is
        # not a power of two
        assert all(spec.n == 2 for spec in specs)
        weighted = [replace(spec, lyap_xi=0.37, lyap_p=[1.3, -0.45, 0.2, 0.9],
                            xstar=[0.25, -1.5], ustar=0.7) for spec in specs]
        for spec in specs + weighted:
            a = pure.run_segment(spec)
            b = _speedup.run_segment(spec)
            assert len(a.vs) == len(a.times)
            assert bits(a.times) == bits(b.times)
            assert bits(a.xs) == bits(b.xs)
            assert bits(a.us) == bits(b.us)
            assert bits(a.ys) == bits(b.ys)
            assert bits(a.vs) == bits(b.vs)
            assert bits(a.final_x) == bits(b.final_x)
            assert bits([a.final_u]) == bits([b.final_u])
            assert bits([a.max_violation]) == bits([b.max_violation])
            assert a.blowup_time == b.blowup_time

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_matches_pure_bitwise_on_wider_plants(self):
        # the compiled kernel sums four rows of A x, C x and P (x - x*) side
        # by side and the rows left over one at a time; every state count
        # from 3 to 9 and output counts up to 5 take both paths, under both
        # laws
        from ofo.engine import _speedup

        rng = random.Random(4321)
        specs = []
        for n, p in ((3, 1), (4, 2), (5, 1), (6, 5), (7, 3), (8, 1), (9, 4)):
            plant = LinearPlant(
                a=Matrix.from_rows(random_hurwitz_rows(rng, n)),
                b=Matrix.from_rows([[rng.uniform(-1.0, 1.0)] for _ in range(n)]),
                bw=Matrix.from_rows([[rng.uniform(-1.0, 1.0)] for _ in range(n)]),
                c=Matrix.from_rows([[rng.uniform(-1.0, 1.0) for _ in range(n)]
                                    for _ in range(p)]))
            schedule = DisturbanceSchedule(((0.0, (1.0,)), (0.5, (-0.7,))))
            config = RunConfig(plant=plant, cost=QuadraticCost(q_u=0.1, q_y=1.0),
                               schedule=schedule, x0=tuple(rng.uniform(-1.0, 1.0) for _ in range(n)),
                               u0=0.3, t_end=1.0, xi=0.37)
            for config, alpha in ((config, 7.0), (replace(config, box=BoxSet(lo=-0.2, hi=0.2)), 7.0)):
                captured = []
                real = engine.run_segment
                engine.run_segment = lambda spec: captured.append(spec) or real(spec)
                try:
                    config.run(alpha)
                finally:
                    engine.run_segment = real
                specs += captured
        assert {(spec.n, spec.p) for spec in specs} == {(3, 1), (4, 2), (5, 1), (6, 5), (7, 3),
                                                       (8, 1), (9, 4)}
        for spec in specs:
            a, b = pure.run_segment(spec), _speedup.run_segment(spec)
            for name in ("times", "xs", "us", "ys", "vs", "final_x"):
                assert bits(getattr(a, name)) == bits(getattr(b, name)), (spec.n, spec.p, name)
            assert bits([a.final_u, a.max_violation]) == bits([b.final_u, b.max_violation])

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_changed_constant_inputs_never_meet_a_stale_buffer(self, fast_plant, slow_sine_plant,
                                                               quad_cost, sqrt_cost):
        # the compiled kernel packs its read-only inputs afresh on every
        # call, so a list changed in place and one that differs only in the
        # sign of a zero each step as the pure kernel does on them
        from ofo.engine import _speedup

        spec = self.collect_specs(fast_plant, slow_sine_plant, quad_cost, sqrt_cost)[0]
        first = _speedup.run_segment(spec)
        assert bits(first.xs) == bits(pure.run_segment(spec).xs)
        spec.a[1] += 0.5           # the same list object, changed in place
        changed = _speedup.run_segment(spec)
        assert bits(changed.xs) == bits(pure.run_segment(spec).xs) != bits(first.xs)
        for name in ("a", "b", "c", "sens0", "lyap_p"):
            values = list(getattr(spec, name))
            zeroed = replace(spec, **{name: [0.0] + values[1:]})
            signed = replace(spec, **{name: [-0.0] + values[1:]})
            for case in (zeroed, signed, zeroed):
                got, want = _speedup.run_segment(case), pure.run_segment(case)
                assert all(bits(getattr(got, col)) == bits(getattr(want, col))
                           for col in ("xs", "us", "ys", "vs")), name

    def test_kernel_matches_generic_integrator(self, fast_plant, slow_sine_plant, quad_cost,
                                               sqrt_cost):
        # dual route: the specialized stepper against the generic RK4 over the
        # closed-loop field written from the law's definition, for the linear
        # plant under the gradient law, the sine plant under the projected law
        # (the step target is clamped at the upper bound in 545 of the 601
        # samples), and mu4-regularized quadratic and sqrt-plus costs, the
        # latter under both laws
        dt = 0.005
        linear_w = DisturbanceSchedule(((0.0, (10.0,)),))
        sine_w = DisturbanceSchedule(((0.0, (0.01,)),))
        sine_projected = RunConfig(plant=slow_sine_plant, cost=sqrt_cost, schedule=sine_w,
                                   x0=(0.0, 0.0), u0=0.0, t_end=3.0, dt=dt,
                                   box=BoxSet(lo=-5e-5, hi=5e-5))
        sqrt_reg = SqrtPlusCost(a=11.0, mu4=0.3)
        cases = [
            (gradient_config(fast_plant, quad_cost, linear_w, 3.0, dt=dt), 25.0),
            (sine_projected, 10.0),
            (gradient_config(fast_plant, replace(quad_cost, mu4=0.7), linear_w, 3.0, dt=dt), 5.0),
            (gradient_config(slow_sine_plant, sqrt_reg, sine_w, 3.0, dt=dt), 10.0),
            (replace(sine_projected, cost=sqrt_reg), 10.0),
        ]
        for config, alpha in cases:
            field = closed_loop_field(config, alpha, config.schedule.segments[0][1])
            _, generic = integrate(field, config.x0 + (config.u0,), (0.0, config.t_end), dt)
            traj, _ = config.run(alpha)
            end_kernel = final_state(traj)
            assert np.array(end_kernel) == pytest.approx(np.array(generic[-1]), rel=1e-12,
                                                         abs=1e-12)

    def test_sample_columns_are_arrays_of_their_records(self, fast_plant, slow_sine_plant,
                                                        quad_cost, sqrt_cost):
        # each kernel returns array('d') columns of exactly k records, here
        # for a segment with a shortened last step and its final record; a
        # second call leaves the first call's columns as they were, so no
        # buffer is shared or reused
        spec = self.collect_specs(fast_plant, slow_sine_plant, quad_cost, sqrt_cost)[0]
        n_full, stride = 103, 7
        last_dt = 0.3 * spec.dt
        spec = replace(spec, n_full=n_full, last_dt=last_dt, record_stride=stride,
                       t_end=spec.t0 + n_full * spec.dt + last_dt, include_final=True)
        k = 1 + n_full // stride + 1
        kernels = [pure.run_segment]
        if engine.HAVE_COMPILED:
            kernels.append(engine._speedup.run_segment)
        for run_segment in kernels:
            first = run_segment(spec)
            columns = [first.times, first.xs, first.us, first.ys, first.vs]
            assert all(type(col) is array and col.typecode == "d" for col in columns)
            assert [len(col) for col in columns] == [k, k * spec.n, k, k * spec.p, k]
            assert first.times[-1] == spec.t_end
            kept = [col.tobytes() for col in columns]
            second = run_segment(replace(spec, x0=[5.0, -5.0], u0=3.0))
            assert second.xs != first.xs
            assert [col.tobytes() for col in columns] == kept

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_kernel_rejects_malformed_spec(self, fast_plant, slow_sine_plant,
                                                    quad_cost, sqrt_cost, monkeypatch):
        # sizes are checked before any pointer reaches the C code: every
        # read-only input, one value short and one too many, and x0
        from ofo.engine import _speedup

        spec = self.collect_specs(fast_plant, slow_sine_plant, quad_cost, sqrt_cost)[0]
        bad_cases = [dict(x0=spec.x0 + [0.0]), dict(record_stride=0), dict(n_full=-3)]
        for name in ("a", "b", "drift", "c", "sens0", "lyap_p", "xstar"):
            values = list(getattr(spec, name))
            bad_cases += [{name: values[:-1]}, {name: values + [0.0]}]
        called = []
        monkeypatch.setattr(_speedup, "_run", lambda *args: called.append(args))
        for bad in bad_cases:
            with pytest.raises(ValueError, match="kernel"):
                _speedup.run_segment(replace(spec, **bad))
        assert called == []

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_kernel_source_compiles_cleanly_and_matches_its_signatures(self):
        # -Wextra's -Wunused-parameter catches a parameter the kernel no
        # longer reads, -Wconversion an implicit conversion that may change
        # a value, and the ctypes argument lists must have as many
        # entries as the C functions have parameters
        from ofo.engine import _speedup

        proc = subprocess.run(["cc", "-fsyntax-only", "-std=c99", "-pedantic-errors", "-Wall",
                               "-Wextra", "-Wconversion", "-Werror", _speedup.SOURCE],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with open(_speedup.SOURCE) as fh:
            source = fh.read()
        for name, argtypes in (("ofo_run_segment", _speedup._ARGTYPES),
                               ("ofo_format_rows", _speedup._FORMAT_ARGTYPES)):
            params = re.search(rf"\b{name}\(([^)]*)\)\s*{{", source).group(1)
            assert len(argtypes) == params.count(",") + 1, name

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_kernel_selected_when_cc_exists(self):
        assert engine.HAVE_COMPILED
        assert engine.kernel_name() == "compiled"
        assert engine.active_kernel() is not pure

    @staticmethod
    def fresh_python(args, cache, **env):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=checkout_env(XDG_CACHE_HOME=str(cache), **env))

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

    def test_pure_kernel_imported_only_as_the_fallback(self, tmp_path):
        # with the compiled kernel loaded, `import ofo.cli` leaves the
        # pure-Python kernel unimported; without cc it is the kernel
        code = ("import sys, ofo.cli; from ofo import engine; "
                "print(engine.kernel_name(), 'ofo.engine.pure' in sys.modules)")
        runs = {"selected": self.fresh_python(["-c", code], tmp_path / "cache")}
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        runs["fallback"] = self.fresh_python(["-c", code], tmp_path / "empty", PATH=str(no_cc))
        seen = {name: run.stdout.strip() for name, run in runs.items()}
        want = "compiled False" if shutil.which("cc") else "pure-python True"
        assert seen == {"selected": want, "fallback": "pure-python True"}, runs

    def test_certify_neither_builds_nor_loads_a_kernel(self, tmp_path, capsys):
        # certify never steps: without cc it prints no kernel warning and
        # leaves the cache empty; importing the CLI loads no compiled kernel
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        cache = tmp_path / "cache"
        cache.mkdir()
        path = bundled_scenario_path("fig1")
        run = self.fresh_python(["-m", "ofo.cli", "certify", path], cache, PATH=str(no_cc))
        assert main(["certify", path]) == 3
        assert (run.returncode, run.stdout, run.stderr) == (3, capsys.readouterr().out, "")
        assert list(cache.rglob("kernel-*.so")) == []
        code = "import sys, ofo.cli; print('ctypes' in sys.modules, 'ofo.engine._speedup' in sys.modules)"
        loaded = self.fresh_python(["-c", code], cache, PATH=str(no_cc))
        assert (loaded.stdout, loaded.stderr) == ("False False\n", "")

    def test_threads_that_ask_at_once_choose_the_kernel_once(self, tmp_path):
        # eight threads released together all get the one kernel, after one
        # build attempt and one warning
        no_cc = tmp_path / "bin"
        no_cc.mkdir()
        code = """if True:
            import subprocess, sys, threading
            builds = []
            run = subprocess.run
            subprocess.run = lambda args, *a, **kw: builds.append(args[0]) or run(args, *a, **kw)
            sys.setswitchinterval(1e-6)
            from ofo import engine
            barrier, seen = threading.Barrier(8), []
            def ask():
                barrier.wait()
                seen.append(engine.active_kernel().__name__)
            threads = [threading.Thread(target=ask) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            print(sum(thread.is_alive() for thread in threads), sorted(set(seen)), len(seen), builds)
        """
        run = self.fresh_python(["-c", code], tmp_path / "cache", PATH=str(no_cc))
        assert run.stdout == "0 ['ofo.engine.pure'] 8 ['cc']\n", run.stderr
        assert run.stderr.count("RuntimeWarning") == 1

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_kernel_cache_is_private_and_reused(self, tmp_path):
        code = ["-c", "from ofo import engine; print(engine.kernel_name())"]
        first = self.fresh_python(code, tmp_path)
        assert (first.returncode, first.stdout.strip(), first.stderr) == (0, "compiled", "")
        cache = tmp_path / "ofo"
        assert cache.stat().st_mode & 0o777 == 0o700
        (lib,) = cache.iterdir()
        built = lib.stat().st_ino
        # back-date it: the second import loads the same file, not a rebuild
        # (which would be a new file), and touches it
        os.utime(lib, (1e9, 1e9))
        second = self.fresh_python(code, tmp_path)
        assert (second.returncode, second.stdout.strip()) == (0, "compiled")
        assert list(cache.iterdir()) == [lib]
        assert lib.stat().st_ino == built
        assert lib.stat().st_mtime > time.time() - 3600

        cache.chmod(0o770)
        shared = self.fresh_python(code, tmp_path)
        assert shared.stdout.strip() == "pure-python"
        assert "not private to this user" in shared.stderr

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_build_drops_libraries_not_loaded_for_30_days(self, tmp_path):
        # a library another checkout still loads has been touched by that
        # load, so a build keeps it; one nobody loaded for 30 days goes
        cache = tmp_path / "ofo"
        cache.mkdir(mode=0o700)
        stale, fresh = cache / "kernel-00000001.so", cache / "kernel-00000002.so"
        for lib in (stale, fresh):
            lib.write_bytes(b"")
        month = time.time() - 31 * 24 * 3600
        os.utime(stale, (month, month))
        loaded = self.fresh_python(["-c", "from ofo import engine; print(engine.kernel_name())"],
                                   tmp_path)
        assert (loaded.returncode, loaded.stdout.strip(), loaded.stderr) == (0, "compiled", "")
        names = sorted(p.name for p in cache.iterdir())
        assert fresh.name in names and stale.name not in names and len(names) == 2


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
                     x0=(0.0, 0.0, 0.0), u0=0.0, t_end=4.0, **kw)


class TestLyapunovMachinery:
    def test_kernel_v_matches_lyapunov_trace(self, kernel):
        # V is recorded with the plant's own P on every run; a configuration
        # built without xi weighs it by 1
        fig1 = _run_config(bundled_scenario("fig1"))
        fig2 = bundled_scenario("fig2")
        runs = [(fig1, alpha) for alpha in (1.0, 10.0, 100.0, 1000.0)]
        runs += [(_run_config(fig2), fig2.alpha),
                 (two_output_config(11, xi=0.37), 5.0),
                 (two_output_config(11), 5.0)]
        assert runs[-1][0].xi == 1.0
        for config, alpha in runs:
            traj, _ = config.run(alpha)
            reference = lyapunov_trace(traj, config.xi, config.plant.lyapunov_p)
            v = [v for seg in traj.segments for v in seg.samples.vs]
            assert len(v) == len(traj.t) == len(reference)
            if sys.version_info < (3, 12):
                assert bits(v) == bits(reference)
            else:
                # from Python 3.12 on, sum() compensates its rounding, so the
                # reference no longer adds strictly left to right
                assert v == pytest.approx(reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, 0.0, -1.0])
    def test_weight_must_be_positive_and_finite(self, fast_plant, quad_cost, xi):
        schedule = DisturbanceSchedule(((0.0, (1.0,)),))
        with pytest.raises(InputError, match="xi must be positive and finite"):
            gradient_config(fast_plant, quad_cost, schedule, t_end=1.0, xi=xi)
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0)
        with pytest.raises(InputError, match="xi must be positive and finite"):
            cfg.with_xi(xi)

    def test_with_xi_changes_the_weight_alone(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (1.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0)
        weighted = cfg.with_xi(2.5)
        assert (weighted.xi, cfg.xi) == (2.5, 1.0)
        assert weighted == replace(cfg, xi=2.5) and weighted != cfg
        assert weighted.run(10.0)[0].segments[0].samples.vs == (
            replace(cfg, xi=2.5).run(10.0)[0].segments[0].samples.vs)

    def test_trace_values_at_anchor_and_unit_offsets(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (0.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0)
        traj, _ = cfg.run(1.0)
        # anchor is (numerically) the origin here (w = 0); fabricate offsets
        samples = engine.SegmentResult(times=[0.0, 1.0], xs=[0.0, 0.0, 1.0, 0.0], us=[0.0, 0.0])
        traj = sim.Trajectory(segments=[replace(traj.segments[0], samples=samples)])
        v = lyapunov_trace(traj, 1.0, Matrix.identity(2))
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
        k, _ = assemble_constants(fast_plant, quad_cost)
        mu4 = required_regularization(k, margin=0.5)
        reg = replace(quad_cost, mu4=mu4)
        report = certify(fast_plant, reg, 1.0)
        assert report.certified
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (6.0, (-10.0,))))
        cfg = RunConfig(plant=fast_plant, cost=reg,
                        schedule=schedule, x0=(0.0, 0.0), u0=0.0, t_end=12.0,
                        xi=report.xi.chosen)
        for alpha in (0.5, 5.0, 50.0):
            tau = decay_rate(report.params, report.xi.chosen, alpha)
            assert tau > 0.0
            traj, _ = cfg.run(alpha)
            total = ok = 0
            assert len(traj.segments) == 2
            for seg in traj.segments:
                times, vs = seg.samples.times, seg.samples.vs
                for i in range(len(times) - 1):
                    estimate = dini_upper_estimate(times, vs, i)
                    slack = tau * vs[i] * 0.05 + 1e-9
                    total += 1
                    if estimate <= -tau * vs[i] + slack:
                        ok += 1
            assert ok / total >= 0.99, f"alpha={alpha}: {ok}/{total}"

    def test_per_segment_decay_within_constant_disturbance(self, fast_plant, quad_cost):
        # same certified setup; V must obey its exponential envelope per segment
        k, _ = assemble_constants(fast_plant, quad_cost)
        reg = replace(quad_cost, mu4=required_regularization(k, margin=0.5))
        report = certify(fast_plant, reg, 2.0)
        schedule = DisturbanceSchedule(((0.0, (10.0,)), (6.0, (-10.0,))))
        cfg = RunConfig(plant=fast_plant, cost=reg,
                        schedule=schedule, x0=(0.0, 0.0), u0=0.0, t_end=12.0,
                        xi=report.xi.chosen)
        traj, _ = cfg.run(2.0)
        tau = decay_rate(report.params, report.xi.chosen, 2.0)
        assert len(traj.segments) == 2
        for k, seg in enumerate(traj.segments):
            ok, worst = envelope_check(seg.samples.vs, seg.samples.times, tau, rel_slack=1e-3)
            assert ok, f"segment {k}: worst ratio {worst}"


def reference_summarize(traj) -> tuple[float, float, float, float]:
    """summarize() as a plain loop over every sample, with vector norms."""
    settling = 0.0
    overshoot = 0.0
    max_violation = 0.0
    for seg in traj.segments:
        times = seg.samples.times
        us = [(u,) for u in seg.samples.us]
        final_u = (seg.samples.final_u,)
        ustar = (seg.ustar,)
        band = 0.01 * (1.0 + vec_norm(ustar))
        settled_at = None
        for i in reversed(range(len(us))):
            if vec_norm(vec_sub(us[i], ustar)) <= band:
                settled_at = i
            else:
                break
        if settled_at is not None and vec_norm(vec_sub(final_u, ustar)) <= band:
            seg_settling = times[settled_at] - seg.start
        else:
            seg_settling = seg.end - seg.start
        settling = max(settling, seg_settling)
        u_first = us[0] if us else final_u
        for j in range(len(ustar)):
            direction = 1.0 if ustar[j] >= u_first[j] else -1.0
            for u in us:
                excess = direction * (u[j] - ustar[j])
                if excess > overshoot:
                    overshoot = excess
        max_violation = max(max_violation, seg.samples.max_violation)
    last = traj.segments[-1]
    final_error = vec_norm(vec_sub((last.samples.final_u,), (last.ustar,)))
    return final_error, settling, overshoot, max_violation


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
            first = traj.segments[0]
            settled += summary.settling_time < first.end - first.start
            assert bits([summary.final_error, summary.settling_time, summary.overshoot,
                         summary.max_violation]) == bits(reference_summarize(traj))
        assert settled >= 2
        assert traj.segments[0].ustar < 0.0 and summary.overshoot > 0.0

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


def random_affine_loop(rng: np.random.Generator) -> RunConfig:
    """A seeded affine loop under the gradient law: n from 1 to 8 states, a
    time scale from 1e-2 to 1e2, about half of them with a lightly damped
    2 x 2 block mixed into the rest, one or two outputs, q_u from 1e-3 to 1
    and mu4 from 0 to 0.5."""
    def hurwitz_block(k):
        g = rng.normal(size=(k, k))
        return g - (np.linalg.eigvals(g).real.max() + rng.uniform(0.2, 1.0)) * np.eye(k)

    n = int(rng.integers(1, 9))
    if n >= 2 and rng.random() < 0.5:
        omega, zeta = rng.uniform(0.5, 5.0), rng.uniform(0.005, 0.05)
        a = np.zeros((n, n))
        a[:2, :2] = [[-zeta * omega, omega], [-omega, -zeta * omega]]
        if n > 2:
            a[2:, 2:] = hurwitz_block(n - 2)
        mix = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / np.sqrt(n)
        a = mix @ a @ np.linalg.inv(mix)
    else:
        a = hurwitz_block(n)
    a *= 10.0 ** rng.uniform(-2.0, 2.0)
    p = int(rng.integers(1, 3))
    plant = LinearPlant(a=Matrix.from_rows(a.tolist()),
                        b=Matrix.from_rows(rng.normal(size=(n, 1)).tolist()),
                        bw=Matrix.from_rows(rng.normal(size=(n, 1)).tolist()),
                        c=Matrix.from_rows(rng.normal(size=(p, n)).tolist()))
    cost = QuadraticCost(q_u=10.0 ** rng.uniform(-3.0, 0.0), q_y=1.0,
                         mu4=rng.uniform(0.0, 0.5))
    return RunConfig(plant=plant, cost=cost, schedule=DisturbanceSchedule(((0.0, (1.0,)),)),
                     x0=(0.0,) * n, u0=0.0, t_end=1.0)


class TestHurwitzVerdict:
    @staticmethod
    def loop_eigenvalues(config: RunConfig, alpha: float) -> np.ndarray:
        plant = config.plant
        a, b, c = (np.array(to_rows(mat)) for mat in (plant.a, plant.b, plant.c))
        cost = config.cost
        h = -c @ np.linalg.solve(a, b)
        m = np.block([[a, b], [-2.0 * alpha * cost.q_y * h.T @ c,
                               -alpha * (2.0 * cost.q_u + cost.mu4) * np.eye(b.shape[1])]])
        return np.linalg.eigvals(m)

    def numpy_verdict(self, config: RunConfig, alpha: float) -> bool:
        return bool(self.loop_eigenvalues(config, alpha).real.max() < 0.0)

    def test_random_affine_loops_match_numpy(self):
        # Routh's test on the loop polynomial against numpy eigenvalues; a
        # pair whose spectral abscissa is within 1e-7 of the spectrum's size
        # lies on the boundary to rounding and is not judged
        rng = np.random.default_rng(2024)
        gains = np.logspace(-3.0, 7.0, 41)
        judged, skipped, verdicts = 0, 0, set()
        for _ in range(200):
            config = random_affine_loop(rng)
            for alpha in gains:
                eig = self.loop_eigenvalues(config, float(alpha))
                abscissa = eig.real.max()
                if abs(abscissa) <= 1e-7 * np.abs(eig).max():
                    skipped += 1
                    continue
                verdict = config.hurwitz(float(alpha))
                assert verdict is bool(abscissa < 0.0), (to_rows(config.plant.a), alpha)
                verdicts.add(verdict)
                judged += 1
        assert verdicts == {True, False}
        assert skipped < 0.05 * judged

    def test_fig1_verdict_flips_at_its_crossing_gains(self):
        # fig1's loop leaves the Hurwitz set at alpha 111.5428 and returns at
        # 2263.7047
        fig1 = _run_config(bundled_scenario("fig1"))
        checks = {111.5: True, 111.6: False, 2263.6: False, 2263.8: True}
        assert {alpha: fig1.hurwitz(alpha) for alpha in checks} == checks
        assert {alpha: self.numpy_verdict(fig1, alpha) for alpha in checks} == checks

    def test_affine_loops_match_numpy(self):
        scenario = bundled_scenario("fig1")
        fig1 = _run_config(scenario)
        # a cost that already carries mu4 from its scenario, varied once more
        config_mu4 = replace(scenario.config, cost=replace(scenario.config.cost, mu4=0.2))
        fig1_mu4 = _run_config(replace(scenario, config=config_mu4))
        assert fig1_mu4.cost.mu4 == 0.2
        configs = [fig1, replace(fig1, cost=replace(fig1.cost, mu4=0.5)),
                   replace(fig1_mu4, cost=replace(fig1_mu4.cost, mu4=0.3))]
        configs += [two_output_config(seed) for seed in range(6)]
        verdicts = []
        for config in configs:
            for alpha in (1.0, 10.0, 100.0, 1000.0):
                verdict = config.hurwitz(alpha)
                assert verdict is self.numpy_verdict(config, alpha), (config.plant, alpha)
                verdicts.append(verdict)
        assert True in verdicts and False in verdicts
        assert [fig1.hurwitz(a) for a in (1.0, 10.0, 100.0, 1000.0)] == [True, True, True, False]

    def test_verdict_scales_with_the_plant(self):
        # scaling A, B and B_w by s scales the loop matrix at gain s alpha
        # by s, so the verdict at s alpha is the unscaled one at alpha and the
        # unstable gain interval scales by s: fig1's (111.54, 2263.70)
        # becomes (1115.4, 22637.0)
        s = 10.0
        fig1 = bundled_scenario("fig1").config
        p = fig1.plant
        scaled = replace(fig1, plant=LinearPlant(a=p.a.scale(s), b=p.b.scale(s),
                                                 bw=p.bw.scale(s), c=p.c))
        grid = [10.0 ** (k / 8.0) for k in range(-8, 41)]
        verdicts = [fig1.hurwitz(alpha) for alpha in grid]
        assert [scaled.hurwitz(s * alpha) for alpha in grid] == verdicts
        assert True in verdicts and False in verdicts

        def unstable_end(lo: float, hi: float) -> float:
            # numpy bisection of the spectral abscissa's sign change
            stable_lo = self.numpy_verdict(scaled, lo)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if self.numpy_verdict(scaled, mid) == stable_lo else (lo, mid)
            return lo

        assert round(unstable_end(1000.0, 2000.0), 1) == 1115.4
        assert round(unstable_end(2e4, 3e4), 1) == 22637.0
        checks = {1100.0: True, 1115.0: True, 1116.0: False, 1130.0: False,
                  22500.0: False, 22636.0: False, 22638.0: True, 22800.0: True}
        assert {alpha: scaled.hurwitz(alpha) for alpha in checks} == checks
        assert {alpha: self.numpy_verdict(scaled, alpha) for alpha in checks} == checks

    def test_other_loops_have_no_verdict(self, fast_plant, slow_sine_plant, quad_cost, sqrt_cost):
        schedule = DisturbanceSchedule(((0.0, (1.0,)),))
        box = BoxSet(lo=-1.0, hi=1.0)
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
        assert inputs(rows[0].trajectory) == inputs(traj)
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
        # RunConfig holds dt and t_end to the same 0 < x < inf gate
        for bad in (dict(dt=0.0), dict(dt=math.nan), dict(dt=math.inf),
                    dict(t_end=math.nan), dict(t_end=math.inf)):
            with pytest.raises(InputError, match="positive and finite"):
                sweep_alpha(replace(cfg, **bad), [1.0])
        with pytest.raises(InputError):
            sweep_alpha(cfg, [])


class TestReferenceCache:
    @staticmethod
    def levels_config() -> RunConfig:
        """The two-output plant over five segments at three distinct levels."""
        config = two_output_config(3)
        schedule = DisturbanceSchedule(((0.0, (3.0,)), (0.8, (-1.5,)), (1.6, (3.0,)),
                                        (2.4, (0.5,)), (3.2, (-1.5,))))
        return replace(config, schedule=schedule)

    @staticmethod
    def counting(monkeypatch) -> list:
        calls = []
        real = sim.optimal_input
        monkeypatch.setattr(sim, "optimal_input", lambda *a, **k: calls.append(a[2]) or real(*a, **k))
        return calls

    def test_sweep_solves_each_level_once(self, monkeypatch):
        calls = self.counting(monkeypatch)
        config = self.levels_config()
        rows = sweep_alpha(config, [1.0, 10.0, 100.0])
        assert all(row.error is None for row in rows)
        assert calls == [(3.0,), (-1.5,), (0.5,)]
        references = [[(seg.ustar, seg.xstar) for seg in row.trajectory.segments]
                      for row in rows]
        assert references[0] == references[1] == references[2]

    def test_replaced_copy_starts_empty(self, monkeypatch):
        # the cache is outside == and repr, and a copy with another cost
        # (or the same fields) works its references out again
        calls = self.counting(monkeypatch)
        config = self.levels_config()
        config.run(1.0)
        assert len(calls) == 3
        again = replace(config)
        assert again == config and repr(again) == repr(config)
        again.run(1.0)
        assert len(calls) == 6
        heavier = replace(config, cost=QuadraticCost(q_u=0.5, q_y=1.0))
        heavier.run(1.0)
        assert len(calls) == 9
        assert heavier.reference((3.0,))[0] != config.reference((3.0,))[0]
        assert "_references" not in repr(config)

    def test_cached_gains_match_fresh_runs_bitwise(self, kernel):
        # one configuration runs the gains in turn, sharing its references;
        # each gain is the run a configuration built for it alone gives
        shared = self.levels_config()
        for alpha in (1.0, 10.0, 100.0):
            cached = shared.run(alpha)[0]
            fresh = self.levels_config().run(alpha)[0]
            for a, b in zip(cached.segments, fresh.segments):
                assert (a.ustar, a.xstar, a.w) == (b.ustar, b.xstar, b.w)
                for name in ("times", "xs", "us", "ys", "vs", "final_x"):
                    assert bits(getattr(a.samples, name)) == bits(getattr(b.samples, name))

    def test_alternating_plants_match_fresh_processes(self, tmp_path):
        # two plants that differ in one entry of A, run in turn in one
        # process, write the bytes each writes in a process of its own
        doc = {"plant": {"kind": "linear", "A": [[-1.0, 10.0], [-10.0, -1.0]],
                         "B": [[0.0], [1.0]], "B_w": [[1.0], [1.0]], "C": [[1.0, 0.0]]},
               "cost": {"kind": "quadratic", "q_u": 0.01, "q_y": 1.0},
               "controller": {"kind": "gradient", "alpha": 10.0},
               "schedule": [[0.0, 10.0], [1.0, -10.0]],
               "sim": {"t_end": 2.0}}
        other = {**doc, "plant": {**doc["plant"], "A": [[-1.0, 10.0], [-10.0, -1.5]]}}
        paths = []
        for name, d in (("one", doc), ("two", other)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(d), encoding="utf-8")
            paths.append(path)
        fresh = []
        for path in paths:
            out = tmp_path / f"{path.stem}-fresh.csv"
            proc = subprocess.run([sys.executable, "-m", "ofo.cli", "simulate", str(path),
                                   "--out", str(out)], capture_output=True, env=checkout_env())
            assert proc.returncode == 0, proc.stderr
            fresh.append(out.read_bytes())
        assert fresh[0] != fresh[1]
        for turn in range(4):
            out = tmp_path / f"turn{turn}.csv"
            assert main(["simulate", str(paths[turn % 2]), "--out", str(out)]) == 0
            assert out.read_bytes() == fresh[turn % 2], turn


class TestCsv:
    def test_header_and_shape(self, fast_plant, quad_cost):
        schedule = DisturbanceSchedule(((0.0, (10.0,)),))
        cfg = gradient_config(fast_plant, quad_cost, schedule, t_end=1.0, max_records=50)
        traj, _ = cfg.run(10.0)
        buf = io.BytesIO()
        write_csv(traj, buf)
        text = buf.getvalue().decode("ascii")
        lines = text.splitlines()
        assert lines[0] == "t,x1,x2,u1,y1,w1,V,ustar1"
        assert lines[0] == csv_header(2, 1, 1)
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[5] == "10"
        assert "e" not in text and "E" not in text

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
        traj = sim.Trajectory()
        for w, ustar, rows in segments:
            t, x1, x2, u1, y1, v = (list(column) for column in zip(*rows))
            samples = engine.SegmentResult(times=t, xs=[x for pair in zip(x1, x2) for x in pair],
                                           us=u1, ys=y1, vs=v)
            traj.segments.append(sim.Segment(start=t[0], end=t[-1], w=(w,), ustar=ustar,
                                             xstar=(0.0, 0.0), samples=samples))
        return traj

    def oracle_csv(self, segments) -> str:
        lines = [csv_header(2, 1, 1)]
        for w, ustar, rows in segments:
            for t, x1, x2, u1, y1, v in rows:
                fields = [t, x1, x2, u1, y1, w, v, ustar]
                lines.append(",".join(self.oracle_fmt12(f) for f in fields))
        return "\n".join(lines) + "\n"

    @staticmethod
    def formatters() -> list:
        """The CSV row formatters to check: the pure one, and the compiled
        one whenever it loaded."""
        found = [pure.format_rows]
        if engine.HAVE_COMPILED:
            found.append(engine._speedup.format_rows)
        return found

    @staticmethod
    def csv_with(formatter, traj, monkeypatch) -> str:
        monkeypatch.setattr(engine, "format_rows", formatter)
        buf = io.BytesIO()
        write_csv(traj, buf)
        return buf.getvalue().decode("ascii")

    def assert_matches_oracle(self, segments, monkeypatch):
        traj = self.table(segments)
        want = self.oracle_csv(segments)
        for formatter in self.formatters():
            got = self.csv_with(formatter, traj, monkeypatch)
            if got != want:
                # name the first differing line; a diff of megabytes takes minutes
                lines = zip(got.split("\n"), want.split("\n"))
                first = next((a, b) for a, b in lines if a != b)
                pytest.fail(f"{formatter.__module__}: row differs from the oracle: {first}")

    def assert_fields_match_printf(self, values):
        # each value as one sample field of two-state, one-output rows
        # (t, x1, x2, u1, y1, V), against "%.12g" with its exponent form
        # expanded by plain_field
        values = [float(x) for x in values]
        values += [0.5] * (-len(values) % 6)
        samples = engine.SegmentResult(times=values[0::6], xs=[x for i in range(0, len(values), 6)
                                                               for x in values[i + 1:i + 3]],
                                       us=values[3::6], ys=values[4::6], vs=values[5::6])
        want = [pure.plain_field("%.12g" % x) for x in values]
        for formatter in self.formatters():
            lines = formatter(samples, 2, 1, "7", "-3").decode("ascii").split("\n")
            assert lines.pop() == ""
            got = [f for line in lines for i, f in enumerate(line.split(",")) if i not in (5, 7)]
            assert len(got) == len(values), formatter.__module__
            bad = [(x, a, b) for x, a, b in zip(values, got, want) if a != b]
            assert not bad, f"{formatter.__module__}: {len(bad)} fields differ, first {bad[0]}"

    def test_exact_decimal_ties_match_printf(self):
        # a 13-digit integer ending in 5 is a tie at 12 digits: as it is,
        # scaled up to 1e16, as r / 2^j, and scaled to the nearest double
        # into the compiled formatter's division range (|x| >= 1e12) and its
        # two-rounding range (|x| < 1e-11), with both float neighbours of each
        rng = random.Random(1313)
        ties = []
        for _ in range(2000):
            tie = rng.randrange(10 ** 11, 10 ** 12) * 10 + 5
            ties += [tie * 10 ** s for s in range(4)]
            ties += [float(f"{tie}e{rng.randrange(0, 22)}"),
                     float(f"{tie}e{rng.randrange(-45, -23)}")]
            for j in (1, 2, 3):
                odd = rng.randrange(10 ** 12 // 5 ** j + 1, 10 ** 13 // 5 ** j) | 1
                ties.append(odd * 5 ** j / 10 ** j)  # odd / 2^j, exactly
        values = [y for x in ties for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
        self.assert_fields_match_printf(values + [-x for x in values])

    @staticmethod
    def carries_and_edges() -> list[float]:
        """Carries into the next power of ten, and both sides of each edge
        of the compiled formatter's product path |x| 10^k, whose values
        outside go through snprintf: k = 44 from 2^-109 on, k = 22 to 23 at
        2^-36, and k = -22 below 2^113, where from just above 1e34 on the
        next product, k = -23, is out of range; each with both float
        neighbours and both signs."""
        carries = [999999999999.5, 9.99999999999995e-5, 9.999999999995, 99999999999.95,
                   9.999999999995e15, 9.999999999995e-11, 9.999999999995e37,
                   9.999999999995e-30, 9.9999999999996e-30, 9.999999999995e-33,
                   9.9999999999996e-33, 9.999999999995e33, 9.9999999999996e33]
        edges = [2.0 ** -109, 1e-33, 2.0 ** -36, 1e-11, 1e34, 2.0 ** 113, 1e-4, 1e12, 1.7e38]
        values = [y for x in carries + edges
                  for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf))]
        return values + [-x for x in values]

    def test_rounding_carries_and_exact_range_edges_match_printf(self):
        self.assert_fields_match_printf(self.carries_and_edges())

    def test_log_uniform_magnitudes_match_printf(self):
        rng = random.Random(4040)
        self.assert_fields_match_printf([rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-25.0, 40.0)
                                         for _ in range(100_000)])

    @staticmethod
    def random_bit_segments():
        """200k random bit patterns, 40k at a time, on 50-row segments."""
        rng = random.Random(2024)
        for _ in range(5):
            values = []
            while len(values) < 40000:
                x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                if math.isfinite(x):
                    values.append(x)
            step = 2 + 6 * 50
            yield [(chunk[0], chunk[1], list(zip(*[iter(chunk[2:])] * 6)))
                   for chunk in (values[i:i + step] for i in range(0, len(values), step))]

    @staticmethod
    def edge_segments():
        """Each edge value in every column: as w and ustar, then once per
        sample column.  5e-324 expands to 323 zeros, 1e12 and 1.5e300 have
        positive exponents, and -0 lands in the first (t) and the last
        (ustar) column."""
        edges = [-0.0, 0.0, 1e-4, -1e-4, 9.99999999999995e-5, 1e12, -1e12, 999999999999.5,
                 5e-324, -5e-324, 2.2250738585072e-308, 1.5e-310, 1.7e308, -1.7e308,
                 1e-5, -1e-5, 1e16, 1.5e300, 0.1, -123456.789012345]
        return [(e, e, [tuple(e if j == i else 0.5 for j in range(6)) for i in range(6)])
                for e in edges]

    def test_rows_match_per_field_decimal_oracle(self, monkeypatch):
        for segments in self.random_bit_segments():
            self.assert_matches_oracle(segments, monkeypatch)

    def test_edge_values_match_per_field_decimal_oracle(self, monkeypatch):
        self.assert_matches_oracle(self.edge_segments(), monkeypatch)

    @staticmethod
    def point_placements() -> list[float]:
        """Values with the decimal point after each of -40 to 40 of their 12
        printed digits (a negative count is the zeros after "0."), which
        span the compiled formatter's product path, -32 to 35, and reach
        past it on both sides, for significands of 1 to 12 digits; among
        them every integer whose point falls right after its last
        significant digit (point == nd), for nd = 1 to 12."""
        significands = ("1", "2", "15", "9", "16", "105", "123456", "999999", "16500000001",
                        "20000000003", "123456789012", "987654321098", "100000000001")
        values = [float(f"0.{digits}e{point}") for point in range(-40, 41)
                  for digits in significands]
        values += [float("123456789123"[:nd]) for nd in range(1, 13)]
        return values + [-x for x in values]

    def test_every_point_placement_matches_printf(self, monkeypatch):
        values = self.point_placements()
        assert {Decimal(f"{x:.12g}").adjusted() + 1 for x in values} == set(range(-40, 41))
        self.assert_fields_match_printf(values)
        table = [(0.5, 0.5, list(zip(*[iter(values[i:] + values[:i])] * 6)))
                 for i in range(6)]
        self.assert_matches_oracle(table, monkeypatch)

    def test_plain_text_field_boundaries(self):
        # -0 and exponent forms first and last on a line, at the end of a
        # text with no final line feed, and empty fields
        cases = {"": "", "-0": "0", "-0,1e-05\n-0.5,-0\n": "0,0.00001\n-0.5,0\n",
                 "1e+12,,-1e-05": "1000000000000,,-0.00001", "\n-0\n": "\n0\n",
                 "-1.5e+300": "-15" + "0" * 299}
        assert {text: pure.plain_text(text) for text in cases} == cases

    def test_non_finite_rejected_in_every_column(self, monkeypatch):
        for formatter in self.formatters():
            monkeypatch.setattr(engine, "format_rows", formatter)
            for bad in (math.inf, -math.inf, math.nan):
                cases = [(bad, 0.5, [(0.0,) * 6]), (0.5, bad, [(0.0,) * 6])]
                cases += [(0.5, 0.5, [tuple(bad if j == i else 0.0 for j in range(6))])
                          for i in range(6)]
                for segment in cases:
                    with pytest.raises(InputError, match="non-finite"):
                        write_csv(self.table([segment]), io.BytesIO())

    def test_list_and_array_columns_give_the_same_bytes(self):
        # the kernels hand format_rows array('d') columns, and lists are
        # still accepted; fig2's rows take the exponent path, the two-output
        # plant's rows do not
        runs = [(two_output_config(0).run(10.0)[0], 3, 2),
                (_run_config(bundled_scenario("fig2")).run(10.0)[0], 2, 1)]
        for traj, n, p in runs:
            for seg in traj.segments:
                samples = seg.samples
                names = ("times", "xs", "us", "ys", "vs")
                assert all(type(getattr(samples, name)) is array for name in names)
                as_lists = replace(samples, **{name: list(getattr(samples, name))
                                               for name in names})
                for formatter in self.formatters():
                    text = formatter(samples, n, p, "1.5", "-2")
                    assert type(text) is bytes
                    assert text.count(b"\n") == len(samples.times)
                    assert formatter(as_lists, n, p, "1.5", "-2") == text

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_compiled_formatter_rejects_mismatched_sizes(self):
        # sizes are checked before any pointer reaches the C code
        samples = engine.SegmentResult(times=[0.0, 1.0], xs=[0.5] * 4, us=[0.5] * 2,
                                       ys=[0.5] * 2, vs=[0.5] * 2)
        assert engine._speedup.format_rows(samples, 2, 1, "0", "0").count(b"\n") == 2
        for bad in (dict(xs=[0.5] * 3), dict(us=[0.5]), dict(ys=[0.5] * 3), dict(vs=[])):
            with pytest.raises(ValueError):
                engine._speedup.format_rows(replace(samples, **bad), 2, 1, "0", "0")

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_fig2_same_bytes_under_both_formatters(self, monkeypatch):
        # every fig2 row holds a field below 1e-4, which "%.12g" prints with an exponent
        traj, _ = _run_config(bundled_scenario("fig2")).run(100.0)
        compiled = self.csv_with(engine._speedup.format_rows, traj, monkeypatch)
        assert "e" not in compiled.split("\n", 1)[1]
        assert compiled == self.csv_with(pure.format_rows, traj, monkeypatch)

    #: Run in a child Python: points the compiled kernel at the library
    #: argv[1], formats the doubles in the file argv[2] as the one-state,
    #: one-output rows of its columns into argv[3], and reproduces fig1
    #: into the directory argv[4].
    SANITIZED_CHILD = """
import ctypes, sys
from array import array
from ofo import engine
from ofo.cli import main
from ofo.engine import _speedup

lib = ctypes.CDLL(sys.argv[1])
_speedup._run, _speedup._format, _speedup._free = (
    lib.ofo_run_segment, lib.ofo_format_rows, lib.ofo_free)
lib.ofo_run_segment.argtypes, lib.ofo_run_segment.restype = _speedup._ARGTYPES, ctypes.c_long
lib.ofo_format_rows.argtypes, lib.ofo_format_rows.restype = (
    _speedup._FORMAT_ARGTYPES, ctypes.c_long)
lib.ofo_free.argtypes, lib.ofo_free.restype = [ctypes.c_void_p], None
values = array("d")
with open(sys.argv[2], "rb") as fh:
    values.frombytes(fh.read())
samples = engine.SegmentResult(times=values[0::5], xs=values[1::5], us=values[2::5],
                               ys=values[3::5], vs=values[4::5])
with open(sys.argv[3], "wb") as fh:
    fh.write(_speedup.format_rows(samples, 1, 1, "7", "-3"))
sys.exit(main(["reproduce", "fig1", "--out", sys.argv[4]]))
"""

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_kernel_runs_clean_under_address_and_undefined_sanitizers(self, tmp_path):
        # the kernel built with ASan and UBSan, any report fatal, formats the
        # edge, carry, placement and random values and reproduces fig1 in a
        # child Python that preloads the sanitizer runtimes; both give the
        # bytes of the usual build
        from ofo.engine import _speedup

        runtimes = [subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True,
                                   text=True).stdout.strip()
                    for name in ("libasan.so", "libubsan.so")]
        if not all(os.path.isabs(path) and os.path.exists(path) for path in runtimes):
            pytest.skip("no ASan or UBSan runtime")
        lib = tmp_path / "kernel-sanitized.so"
        subprocess.run(["cc", *_speedup.FLAGS, "-fsanitize=address,undefined",
                        "-fno-sanitize-recover=all", "-o", str(lib), _speedup.SOURCE, "-lm"],
                       check=True)
        values = [x for _, _, rows in self.edge_segments() for row in rows for x in row]
        values += self.carries_and_edges() + self.point_placements()
        values += [x for w, ustar, rows in next(self.random_bit_segments())
                   for x in (w, ustar, *(x for row in rows for x in row))]
        values = array("d", values + [0.5] * (-len(values) % 5))
        (tmp_path / "values").write_bytes(values.tobytes())
        child = subprocess.run(
            [sys.executable, "-c", self.SANITIZED_CHILD, str(lib), str(tmp_path / "values"),
             str(tmp_path / "rows.csv"), str(tmp_path / "sanitized")],
            capture_output=True, text=True,
            env=checkout_env(LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0"))
        assert child.returncode == 0, child.stderr[-3000:]
        samples = engine.SegmentResult(times=values[0::5], xs=values[1::5], us=values[2::5],
                                       ys=values[3::5], vs=values[4::5])
        assert (tmp_path / "rows.csv").read_bytes() == _speedup.format_rows(samples, 1, 1,
                                                                            "7", "-3")
        assert main(["reproduce", "fig1", "--out", str(tmp_path / "usual")]) == 0
        names = sorted(os.listdir(tmp_path / "usual"))
        assert sorted(os.listdir(tmp_path / "sanitized")) == names
        for name in names:
            assert ((tmp_path / "sanitized" / name).read_bytes()
                    == (tmp_path / "usual" / name).read_bytes()), name
