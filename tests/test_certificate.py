import math
import random
from dataclasses import replace

import numpy as np
import pytest

from ofo.certificate import (
    CONSTANT_FIELDS,
    SimplifyingConstants,
    assemble_constants,
    certify,
    check_mu_bound,
    decay_rate,
    derive_dominance_params,
    feasible_xi,
    required_regularization,
)
from ofo.costs import QuadraticCost
from ofo.errors import ConvexityGapError, InputError, NotStabilizedError
from ofo.linalg import Matrix
from ofo.plants import LinearPlant, SinePlant

from conftest import random_hurwitz_rows, to_rows


def all_ones(**overrides) -> SimplifyingConstants:
    values = dict(ell_f=1.0, ell_g=1.0, c3=1.0, d3=1.0, mu3=1.0, zeta3=1.0,
                  mu_phi=1.0, ell_phi_u=0.0, ell_phi_y=1.0, lip_grad_u=1.0)
    values.update(overrides)
    return SimplifyingConstants(**values)


def plant_constants(plant) -> SimplifyingConstants:
    return assemble_constants(plant, QuadraticCost(q_u=1.0))[0]


class TestDerivePlantConstants:
    def test_resonant_plant(self, fast_plant):
        pc = plant_constants(fast_plant)
        ell_h, ell_grad_h = fast_plant.steady_moduli
        assert pc.c3 == pytest.approx(0.5, abs=1e-11)
        assert pc.d3 == pytest.approx(0.5, abs=1e-11)
        assert pc.mu3 == 1.0
        assert pc.zeta3 == pytest.approx(1.0, abs=1e-10)
        assert pc.ell_f == pytest.approx(1.0, abs=1e-10)
        assert pc.ell_g == pytest.approx(1.0, abs=1e-10)
        assert ell_h == pytest.approx(10.0 / 101.0, abs=1e-10)
        assert ell_grad_h == 0.0

    def test_slow_sine_plant(self, slow_sine_plant):
        pc = plant_constants(slow_sine_plant)
        ell_h, ell_grad_h = slow_sine_plant.steady_moduli
        lam = np.linalg.eigvalsh(np.array(to_rows(slow_sine_plant.lyapunov_p)))
        assert pc.c3 == pytest.approx(lam[0], abs=1e-10)
        assert pc.d3 == pytest.approx(lam[-1], abs=1e-10)
        assert pc.zeta3 == pytest.approx(2.0 * lam[-1], abs=1e-10)
        assert pc.ell_f == pytest.approx(0.2, abs=1e-12)
        assert pc.ell_g == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert ell_h == pytest.approx(2.0, abs=1e-10)
        assert ell_grad_h == pytest.approx(1.0, abs=1e-10)

    def test_isotropic_plant(self):
        plant = LinearPlant(a=Matrix.identity(2).scale(-1.0),
                            b=Matrix.from_rows([[1.0], [0.0]]),
                            bw=Matrix.from_rows([[1.0], [1.0]]),
                            c=Matrix.from_rows([[1.0, 0.0]]))
        pc = plant_constants(plant)
        assert pc.c3 == pytest.approx(0.5, abs=1e-12)
        assert pc.d3 == pytest.approx(0.5, abs=1e-12)
        assert pc.zeta3 == pytest.approx(1.0, abs=1e-12)

    def test_decay_orientation(self, slow_sine_plant):
        # W(x, u) built on P must actually decay at unit rate along the
        # frozen-input dynamics: A^T P + P A = -I.
        p = np.array(to_rows(slow_sine_plant.lyapunov_p))
        a = np.array(to_rows(slow_sine_plant.a))
        residual = a.T @ p + p @ a + np.eye(2)
        assert np.max(np.abs(residual)) <= 1e-10
        rng = random.Random(3)
        for _ in range(20):
            dx = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2)])
            decay = 2.0 * dx @ p @ (a @ dx)
            assert decay <= -np.dot(dx, dx) * (1.0 - 1e-9)


class TestDominanceParams:
    def test_unit_plug_in(self):
        p = derive_dominance_params(all_ones())
        assert (p.mu1, p.theta1, p.mu2, p.theta2) == (0.5, 0.5, 0.5, 0.5)

    def test_quadratic_example_arithmetic(self):
        k = all_ones(mu_phi=0.02, ell_phi_y=0.19802, lip_grad_u=0.02)
        p = derive_dominance_params(k)
        assert p.mu1 == pytest.approx(0.5)
        assert p.theta1 == pytest.approx(0.5)
        assert p.mu2 == pytest.approx(0.01)
        assert p.theta2 == pytest.approx(0.19802 ** 2 / 0.04, rel=1e-12)

    def test_doubling_d3_halves_mu1_only(self):
        k1, k2 = all_ones(), all_ones(d3=2.0)
        p1, p2 = derive_dominance_params(k1), derive_dominance_params(k2)
        assert p2.mu1 == pytest.approx(0.5 * p1.mu1)
        assert p2.mu2 == p1.mu2
        assert p2.theta2 == p1.theta2
        assert p2.theta1 == p1.theta1

    def test_gap_violation(self):
        with pytest.raises(ConvexityGapError):
            derive_dominance_params(all_ones(ell_phi_u=1.0, lip_grad_u=2.0))


class TestFeasibleXi:
    def test_symmetric_interval(self):
        p = derive_dominance_params(all_ones(mu_phi=2.0, lip_grad_u=2.0))
        # mu1 = 0.5, theta1 = 0.5, mu2 = 1, theta2 = 0.25
        xi = feasible_xi(p)
        assert xi is not None
        assert (xi.lo, xi.hi) == pytest.approx((0.25, 1.0))
        assert xi.chosen == pytest.approx(0.5)

    def test_boundary_is_infeasible(self):
        from ofo.certificate import DominanceParams

        p = DominanceParams(mu1=1.0, theta1=1.0, mu2=1.0, theta2=1.0)
        assert feasible_xi(p) is None

    def test_no_input_coupling_has_no_upper_end(self):
        # theta1 = 0 (ell_f = 0, B = 0) leaves every weight above lo
        # feasible: 2 lo keeps half of mu2 as the u-margin, and 1 is taken
        # when lo = 0 as well
        p = derive_dominance_params(all_ones(ell_f=0.0, mu_phi=2.0, lip_grad_u=2.0))
        xi = feasible_xi(p)
        assert (p.theta1, xi.lo, xi.hi, xi.chosen) == (0.0, 0.25, math.inf, 0.5)
        assert decay_rate(p, xi.chosen, 1.0) == min(p.mu1, 0.5 * p.mu2)
        xi = feasible_xi(derive_dominance_params(all_ones(ell_f=0.0, ell_g=0.0)))
        assert (xi.lo, xi.hi, xi.chosen) == (0.0, math.inf, 1.0)
        with pytest.raises(InputError, match="ell_f must be nonnegative"):
            all_ones(ell_f=-1.0)

    def test_conservative_resonant_example_infeasible(self, fast_plant, quad_cost):
        k, _ = assemble_constants(fast_plant, quad_cost)
        p = derive_dominance_params(k)
        assert p.theta2 / p.mu2 > p.mu1 / p.theta1
        assert feasible_xi(p) is None


class TestMuBound:
    def test_unit_plug_in(self):
        certified, rhs = check_mu_bound(all_ones(mu_phi=2.0, lip_grad_u=2.0))
        assert rhs == pytest.approx(1.0)
        assert certified
        certified, _ = check_mu_bound(all_ones(mu_phi=0.5))
        assert not certified

    def test_resonant_example_rhs(self, fast_plant, quad_cost):
        k, _ = assemble_constants(fast_plant, quad_cost)
        _, rhs = check_mu_bound(k)
        # independent recomputation with numpy
        ref = k.ell_phi_u + float(np.sqrt(
            k.ell_g ** 2 * k.ell_phi_y ** 2 * k.d3 * k.zeta3 ** 2 * k.ell_f ** 2
            / (k.c3 * k.mu3 ** 2)))
        assert rhs == pytest.approx(ref, rel=1e-14)
        assert rhs == pytest.approx(0.19802, abs=1e-4)
        assert rhs > k.mu_phi  # not certified without regularization


class TestDecayRate:
    def test_min_structure(self):
        from ofo.certificate import DominanceParams

        p = DominanceParams(mu1=1.0, theta1=0.5, mu2=1.0, theta2=0.5)
        assert decay_rate(p, 1.0, 2.0) == pytest.approx(0.5)
        assert decay_rate(p, 1.0, 0.1) == pytest.approx(0.05)
        assert decay_rate(p, 1.0, 1e9) == pytest.approx(0.5)

    def test_infeasible_xi_rejected(self):
        from ofo.certificate import DominanceParams

        p = DominanceParams(mu1=1.0, theta1=0.5, mu2=1.0, theta2=0.5)
        with pytest.raises(InputError, match="dominance"):
            decay_rate(p, 3.0, 1.0)
        with pytest.raises(InputError, match="dominance"):
            decay_rate(p, 0.2, 1.0)


class TestRequiredRegularization:
    def test_already_certified(self):
        k = all_ones(mu_phi=2.0, lip_grad_u=2.0)
        assert required_regularization(k) == 0.0

    def test_unit_gap(self):
        k = all_ones(mu_phi=0.5)
        assert required_regularization(k, margin=1e-6) == pytest.approx(0.5 + 1e-6, rel=1e-9)

    def test_round_trip_flips_verdict(self, fast_plant, quad_cost):
        k, _ = assemble_constants(fast_plant, quad_cost)
        assert not check_mu_bound(k)[0]
        mu4 = required_regularization(k)
        reg = replace(quad_cost, mu4=mu4)
        k2, _ = assemble_constants(fast_plant, reg)
        assert check_mu_bound(k2)[0]
        assert feasible_xi(derive_dominance_params(k2)) is not None


class TestCertify:
    def test_alpha_independence(self, slow_sine_plant, sqrt_cost):
        overrides = {"c3": 0.33, "d3": 0.99, "mu3": 0.1485, "zeta3": 0.99}
        reports = [certify(slow_sine_plant, sqrt_cost, a, overrides)
                   for a in (1e-2, 1.0, 1e3)]
        assert len({r.certified for r in reports}) == 1
        assert len({(r.xi.lo, r.xi.hi) for r in reports}) == 1
        for r in reports:
            assert r.tau_at_alpha > 0.0

    def test_overrides_merge_and_flag(self, slow_sine_plant, sqrt_cost):
        report = certify(slow_sine_plant, sqrt_cost, 1.0,
                         {"c3": 0.33, "d3": 0.99, "mu3": 0.1485, "zeta3": 0.99})
        assert report.constants.c3 == 0.33
        assert report.constants.mu3 == 0.1485
        assert report.overridden == ("c3", "d3", "mu3", "zeta3")
        assert report.certified
        assert report.mu_bound_rhs == pytest.approx(7.532, abs=1e-3)

    def test_systematic_derivation_is_more_conservative(self, slow_sine_plant, sqrt_cost):
        report = certify(slow_sine_plant, sqrt_cost, 1.0)
        assert not report.certified
        assert report.mu_bound_rhs > report.constants.mu_phi

    def test_sine_plant_with_quadratic_cost_has_no_gap(self):
        # the weighted output gradient 2 q_y h'(u) y has no finite modulus in u
        # on a sine plant; numerically the reduced gradient even turns down
        plant = SinePlant(a=Matrix.identity(2).scale(-1.0), b=Matrix.from_rows([[1.0], [0.0]]),
                          bw=Matrix.from_rows([[1.0], [0.0]]), c=Matrix.from_rows([[1.0, 0.0]]))
        cost = QuadraticCost(q_u=1.0, q_y=0.1)
        u = np.linspace(-2000.0, 2000.0, 400001)
        grad = 2.0 * u + 0.2 * (u + np.sin(u)) * (1.0 + np.cos(u))
        assert float(np.min(np.diff(grad) / np.diff(u))) < -300.0
        with pytest.raises(ConvexityGapError):
            certify(plant, cost, 1.0)

    def test_unknown_override_rejected(self, fast_plant, quad_cost):
        with pytest.raises(InputError, match="unknown certificate constant"):
            certify(fast_plant, quad_cost, 1.0, {"bogus": 1.0})

    def test_sqrtplus_cost_needs_scalar_output(self, fast_plant, sqrt_cost):
        # the cost is defined for a scalar y only, so no report is given for
        # a plant with two outputs (a second input is refused by the plant)
        two_outputs = replace(fast_plant, c=Matrix.identity(2))
        with pytest.raises(InputError, match="requires a scalar output"):
            certify(two_outputs, sqrt_cost, 1.0)

    def test_report_text_keys(self, slow_sine_plant, sqrt_cost):
        report = certify(slow_sine_plant, sqrt_cost, 10.0,
                         {"c3": 0.33, "d3": 0.99, "mu3": 0.1485, "zeta3": 0.99},
                         claimed_mu_bound_rhs=7.5)
        text = report.to_text()
        for name in CONSTANT_FIELDS + ("mu1", "theta1", "mu2", "theta2",
                                       "certified", "mu_bound_rhs",
                                       "claimed_mu_bound_rhs", "required_mu4",
                                       "tau_at_alpha", "xi_lo", "xi_hi", "xi_chosen"):
            assert f"{name} = " in text, name
        assert "c3 = 0.33  (override)" in text

    def test_scaling_covariance_of_verdict(self):
        # speeding the plant up or slowing it down must not change the verdict
        rng = random.Random(2024)
        for _ in range(30):
            a_rows = random_hurwitz_rows(rng, 2)
            b_rows = [[rng.uniform(-2, 2)] for _ in range(2)]
            bw_rows = [[rng.uniform(-2, 2)] for _ in range(2)]
            c_rows = [[rng.uniform(-2, 2), rng.uniform(-2, 2)]]
            cost = QuadraticCost(q_u=10 ** rng.uniform(-3, 1), q_y=10 ** rng.uniform(-1, 1))
            verdicts = []
            for scale in (1.0, 0.1, 10.0):
                plant = LinearPlant(
                    a=Matrix.from_rows([[v * scale for v in row] for row in a_rows]),
                    b=Matrix.from_rows([[v * scale for v in row] for row in b_rows]),
                    bw=Matrix.from_rows([[v * scale for v in row] for row in bw_rows]),
                    c=Matrix.from_rows(c_rows))
                k, _ = assemble_constants(plant, cost)
                verdicts.append(check_mu_bound(k)[0])
            assert len(set(verdicts)) == 1, (a_rows, verdicts)

    def test_non_hurwitz_plant_not_certifiable(self):
        with pytest.raises(NotStabilizedError):
            LinearPlant(a=Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]]),
                        b=Matrix.from_rows([[0.0], [1.0]]),
                        bw=Matrix.from_rows([[0.0], [1.0]]),
                        c=Matrix.from_rows([[1.0, 0.0]]))


def random_loop(rng: random.Random, resonant: bool) -> tuple[LinearPlant, QuadraticCost]:
    """A loop chosen to probe the certificate: a Hurwitz plant with one input,
    either general (n 1 to 4, p 1 to 2, time scale 1e-2 to 1e2) or lightly
    damped resonant, and a quadratic cost with or without regularization."""
    if resonant:
        d, w = 10 ** rng.uniform(-2, 0), 10 ** rng.uniform(math.log10(0.3), math.log10(30.0))
        n, p, a_rows = 2, 1, [[-d, w], [-w, -d]]
    else:
        n, p, scale = rng.randint(1, 4), rng.randint(1, 2), 10 ** rng.uniform(-2, 2)
        a_rows = [[v * scale for v in row] for row in random_hurwitz_rows(rng, n)]
    plant = LinearPlant(a=Matrix.from_rows(a_rows),
                        b=Matrix.from_rows([[rng.gauss(0, 1)] for _ in range(n)]),
                        bw=Matrix.from_rows([[1.0] for _ in range(n)]),
                        c=Matrix.from_rows([[rng.gauss(0, 1) for _ in range(n)] for _ in range(p)]))
    mu4 = 0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-2, 1)
    return plant, QuadraticCost(q_u=10 ** rng.uniform(-2, 1), q_y=10 ** rng.uniform(-1, 1), mu4=mu4)


def test_certificate_sound_on_adversarial_loops():
    # The theorem's conclusion, checked with the numpy spectral abscissa of the
    # affine loop [[A, B], [-2 alpha q_y H^T C, -alpha (2 q_u + mu4)]],
    # H = -C A^-1 B, over twelve decades of gain: no certified loop may be
    # unstable at any gain, and a quadratic V decays at most at twice the
    # abscissa.  Reading ell_f as ||A^-1 B||, the reading behind fig1's printed
    # threshold, certifies resonant loops that are not stable at every gain,
    # so the same check must catch it.
    rng = random.Random(7)
    gains = np.logspace(-3, 9, 121)
    certified = {"systematic": 0, "ell_f": 0}
    broken = {"systematic": 0, "ell_f": 0}
    for resonant in [False] * 200 + [True] * 200:
        plant, cost = random_loop(rng, resonant)
        a, b, c = (np.array(to_rows(m)) for m in (plant.a, plant.b, plant.c))
        h = -c @ np.linalg.solve(a, b)
        abscissae = [float(np.max(np.linalg.eigvals(np.block(
            [[a, b], [-2.0 * alpha * cost.q_y * h.T @ c,
                      np.full((1, 1), -alpha * (2.0 * cost.q_u + cost.mu4))]])).real))
                     for alpha in gains]
        ell_f = float(np.linalg.norm(np.linalg.solve(a, b), 2))
        for reading, overrides in (("systematic", None), ("ell_f", {"ell_f": ell_f})):
            report = certify(plant, cost, 1.0, overrides)
            if not report.certified:
                continue
            certified[reading] += 1
            broken[reading] += max(abscissae) >= 0.0
            if reading == "systematic":
                for alpha, abscissa in zip(gains, abscissae):
                    tau = decay_rate(report.params, report.xi.chosen, alpha)
                    assert tau <= -2.0 * abscissa * (1.0 + 1e-9), alpha
    assert certified["systematic"] > 100 and broken["systematic"] == 0
    assert certified["ell_f"] > certified["systematic"] and broken["ell_f"] > 0
