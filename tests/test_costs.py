import math
import random
from dataclasses import replace

import pytest

from ofo.costs import QuadraticCost, SqrtPlusCost, reduced_gradient
from ofo.errors import InputError
from ofo.linalg import Matrix


def fd_u(phi, u, y, step=1e-6):
    return (phi(u + step, (y,)) - phi(u - step, (y,))) / (2.0 * step)


def fd_y(phi, u, y, step=1e-6):
    return (phi(u, (y + step,)) - phi(u, (y - step,))) / (2.0 * step)


class TestGradients:
    def test_quadratic_origin(self):
        cost = QuadraticCost(q_u=0.01, q_y=1.0)
        assert cost.grad_u(0.0, (0.0,)) == 0.0
        assert cost.grad_y(0.0, (0.0,)) == (0.0,)

    def test_sqrtplus_values(self):
        cost = SqrtPlusCost(a=11.0)
        assert cost.grad_u(1.0, (0.0,)) == 22.0
        assert cost.grad_y(1.0, (0.0,)) == (0.0,)
        assert cost.grad_y(0.0, (1.0,))[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    @pytest.mark.parametrize("make_cost", [
        lambda: QuadraticCost(q_u=0.01, q_y=1.0),
        lambda: SqrtPlusCost(a=11.0),
        lambda: QuadraticCost(q_u=0.01, q_y=1.0, mu4=0.37),
        lambda: SqrtPlusCost(a=2.0, mu4=1.5),
    ])
    def test_gradients_match_finite_differences(self, make_cost):
        cost = make_cost()
        rng = random.Random(42)
        for _ in range(50):
            u = rng.uniform(-3.0, 3.0)
            y = rng.uniform(-3.0, 3.0)
            gu = cost.grad_u(u, (y,))
            gy = cost.grad_y(u, (y,))[0]
            assert gu == pytest.approx(fd_u(cost.phi, u, y), rel=1e-6, abs=1e-7)
            assert gy == pytest.approx(fd_y(cost.phi, u, y), rel=1e-6, abs=1e-7)

    def test_strong_convexity_inequality(self):
        rng = random.Random(4242)
        costs = [
            (QuadraticCost(q_u=0.01, q_y=1.0), 0.02),
            (SqrtPlusCost(a=11.0), 22.0),
            (QuadraticCost(q_u=0.01, q_y=1.0, mu4=0.5), 0.52),
            (SqrtPlusCost(a=11.0, mu4=0.3), 22.3),
        ]
        for cost, mu in costs:
            for _ in range(50):
                u1 = rng.uniform(-4.0, 4.0)
                u2 = rng.uniform(-4.0, 4.0)
                if u1 == u2:
                    continue
                y = (rng.uniform(-4.0, 4.0),)
                lhs = (cost.grad_u(u1, y) - cost.grad_u(u2, y)) * (u1 - u2)
                assert lhs >= mu * (u1 - u2) ** 2 * (1.0 - 1e-12)

    def test_sqrtplus_scalar_only(self):
        cost = SqrtPlusCost(a=1.0)
        with pytest.raises(InputError, match="scalar output"):
            cost.phi(1.0, (0.0, 2.0))


class TestReducedGradient:
    def test_zero_at_decoupled_critical_point(self):
        cost = QuadraticCost(q_u=0.01, q_y=1.0)
        assert reduced_gradient(cost, (0.3,), 0.0, (0.0,)) == 0.0

    def test_linear_example_value(self):
        cost = QuadraticCost(q_u=0.01, q_y=1.0)
        rg = reduced_gradient(cost, (10.0 / 101.0,), 0.0, (1.0,))
        assert rg == pytest.approx(20.0 / 101.0, abs=1e-12)

    def test_sine_example_value(self):
        cost = SqrtPlusCost(a=11.0)
        rg = reduced_gradient(cost, (-2.0,), 0.0, (0.001,))
        assert rg == pytest.approx(-0.002, abs=2e-9)

    def test_shape_mismatch(self):
        cost = QuadraticCost(q_u=1.0, q_y=1.0)
        with pytest.raises(InputError):
            reduced_gradient(cost, (1.0, 0.0), 1.0, (1.0,))

    def test_matches_transposed_sensitivity_product_bitwise(self):
        # grad_u + S^T grad_y with S the p x 1 sensitivity matrix, the
        # matrix form the optimizer's bisection was written against
        rng = random.Random(8)
        for p in (1, 2, 3):
            cost = QuadraticCost(q_u=0.01, q_y=rng.uniform(0.1, 2.0), mu4=0.3)
            for _ in range(200):
                sens = tuple(rng.uniform(-3.0, 3.0) for _ in range(p))
                u, y = rng.uniform(-5.0, 5.0), tuple(rng.uniform(-5.0, 5.0) for _ in range(p))
                coupled = Matrix(p, 1, sens).transpose().matvec(cost.grad_y(u, y))[0]
                assert reduced_gradient(cost, sens, u, y) == cost.grad_u(u, y) + coupled


class TestModuli:
    def test_quadratic_example(self):
        cost = QuadraticCost(q_u=0.01, q_y=1.0)
        ell_phi_u, ell_phi_y = cost.coupling_moduli(ell_h=10.0 / 101.0)
        assert cost.grad_u_lipschitz == pytest.approx(0.02)
        assert ell_phi_u == 0.0
        assert ell_phi_y == pytest.approx(20.0 / 101.0, abs=1e-12)

    def test_quadratic_on_varying_sensitivity_has_no_coupling_modulus(self):
        assert QuadraticCost(q_u=1.0, q_y=0.1).coupling_moduli(ell_h=2.0, ell_grad_h=1.0)[0] == math.inf
        assert QuadraticCost(q_u=1.0, q_y=0.1).coupling_moduli(ell_h=2.0, ell_grad_h=0.0)[0] == 0.0

    def test_sqrtplus_example(self):
        cost = SqrtPlusCost(a=11.0)
        ell_phi_u, ell_phi_y = cost.coupling_moduli(ell_h=2.0, ell_grad_h=1.0)
        assert cost.grad_u_lipschitz == pytest.approx(22.0)
        assert ell_phi_y == pytest.approx(2.0)
        assert ell_phi_u == pytest.approx(1.0)

    @pytest.mark.parametrize("base", [QuadraticCost(q_u=0.01, q_y=1.0), SqrtPlusCost(a=11.0)])
    def test_regularization_adds_exactly(self, base):
        # mu4 enters as (mu4 / 2) u^2 added after the base terms, so every
        # value is the base value plus the regularization term, bit for bit
        reg = replace(base, mu4=0.5)
        assert reg.coupling_moduli(ell_h=0.3) == base.coupling_moduli(ell_h=0.3)
        assert reg.grad_u_lipschitz == base.grad_u_lipschitz + 0.5
        for u, y in [(0.7, (-1.3,)), (-2.5, (0.4,)), (-0.0, (0.0,))]:
            assert reg.phi(u, y) == base.phi(u, y) + 0.5 * 0.5 * (u * u)
            assert reg.grad_u(u, y) == base.grad_u(u, y) + 0.5 * u
            assert reg.grad_y(u, y) == base.grad_y(u, y)
            assert replace(reg, mu4=0.0).grad_u(u, y) == base.grad_u(u, y)

    @pytest.mark.parametrize("cost", [QuadraticCost(q_u=1.0), SqrtPlusCost(a=1.0)])
    def test_negative_moduli_rejected(self, cost):
        for ell_h, ell_grad_h in [(-1.0, 0.0), (1.0, -1.0)]:
            with pytest.raises(InputError):
                cost.coupling_moduli(ell_h=ell_h, ell_grad_h=ell_grad_h)


class TestValidation:
    def test_weights(self):
        with pytest.raises(InputError):
            QuadraticCost(q_u=0.0)
        with pytest.raises(InputError):
            SqrtPlusCost(a=-1.0)
        with pytest.raises(InputError, match="mu4"):
            QuadraticCost(q_u=1.0, mu4=-0.1)
        with pytest.raises(InputError, match="mu4"):
            replace(SqrtPlusCost(a=1.0), mu4=-0.1)

    def test_regularized_kind_follows_base(self):
        assert SqrtPlusCost(a=1.0, mu4=0.1).kind == "sqrtplus"
        assert replace(QuadraticCost(q_u=1.0), mu4=0.1).kind == "quadratic"
