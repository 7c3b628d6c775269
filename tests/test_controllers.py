import math
import random

import pytest

from ofo.controllers import (
    BoxSet,
    GradientOfoController,
    ProjectedOfoController,
    proj_box,
)
from ofo.costs import QuadraticCost, SqrtPlusCost, reduced_gradient
from ofo.errors import InputError
from ofo.linalg import vec_norm, vec_sub


class TestProjBox:
    def test_clamp_both(self):
        box = BoxSet(lo=(-1.0, -1.0), hi=(1.0, 1.0))
        assert proj_box((2.0, -3.0), box) == (1.0, -1.0)

    def test_identity_inside(self):
        box = BoxSet(lo=(-1.0, -1.0), hi=(1.0, 1.0))
        assert proj_box((0.25, -0.75), box) == (0.25, -0.75)

    def test_tight_scalar_box(self):
        box = BoxSet(lo=(-5e-5,), hi=(5e-5,))
        assert proj_box((9e-5,), box) == (5e-5,)

    def test_infinite_bounds(self):
        box = BoxSet(lo=(-math.inf,), hi=(math.inf,))
        assert proj_box((123.0,), box) == (123.0,)

    def test_idempotent_and_nonexpansive(self):
        rng = random.Random(99)
        box = BoxSet(lo=(-1.0, -2.0, 0.0), hi=(1.0, -0.5, math.inf))
        for _ in range(1000):
            a = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
            b = tuple(rng.uniform(-5.0, 5.0) for _ in range(3))
            pa, pb = proj_box(a, box), proj_box(b, box)
            assert proj_box(pa, box) == pa
            assert vec_norm(vec_sub(pa, pb)) <= vec_norm(vec_sub(a, b))

    def test_invalid_box_names_component(self):
        with pytest.raises(InputError, match="component 2"):
            BoxSet(lo=(0.0, 1.0), hi=(1.0, 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            proj_box((1.0,), BoxSet(lo=(0.0, 0.0), hi=(1.0, 1.0)))


class TestGradientController:
    def make(self, alpha, sens_value=10.0 / 101.0):
        from ofo.linalg import Matrix

        cost = QuadraticCost(q_u=0.01, q_y=1.0)
        return GradientOfoController(
            alpha=alpha, cost=cost,
            sensitivity=lambda u: Matrix.from_rows([[sens_value]]))

    def test_zero_at_critical_point(self):
        ctrl = self.make(100.0)
        assert ctrl.rate((0.0,), (0.0,)) == (0.0,)

    def test_plugin_value(self):
        ctrl = self.make(100.0)
        rate = ctrl.rate((0.0,), (1.0,))
        assert rate[0] == pytest.approx(-2000.0 / 101.0, abs=1e-12)

    def test_linear_in_alpha(self):
        r1 = self.make(3.0).rate((0.4,), (-0.7,))[0]
        r2 = self.make(6.0).rate((0.4,), (-0.7,))[0]
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14)

    def test_zero_set_independent_of_alpha(self, fast_plant):
        cost = QuadraticCost(q_u=0.01, q_y=1.0)
        rng = random.Random(5)
        controllers = [
            GradientOfoController(alpha=a, cost=cost, sensitivity=fast_plant.sensitivity)
            for a in (0.1, 1.0, 1000.0)
        ]
        for _ in range(50):
            u = (rng.uniform(-8.0, 8.0),)
            y = fast_plant.steady_output(u, (2.0,))
            zero_flags = [ctrl.rate(u, y) == (0.0,) for ctrl in controllers]
            assert len(set(zero_flags)) == 1

    def test_alpha_gate(self):
        with pytest.raises(InputError):
            self.make(0.0)


class TestProjectedController:
    def make(self, alpha=1.0, beta=None, sens_value=-2.0):
        from ofo.linalg import Matrix

        cost = SqrtPlusCost(a=11.0)
        box = BoxSet(lo=(-5e-5,), hi=(5e-5,))
        if beta is None:
            beta = ProjectedOfoController.default_beta(cost)
        return ProjectedOfoController(
            alpha=alpha, beta=beta, box=box, cost=cost,
            sensitivity=lambda u: Matrix.from_rows([[sens_value]]))

    def test_default_beta_is_largest_admissible(self):
        assert ProjectedOfoController.default_beta(SqrtPlusCost(a=11.0)) == 1.0 / 22.0
        self.make(beta=1.0 / 22.0)  # no error at the boundary

    def test_stepsize_gate(self):
        with pytest.raises(InputError, match="beta"):
            self.make(beta=1.0 / 22.0 + 1e-6)
        with pytest.raises(InputError):
            self.make(beta=0.0)

    def test_rate_clamps_to_bound(self):
        # reduced gradient ~ -0.002 pushes the target outside the box
        ctrl = self.make(alpha=1.0)
        rate = ctrl.rate((0.0,), (0.001,))
        assert rate == (5e-5,)

    def test_inactive_box_reduces_to_gradient_step(self):
        from ofo.linalg import Matrix

        cost = SqrtPlusCost(a=11.0)
        wide = BoxSet(lo=(-1e6,), hi=(1e6,))
        ctrl = ProjectedOfoController(
            alpha=2.0, beta=1.0 / 22.0, box=wide, cost=cost,
            sensitivity=lambda u: Matrix.from_rows([[-2.0]]))
        u, y = (0.01,), (0.5,)
        rg = reduced_gradient(cost, ctrl.sensitivity(u), u, y)
        expected = 2.0 * (-1.0 / 22.0) * rg[0]
        assert ctrl.rate(u, y)[0] == pytest.approx(expected, rel=1e-14)

    def test_fixed_point_equivalence(self):
        ctrl = self.make(alpha=3.0)
        rng = random.Random(17)
        for _ in range(50):
            u = (rng.uniform(-5e-5, 5e-5),)
            y = (rng.uniform(-0.002, 0.002),)
            rg = reduced_gradient(ctrl.cost, ctrl.sensitivity(u), u, y)
            target = proj_box((u[0] - ctrl.beta * rg[0],), ctrl.box)
            is_fixed = target == u
            assert (ctrl.rate(u, y) == (0.0,)) == is_fixed

    def test_tangent_cone_direction_at_bounds(self):
        ctrl = self.make(alpha=1.0)
        # at either bound the rate cannot point outward
        assert ctrl.rate((5e-5,), (0.001,))[0] <= 0.0
        assert ctrl.rate((-5e-5,), (-0.001,))[0] >= 0.0
