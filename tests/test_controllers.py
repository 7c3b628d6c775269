import math
import random

import pytest

from ofo.controllers import BoxSet
from ofo.costs import QuadraticCost, SqrtPlusCost, reduced_gradient
from ofo.errors import InputError
from ofo.sim import DisturbanceSchedule, RunConfig

from conftest import inputs, ofo_rate, proj_box, replace


class TestProjBox:
    def test_clamp_both(self):
        box = BoxSet(lo=-1.0, hi=1.0)
        assert (proj_box(2.0, box), proj_box(-3.0, box)) == (1.0, -1.0)

    def test_identity_inside(self):
        box = BoxSet(lo=-1.0, hi=1.0)
        assert (proj_box(0.25, box), proj_box(-0.75, box)) == (0.25, -0.75)

    def test_tight_scalar_box(self):
        box = BoxSet(lo=-5e-5, hi=5e-5)
        assert proj_box(9e-5, box) == 5e-5

    def test_infinite_bounds(self):
        box = BoxSet(lo=-math.inf, hi=math.inf)
        assert proj_box(123.0, box) == 123.0

    def test_idempotent_and_nonexpansive(self):
        rng = random.Random(99)
        for box in (BoxSet(lo=-1.0, hi=1.0), BoxSet(lo=-2.0, hi=-0.5),
                    BoxSet(lo=0.0, hi=math.inf)):
            for _ in range(1000):
                a, b = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
                pa, pb = proj_box(a, box), proj_box(b, box)
                assert proj_box(pa, box) == pa
                assert abs(pa - pb) <= abs(a - b)

    def test_invalid_box(self):
        with pytest.raises(InputError, match="lo > hi"):
            BoxSet(lo=1.0, hi=0.5)
        with pytest.raises(InputError, match="NaN"):
            BoxSet(lo=math.nan, hi=0.5)


class TestGradientController:
    cost = QuadraticCost(q_u=0.01, q_y=1.0)

    def rate(self, alpha, u, y, sens_value=10.0 / 101.0):
        return ofo_rate(self.cost, lambda _: (sens_value,), alpha, u, y)

    def test_zero_at_critical_point(self):
        assert self.rate(100.0, 0.0, (0.0,)) == 0.0

    def test_plugin_value(self):
        rate = self.rate(100.0, 0.0, (1.0,))
        assert rate == pytest.approx(-2000.0 / 101.0, abs=1e-12)

    def test_linear_in_alpha(self):
        r1 = self.rate(3.0, 0.4, (-0.7,))
        r2 = self.rate(6.0, 0.4, (-0.7,))
        assert r2 == pytest.approx(2.0 * r1, rel=1e-14)

    def test_zero_set_independent_of_alpha(self, fast_plant):
        rng = random.Random(5)
        for _ in range(50):
            u = rng.uniform(-8.0, 8.0)
            y = fast_plant.steady_output(u, (2.0,))
            zero_flags = [ofo_rate(self.cost, fast_plant.sensitivity, a, u, y) == 0.0
                          for a in (0.1, 1.0, 1000.0)]
            assert len(set(zero_flags)) == 1

    def test_alpha_gate(self, fast_plant):
        config = RunConfig(plant=fast_plant, cost=self.cost,
                           schedule=DisturbanceSchedule(((0.0, (1.0,)),)),
                           x0=(0.0, 0.0), u0=0.0, t_end=1.0)
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="alpha"):
                config.run(alpha)


class TestProjectedController:
    cost = SqrtPlusCost(a=11.0)
    box = BoxSet(lo=-5e-5, hi=5e-5)

    def rate(self, alpha, u, y, beta=1.0 / 22.0, box=box):
        return ofo_rate(self.cost, lambda _: (-2.0,), alpha, u, y, beta, box)

    def config(self, plant, **kw):
        schedule = DisturbanceSchedule(((0.0, (-0.001,)), (0.5, (0.001,))))
        return RunConfig(plant=plant, cost=self.cost, schedule=schedule, x0=(0.0, 0.0),
                         u0=0.0, t_end=1.0, box=self.box, **kw)

    def test_default_beta_is_largest_admissible(self, slow_sine_plant):
        assert self.cost.grad_u_lipschitz == 22.0
        default = self.config(slow_sine_plant)
        explicit = self.config(slow_sine_plant, beta=1.0 / 22.0)  # no error at the boundary
        assert inputs(default.run(10.0)[0]) == inputs(explicit.run(10.0)[0])
        # the stepsize shows in the trajectory
        halved = self.config(slow_sine_plant, beta=1.0 / 44.0)
        assert inputs(halved.run(10.0)[0]) != inputs(explicit.run(10.0)[0])
        # the default follows the cost, so replace() keeps no stale value
        wider = SqrtPlusCost(a=5.5)
        assert (inputs(replace(default, cost=wider).run(10.0)[0])
                == inputs(replace(explicit, cost=wider, beta=1.0 / 11.0).run(10.0)[0]))

    def test_stepsize_gate(self, slow_sine_plant):
        with pytest.raises(InputError, match="projected-law precondition"):
            self.config(slow_sine_plant, beta=1.0 / 22.0 + 1e-6)
        with pytest.raises(InputError, match="beta"):
            self.config(slow_sine_plant, beta=0.0)
        # the gate runs again when the cost changes
        with pytest.raises(InputError, match="projected-law precondition"):
            replace(self.config(slow_sine_plant, beta=1.0 / 22.0), cost=SqrtPlusCost(a=22.0))

    def test_rate_clamps_to_bound(self):
        # reduced gradient ~ -0.002 pushes the target outside the box
        assert self.rate(1.0, 0.0, (0.001,)) == 5e-5

    def test_inactive_box_reduces_to_gradient_step(self):
        wide = BoxSet(lo=-1e6, hi=1e6)
        u, y = 0.01, (0.5,)
        rg = reduced_gradient(self.cost, (-2.0,), u, y)
        expected = 2.0 * (-1.0 / 22.0) * rg
        assert self.rate(2.0, u, y, box=wide) == pytest.approx(expected, rel=1e-14)

    def test_fixed_point_equivalence(self):
        rng = random.Random(17)
        for _ in range(50):
            u = rng.uniform(-5e-5, 5e-5)
            y = (rng.uniform(-0.002, 0.002),)
            rg = reduced_gradient(self.cost, (-2.0,), u, y)
            target = proj_box(u - (1.0 / 22.0) * rg, self.box)
            is_fixed = target == u
            assert (self.rate(3.0, u, y) == 0.0) == is_fixed

    def test_tangent_cone_direction_at_bounds(self):
        # at either bound the rate cannot point outward
        assert self.rate(1.0, 5e-5, (0.001,)) <= 0.0
        assert self.rate(1.0, -5e-5, (-0.001,)) >= 0.0
