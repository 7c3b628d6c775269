import math
import random

import numpy as np
import pytest

from ofo.errors import InputError, NotStabilizedError
from ofo.linalg import Matrix
from ofo.plants import LinearPlant, SinePlant

from conftest import plant_dynamics, plant_output, to_rows, vec_norm


class TestDynamics:
    def test_origin_equilibrium(self, fast_plant):
        assert plant_dynamics(fast_plant, (0.0, 0.0), 0.0, (0.0,)) == (0.0, 0.0)

    def test_first_state_column(self, fast_plant):
        assert plant_dynamics(fast_plant, (1.0, 0.0), 0.0, (0.0,)) == (-1.0, -10.0)

    def test_sine_disturbance_drift(self, slow_sine_plant):
        assert plant_dynamics(slow_sine_plant, (0.0, 0.0), 0.0, (0.001,)) == pytest.approx(
            (0.0001, 0.0001), abs=1e-18)

    def test_dimension_mismatch(self, fast_plant):
        with pytest.raises(InputError):
            plant_dynamics(fast_plant, (0.0,), 0.0, (0.0,))
        with pytest.raises(InputError):
            plant_dynamics(fast_plant, (0.0, 0.0), 0.0, (0.0, 0.0))


class TestOutput:
    def test_zero(self, fast_plant):
        assert plant_output(fast_plant, (0.0, 0.0)) == (0.0,)

    def test_selector_row(self, fast_plant):
        assert plant_output(fast_plant, (3.0, 7.0)) == (3.0,)

    def test_row_sum(self, slow_sine_plant):
        assert plant_output(slow_sine_plant, (0.0, 0.001)) == pytest.approx((0.001,), abs=1e-18)


class TestSteadyState:
    def test_origin(self, fast_plant, slow_sine_plant):
        for plant in (fast_plant, slow_sine_plant):
            assert plant.steady_state(0.0, (0.0,)) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_sine_disturbance_only(self, slow_sine_plant):
        assert slow_sine_plant.steady_state(0.0, (0.001,)) == pytest.approx(
            (0.0, 0.001), abs=1e-15)

    def test_unit_input_fixed_point(self, fast_plant):
        s = fast_plant.steady_state(1.0, (0.0,))
        # the closed form is -A^{-1} B; the residual check is the oracle
        assert s == pytest.approx((10.0 / 101.0, 1.0 / 101.0), abs=1e-12)
        assert vec_norm(plant_dynamics(fast_plant, s, 1.0, (0.0,))) <= 1e-10

    def test_fixed_point_property_random(self, fast_plant, slow_sine_plant):
        rng = random.Random(101)
        for plant in (fast_plant, slow_sine_plant):
            for _ in range(100):
                u = rng.uniform(-5.0, 5.0)
                w = (rng.uniform(-10.0, 10.0),)
                s = plant.steady_state(u, w)
                assert vec_norm(plant_dynamics(plant, s, u, w)) <= 1e-10


class TestSteadyOutput:
    def test_zero(self, fast_plant):
        assert fast_plant.steady_output(0.0, (0.0,)) == (0.0,)

    def test_disturbance_gain(self, fast_plant):
        assert fast_plant.steady_output(0.0, (10.0,)) == pytest.approx(
            (110.0 / 101.0,), abs=1e-12)

    def test_sine_disturbance_gain(self, slow_sine_plant):
        assert slow_sine_plant.steady_output(0.0, (0.001,)) == pytest.approx(
            (0.001,), abs=1e-15)


class TestSensitivity:
    def test_linear_constant_in_u_and_w(self, fast_plant):
        expected = 10.0 / 101.0
        for u in (-3.0, 0.0, 7.5):
            (s,) = fast_plant.sensitivity(u)
            assert s == pytest.approx(expected, abs=1e-14)
            # the sensitivity is the slope of the steady output, whatever w is
            for w in (-10.0, 0.0, 10.0):
                slope = (fast_plant.steady_output(u + 1.0, (w,))[0]
                         - fast_plant.steady_output(u, (w,))[0])
                assert slope == pytest.approx(expected, abs=1e-12)
        assert fast_plant.sensitivity(2.0) == fast_plant.sensitivity(-4.0)

    def test_sine_scaling(self, slow_sine_plant):
        assert slow_sine_plant.sensitivity(0.0)[0] == pytest.approx(-2.0, abs=1e-12)
        assert slow_sine_plant.sensitivity(math.pi)[0] == pytest.approx(0.0, abs=1e-12)
        # the sensitivity takes no disturbance: d/du h(u, w) does not depend on w
        step = 1e-5
        for w in (0.0, 0.5):
            fd = (slow_sine_plant.steady_output(1.0 + step, (w,))[0]
                  - slow_sine_plant.steady_output(1.0 - step, (w,))[0]) / (2.0 * step)
            assert fd == pytest.approx(slow_sine_plant.sensitivity(1.0)[0],
                                       rel=1e-6, abs=1e-8)

    def test_matches_finite_differences(self, fast_plant, slow_sine_plant):
        rng = random.Random(55)
        step = 1e-5
        for plant, w in ((fast_plant, (3.0,)), (slow_sine_plant, (0.01,))):
            for _ in range(20):
                u = rng.uniform(-2.0, 2.0)
                fd = (plant.steady_output(u + step, w)[0]
                      - plant.steady_output(u - step, w)[0]) / (2.0 * step)
                (sens,) = plant.sensitivity(u)
                assert sens == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestConstructionGates:
    def test_hurwitz_gate(self):
        a = Matrix.from_rows([[0.0, 1.0], [0.0, 0.0]])
        b = Matrix.from_rows([[0.0], [1.0]])
        bw = Matrix.from_rows([[1.0], [1.0]])
        c = Matrix.from_rows([[1.0, 0.0]])
        with pytest.raises(NotStabilizedError):
            LinearPlant(a=a, b=b, bw=bw, c=c)
        with pytest.raises(NotStabilizedError):
            SinePlant(a=a, b=b, bw=bw, c=c)

    @pytest.mark.parametrize("plant_cls", [LinearPlant, SinePlant])
    @pytest.mark.parametrize("inputs", [2, 3])
    def test_input_is_scalar(self, plant_cls, inputs):
        # the one place a multi-column B is refused: everything downstream
        # (cost, box, optimizer, RunConfig, certificate) takes u as a float
        with pytest.raises(InputError, match=f"the input is scalar: B must have one column, "
                                             f"not {inputs}"):
            plant_cls(
                a=Matrix.identity(2).scale(-1.0),
                b=Matrix.from_rows([[1.0] * inputs, [0.5] * inputs]),
                bw=Matrix.from_rows([[1.0], [1.0]]),
                c=Matrix.from_rows([[1.0, 0.0]]),
            )

    def test_shape_mismatches(self):
        with pytest.raises(InputError):
            LinearPlant(
                a=Matrix.identity(2).scale(-1.0),
                b=Matrix.from_rows([[1.0]]),
                bw=Matrix.from_rows([[1.0], [1.0]]),
                c=Matrix.from_rows([[1.0, 0.0]]),
            )

    def test_immutability(self, fast_plant):
        with pytest.raises(Exception):
            fast_plant.a = Matrix.identity(2)

    def test_disturbance_is_not_plant_state(self, fast_plant):
        assert not hasattr(fast_plant, "w")
        before = fast_plant.steady_output(0.0, (0.0,))
        assert fast_plant.steady_output(0.0, (2.0,)) != before
        assert fast_plant.steady_output(0.0, (0.0,)) == before


def test_sine_steady_state_matches_numpy_closed_form(slow_sine_plant):
    rng = random.Random(77)
    a = np.array(to_rows(slow_sine_plant.a))
    b = np.array(to_rows(slow_sine_plant.b))[:, 0]
    bw = np.array(to_rows(slow_sine_plant.bw))[:, 0]
    for _ in range(20):
        u = rng.uniform(-3.0, 3.0)
        w = rng.uniform(-0.01, 0.01)
        expected = -np.linalg.solve(a, b * (u + math.sin(u)) + bw * w)
        got = slow_sine_plant.steady_state(u, (w,))
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-14)
