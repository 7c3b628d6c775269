import math

import numpy as np
import pytest
import scipy.linalg

from ofo.errors import DivergenceError, InputError
from ofo.sim import plan_steps

from conftest import dini_upper_estimate, integrate

A_ROWS = np.array([[-1.0, 10.0], [-10.0, -1.0]])


def linear_field(state):
    x1, x2 = state
    return (-x1 + 10.0 * x2, -10.0 * x1 - x2)


class TestPlanSteps:
    def test_exact_division(self):
        assert plan_steps(0.0, 1.0, 0.25) == (4, 0.0)

    def test_shortened_final_step(self):
        n_full, last = plan_steps(0.0, 1.0, 0.3)
        assert n_full == 3
        assert last == pytest.approx(0.1, abs=1e-12)

    def test_dt_longer_than_span(self):
        n_full, last = plan_steps(0.0, 0.1, 1.0)
        assert n_full == 0
        assert last == pytest.approx(0.1, abs=1e-15)

    def test_rounding_remainder_is_not_a_step(self):
        # 0.0025 / 0.1 is one ulp short of 0.025; over 20000 steps that leaves
        # 5.7e-14, one ulp of 500, which as a step would add a record and
        # change the stride
        assert plan_steps(0.0, 500.0, 0.0025 / 0.1) == (20000, 0.0)
        # end times divided by 10: the span rounds to 0.6 ulp of 1.6 over 550 steps
        assert plan_steps(15.75 / 10, 16.0 / 10, 1.0 / 2200.0 / 10) == (550, 0.0)

    def test_remainder_beyond_rounding_is_a_step(self):
        # a dt 5e-15 short of dividing 5 leaves 2.5e-14, seven ulps of 20
        n_full, last = plan_steps(15.0, 20.0, 0.0025 * (1.0 - 5e-15))
        assert n_full == 2000
        assert last == pytest.approx(2.5e-14, rel=0.01)
        # one ulp long, the last step falls 6.9e-14 short of a full one,
        # within rounding of 500, so it counts as that full step
        assert plan_steps(0.0, 500.0, math.nextafter(0.025, 1.0)) == (20000, 0.0)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            plan_steps(0.0, 1.0, 0.0)
        with pytest.raises(InputError):
            plan_steps(1.0, 1.0, 0.1)


class TestIntegrate:
    def test_zero_field_is_constant(self):
        times, states = integrate(lambda s: (0.0, 0.0), (3.0, -4.0), (0.0, 2.0), 0.5)
        assert times == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert all(s == (3.0, -4.0) for s in states)

    def test_exponential_decay_single_step(self):
        times, states = integrate(lambda s: (-s[0],), (1.0,), (0.0, 0.1), 0.1)
        assert len(times) == 2
        # one classical fourth-order step of exp decay
        assert states[-1][0] == pytest.approx(0.9048375, abs=1e-12)
        assert states[-1][0] == pytest.approx(math.exp(-0.1), abs=1e-6)

    def test_fourth_order_error_ratio(self):
        # end-point error against the matrix-exponential reference shrinks
        # ~16x when the step is halved
        x0 = (1.0, 1.0)
        ref = scipy.linalg.expm(A_ROWS * 1.0) @ np.array(x0)

        def end_error(dt):
            _, states = integrate(linear_field, x0, (0.0, 1.0), dt)
            return float(np.linalg.norm(np.array(states[-1]) - ref))

        ratio = end_error(0.01) / end_error(0.005)
        assert 12.0 <= ratio <= 20.0

    def test_lands_exactly_on_t1(self):
        times, _ = integrate(lambda s: (-s[0],), (1.0,), (0.0, 1.0), 0.3)
        assert times[-1] == 1.0
        assert times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)

    def test_deterministic(self):
        a = integrate(linear_field, (1.0, 0.5), (0.0, 2.0), 0.01)
        b = integrate(linear_field, (1.0, 0.5), (0.0, 2.0), 0.01)
        assert a == b

    def test_divergence_detected_with_time(self):
        # dx/dt = x^2 from x0 = 1 blows up at t = 1
        with pytest.raises(DivergenceError) as err:
            integrate(lambda s: (s[0] * s[0],), (1.0,), (0.0, 2.0), 1e-3)
        assert err.value.time is not None
        assert 0.9 <= err.value.time <= 1.1
        assert "divergence" in str(err.value)


class TestDiniEstimate:
    def test_constant_series(self):
        times = [0.0, 1.0, 2.0]
        values = [5.0, 5.0, 5.0]
        assert dini_upper_estimate(times, values, 0) == 0.0

    def test_exponential_slope(self):
        dt = 1e-3
        times = [0.0, dt]
        values = [math.exp(-t) for t in times]
        assert dini_upper_estimate(times, values, 0) == pytest.approx(-1.0, abs=1e-3)

    def test_max_composition_kink(self):
        # max(exp(-t), 0.5) around the kink: both branches non-increasing
        times = [math.log(2.0) - 1e-3, math.log(2.0), math.log(2.0) + 1e-3]
        values = [max(math.exp(-t), 0.5) for t in times]
        for i in range(2):
            assert dini_upper_estimate(times, values, i) <= 1e-9

    def test_last_index_rejected(self):
        with pytest.raises(InputError):
            dini_upper_estimate([0.0, 1.0], [1.0, 2.0], 1)
