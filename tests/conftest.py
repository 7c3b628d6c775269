import inspect
import math
import os
import random
from importlib.resources import files as resource_files
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest

from ofo import engine
from ofo._record import Record
from ofo.costs import QuadraticCost, SqrtPlusCost, reduced_gradient
from ofo.engine import pure
from ofo.errors import DivergenceError, InputError
from ofo.linalg import Matrix, vec_add
from ofo.plants import LinearPlant, SinePlant
from ofo.scenario import Scenario
from ofo.sim import plan_steps

VectorField = Callable[[tuple[float, ...]], Sequence[float]]


def checkout_env(**env: str) -> dict[str, str]:
    """The environment for a child Python that imports this checkout's ofo:
    os.environ with the checkout's src put first on PYTHONPATH, and env."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **env)


def replace(obj, **changes):
    """A copy of obj with the given changes, built by its class's own
    __init__ from obj's values of that __init__'s parameters, so every check
    of the constructor runs again, as dataclasses.replace does."""
    names = list(inspect.signature(type(obj)).parameters)
    unknown = sorted(set(changes) - set(names))
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no parameter {', '.join(unknown)}")
    return type(obj)(**{name: changes[name] if name in changes else getattr(obj, name)
                        for name in names})


def as_dict(record) -> dict:
    """A record's fields, its __init__'s parameters, by name and in order,
    with nested records as dicts, as dataclasses.asdict gives them for a
    dataclass."""
    out = {}
    for name in inspect.signature(type(record)).parameters:
        value = getattr(record, name)
        out[name] = as_dict(value) if isinstance(value, Record) else value
    return out


def bundled_scenario_path(name: str) -> str:
    return str(resource_files("ofo").joinpath(f"scenarios/{name}.yaml"))


def bundled_scenario(name: str) -> Scenario:
    return Scenario.load(bundled_scenario_path(name))


@pytest.fixture(params=["selected", "pure"])
def kernel(request, monkeypatch) -> str:
    """Runs the test once with the kernel chosen on first use and once with
    the pure-Python kernel, for stepping and for CSV rows alike."""
    if request.param == "pure":
        monkeypatch.setattr(engine, "run_segment", pure.run_segment)
        monkeypatch.setattr(engine, "format_rows", pure.format_rows)
    return request.param


@pytest.fixture
def fast_plant() -> LinearPlant:
    """Resonant two-state linear plant with scalar input and output."""
    return LinearPlant(
        a=Matrix.from_rows([[-1.0, 10.0], [-10.0, -1.0]]),
        b=Matrix.from_rows([[0.0], [1.0]]),
        bw=Matrix.from_rows([[1.0], [1.0]]),
        c=Matrix.from_rows([[1.0, 0.0]]),
    )


@pytest.fixture
def slow_sine_plant() -> SinePlant:
    """Slow two-state plant with a sine input nonlinearity."""
    return SinePlant(
        a=Matrix.from_rows([[0.0, -0.1], [0.1, -0.1]]),
        b=Matrix.from_rows([[0.0], [0.1]]),
        bw=Matrix.from_rows([[0.1], [0.1]]),
        c=Matrix.from_rows([[1.0, 1.0]]),
    )


@pytest.fixture
def quad_cost() -> QuadraticCost:
    return QuadraticCost(q_u=0.01, q_y=1.0)


@pytest.fixture
def sqrt_cost() -> SqrtPlusCost:
    return SqrtPlusCost(a=11.0)


def to_rows(m: Matrix) -> list[list[float]]:
    """The rows of a matrix as lists."""
    return [list(m.row(i)) for i in range(m.rows)]


def vec_norm(a: Sequence[float]) -> float:
    """Euclidean norm of a vector."""
    return math.sqrt(sum(x * x for x in a))


def random_hurwitz_rows(rng: random.Random, n: int) -> list[list[float]]:
    """Random Hurwitz matrix: random entries shifted left of the imag axis
    (shift computed with the numpy eigenvalue oracle)."""
    m = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    shift = float(np.max(np.linalg.eigvals(np.array(m)).real)) + rng.uniform(0.2, 1.0)
    return [[m[i][j] - (shift if i == j else 0.0) for j in range(n)] for i in range(n)]


def random_spd_rows(rng: random.Random, n: int) -> list[list[float]]:
    """Random symmetric positive-definite matrix via G^T G + eps I."""
    g = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    s = g.T @ g + 0.05 * np.eye(n)
    return [[float(s[i, j]) for j in range(n)] for i in range(n)]


def plant_dynamics(plant, x, u, w):
    """dx/dt = A x + (the plant's input term) + B_w w at state x, input u and
    disturbance w."""
    if len(x) != plant.n:
        raise InputError(f"state has length {len(x)}, expected {plant.n}")
    return vec_add(vec_add(plant.a.matvec(x), plant.input_effect(u)), plant.bw.matvec(w))


def plant_output(plant, x):
    """y = C x at state x."""
    if len(x) != plant.n:
        raise InputError(f"state has length {len(x)}, expected {plant.n}")
    return plant.c.matvec(x)


def proj_box(v, box):
    """Euclidean projection onto the interval box: clamping."""
    return min(max(v, box.lo), box.hi)


def ofo_rate(cost, sensitivity, alpha, u, y, beta=None, box=None):
    """The input rate of the OFO law at (u, y), written from its definition:
    -alpha g for the gradient law (box None), alpha (proj_box(u - beta g) - u)
    for the projected law, with g the reduced gradient at sensitivity(u)."""
    g = reduced_gradient(cost, sensitivity(u), u, y)
    if box is None:
        return -alpha * g
    return alpha * (proj_box(u - beta * g, box) - u)


def closed_loop_field(config, alpha, w):
    """The field of the stacked state (x, u) of a run configuration at gain
    alpha under a constant disturbance w, built from plant_dynamics and
    ofo_rate; the projected law's stepsize defaults to 1/L."""
    plant, n = config.plant, config.plant.n
    beta = config.beta if config.beta is not None else 1.0 / config.cost.grad_u_lipschitz

    def field(state):
        x, u = state[:n], state[n]
        du = ofo_rate(config.cost, plant.sensitivity, alpha, u, plant_output(plant, x), beta,
                      config.box)
        return plant_dynamics(plant, x, u, w) + (du,)

    return field


def rk4_step(field: VectorField, x: tuple[float, ...], h: float) -> tuple[float, ...]:
    """One classical 4th-order Runge-Kutta step of size h."""
    h2 = 0.5 * h
    h6 = h / 6.0
    k1 = field(x)
    k2 = field(tuple(x[i] + h2 * k1[i] for i in range(len(x))))
    k3 = field(tuple(x[i] + h2 * k2[i] for i in range(len(x))))
    k4 = field(tuple(x[i] + h * k3[i] for i in range(len(x))))
    return tuple(x[i] + h6 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(len(x)))


def integrate(
    field: VectorField,
    x0: Sequence[float],
    t_span: tuple[float, float],
    dt: float,
) -> tuple[list[float], list[tuple[float, ...]]]:
    """Generic fixed-step RK4 reference integration of an autonomous field,
    sampling every step.

    Samples are taken at t0, t0+dt, ... with the final partial step shortened
    (see plan_steps) to land exactly on t1.  A non-finite state raises
    DivergenceError carrying the blow-up time.
    """
    t0, t1 = t_span
    n_full, last_dt = plan_steps(t0, t1, dt)
    x = tuple(float(v) for v in x0)
    times = [t0]
    states = [x]
    n_tot = n_full + (1 if last_dt > 0.0 else 0)
    for i in range(n_tot):
        h = dt if i < n_full else last_dt
        x = rk4_step(field, x, h)
        t = t1 if i + 1 == n_tot else t0 + (i + 1) * dt
        for v in x:
            if not math.isfinite(v):
                raise DivergenceError(f"divergence detected at t = {t:.6g}", time=t)
        times.append(t)
        states.append(x)
    return times, states


def dini_upper_estimate(times: Sequence[float], values: Sequence[float], index: int) -> float:
    """Forward-difference surrogate for the upper right Dini derivative."""
    if index < 0 or index >= len(values) - 1:
        raise InputError("index must not point at the last sample")
    return (values[index + 1] - values[index]) / (times[index + 1] - times[index])


def states(traj) -> list[tuple[float, ...]]:
    """Every recorded state of a trajectory as an n-tuple, in time order."""
    return [x for seg in traj.segments for x in zip(*[iter(seg.samples.xs)] * len(seg.xstar))]


def outputs(traj) -> list[tuple[float, ...]]:
    """Every recorded output of a trajectory as a p-tuple, in time order."""
    out = []
    for seg in traj.segments:
        p = len(seg.samples.ys) // len(seg.samples.times)
        out += zip(*[iter(seg.samples.ys)] * p)
    return out


def inputs(traj) -> list[float]:
    """Every recorded (scalar) input of a trajectory, in time order."""
    return [u for seg in traj.segments for u in seg.samples.us]


def final_state(traj) -> tuple[float, ...]:
    """The exact stacked state (x, u) at the end of a trajectory."""
    last = traj.segments[-1].samples
    return (*last.final_x, last.final_u)
