import random
from importlib.resources import files as resource_files

import numpy as np
import pytest

from ofo.costs import QuadraticCost, SqrtPlusCost
from ofo.linalg import Matrix
from ofo.plants import LinearPlant, SinePlant
from ofo.scenario import Scenario


def bundled_scenario_path(name: str) -> str:
    return str(resource_files("ofo").joinpath(f"scenarios/{name}.yaml"))


def bundled_scenario(name: str) -> Scenario:
    return Scenario.load(bundled_scenario_path(name))


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
