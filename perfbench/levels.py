"""Seeded scenario for the `levels-sweep` workload.

An 8-state Hurwitz linear plant with scalar input and output, a quadratic
cost and the gradient law, driven through 64 distinct disturbance levels on
short segments.  The plant is normalised so that the program's default step
size, and with it the number of kernel steps, is the same for every seed:
||A||_2 = 2, ||C|| = 1 and a unit steady-state gain -C A^-1 B = 1.  Plants
are drawn from the seed until numpy finds the affine closed loop Hurwitz at
every gain of the sweep.

    python3 perfbench/levels.py <seed>     # prints the scenario YAML
"""

from __future__ import annotations

import sys

import numpy as np
import yaml

from checks import closed_loop_matrix, hurwitz

N_STATES = 8
N_LEVELS = 64
SEGMENT = 0.25
GAINS = (1.0, 10.0, 100.0)
Q_U = 0.1
Q_Y = 1.0


def _plant(rng):
    g = rng.normal(size=(N_STATES, N_STATES))
    g /= np.linalg.norm(g, 2)
    a = g - (np.linalg.eigvals(g).real.max() + rng.uniform(0.3, 0.6)) * np.eye(N_STATES)
    a *= 2.0 / np.linalg.norm(a, 2)
    b = rng.normal(size=(N_STATES, 1))
    bw = rng.normal(size=(N_STATES, 1))
    c = rng.normal(size=(1, N_STATES))
    c /= np.linalg.norm(c)
    b /= (-c @ np.linalg.solve(a, b))[0, 0]
    return a, b, bw, c


def scenario_yaml(seed: int) -> str:
    """The scenario for one seed; the same seed gives the same text."""
    rng = np.random.default_rng(seed)
    while True:
        a, b, bw, c = _plant(rng)
        if all(hurwitz(closed_loop_matrix(a, b, c, Q_U, Q_Y, alpha)) for alpha in GAINS):
            break
    levels = rng.uniform(-1.0, 1.0, size=N_LEVELS)
    while len(set(levels.tolist())) < N_LEVELS:
        levels = rng.uniform(-1.0, 1.0, size=N_LEVELS)
    doc = {
        "plant": {"kind": "linear", "A": a.tolist(), "B": b.tolist(),
                  "B_w": bw.tolist(), "C": c.tolist()},
        "cost": {"kind": "quadratic", "q_u": Q_U, "q_y": Q_Y},
        "controller": {"kind": "gradient", "alpha": GAINS[0]},
        "schedule": [[k * SEGMENT, float(w)] for k, w in enumerate(levels)],
        "sim": {"t_end": N_LEVELS * SEGMENT},
    }
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


if __name__ == "__main__":
    sys.stdout.write(scenario_yaml(int(sys.argv[1])))
