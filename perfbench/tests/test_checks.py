"""Fast tests of the benchmark's own code: every checker passes the program's
real output and flags a deliberately corrupted copy of it, and the
`levels-sweep` generator is deterministic and yields only Hurwitz gains.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import levels  # noqa: E402
from run import LEVELS_GAINS, certified_xi  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OFO_THREADS="1")


def ofo(*args: str) -> str:
    return subprocess.run([sys.executable, "-m", "ofo.cli", *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True).stdout


class Output:
    """One sweep output directory with its scenario and certified weight."""

    def __init__(self, scenario: Path, out: Path):
        self.loop = checks.load_loop(scenario.read_text())
        self.xi = float(certified_xi(ofo("certify", str(scenario))))
        self.summary = checks.read_summary(out / "summary.csv")
        self.out = out

    def check(self, label: str, table=None, row=None) -> list[str]:
        if table is None:
            table = checks.read_table(self.out / f"alpha_{label}.csv")
        return checks.check_gain(self.loop, float(label), row or self.summary[label],
                                 table, self.xi)

    def column(self, label: str, name: str):
        header, data = checks.read_table(self.out / f"alpha_{label}.csv")
        return header, data.copy(), header.index(name)


@pytest.fixture(scope="module")
def fig1(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    ofo("reproduce", "fig1", "--out", str(out))
    return Output(ROOT / "src" / "ofo" / "scenarios" / "fig1.yaml", out)


@pytest.fixture(scope="module")
def boxed(tmp_path_factory):
    """fig2's projected law on the sine plant, cut to two short segments."""
    doc = yaml.safe_load((ROOT / "src" / "ofo" / "scenarios" / "fig2.yaml").read_text())
    doc["schedule"] = [[0.0, -0.001], [2.0, 0.001]]
    doc["sim"]["t_end"] = 4.0
    tmp = tmp_path_factory.mktemp("boxed")
    scenario = tmp / "boxed.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    ofo("sweep", str(scenario), "--alphas", "1,10", "--out", str(tmp / "out"))
    return Output(scenario, tmp / "out")


@pytest.fixture(scope="module")
def tiny_tail(tmp_path_factory):
    """fig1 with a step 5e-15 short of dividing the segments: each segment
    ends with a 2.5e-14 step, so its last sample prints with the next
    segment's start time."""
    doc = yaml.safe_load((ROOT / "src" / "ofo" / "scenarios" / "fig1.yaml").read_text())
    doc["sim"]["dt"] = 0.0025 * (1.0 - 5e-15)
    tmp = tmp_path_factory.mktemp("tiny_tail")
    scenario = tmp / "tiny_tail.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    ofo("sweep", str(scenario), "--alphas", "10", "--out", str(tmp / "out"))
    return Output(scenario, tmp / "out")


def kinds(failures: list[str]) -> set[str]:
    return {msg.split(":", 1)[0] for msg in failures}


def test_program_outputs_pass(fig1, boxed):
    for label in ("1", "10", "100"):
        assert fig1.check(label) == []
    for label in ("1", "10"):
        assert boxed.check(label) == []


def test_repeated_time_at_a_switch_passes(tiny_tail):
    t = tiny_tail.column("10", "t")[1][:, 0]
    # at the three switches and at t_end
    assert np.count_nonzero(np.diff(t) == 0.0) == 4
    assert tiny_tail.check("10") == []


def test_fig1_gain_1000_fails_on_status_only(fig1):
    # The loop is not Hurwitz at gain 1000, yet summary.csv labels the run ok.
    assert kinds(fig1.check("1000")) == {"status"}
    honest = dict(fig1.summary["1000"], status="diverged")
    assert fig1.check("1000", row=honest) == []


def test_wrong_status_is_flagged(fig1):
    row = dict(fig1.summary["10"], status="diverged")
    assert kinds(fig1.check("10", row=row)) == {"status"}


def corrupt_sample(out, label: str, row: int):
    """Move x2 of one sample by 0.1% of that sample's largest state entry."""
    header, data, col = out.column(label, "x2")
    states = data[row, 1:header.index("y1")]
    data[row, col] += 1e-3 * np.abs(states).max()
    return header, data


@pytest.mark.parametrize("label", ["10", "1000"])
def test_corrupted_sample_is_flagged(fig1, label):
    table = corrupt_sample(fig1, label, 2 * len(fig1.column(label, "t")[1]) // 3)
    assert "trajectory" in kinds(fig1.check(label, table))


def test_corrupted_sample_is_flagged_on_the_sine_plant(boxed):
    table = corrupt_sample(boxed, "10", len(boxed.column("10", "t")[1]) // 2)
    assert "trajectory" in kinds(boxed.check("10", table))


@pytest.mark.parametrize("output", ["fig1", "boxed"])
def test_corrupted_ustar_is_flagged(output, request):
    out = request.getfixturevalue(output)
    header, data, col = out.column("10", "ustar1")
    data[5, col] *= 0.99
    assert "ustar" in kinds(out.check("10", (header, data)))


@pytest.mark.parametrize("output", ["fig1", "boxed"])
def test_corrupted_v_is_flagged(output, request):
    out = request.getfixturevalue(output)
    header, data, col = out.column("10", "V")
    data[len(data) // 4, col] *= 1.0001
    assert kinds(out.check("10", (header, data))) == {"V"}


def test_u_outside_the_box_is_flagged(boxed):
    header, data, col = boxed.column("10", "u1")
    i = int(np.argmax(data[:, col]))
    data[i, col] = boxed.loop.hi[0] + 1e-9
    assert "box" in kinds(boxed.check("10", (header, data)))


def test_wrong_final_error_is_flagged(fig1, boxed):
    for out in (fig1, boxed):
        row = dict(out.summary["10"])
        row["final_error"] = repr(float(row["final_error"]) * 1.01 + 1e-6)
        assert kinds(out.check("10", row=row)) == {"final_error"}


def test_levels_scenario_is_seeded():
    assert levels.scenario_yaml(3) == levels.scenario_yaml(3)
    assert levels.scenario_yaml(3) != levels.scenario_yaml(4)
    # run.py names the same gains without importing numpy.
    assert LEVELS_GAINS == tuple(f"{alpha:g}" for alpha in levels.GAINS)


@pytest.mark.parametrize("seed", range(5))
def test_levels_scenario_has_only_hurwitz_gains(seed):
    loop = checks.load_loop(levels.scenario_yaml(seed))
    assert loop.affine and loop.n == levels.N_STATES
    assert len(set(loop.levels[:, 0])) == levels.N_LEVELS
    assert checks.hurwitz(loop.a)
    for alpha in levels.GAINS:
        assert checks.is_hurwitz(loop, alpha)
