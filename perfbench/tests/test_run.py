"""Fast tests of the runner's own parts: the speed probe that scales timed
windows to the reference speed, and the shortened fig2 scenario.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import short  # noqa: E402
from run import PROBE_REF_S, SpeedProbe  # noqa: E402


def probe_with(samples):
    probe = SpeedProbe()
    probe.samples = list(samples)
    return probe


def test_a_window_is_scaled_by_the_mean_probe_time_inside_it():
    probe = probe_with([(0.5, 9.0), (1.0, 2 * PROBE_REF_S), (2.0, 4 * PROBE_REF_S), (3.5, 9.0)])
    # Mean 3 * PROBE_REF_S inside [1, 3]: the machine ran at a third of the
    # reference speed, so 6 wall seconds are 2 at the reference speed.
    assert probe.scaled(6.0, 1.0, 3.0) == pytest.approx(2.0)


def test_a_window_without_samples_takes_the_nearest_one():
    probe = probe_with([(1.0, PROBE_REF_S), (5.0, 2 * PROBE_REF_S)])
    assert probe.scaled(1.0, 4.0, 4.5) == pytest.approx(0.5)


def test_the_probe_samples_while_running_and_stops():
    probe = SpeedProbe()
    probe.start()
    time.sleep(0.3)
    probe.stop()
    assert not probe.is_alive()
    assert len(probe.samples) >= 2
    assert all(cpu > 0.0 for _, cpu in probe.samples)


def test_fig2_short_is_fig2_at_an_eighth_of_its_horizon():
    bundled = (Path(__file__).resolve().parents[2] / "src" / "ofo" / "scenarios" / "fig2.yaml")
    full = yaml.safe_load(bundled.read_text(encoding="utf-8"))
    cut = yaml.safe_load(short.shorten(bundled.read_text(encoding="utf-8")))
    assert cut["sim"]["t_end"] == full["sim"]["t_end"] / 8
    assert cut["schedule"] == [[t / 8, w] for t, w in full["schedule"]]
    for key in ("plant", "cost", "controller", "certificate"):
        assert cut[key] == full[key]
