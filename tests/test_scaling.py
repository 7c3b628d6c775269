"""The paper's scaling invariance, checked on the certificate and on runs.

Scale A, B and B_w by eps, and the schedule's times and t_end by 1/eps.  At
gain alpha that loop is the original loop at gain alpha / eps, in time
eps t: H, u* and x* do not change, the plant's P scales by 1/eps and a
certified weight xi by eps, so xi P does not change.  A scenario's own
Lyapunov constants c3, d3 and zeta3 describe a P, so they are divided by eps
as well; mu3 is a rate relative to the plant's own and is kept.
"""

import copy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from ofo.certificate import certify
from ofo.cli import _run_config, main
from ofo.scenario import Scenario
from ofo.sim import default_dt, simulate

from conftest import as_dict, bundled_scenario_path, replace

SCALES = (1e-2, 0.1, 10.0)
#: The scales swept at the default step.  At 1e-2 the cap on the step would
#: give fig2 4 million steps a gain, 100 times the original's.
SWEPT_SCALES = (0.1, 10.0)
#: The gains the runs start from, and default_dt's cap on the step.
GAINS = (1.0, 10.0, 100.0)
CAP = 2.5e-3


def _bundled(name: str, **cost) -> dict:
    doc = yaml.safe_load(Path(bundled_scenario_path(name)).read_text("utf-8"))
    doc["cost"].update(cost)
    return doc


def _levels(seed: int) -> dict:
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "levels.py"), str(seed)],
                          capture_output=True, text=True, check=True)
    return yaml.safe_load(proc.stdout)


#: name -> (scenario document, whether it is certified, the gains it sweeps)
CASES = {
    "fig1": (lambda: _bundled("fig1"), False, GAINS + (1000.0,)),
    "fig1-mu4": (lambda: _bundled("fig1", mu4=0.5), True, GAINS + (1000.0,)),
    "fig2": (lambda: _bundled("fig2"), True, GAINS),
    "levels-1": (lambda: _levels(1), False, GAINS),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    make, certified, gains = CASES[request.param]
    return make(), certified, gains


def scaled(doc: dict, eps: float) -> dict:
    """The scenario on a time scale eps times as fast, at eps times its gain."""
    doc = copy.deepcopy(doc)
    for key in ("A", "B", "B_w"):
        doc["plant"][key] = [[eps * v for v in row] for row in doc["plant"][key]]
    doc["schedule"] = [[t / eps, *w] for t, *w in doc["schedule"]]
    doc["sim"]["t_end"] /= eps
    doc["controller"]["alpha"] *= eps
    overrides = doc.get("certificate", {}).get("overrides", {})
    for name in ("c3", "d3", "zeta3"):
        if name in overrides:
            overrides[name] /= eps
    return doc


def report_of(doc: dict):
    scenario = Scenario.from_dict(doc)
    config = scenario.config
    return certify(config.plant, config.cost, scenario.alpha, scenario.overrides,
                   scenario.claimed_mu_bound_rhs)


def flat(report) -> dict:
    """Every value of the report, nested records flattened to `record.field`."""
    out = {}
    for key, value in as_dict(report).items():
        if isinstance(value, dict):
            out.update({f"{key}.{name}": v for name, v in value.items()})
        else:
            out[key] = value
    return out


#: The report's values that scale with the time unit; every other is equal.
#: alpha and tau_at_alpha scale because the scaled loop is certified at
#: eps times the original's gain.
TIMES_EPS = {"constants.ell_f", "params.mu1", "params.theta2", "xi.lo", "xi.hi",
             "xi.chosen", "alpha", "tau_at_alpha"}
OVER_EPS = {"constants.c3", "constants.d3", "constants.zeta3"}


def test_certificate_scales_with_the_time_unit(case):
    doc, certified, _ = case
    original = flat(report_of(doc))
    assert original["certified"] is certified
    for eps in SCALES:
        got = flat(report_of(scaled(doc, eps)))
        assert got.keys() == original.keys()
        for name, value in original.items():
            factor = eps if name in TIMES_EPS else 1.0 / eps if name in OVER_EPS else None
            if factor is None or value is None:
                assert got[name] == pytest.approx(value, rel=1e-12, abs=0.0), (eps, name)
            else:
                assert got[name] == pytest.approx(factor * value, rel=1e-12, abs=0.0), (eps, name)


def run_config(doc: dict, dt: float | None = None):
    """The scenario's run configuration as the CLI runs it, with the given dt."""
    return replace(_run_config(Scenario.from_dict(doc)), dt=dt)


def default_step(config, alpha: float) -> float:
    beta = None
    if config.box is not None:
        beta = config.beta if config.beta is not None else 1.0 / config.cost.grad_u_lipschitz
    return default_dt(config.plant, config.cost, alpha, beta)


def columns(config, traj) -> dict:
    """The run's records, segments joined, as numpy arrays; with the two
    pieces of V = max(xi W, U), W = (x-x*)^T P (x-x*) and U = (u-u*)^2 / 2."""
    out = {key: np.concatenate([np.asarray(getattr(seg.samples, key)) for seg in traj.segments])
           for key in ("times", "xs", "us", "ys", "vs")}
    n = config.plant.n
    p = np.array(config.plant.lyapunov_p.data).reshape(n, n)
    e = out["xs"].reshape(-1, n) - np.concatenate(
        [np.tile(seg.xstar, (len(seg.samples.times), 1)) for seg in traj.segments])
    out["W"] = np.einsum("ij,jk,ik->i", e, p, e)
    out["U"] = (out["us"] - np.concatenate(
        [np.full(len(seg.samples.times), seg.ustar) for seg in traj.segments])) ** 2 / 2.0
    return out


def assert_close(got, want, rel, what):
    """Equal to within rel of the largest magnitude in want."""
    assert got.shape == want.shape, what
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want)), what


def test_runs_at_an_equal_relative_step_are_the_same_run(case):
    """The scaled run steps at dt / eps, so it takes the original's steps: its
    records agree with the original's to rounding, at times scaled by 1/eps.
    V agrees on certified loops.  On uncertified ones the weight of V is the
    absolute 1, so the plant piece of V scales by 1/eps; on the levels-1
    plant the worst relative gaps in V are 99, 9 and 0.9."""
    doc, certified, _ = case
    base = run_config(doc)
    gains = [a for a in GAINS if base.hurwitz(a) is not False]
    assert gains
    for alpha in gains:
        dt = default_step(base, alpha)
        want = columns(base, simulate(replace(base, dt=dt), alpha))
        assert_close(want["vs"], np.maximum(base.xi * want["W"], want["U"]), 1e-13, "V")
        for eps in SCALES:
            where = f"eps = {eps}, alpha = {alpha}"
            config = run_config(scaled(doc, eps), dt / eps)
            got = columns(config, simulate(config, eps * alpha))
            assert got["times"].shape == want["times"].shape, where
            assert_close(got["times"], want["times"] / eps, 1e-13, where)
            for key in ("xs", "us", "ys"):
                assert_close(got[key], want[key], 1e-13, f"{key}, {where}")
            plant_piece = base.xi * want["W"] if certified else want["W"] / eps
            assert_close(got["vs"], np.maximum(plant_piece, want["U"]), 1e-13, f"V, {where}")


def statuses(doc: dict, gains, out: Path) -> list[str]:
    """The status column of `ofo sweep`'s summary.csv."""
    out.mkdir()
    path = out / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc), "utf-8")
    assert main(["sweep", str(path), "--alphas", ",".join(map(repr, gains)),
                 "--out", str(out)]) == 0
    return [row.rsplit(",", 1)[1] for row in (out / "summary.csv").read_text("utf-8").splitlines()[1:]]


def test_runs_at_the_default_step_keep_every_verdict(case, tmp_path):
    """Without a given dt, each loop takes default_dt's step.  It scales with
    the time unit wherever the cap binds on neither side.  Where the cap binds
    the runs are no longer step for step the same, but the Hurwitz verdict
    and the summary.csv status at each gain still are.  Final states are not
    compared: for the projected law, whose field is only Lipschitz, step
    halving underestimates their error, so it gives no bound to hold them to."""
    doc, _, gains = case
    base = run_config(doc)
    want = statuses(doc, gains, tmp_path / "original")
    uncapped = 0
    for eps in SCALES:
        config = run_config(scaled(doc, eps))
        # and at ten times the highest gain, where fig1's step is under the cap
        for alpha in (*gains, 10.0 * gains[-1]):
            dt, dt_scaled = default_step(base, alpha), default_step(config, eps * alpha)
            if max(dt, dt_scaled) < CAP:
                uncapped += 1
                assert eps * dt_scaled == pytest.approx(dt, rel=1e-14), (eps, alpha)
        for alpha in np.logspace(-3, 6, 28):
            assert config.hurwitz(eps * alpha) == base.hurwitz(alpha), (eps, alpha)
    assert uncapped
    for eps in SWEPT_SCALES:
        assert statuses(scaled(doc, eps), [eps * a for a in gains], tmp_path / f"eps-{eps}") == want
