import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from ofo.cli import main
from ofo.errors import InputError
from ofo.scenario import Scenario

from conftest import bundled_scenario, bundled_scenario_path


def minimal_doc() -> dict:
    return {
        "plant": {
            "kind": "linear",
            "A": [[-1.0, 10.0], [-10.0, -1.0]],
            "B": [[0.0], [1.0]],
            "B_w": [[1.0], [1.0]],
            "C": [[1.0, 0.0]],
        },
        "cost": {"kind": "quadratic", "q_u": 0.01, "q_y": 1.0},
        "controller": {"kind": "gradient", "alpha": 10.0},
        "schedule": [[0.0, 10.0]],
        "sim": {"t_end": 2.0},
    }


def write_doc(tmp_path, doc, name="scenario.yaml") -> str:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


class TestScenarioParsing:
    def test_bundled_scenarios_parse(self):
        fig1 = bundled_scenario("fig1")
        assert fig1.plant_kind == "linear"
        assert fig1.claimed_mu_bound_rhs == 0.0198
        fig2 = bundled_scenario("fig2")
        assert fig2.plant_kind == "sine"
        assert fig2.controller_kind == "projected"
        assert fig2.box_hi == (5e-5,)
        assert set(fig2.overrides) == {"c3", "d3", "mu3", "zeta3"}

    def test_round_trip_identity(self):
        for name in ("fig1", "fig2"):
            first = bundled_scenario(name)
            second = Scenario.loads(first.dumps())
            assert second == first

    def test_round_trip_custom(self, tmp_path):
        doc = minimal_doc()
        doc["sim"]["x0"] = [0.5, -0.25]
        doc["cost"]["mu4"] = 0.125
        first = Scenario.load(write_doc(tmp_path, doc))
        assert Scenario.loads(first.dumps()) == first
        # box bounds are the only numbers that may be infinite
        doc["controller"] = {"kind": "projected", "alpha": 1.0,
                             "box": {"lo": [-math.inf], "hi": [2.0]}}
        first = Scenario.load(write_doc(tmp_path, doc))
        assert first.box_lo == (-math.inf,)
        assert Scenario.loads(first.dumps()) == first

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.pop("plant"), "plant"),
        (lambda d: d["plant"].update(kind="spline"), "plant.kind"),
        (lambda d: d["plant"].update(A=[[1.0, 2.0]]), "plant"),
        (lambda d: d["cost"].pop("q_u"), "cost.q_u"),
        (lambda d: d["controller"].update(alpha=-1.0), "controller.alpha"),
        (lambda d: d["controller"].update(box={"lo": [0.0], "hi": [1.0]}), "controller.box"),
        (lambda d: d.update(schedule=[[1.0, 10.0]]), "t = 0"),
        (lambda d: d.update(schedule=[[0.0, 10.0], [0.0, -10.0]]), "strictly increasing"),
        (lambda d: d.update(schedule=[[0.0, 10.0, 3.0]]), "B_w"),
        (lambda d: d["sim"].update(t_end=-2.0), "sim.t_end"),
        (lambda d: d["sim"].update(x0=[1.0]), "sim.x0"),
        (lambda d: d.update(bogus={}), "unknown section"),
        (lambda d: d["plant"].update(A=[["x", 1.0], [1.0, 1.0]]), "plant.A"),
        (lambda d: d["plant"].update(A=[[math.nan, 1.0], [1.0, 1.0]]), "plant.A"),
        (lambda d: d["cost"].update(q_u=math.inf), "cost.q_u"),
        (lambda d: d["controller"].update(alpha=math.nan), "controller.alpha"),
        (lambda d: d["controller"].update(alpha=math.inf), "controller.alpha"),
        (lambda d: d["controller"].update(alpha=10 ** 400), "controller.alpha"),
        (lambda d: d["controller"].update(beta=math.nan), "controller.beta"),
        (lambda d: d["controller"].update(kind="projected", box={"lo": [math.nan], "hi": [1.0]}),
         "controller.box.lo"),
        (lambda d: d.update(schedule=[[0.0, -math.inf]]), "schedule[0][1]"),
        (lambda d: d["sim"].update(t_end=math.inf), "sim.t_end"),
        (lambda d: d["sim"].update(dt=math.nan), "sim.dt"),
        (lambda d: d["sim"].update(max_records=math.inf), "sim.max_records"),
        (lambda d: d.update(certificate={"overrides": {"c3": math.nan}}),
         "certificate.overrides.c3"),
    ])
    def test_validation_names_offending_field(self, mutate, fragment):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(InputError, match=fragment.replace("[", "\\[")):
            Scenario.from_dict(doc)

    def test_projected_box_lo_above_hi(self):
        doc = minimal_doc()
        doc["controller"] = {"kind": "projected", "alpha": 1.0,
                             "box": {"lo": [1.0], "hi": [-1.0]}}
        with pytest.raises(InputError, match="controller.box"):
            Scenario.from_dict(doc)


class TestCertifyCommand:
    def test_fig2_certifies(self, capsys):
        rc = main(["certify", bundled_scenario_path("fig2")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "certified = true" in out
        assert "tau_at_alpha = " in out

    def test_fig1_not_certified_prints_both_thresholds(self, capsys):
        rc = main(["certify", bundled_scenario_path("fig1")])
        out = capsys.readouterr().out
        assert rc == 3
        assert "certified = false" in out
        assert "claimed_mu_bound_rhs = 0.0198" in out
        assert "mu_bound_rhs = 0.19801980198" in out
        assert "xi_interval = infeasible" in out
        assert "required_mu4 = " in out

    def test_sine_plant_with_quadratic_cost_not_certified(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["plant"] = {"kind": "sine", "A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0], [0.0]],
                        "B_w": [[1.0], [0.0]], "C": [[1.0, 0.0]]}
        doc["cost"] = {"kind": "quadratic", "q_u": 1.0, "q_y": 0.1}
        rc = main(["certify", write_doc(tmp_path, doc)])
        assert rc == 3
        assert "not certified" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        rc = main(["certify", "/nonexistent/scenario.yaml"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_box_exit_code(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["controller"] = {"kind": "projected", "alpha": 1.0,
                             "box": {"lo": [1.0], "hi": [-1.0]}}
        rc = main(["certify", write_doc(tmp_path, doc)])
        assert rc == 2
        assert "controller.box" in capsys.readouterr().err


class TestSimulateCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        doc = minimal_doc()
        out = tmp_path / "traj.csv"
        rc = main(["simulate", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x1,x2,u1,y1,w1,V,ustar1"
        assert len(lines) > 10
        stdout = capsys.readouterr().out
        assert "final_error = " in stdout and "settling_time = " in stdout

    def test_equilibrium_start_error_tiny(self, tmp_path, capsys):
        from ofo.sim import optimal_input

        doc = minimal_doc()
        scenario = Scenario.from_dict(doc)
        plant = scenario.build_plant()
        cost = scenario.build_cost()
        ustar = optimal_input(plant, cost, (10.0,))
        xstar = plant.steady_state(ustar, (10.0,))
        doc["sim"]["x0"] = list(xstar)
        doc["sim"]["u0"] = list(ustar)
        out = tmp_path / "eq.csv"
        rc = main(["simulate", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        final = float(stdout.split("final_error = ")[1].split()[0])
        assert final <= 1e-8

    def test_fig2_golden_header(self, tmp_path):
        out = tmp_path / "fig2.csv"
        rc = main(["simulate", bundled_scenario_path("fig2"), "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "t,x1,x2,u1,y1,w1,V,ustar1"

    def test_divergence_exit_code(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["sim"] = {"t_end": 150.0, "dt": 1.0}
        rc = main(["simulate", write_doc(tmp_path, doc), "--out", str(tmp_path / "x.csv")])
        assert rc == 4
        assert "divergence" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file")
        rc = main(["simulate", write_doc(tmp_path, minimal_doc()),
                   "--out", str(blocker / "x.csv")])
        assert rc == 2


class TestSweepCommand:
    def test_single_alpha_matches_simulate(self, tmp_path):
        doc = minimal_doc()
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", path, "--alphas", "10", "--out", str(out_dir)]) == 0
        single = tmp_path / "single.csv"
        assert main(["simulate", path, "--out", str(single)]) == 0
        assert (out_dir / "alpha_10.csv").read_bytes() == single.read_bytes()
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "alpha,settling_time,overshoot,final_error,max_violation,status"
        assert len(summary) == 2 and summary[1].startswith("10,") and summary[1].endswith(",ok")

    def test_plant_built_once(self, tmp_path, monkeypatch):
        # building the plant runs its Hurwitz gate, one Lyapunov solve
        import ofo.plants

        calls = []
        solve = ofo.plants.solve_lyapunov
        monkeypatch.setattr(ofo.plants, "solve_lyapunov",
                            lambda a, q: calls.append(a) or solve(a, q))
        path = write_doc(tmp_path, minimal_doc())
        assert main(["sweep", path, "--alphas", "1,10", "--out", str(tmp_path / "d")]) == 0
        assert len(calls) == 1

    def test_bad_alphas_exit_code(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        assert main(["sweep", path, "--alphas", "-1", "--out", str(tmp_path / "d")]) == 2
        assert main(["sweep", path, "--alphas", "abc", "--out", str(tmp_path / "d")]) == 2
        for alphas in ("1,nan", "inf", "10,-inf"):
            assert main(["sweep", path, "--alphas", alphas, "--out", str(tmp_path / "d")]) == 2
            assert "--alphas" in capsys.readouterr().err
        # a non-finite gain in the scenario is an input error for every command
        for alpha in (math.nan, math.inf):
            doc = minimal_doc()
            doc["controller"]["alpha"] = alpha
            bad = write_doc(tmp_path, doc, name="bad.yaml")
            for argv in (["simulate", bad, "--out", str(tmp_path / "d" / "x.csv")],
                         ["certify", bad]):
                assert main(argv) == 2
                assert "controller.alpha" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_per_row_error_recorded(self, tmp_path):
        doc = minimal_doc()
        doc["sim"] = {"t_end": 150.0, "dt": 1.0}
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", write_doc(tmp_path, doc), "--alphas", "1", "--out", str(out_dir)])
        assert rc == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert "divergence" in summary[1]


class TestReproduceCommand:
    def test_unknown_figure(self, tmp_path, capsys):
        rc = main(["reproduce", "fig9", "--out", str(tmp_path)])
        assert rc == 2
        assert "fig9" in capsys.readouterr().err

    def test_fig1_outputs(self, tmp_path):
        out_dir = tmp_path / "fig1"
        assert main(["reproduce", "fig1", "--out", str(out_dir)]) == 0
        names = sorted(os.listdir(out_dir))
        assert names == ["alpha_1.csv", "alpha_10.csv", "alpha_100.csv",
                         "alpha_1000.csv", "scenario.yaml", "summary.csv"]
        # the materialized scenario is the bundled one, byte for byte
        bundled = Path(bundled_scenario_path("fig1")).read_bytes()
        assert (out_dir / "scenario.yaml").read_bytes() == bundled
        header = (out_dir / "alpha_100.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,u1,y1,w1,V,ustar1"
        # settling-time column non-increasing over the first three gains
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        settling = [float(r.split(",")[1]) for r in rows[:3]]
        assert settling[0] >= settling[1] >= settling[2]
        # gain 1000 lies inside the unstable interval (111.6, 2263.7); its
        # trajectory is still written
        assert [r.split(",")[-1] for r in rows] == ["ok", "ok", "ok", "not-hurwitz"]

    def test_outputs_follow_umask(self, tmp_path):
        out_dir = tmp_path / "fig1"
        old = os.umask(0o022)
        try:
            assert main(["reproduce", "fig1", "--out", str(out_dir)]) == 0
        finally:
            os.umask(old)
        modes = {name: (out_dir / name).stat().st_mode & 0o777 for name in os.listdir(out_dir)}
        assert len(modes) == 6
        assert set(modes.values()) == {0o644}, modes


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ofo.cli", "certify",
                           bundled_scenario_path("fig2")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "certified = true" in proc.stdout
