import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
import yaml

import ofo.scenario
from ofo.certificate import certify
from ofo.cli import _atomic_write, main
from ofo.errors import InputError
from ofo.scenario import Scenario
from ofo.sim import write_csv

from conftest import bundled_scenario, bundled_scenario_path, checkout_env, replace


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


def dense_doc() -> dict:
    """A four-state linear plant with a dense, diagonally dominant A and two
    outputs, so its Lyapunov matrix P is dense too; no sin or cos runs."""
    return {
        "plant": {
            "kind": "linear",
            "A": [[-3.0, 1.0, 0.5, -0.25],
                  [0.5, -2.0, 1.0, 0.25],
                  [-0.25, 0.5, -2.5, 1.0],
                  [1.0, -0.5, 0.25, -4.0]],
            "B": [[1.0], [0.5], [-0.5], [0.25]],
            "B_w": [[0.5], [1.0], [0.0], [-0.5]],
            "C": [[1.0, -0.5, 0.25, 0.5], [0.0, 1.0, 0.5, -0.25]],
        },
        "cost": {"kind": "quadratic", "q_u": 0.1, "q_y": 1.0},
        "controller": {"kind": "gradient", "alpha": 1.0},
        "schedule": [[0.0, 1.0], [1.0, -0.5]],
        "sim": {"t_end": 2.0, "x0": [0.5, -0.25, 0.0, 0.125], "u0": [0.25]},
    }


def loaded_by_both(text: str):
    """The document the scenario reader builds from text, after checking
    that PyYAML's `yaml.safe_load` builds the same one (compared by repr, so
    nan equals nan and 1 differs from 1.0)."""
    doc = ofo.scenario._Reader(text).document()
    assert repr(doc) == repr(yaml.safe_load(text))
    return doc


#: Strings among the random documents' values: PyYAML quotes most of them,
#: as they would read as another type or begin with an indicator.
TRICKY_STRINGS = ["yes", "1e3", "null", "#x", "No", "ON", "~", "", "<<", "=", "08", "0x1F", "1:30",
                  "2001-12-14", "-.5", ".5e+3", "1_0", "+", ".", "-", "a:b", "a#b", "it's", '"q"',
                  "[a]", "{b}", "x,y", "@", "%", "&a", "*a", "!t", "-x", "linear"]


def random_scenario_doc(rng: random.Random) -> dict:
    """A scenario-shaped document whose values are drawn from numbers, the
    bools, None and TRICKY_STRINGS."""
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 10**400, True, False, None,
                *TRICKY_STRINGS]

    def leaf():
        draw = rng.random()
        if draw < 0.5:
            return rng.gauss(0.0, 1.0) * 10.0 ** rng.randint(-300, 300)
        return rng.randint(-10**6, 10**6) if draw < 0.6 else rng.choice(specials)

    def rows(n, m):
        return [[leaf() for _ in range(m)] for _ in range(n)]

    n = rng.randint(1, 2)
    keys = [text for text in TRICKY_STRINGS if text] + [1, -2.5, True, None]
    return {
        "plant": {"kind": leaf(), "A": rows(n, n), "B": rows(n, 1), "B_w": rows(n, 1),
                  "C": rows(1, n)},
        "cost": {"kind": leaf(), "q_u": leaf(), rng.choice(keys): leaf()},
        "controller": {"kind": leaf(), "alpha": leaf(),
                       "box": {"lo": [leaf()], "hi": [leaf()]}},
        "schedule": rows(rng.randint(1, 2), 2),
        "sim": {"t_end": leaf(), "x0": [leaf() for _ in range(n)], rng.choice(keys): leaf()},
        "certificate": {"overrides": {"c3": leaf(), "d3": leaf()}, "claimed_mu_bound_rhs": leaf()},
    }


def write_doc(tmp_path, doc, name="scenario.yaml") -> str:
    """Writes doc as a scenario file; every file a test here writes is read
    by the scenario reader as PyYAML reads it."""
    path = tmp_path / name
    text = yaml.safe_dump(doc)
    loaded_by_both(text)
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestScenarioParsing:
    def test_bundled_scenarios_parse(self):
        fig1 = bundled_scenario("fig1")
        assert fig1.config.plant.kind == "linear"
        assert fig1.claimed_mu_bound_rhs == 0.0198
        fig2 = bundled_scenario("fig2")
        assert fig2.config.plant.kind == "sine"
        assert fig2.config.box is not None
        assert fig2.config.box.hi == 5e-5
        assert set(fig2.overrides) == {"c3", "d3", "mu3", "zeta3"}

    def test_custom_fields_parse(self, tmp_path):
        doc = minimal_doc()
        doc["sim"]["x0"] = [0.5, -0.25]
        doc["cost"]["mu4"] = 0.125
        first = Scenario.load(write_doc(tmp_path, doc))
        assert first.config.x0 == (0.5, -0.25)
        assert first.config.cost.mu4 == 0.125
        # box bounds are the only numbers that may be infinite
        doc["controller"] = {"kind": "projected", "alpha": 1.0,
                             "box": {"lo": [-math.inf], "hi": [2.0]}}
        second = Scenario.load(write_doc(tmp_path, doc))
        assert second.config.box.lo == -math.inf
        assert second.config.box.hi == 2.0

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
        (lambda d: d["controller"].update(beta=0.5),
         "controller.beta: only valid for the projected law"),
        (lambda d: d["controller"].update(kind="projected", box={"lo": [math.nan], "hi": [1.0]}),
         "controller.box.lo"),
        (lambda d: d["controller"].update(kind="projected", box={"lo": [-1.0], "hi": [1.0]},
                                          beta=1000.0), "controller.beta"),
        (lambda d: d["controller"].update(kind="projected", box={"lo": [-1.0], "hi": [1.0]},
                                          beta=0.0), "controller.beta"),
        (lambda d: d.update(schedule=[[0.0, -math.inf]]), "schedule[0][1]"),
        (lambda d: d["sim"].update(t_end=math.inf), "sim.t_end"),
        (lambda d: d["sim"].update(dt=math.nan), "sim.dt"),
        (lambda d: d["sim"].update(dt=-0.1), "sim.dt: must be positive"),
        (lambda d: d.update(schedule=[[0.0, 10.0], [2.0, -10.0]]),
         "schedule: last segment starts at or after sim.t_end"),
        (lambda d: d["sim"].update(max_records=math.inf), "sim.max_records"),
        (lambda d: d["sim"].update(max_records=2.9), "sim.max_records"),
        (lambda d: d["sim"].update(max_records=1), "sim.max_records"),
        (lambda d: d["cost"].update(mu4=-0.1), "cost.mu4"),
        (lambda d: d.update(certificate={"overrides": {"c3": math.nan}}),
         "certificate.overrides.c3"),
        # the input is scalar: one value for u0 and for each box bound
        (lambda d: d["sim"].update(u0=[0.0, 0.0]),
         "sim.u0: expected a list of length 1, got 2"),
        (lambda d: d["controller"].update(kind="projected",
                                          box={"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}),
         "controller.box.lo: expected a list of length 1, got 2"),
        # a key a section does not have is refused, not ignored
        (lambda d: d["plant"].update(Bw=[[1.0], [1.0]]), "plant.Bw: unknown field"),
        (lambda d: d["cost"].update(qy=7.0), "cost.qy: unknown field"),
        (lambda d: d["cost"].update(a=1.0), "cost.a: unknown field"),
        (lambda d: d["controller"].update(bta=0.5), "controller.bta: unknown field"),
        (lambda d: d["controller"].update(kind="projected",
                                          box={"lo": [-1.0], "hi": [1.0], "mid": [0.0]}),
         "controller.box.mid: unknown field"),
        (lambda d: d["sim"].update(x_0=[0.0, 0.0]), "sim.x_0: unknown field"),
        (lambda d: d.update(certificate={"override": {"c3": 0.3}}),
         "certificate.override: unknown field"),
        (lambda d: d.update(certificate={"overrides": {"zeta33": 0.99}}),
         "certificate.overrides.zeta33: unknown field; expected one of ell_f, "),
        (lambda d: d.update(certificate={"overrides": {"lip_grad_u": 1.0}}),
         "certificate.overrides.lip_grad_u: unknown field; expected one of ell_f, "),
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


class TestYamlLoaders:
    def test_both_loaders_build_the_same_documents(self, monkeypatch):
        # the bundled scenarios, the README's example and those the benchmark
        # writes: the seeded levels plants and fig2 cut short
        root = Path(__file__).resolve().parents[1]
        texts = [Path(bundled_scenario_path(name)).read_text("utf-8") for name in ("fig1", "fig2")]
        readme = (root / "README.md").read_text("utf-8")
        texts.append(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        from levels import scenario_yaml
        from short import shorten
        texts += [scenario_yaml(seed) for seed in range(1, 21)]
        texts.append(shorten(texts[1]))
        for text in texts:
            doc = loaded_by_both(text)
            assert Scenario.loads(text) == Scenario.from_dict(doc)

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "---\n", "--- # the one document\na: 1\n",
        "\ufeffa: 1\r\nb: [1,\r\n  2]\r\n", "a: 'it''s'\nb: \"q #1\"  # c\n",
        "A:\n- [1, 2]\n- - -1.0\n  - 2\nB: x\n",
        "- a: 1\n  b: {c: [1, 2,\n    3], d: ~}\n-\n  - 1_000\n",
        "a: 1\na: 2\n1: x\n1.0: y\ntrue: z\n", "a: [.inf, -.Inf, .NAN, 1.e+3, .5, -0, +1]\n",
        "a: [1e3, -.5, 08, a:b, a#b, x y]\n", "a: [yes, No, ON, off, Null, '']\n",
    ])
    def test_reader_builds_pyyamls_document_for_each_accepted_form(self, text):
        loaded_by_both(text)

    def test_reader_builds_pyyamls_document_for_random_dumps(self):
        # each of the four ways of dumping takes every fourth document
        rng = random.Random(20)
        for i in range(2000):
            text = yaml.safe_dump(random_scenario_doc(rng), sort_keys=i % 4 < 2,
                                  default_flow_style=(False, None)[i % 2])
            loaded_by_both(text)

    @pytest.mark.parametrize("text", ["plant: [1, 2", "plant:\n  kind: linear\n kind: x\n",
                                      "a:\t- 1\n", "\x00", "a: &x 1\nb: *y\n",
                                      "a: !!python/object:os.system x\n",
                                      "a: 1\n---\nb: 2\n", "a: 010\n", "a: 0x1F\n", "a: 1:30\n",
                                      "a: 2001-12-14\n", "a: |\n  x\n", "<<: {a: 1}\n",
                                      "? a\n: 1\n", "a: b\x07\n", "- " * 2000 + "x\n",
                                      "a: " + "[" * 2000 + "]" * 2000 + "\n"])
    def test_malformed_file_exits_2_under_both_loaders(self, text, tmp_path, capsys):
        # the reader refuses, with its line, every text that PyYAML refuses
        # or reads as another type or meaning
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        assert main(["certify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: scenario: YAML parse error: line ")

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"plant:\n  kind: lin\xe9aire\n")
        assert main(["certify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario file {str(path)!r}: "
                              "not UTF-8 text"), err


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

    def test_zero_output_coupling_certifies(self, tmp_path):
        # With no output coupling (theta2 = 0) the feasible weights are
        # (0, xi_hi), whose geometric mean, 0, is not one of them, and the
        # decay rate divides by the weight.  All three loops here have zero
        # coupling: fig1 without output weight, a plant with C A^-1 B = 0,
        # and a plant with C = 0, whose ell_g = 0.
        fig1 = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        fig1["cost"]["q_y"] = 0.0
        decoupled = minimal_doc()
        decoupled["plant"].update(A=[[-1.0, 0.0], [0.0, -1.0]], C=[[1.0, 0.0]])
        unobserved = minimal_doc()
        unobserved["plant"].update(C=[[0.0, 0.0]])
        for doc in (fig1, decoupled, unobserved):
            scenario = Scenario.from_dict(doc)
            report = certify(scenario.config.plant, scenario.config.cost, scenario.alpha)
            assert report.params.theta2 == 0.0
            assert report.xi.lo < report.xi.chosen < report.xi.hi
            assert report.tau_at_alpha > 0.0
            path = write_doc(tmp_path, doc)
            assert main(["certify", path]) == 0
            assert main(["simulate", path, "--out", str(tmp_path / "x.csv")]) == 0

    # With no input coupling (ell_f = 0, so theta1 = 0) the feasible weights
    # are (xi_lo, inf) and the scalar bound is mu_phi > ell_phi_u.  fig1 with
    # B = 0 has no output coupling either, so it takes xi = 1; fig1 with ell_f
    # overridden to 0 takes 2 xi_lo.
    @staticmethod
    def fig1_with(tmp_path, key, value) -> str:
        doc = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        doc[key[0]][key[1]] = value
        return write_doc(tmp_path, doc)

    def test_unactuated_plant_certifies(self, tmp_path, capsys):
        assert main(["certify", self.fig1_with(tmp_path, ("plant", "B"), [[0.0], [0.0]])]) == 0
        out = capsys.readouterr().out
        for line in ("ell_f = 0", "theta1 = 0", "xi_lo = 0", "xi_hi = inf", "xi_chosen = 1",
                     "certified = true", "tau_at_alpha = 1"):
            assert f"\n{line}\n" in out

    def test_unactuated_plant_simulates(self, tmp_path):
        path = self.fig1_with(tmp_path, ("plant", "B"), [[0.0], [0.0]])
        assert main(["simulate", path, "--out", str(tmp_path / "x.csv")]) == 0

    def test_zero_input_modulus_override_takes_twice_xi_lo(self, tmp_path, capsys):
        path = self.fig1_with(tmp_path, ("certificate", "overrides"), {"ell_f": 0.0})
        assert main(["certify", path]) == 0
        out = capsys.readouterr().out
        for line in ("ell_f = 0  (override)", "xi_lo = 196.059209881", "xi_hi = inf",
                     "xi_chosen = 392.118419763", "tau_at_alpha = 0.5"):
            assert f"\n{line}\n" in out

    @pytest.mark.parametrize("eps", [1e-15, 1e-13, 1.0, 1e3])
    def test_certificate_does_not_change_with_the_time_scale(self, eps, tmp_path, capsys):
        # A, B and B_w scaled by eps is the same plant on another time
        # scale, and the paper's condition reads the same on it; singular
        # pivots and inverses are judged against the matrices' own scale
        doc = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        for key in ("A", "B", "B_w"):
            doc["plant"][key] = [[eps * v for v in row] for row in doc["plant"][key]]
        assert main(["certify", write_doc(tmp_path, doc)]) == 3
        run = capsys.readouterr()
        assert run.err == ""
        lines = [line for line in run.out.splitlines()
                 if line.startswith(("mu_bound_rhs = ", "required_mu4 = "))]
        assert lines == ["mu_bound_rhs = 0.19801980198", "required_mu4 = 0.17802080198"]

    def test_small_output_matrix_keeps_its_norm(self, tmp_path, capsys):
        # ||C|| of [[1e-8, 1e-8]] is sqrt(2) * 1e-8; entries far below 1
        # are not read off the diagonal of C^T C
        doc = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        doc["plant"]["C"] = [[1.0e-8, 1.0e-8]]
        assert main(["certify", write_doc(tmp_path, doc)]) == 0
        assert "ell_g = 0.0000000141421356237\n" in capsys.readouterr().out

    @pytest.mark.parametrize("overrides, message", [
        ({"c3": 0.0}, "constant c3 must be positive"),
        ({"mu3": -1.0}, "constant mu3 must be positive"),
        ({"c3": 0.5, "d3": 0.25}, "sandwich constants must satisfy c3 <= d3"),
        ({"lip_grad_u": 1.0}, "certificate.overrides.lip_grad_u: unknown field; "
                              "expected one of ell_f, "),
    ])
    def test_bad_override_exits_2(self, overrides, message, tmp_path, capsys):
        doc = minimal_doc()
        doc["certificate"] = {"overrides": overrides}
        assert main(["certify", write_doc(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}"), captured.err

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
        plant, cost = scenario.config.plant, scenario.config.cost
        ustar = optimal_input(plant, cost, (10.0,))
        xstar = plant.steady_state(ustar, (10.0,))
        doc["sim"]["x0"] = list(xstar)
        doc["sim"]["u0"] = [ustar]
        out = tmp_path / "eq.csv"
        rc = main(["simulate", write_doc(tmp_path, doc), "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        final = float(stdout.split("final_error = ")[1].split()[0])
        assert final <= 1e-8

    def test_uncertifiable_loop_simulates_at_unit_weight(self, tmp_path, capsys):
        # a sine plant with a quadratic cost has ell_phi_u = inf, so no xi is
        # certified and the V column is weighted by xi = 1
        doc = minimal_doc()
        doc["plant"] = {"kind": "sine", "A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0], [0.0]],
                        "B_w": [[1.0], [0.0]], "C": [[1.0, 0.0]]}
        doc["cost"] = {"kind": "quadratic", "q_u": 1.0, "q_y": 0.1}
        path = write_doc(tmp_path, doc)
        assert main(["certify", path]) == 3
        assert "ell_phi_u = inf" in capsys.readouterr().out
        out = tmp_path / "sine.csv"
        assert main(["simulate", path, "--out", str(out)]) == 0
        scenario = Scenario.from_dict(doc)

        def v_column(xi):
            data = io.BytesIO()
            write_csv(replace(scenario.config, xi=xi).run(scenario.alpha)[0], data)
            return [row.split(b",")[6] for row in data.getvalue().splitlines()]

        written = [row.split(b",")[6] for row in out.read_bytes().splitlines()]
        assert written == v_column(1.0)
        assert written != v_column(2.0)

    def test_fit_checked_three_times(self, tmp_path, monkeypatch):
        # by the parser, by the RunConfig it builds and by certify; setting
        # the certified weight checks xi alone
        import ofo.certificate
        import ofo.costs
        import ofo.sim

        calls = []
        real = ofo.costs.check_fit

        def counted(cost, p):
            calls.append(p)
            return real(cost, p)

        for module in (ofo.costs, ofo.scenario, ofo.sim, ofo.certificate):
            monkeypatch.setattr(module, "check_fit", counted)
        out = tmp_path / "fig1.csv"
        assert main(["simulate", bundled_scenario_path("fig1"), "--out", str(out)]) == 0
        assert calls == [1, 1, 1]

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

    def test_step_limited_exit_code(self, tmp_path, capsys):
        doc = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        doc["cost"]["mu4"] = 0.2
        doc["controller"]["alpha"] = 3e7
        out = tmp_path / "x.csv"
        assert main(["simulate", write_doc(tmp_path, doc), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "step-limited" in err and "divergence" not in err
        assert not out.exists()

    def test_two_input_plant_refused_by_every_command(self, tmp_path, capsys):
        # the input is scalar, so a two-column B is refused while parsing
        doc = minimal_doc()
        doc["plant"]["B"] = [[1.0, 0.0], [0.0, 1.0]]
        path = write_doc(tmp_path, doc)
        out_dir = tmp_path / "out"
        for argv in (["certify", path],
                     ["simulate", path, "--out", str(out_dir / "x.csv")],
                     ["sweep", path, "--alphas", "1,10", "--out", str(out_dir)]):
            assert main(argv) == 2
            run = capsys.readouterr()
            assert "plant: the input is scalar: B must have one column, not 2" in run.err
            assert run.out == ""
        assert not out_dir.exists()

    def test_unwritable_out(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file")
        rc = main(["simulate", write_doc(tmp_path, minimal_doc()),
                   "--out", str(blocker / "x.csv")])
        assert rc == 2

    def test_failed_writer_leaves_no_temp_file(self, tmp_path):
        def failing(fh):
            fh.write(b"partial")
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            _atomic_write(str(tmp_path / "x.csv"), failing)
        assert os.listdir(tmp_path) == []


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
        # building the plant runs its Hurwitz gate, the one solve for the
        # plant's Lyapunov matrix; the certificate and V read it from the plant
        import ofo.certificate
        import ofo.plants

        calls = []
        solve = ofo.plants.solve_lyapunov
        counted = lambda a: calls.append(a) or solve(a)
        monkeypatch.setattr(ofo.plants, "solve_lyapunov", counted)
        monkeypatch.setattr(ofo.certificate, "solve_lyapunov", counted, raising=False)
        path = write_doc(tmp_path, minimal_doc())
        for argv, rc in ((["certify", path], 3),
                         (["simulate", path, "--out", str(tmp_path / "x.csv")], 0),
                         (["sweep", path, "--alphas", "1,10", "--out", str(tmp_path / "d")], 0)):
            calls.clear()
            assert main(argv) == rc
            assert len(calls) == 1, argv

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

    def test_empty_alphas_skipped(self, tmp_path, capsys):
        path = write_doc(tmp_path, minimal_doc())
        out_dir = tmp_path / "d"
        assert main(["sweep", path, "--alphas", "1,,10,", "--out", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == ["alpha_1.csv", "alpha_10.csv", "summary.csv"]
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "10"]
        capsys.readouterr()
        assert main(["sweep", path, "--alphas", ",", "--out", str(tmp_path / "e")]) == 2
        assert "--alphas: no values given" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_gains_with_one_label_refused(self, tmp_path, capsys):
        # gains whose 12-digit labels coincide would share one CSV and write
        # two rows with one label into summary.csv
        path = write_doc(tmp_path, minimal_doc())
        for alphas, first, second in (("1,1.0000000000001", "1", "1.0000000000001"),
                                      ("10,2,10", "10", "10"), ("3, 3.0", "3", "3.0")):
            assert main(["sweep", path, "--alphas", alphas, "--out", str(tmp_path / "d")]) == 2
            err = capsys.readouterr().err
            assert f"--alphas: {first!r} and {second!r} both print as" in err, err
        assert not (tmp_path / "d").exists()

    def test_box_warning_printed_once(self, tmp_path, capsys):
        # u0 outside the box is a fact of the configuration: every command
        # prints it once on standard error, and it changes no other output
        doc = yaml.safe_load(Path(bundled_scenario_path("fig2")).read_text("utf-8"))
        doc["schedule"] = doc["schedule"][:1]
        doc["sim"].update(t_end=1.0, u0=[0.001])
        path = write_doc(tmp_path, doc)
        single = tmp_path / "single.csv"
        assert main(["simulate", path, "--out", str(single)]) == 0
        simulated = capsys.readouterr()
        out_dir = tmp_path / "sweep"
        assert main(["sweep", path, "--alphas", "1,10", "--out", str(out_dir)]) == 0
        swept = capsys.readouterr()
        for run, lines in ((simulated, 1), (swept, 2)):
            assert run.err.count("warning:") == 1, run.err
            assert "u0 lies outside the input box" in run.err
            assert [line[:8] for line in run.out.splitlines()] == ["alpha = "] * lines
        assert swept.out.splitlines()[1] == simulated.out.strip()
        assert (out_dir / "alpha_10.csv").read_bytes() == single.read_bytes()
        assert sorted(os.listdir(out_dir)) == ["alpha_1.csv", "alpha_10.csv", "summary.csv"]

    def test_dense_lyapunov_matrix_bytes_pinned(self, tmp_path, kernel):
        # SHA-256 of every file `sweep --alphas 1,10,100` writes for a plant
        # whose P is a dense 4x4 matrix, under both kernels.  alpha_1.csv
        # and alpha_100.csv also pin the last bits of A^-1, which the
        # elimination that gives P solves a column at a time: another
        # rounding of A^-1 moved 2 of their 801 and 5 of their 1057 rows, by
        # at most 2.4e-12 of a column's largest entry
        pinned = {
            "alpha_1.csv": "b88911df68e0286ec30eae699c217c57bbae8db5da814ba6b367226b0c6b1eb5",
            "alpha_10.csv": "894aacc8e6ccf19f9c987e103740576b3f3700f14289e6aa3c5a79bf7a42e1b8",
            "alpha_100.csv": "43eac8cfc607d6fb12cf6316bbfc8e67d1e61e4113b43b5e5c7857c923673bd7",
            "summary.csv": "2685819089826d87b41f2b19126ab3e87bc0032e7ba9cfca2e8bee1a63cb5f1c",
        }
        out_dir = tmp_path / "sweep"
        assert main(["sweep", write_doc(tmp_path, dense_doc()), "--alphas", "1,10,100",
                     "--out", str(out_dir)]) == 0
        assert {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in os.listdir(out_dir)} == pinned

    def test_each_gain_written_before_the_next_runs(self, tmp_path, monkeypatch):
        # a sweep holds one trajectory at a time: when a gain starts, every
        # earlier gain's CSV is on disk and its trajectory is gone
        from ofo.sim import RunConfig

        real = RunConfig.run
        out_dir = tmp_path / "sweep"
        done = []

        def watched(config, alpha):
            gc.collect()
            assert [a for a, ref in done if ref() is not None] == []
            assert (sorted(path.name for path in out_dir.glob("*.csv"))
                    == sorted(f"alpha_{a:g}.csv" for a, _ in done))
            traj, summary = real(config, alpha)
            done.append((alpha, weakref.ref(traj)))
            return traj, summary

        monkeypatch.setattr(RunConfig, "run", watched)
        path = write_doc(tmp_path, minimal_doc())
        assert main(["sweep", path, "--alphas", "1,10,100", "--out", str(out_dir)]) == 0
        assert [a for a, _ in done] == [1.0, 10.0, 100.0]

    def test_per_row_error_recorded(self, tmp_path):
        doc = minimal_doc()
        doc["sim"] = {"t_end": 150.0, "dt": 1.0}
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", write_doc(tmp_path, doc), "--alphas", "1", "--out", str(out_dir)])
        assert rc == 0
        summary = (out_dir / "summary.csv").read_text().splitlines()
        assert "divergence" in summary[1]

    def test_step_limited_gains_recorded(self, tmp_path):
        # fig1 with mu4 = 0.2 is certified and Hurwitz at every gain here.
        # Its default step falls below the 1e-6 floor above alpha = 4.17e5;
        # clamped there, RK4 diverged at 3e7 and 1e8.  Those gains are now
        # refused, while 4e5 (dt = 1.04e-6) still runs.
        doc = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        doc["cost"]["mu4"] = 0.2
        doc["schedule"] = [[0.0, 10.0]]
        doc["sim"]["t_end"] = 0.01
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", write_doc(tmp_path, doc), "--alphas", "4e5,1e6,3e7,1e8",
                   "--out", str(out_dir)])
        assert rc == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        statuses = [row.split(",")[-1] for row in rows]
        assert statuses[0] == "ok"
        for status in statuses[1:]:
            assert status.startswith("step-limited:") and "divergence" not in status
        assert sorted(os.listdir(out_dir)) == ["alpha_400000.csv", "summary.csv"]

    def test_projected_step_limited_gains_recorded(self, tmp_path):
        # fig2 steps the projected law at 0.1 / (alpha (1 + beta stiffness)),
        # which falls below the 1e-6 floor above alpha = 4.43e4: 4e4
        # (dt = 1.11e-6) runs, 5e4 is refused
        doc = yaml.safe_load(Path(bundled_scenario_path("fig2")).read_text("utf-8"))
        doc["schedule"] = doc["schedule"][:1]
        doc["sim"]["t_end"] = 0.01
        out_dir = tmp_path / "sweep"
        rc = main(["sweep", write_doc(tmp_path, doc), "--alphas", "4e4,5e4",
                   "--out", str(out_dir)])
        assert rc == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        statuses = [row.split(",")[-1] for row in rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("step-limited:") and "divergence" not in statuses[1]
        assert sorted(os.listdir(out_dir)) == ["alpha_40000.csv", "summary.csv"]


    def test_overflow_of_finite_states_recorded(self, tmp_path, capsys):
        # fig1 at gain 1000 over 700 time units: the states stay finite
        # (|x| about 3e199), so the kernel never stops, but V overflows from
        # t = 538.325 on.  The gain's row records the divergence, the sweep
        # goes on, and `simulate` exits 4 without writing its CSV.
        doc = yaml.safe_load(Path(bundled_scenario_path("fig1")).read_text("utf-8"))
        doc["sim"]["t_end"] = 700.0
        out_dir = tmp_path / "sweep"
        assert main(["sweep", write_doc(tmp_path, doc), "--alphas", "10,1000",
                     "--out", str(out_dir)]) == 0
        rows = (out_dir / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert rows[0].startswith("10,") and rows[0].endswith(",ok")
        assert rows[1].startswith("1000,,,,,divergence detected at t = 538.325 in segment 4: ")
        assert sorted(os.listdir(out_dir)) == ["alpha_10.csv", "summary.csv"]
        capsys.readouterr()
        doc["controller"]["alpha"] = 1000.0
        out = tmp_path / "x.csv"
        assert main(["simulate", write_doc(tmp_path, doc, name="a1000.yaml"),
                     "--out", str(out)]) == 4
        assert "divergence detected at t = 538.325 in segment 4" in capsys.readouterr().err
        assert not out.exists()


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
        # gain 1000 lies inside the unstable interval (111.5, 2263.7); its
        # trajectory is still written
        assert [r.split(",")[-1] for r in rows] == ["ok", "ok", "ok", "not-hurwitz"]

    def test_fig1_and_certify_bytes_pinned(self, tmp_path, capsys):
        # SHA-256 of every file `reproduce fig1` writes and of the `certify`
        # text for both bundled scenarios.  fig2's trajectories are left out:
        # they call libm sin and cos, whose last bit may differ by platform.
        # A change that moves these bytes on purpose updates them and says why.
        pinned = {
            "alpha_1.csv": "09b8e2cb03a2b04420d509ef4ad2c40fbc65fd1d19e7c5f6fdf3f386b693c506",
            "alpha_10.csv": "cada44c8afbe8e7609f6dd40bec21a22864bfa0760c6e62603297d1a48f9d939",
            "alpha_100.csv": "b2d5291c7e091e15836a51aeb10e1c402c69c9d72572c532215ae54f4e2a785b",
            "alpha_1000.csv": "c5cba32e2440fae0f2a3150019f3767ab00e48a659163d3ff28bb77794464c24",
            "summary.csv": "05266348a1210aed226b6c2f8a2f23ac51e226dfb5b8407e29a6edc1a0e8d75a",
            "scenario.yaml": "d538a05753288ae8ed2b8c89cc8e07e2773eb6b7f4b0735a8a8d073ab84e1cb1",
            "certify fig1": "8aa366e20f63109b5070e57caf467e1c0688bbd8dce15058ce5a97c538337ee1",
            "certify fig2": "65e289517d519c3e81e3d35fece936e39bff9767b3293d2d1b4ae2eb62938f75",
        }
        out_dir = tmp_path / "fig1"
        assert main(["reproduce", "fig1", "--out", str(out_dir)]) == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                   for name in os.listdir(out_dir)}
        capsys.readouterr()
        for figure in ("fig1", "fig2"):
            main(["certify", bundled_scenario_path(figure)])
            text = capsys.readouterr().out.encode("utf-8")
            digests[f"certify {figure}"] = hashlib.sha256(text).hexdigest()
        assert digests == pinned

    def test_outputs_follow_umask(self, tmp_path, monkeypatch):
        # the OS applies the umask when each file is created; the writer
        # never reads or sets it, which would leave it changed for a moment
        # for every other thread
        out_dir = tmp_path / "fig1"
        old = os.umask(0o022)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(os, "umask", lambda mask: pytest.fail("os.umask called"))
                assert main(["reproduce", "fig1", "--out", str(out_dir)]) == 0
        finally:
            os.umask(old)
        modes = {name: (out_dir / name).stat().st_mode & 0o777 for name in os.listdir(out_dir)}
        assert len(modes) == 6
        assert set(modes.values()) == {0o644}, modes


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ofo.cli", "certify",
                           bundled_scenario_path("fig2")],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0
    assert "certified = true" in proc.stdout


def test_runtime_imports_neither_numpy_nor_scipy(tmp_path):
    # numpy and scipy are test oracles only; certify and simulate run on the
    # standard library
    code = ("import sys; from ofo.cli import main; "
            "codes = (main(['certify', sys.argv[1]]), "
            "main(['simulate', sys.argv[2], '--out', sys.argv[3]])); "
            "heavy = sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}); "
            "print(*codes, *heavy, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code, bundled_scenario_path("fig1"),
                           write_doc(tmp_path, minimal_doc()), str(tmp_path / "x.csv")],
                          capture_output=True, text=True, env=checkout_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "3 0", proc.stderr


def test_benchmark_trace_counts_every_layer(tmp_path):
    # the benchmark's trace mode wraps the program's functions by their
    # module attributes; a renamed or bypassed one would read zero
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    out_dir = tmp_path / "d"
    proc = subprocess.run([sys.executable, str(root / "perfbench" / "traced.py"),
                           str(tmp_path / "trace.json"), "reproduce", "fig1", "--out",
                           str(out_dir)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text("utf-8"))
    rows = sum(len(csv.read_text().splitlines()) - 1 for csv in out_dir.glob("alpha_*.csv"))
    assert rows == 32004
    assert trace["counts"]["sim.write_csv_rows"] == rows
    assert trace["calls"]["engine.run_segment"] == 16
    assert trace["calls"]["sim.summarize"] == 4
    # one parse, which builds the plant and runs its Hurwitz gate, the one
    # Lyapunov solve; the certificate reads its P from the plant
    assert trace["calls"]["scenario.loads"] == 1
    assert trace["calls"]["linalg.solve_lyapunov"] == 1
    assert trace["calls"]["certificate.certify"] == 1
