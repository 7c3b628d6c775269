"""Command-line surface: scenario files in, certificates and CSV files out.

Exit codes: 0 success (and certified), 2 input error, 3 not certified,
4 divergence during simulation.  All outputs are written atomically and all
numeric output uses 12 significant digits, so repeated invocations are
bit-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import replace
from importlib.resources import files as resource_files

from .certificate import certify, derive_plant_constants
from .errors import ConvexityGapError, DivergenceError, InputError, OfoError
from .scenario import Scenario
from .sim import LyapunovSpec, RunConfig, RunSummary, fmt12, sweep_alpha, write_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CERTIFIED = 3
EXIT_DIVERGED = 4

#: Gains run by `ofo reproduce` for each bundled scenario.
REPRODUCE_ALPHAS = {
    "fig1": (1.0, 10.0, 100.0, 1000.0),
    "fig2": (1.0, 10.0, 100.0),
}

SUMMARY_HEADER = "alpha,settling_time,overshoot,final_error,max_violation,status"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            # mkstemp creates the file at 0600; give it the mode a plain
            # open() would, so outputs follow the user's umask.  Reading the
            # umask sets it to 0 for a moment, so no other thread may create
            # files meanwhile.
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def _csv_text(traj) -> str:
    import io

    buf = io.StringIO()
    write_csv(traj, buf)
    return buf.getvalue()


def _run_config(scenario: Scenario) -> RunConfig:
    """The scenario's run configuration, with weights for the diagnostic V
    column: the certified weight when one exists, otherwise weight 1 with the
    systematic Lyapunov matrix."""
    config = scenario.run_config()
    try:
        report = certify(config.plant, config.cost, scenario.alpha, scenario.overrides,
                         scenario.claimed_mu_bound_rhs)
        xi = report.xi.chosen if report.xi is not None else 1.0
        spec = LyapunovSpec(xi=xi, p=report.p_matrix)
    except ConvexityGapError:
        spec = LyapunovSpec(xi=1.0, p=derive_plant_constants(config.plant).p)
    return replace(config, lyapunov=spec)


def _summary_line(alpha: float, summary: RunSummary) -> str:
    return (f"alpha = {fmt12(alpha)}  final_error = {fmt12(summary.final_error)}  "
            f"settling_time = {fmt12(summary.settling_time)}  "
            f"overshoot = {fmt12(summary.overshoot)}  "
            f"max_box_violation = {fmt12(summary.max_violation)}")


def cmd_certify(args) -> int:
    scenario = Scenario.load(args.scenario)
    try:
        report = certify(scenario.build_plant(), scenario.build_cost(), scenario.alpha,
                         scenario.overrides, scenario.claimed_mu_bound_rhs)
    except ConvexityGapError as exc:
        print(f"not certified: {exc}")
        return EXIT_NOT_CERTIFIED
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


def cmd_simulate(args) -> int:
    scenario = Scenario.load(args.scenario)
    config = _run_config(scenario)
    traj, summary = config.run(scenario.alpha)
    for warning in traj.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _atomic_write(args.out, _csv_text(traj))
    print(_summary_line(scenario.alpha, summary))
    return EXIT_OK


def _parse_alphas(text: str) -> list[float]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise InputError(f"--alphas: {token!r} is not a number")
        if not 0.0 < value < math.inf:
            raise InputError(f"--alphas: values must be positive and finite, got {token}")
        out.append(value)
    if not out:
        raise InputError("--alphas: no values given")
    return out


def _run_sweep(scenario: Scenario, alphas, out_dir: str) -> None:
    config = _run_config(scenario)
    rows = sweep_alpha(config, alphas)
    summary_lines = [SUMMARY_HEADER]
    for row in rows:
        if row.error is not None:
            status = row.error.replace(",", ";")
            summary_lines.append(f"{fmt12(row.alpha)},,,,,{status}")
            print(f"alpha = {fmt12(row.alpha)}  error: {row.error}")
            continue
        _atomic_write(os.path.join(out_dir, f"alpha_{fmt12(row.alpha)}.csv"),
                      _csv_text(row.trajectory))
        s = row.summary
        status = "ok" if config.hurwitz(row.alpha) is not False else "not-hurwitz"
        summary_lines.append(
            f"{fmt12(row.alpha)},{fmt12(s.settling_time)},{fmt12(s.overshoot)},"
            f"{fmt12(s.final_error)},{fmt12(s.max_violation)},{status}")
        print(_summary_line(row.alpha, s))
    _atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(summary_lines) + "\n")


def cmd_sweep(args) -> int:
    scenario = Scenario.load(args.scenario)
    alphas = _parse_alphas(args.alphas)
    _run_sweep(scenario, alphas, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.figure not in REPRODUCE_ALPHAS:
        raise InputError(f"unknown figure id {args.figure!r}; expected one of "
                         f"{sorted(REPRODUCE_ALPHAS)}")
    text = resource_files("ofo").joinpath(f"scenarios/{args.figure}.yaml").read_text("utf-8")
    scenario = Scenario.loads(text)
    _atomic_write(os.path.join(args.out, "scenario.yaml"), text)
    _run_sweep(scenario, REPRODUCE_ALPHAS[args.figure], args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofo",
        description="Simulate feedback-optimization loops and check their "
                    "gain-independent stability certificate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="print the stability certificate report")
    p.add_argument("scenario", help="scenario YAML file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="run one closed-loop simulation")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the scenario once per gain")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--alphas", required=True, help="comma-separated positive gains")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reproduce", help="materialize and sweep a bundled scenario")
    p.add_argument("figure", help="bundled scenario id: fig1 or fig2")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OfoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit:
        raise
    except Exception as exc:  # total exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
