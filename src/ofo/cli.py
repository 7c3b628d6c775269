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
from dataclasses import replace
from importlib.resources import files as resource_files
from typing import BinaryIO, Callable

from .certificate import certify
from .errors import ConvexityGapError, DivergenceError, InputError, OfoError
from .scenario import Scenario
from .sim import RunConfig, RunSummary, fmt12, sweep_alpha, write_csv

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


def _atomic_write(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Create path with the bytes that write(fh) writes to the binary file
    fh, through a temp file in the same directory and a rename.  The temp
    file is created 0666, so the OS applies the umask as for a plain open()."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def _run_config(scenario: Scenario) -> RunConfig:
    """The scenario's run configuration, with the weight of the diagnostic V
    column: the certified xi when one exists, otherwise 1.  Prints the
    configuration's warnings on standard error, once for all its gains."""
    config = scenario.config
    try:
        report = certify(config.plant, config.cost, scenario.alpha, scenario.overrides,
                         scenario.claimed_mu_bound_rhs)
        xi = report.xi.chosen if report.xi is not None else 1.0
    except ConvexityGapError:
        xi = 1.0
    for warning in config.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return replace(config, xi=xi)


def _summary_line(alpha: float, summary: RunSummary) -> str:
    return (f"alpha = {fmt12(alpha)}  final_error = {fmt12(summary.final_error)}  "
            f"settling_time = {fmt12(summary.settling_time)}  "
            f"overshoot = {fmt12(summary.overshoot)}  "
            f"max_box_violation = {fmt12(summary.max_violation)}")


def cmd_certify(args) -> int:
    scenario = Scenario.load(args.scenario)
    try:
        report = certify(scenario.config.plant, scenario.config.cost, scenario.alpha,
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
    _atomic_write(args.out, lambda fh: write_csv(traj, fh))
    print(_summary_line(scenario.alpha, summary))
    return EXIT_OK


def _parse_alphas(text: str) -> list[float]:
    """The gains of --alphas, in order; two gains whose 12-digit labels, and
    so whose CSV names and summary rows, coincide are refused."""
    out, labels = [], {}
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
        label = fmt12(value)
        if label in labels:
            raise InputError(f"--alphas: {labels[label]!r} and {token!r} both print as {label}")
        labels[label] = token
        out.append(value)
    if not out:
        raise InputError("--alphas: no values given")
    return out


def _sweep_gain(config: RunConfig, alpha: float, out_dir: str) -> str:
    """Run one gain, write its CSV and print its summary; returns its line of
    summary.csv.  Nothing of the trajectory outlives this call."""
    (row,) = sweep_alpha(config, [alpha])
    if row.error is not None:
        print(f"alpha = {fmt12(alpha)}  error: {row.error}")
        return f"{fmt12(alpha)},,,,,{row.error.replace(',', ';')}"
    _atomic_write(os.path.join(out_dir, f"alpha_{fmt12(alpha)}.csv"),
                  lambda fh: write_csv(row.trajectory, fh))
    s = row.summary
    status = "ok" if config.hurwitz(alpha) is not False else "not-hurwitz"
    print(_summary_line(alpha, s))
    return (f"{fmt12(alpha)},{fmt12(s.settling_time)},{fmt12(s.overshoot)},"
            f"{fmt12(s.final_error)},{fmt12(s.max_violation)},{status}")


def _run_sweep(scenario: Scenario, alphas, out_dir: str) -> None:
    """Run the gains in order, each CSV written before the next gain runs,
    then write summary.csv."""
    config = _run_config(scenario)
    summary_lines = [SUMMARY_HEADER] + [_sweep_gain(config, a, out_dir) for a in alphas]
    summary = ("\n".join(summary_lines) + "\n").encode("utf-8")
    _atomic_write(os.path.join(out_dir, "summary.csv"), lambda fh: fh.write(summary))


def cmd_sweep(args) -> int:
    scenario = Scenario.load(args.scenario)
    alphas = _parse_alphas(args.alphas)
    _run_sweep(scenario, alphas, args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.figure not in REPRODUCE_ALPHAS:
        raise InputError(f"unknown figure id {args.figure!r}; expected one of "
                         f"{sorted(REPRODUCE_ALPHAS)}")
    data = resource_files("ofo").joinpath(f"scenarios/{args.figure}.yaml").read_bytes()
    scenario = Scenario.loads(data.decode("utf-8"))
    _atomic_write(os.path.join(args.out, "scenario.yaml"), lambda fh: fh.write(data))
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
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except OfoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # total exit-code contract
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
