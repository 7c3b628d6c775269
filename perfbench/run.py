#!/usr/bin/env python3
"""The benchmark of `ofo`: gain sweeps run through the CLI, timed end to end,
traced layer by layer, and checked against numpy/scipy references.

    python3 perfbench/run.py --workload fig1-reproduce --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the program is loaded from
`src/` as the tests load it.  Every timed invocation is a fresh
`python3 -m ofo.cli` process.  With `--trace 0` a run times set-up (a fresh
interpreter importing `ofo` and selecting its kernel, sampled before and
after the invocations), makes whole CLI invocations while the next one is
expected to end within `--seconds` (at least one), and reports the medians
of `setup_s`, `run_s` and `peak_rss_mb`.  With `--trace 1` it makes one plain and one traced
invocation (see `traced.py`), reports the per-layer metrics and the tracing
overhead, and compares the stepping kernels on the sweep's first segment.

The machine's speed drifts by up to 2x, in phases of a second to minutes, so
every timed window is scaled to a reference speed.  A probe thread in this
process times a fixed pure-Python loop in CPU seconds every 50 ms, alongside
the program; a window's wall seconds are multiplied by `PROBE_REF_S` over the
probe's mean inside it.  The printed lines give the raw wall seconds too.

Each gain of each invocation is one operation.  It fails when any check in
`checks.py` fails.  `correct` is false when an invocation errs or a check
other than the status check fails.  The last line of standard output is the
result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 8
KERNEL_STEPS = 20000
DEADLINE_S = 170.0
#: The speed probe: loop length, sampling period, and the loop's CPU seconds
#: at the reference speed, to which `run_s`, `setup_s` and the tracing
#: overhead are scaled.
PROBE_ITERS = 20000
PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.002
SETUP_CODE = "import ofo; from ofo.engine import kernel_name; print(kernel_name())"
#: Gains as the CLI names their files.
FIG1_GAINS = ("1", "10", "100", "1000")
FIG2_GAINS = ("1", "10", "100")
LEVELS_GAINS = ("1", "10", "100")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def _reproduce(figure: str, gains: tuple[str, ...]):
    def make(_seed: int, _work: Path):
        return ["reproduce", figure], SRC / "ofo" / "scenarios" / f"{figure}.yaml", gains
    return make


def _fig2_short(_seed: int, work: Path):
    path = work / "fig2-short.yaml"
    bundled = SRC / "ofo" / "scenarios" / "fig2.yaml"
    text = subprocess.run([sys.executable, str(HERE / "short.py"), str(bundled)],
                          capture_output=True, text=True, check=True).stdout
    path.write_text(text, encoding="utf-8")
    return ["sweep", str(path), "--alphas", ",".join(FIG2_GAINS)], path, FIG2_GAINS


def _levels(seed: int, work: Path):
    path = work / "levels.yaml"
    text = subprocess.run([sys.executable, str(HERE / "levels.py"), str(seed)],
                          capture_output=True, text=True, check=True).stdout
    path.write_text(text, encoding="utf-8")
    return ["sweep", str(path), "--alphas", ",".join(LEVELS_GAINS)], path, LEVELS_GAINS


#: name -> (sweep threads, a function of the seed that returns the CLI
#: arguments before `--out`, the scenario file and the gains of one invocation)
WORKLOADS = {
    "fig2-sweep": (usable_cores, _fig2_short),
    "fig1-reproduce": (lambda: 1, _reproduce("fig1", FIG1_GAINS)),
    "levels-sweep": (lambda: 1, _levels),
}


def probe_loop(n: int = PROBE_ITERS) -> float:
    """A fixed piece of interpreted float arithmetic, apart from the program."""
    x = 0.0
    for i in range(n):
        x = x * 0.999 + i * 1e-9
    return x


class SpeedProbe(threading.Thread):
    """Times `probe_loop` in CPU seconds of this thread every
    `PROBE_PERIOD_S`, so that a window's wall time can be scaled to the
    reference speed.  CPU seconds leave out the time the probe waits for a
    core, so a program that keeps both cores busy does not pass for a slow
    machine.  It takes about 4% of one core."""

    def __init__(self):
        super().__init__(name="speed-probe", daemon=True)
        self.samples: list[tuple[float, float]] = []  # (end, CPU seconds)
        self.halt = threading.Event()

    def run(self) -> None:
        while not self.halt.is_set():
            start = time.thread_time()
            probe_loop()
            self.samples.append((time.perf_counter(), time.thread_time() - start))
            self.halt.wait(PROBE_PERIOD_S)

    def stop(self) -> None:
        self.halt.set()
        self.join()

    def mean(self, start: float, end: float) -> float:
        """Mean probe CPU seconds of the samples that ended in [start, end],
        or of the nearest sample when none did."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return statistics.fmean(inside)

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, measured in [start, end], at the reference speed."""
        return seconds * PROBE_REF_S / self.mean(start, end)


class Runner:
    """Spawns, times and verifies CLI invocations of one benchmark run.

    This process imports nothing but the standard library before its last
    timed invocation: Linux carries the launcher's peak memory into a
    child's `ru_maxrss`, so a large launcher would hide the program's own.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        threads, make = WORKLOADS[workload]
        self.work = work
        self.argv, self.scenario, self.gains = make(seed, work)
        self.env = dict(os.environ, OFO_THREADS=str(threads()),
                        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                 os.environ.get("PYTHONPATH")])))
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.xi: str | None = None
        self.verdicts: dict[str, list[list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages: list[str] = []
        self.probe = SpeedProbe()
        self.probe.start()

    def spawn(self, cmd: list[str]) -> tuple[float, float, float, int]:
        """Wall seconds from launch to exit, raw and at the reference speed,
        peak RSS in MB, exit code."""
        with open(self.work / "child.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (end - start, self.probe.scaled(end - start, start, end),
                usage.ru_maxrss / 1024.0, proc.returncode)

    def python(self, *args: str) -> str:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, check=True).stdout

    def setup_times(self) -> list[tuple[float, float]]:
        """Set-up wall seconds, raw and at the reference speed.  One probe
        mean covers the whole batch, because a set-up is shorter than a few
        probe periods."""
        start = time.perf_counter()
        raw = [self.spawn([sys.executable, "-c", SETUP_CODE])[0] for _ in range(SETUP_SAMPLES)]
        end = time.perf_counter()
        return [(t, self.probe.scaled(t, start, end)) for t in raw]

    def invoke(self, trace: Path | None = None) -> tuple[float, float, float, Path]:
        """Wall seconds raw and at the reference speed, peak RSS in MB, and
        the output directory of one verified invocation."""
        self.count += 1
        out = self.work / f"out{self.count}"
        entry = [str(HERE / "traced.py"), str(trace)] if trace else ["-m", "ofo.cli"]
        elapsed, scaled, rss, code = self.spawn([sys.executable, *entry, *self.argv,
                                                 "--out", str(out)])
        self.record(out, code)
        return elapsed, scaled, rss, out

    def record(self, out: Path, code: int) -> None:
        """Verify one invocation's outputs and count its operations.  Equal
        output bytes get the verdict already given to them."""
        if code != 0:
            per_gain = [[f"invocation: exit code {code}"]] * len(self.gains)
        else:
            key = digest(out)
            if key not in self.verdicts:
                self.verdicts[key] = self.verify(out)
            per_gain = self.verdicts[key]
        for failures in per_gain:
            self.attempted += 1
            self.failed += bool(failures)
            for msg in failures:
                if not msg.startswith("status:"):
                    self.correct = False
                if msg not in self.messages:
                    self.messages.append(msg)

    def verify(self, out: Path) -> list[list[str]]:
        if self.xi is None:
            cert = subprocess.run([sys.executable, "-m", "ofo.cli", "certify", str(self.scenario)],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True)
            self.xi = certified_xi(cert.stdout)
        result = json.loads(self.python(str(HERE / "checks.py"), str(self.scenario), str(out),
                                        self.xi, *self.gains))
        copy = out / "scenario.yaml"
        if self.argv[0] == "reproduce" and (not copy.is_file()
                                            or copy.read_bytes() != self.scenario.read_bytes()):
            for failures in result:
                failures.append("invocation: scenario.yaml differs from the bundled scenario")
        return result


def certified_xi(certify_text: str) -> str:
    """The weight the program's V column uses: `xi_chosen` of `ofo certify`
    when the certificate passes, else 1."""
    for line in certify_text.splitlines():
        if line.startswith("xi_chosen = "):
            return line.split("=", 1)[1].strip()
    return "1"


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                h.update(chunk)
    return h.hexdigest()


def dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir())


def end_to_end(runner: Runner, seconds: float) -> dict:
    # The untimed first import names the kernel and writes the bytecode
    # cache.  Set-up is sampled before and after the invocations, because
    # machine speed drifts over a run.
    kernel = runner.python("-c", SETUP_CODE).strip()
    print(f"kernel: {kernel}; usable cores: {usable_cores()}; "
          f"OFO_THREADS={runner.env['OFO_THREADS']}")
    setup = runner.setup_times()
    times, scaled, rss = [], [], []
    while True:
        elapsed, ref_s, peak, out = runner.invoke()
        shutil.rmtree(out)
        times.append(elapsed)
        scaled.append(ref_s)
        rss.append(peak)
        if sum(times) + statistics.median(times) > seconds:
            break
    setup += runner.setup_times()
    print(f"invocations: {len(times)}; wall s: {', '.join(f'{t:.4f}' for t in times)}; "
          f"at reference speed: {', '.join(f'{t:.4f}' for t in scaled)}")
    print(f"setup wall s median {statistics.median(t for t, _ in setup):.4f}, "
          f"at reference speed {statistics.median(r for _, r in setup):.4f}")
    return {
        "setup_s": (statistics.median(r for _, r in setup), "s"),
        "run_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def kernel_rates(spec_doc: dict) -> tuple[float, float, str, bool]:
    """Steps/s of the pure kernel and of the selected kernel on one segment,
    and whether a compiled kernel, when importable, matches pure bit for bit."""
    sys.path.insert(0, str(SRC))
    from ofo import engine
    from ofo.engine import pure

    n_full = min(spec_doc["n_full"], KERNEL_STEPS)
    spec_doc = dict(spec_doc, n_full=n_full, last_dt=0.0,
                    t_end=spec_doc["t0"] + n_full * spec_doc["dt"],
                    record_stride=max(1, n_full // 50), include_final=True)

    def rate(kernel):
        start = time.perf_counter()
        result = kernel.run_segment(engine.SegmentSpec(**spec_doc))
        return n_full / (time.perf_counter() - start), result

    pure_rate, pure_result = rate(pure)
    selected = engine.active_kernel()
    selected_rate = pure_rate if selected is pure else rate(selected)[0]
    identical = True
    if engine.HAVE_COMPILED:
        identical = rate(engine._speedup)[1] == pure_result
    return pure_rate, selected_rate, engine.kernel_name(), identical


def per_layer(runner: Runner) -> dict:
    plain_wall, plain_s, _, plain_out = runner.invoke()
    trace_path = runner.work / "trace.json"
    traced_wall, traced_s, _, traced_out = runner.invoke(trace=trace_path)
    output_bytes = dir_bytes(traced_out)
    trace = json.loads(trace_path.read_text("utf-8"))
    calls, secs, counts = trace["calls"], trace["seconds"], trace["counts"]
    runner.probe.stop()  # the kernels run in this process
    pure_rate, selected_rate, kernel, identical = kernel_rates(trace["kernel_spec"])
    print(f"kernel: {kernel}; usable cores: {usable_cores()}; "
          f"OFO_THREADS={runner.env['OFO_THREADS']}; wall s plain {plain_wall:.4f}, "
          f"traced {traced_wall:.4f}; at reference speed plain {plain_s:.4f}, "
          f"traced {traced_s:.4f}")
    if not identical:
        runner.correct = False
        runner.messages.append("kernel: compiled and pure kernels disagree")
    for out in (plain_out, traced_out):
        shutil.rmtree(out)
    steps = counts["engine.steps"]
    return {
        "scenario.loads_s": (secs.get("scenario.loads", 0.0), "s"),
        "certificate.certify_calls": (calls.get("certificate.certify", 0), "count"),
        "certificate.certify_s": (secs.get("certificate.certify", 0.0), "s"),
        "linalg.solve_lyapunov_calls": (calls.get("linalg.solve_lyapunov", 0), "count"),
        "linalg.solve_lyapunov_s": (secs.get("linalg.solve_lyapunov", 0.0), "s"),
        "sim.optimal_input_calls": (calls.get("sim.optimal_input", 0), "count"),
        "sim.optimal_input_s": (secs.get("sim.optimal_input", 0.0), "s"),
        "engine.run_segment_calls": (calls.get("engine.run_segment", 0), "count"),
        "engine.run_segment_s": (secs.get("engine.run_segment", 0.0), "s"),
        "engine.steps": (steps, "count"),
        "engine.steps_per_s": (steps / secs["engine.run_segment"], "steps/s"),
        "engine.records": (counts["engine.records"], "count"),
        "sim.lyapunov_trace_s": (secs.get("sim.lyapunov_trace", 0.0), "s"),
        "sim.summarize_s": (secs.get("sim.summarize", 0.0), "s"),
        "sim.write_csv_s": (secs.get("sim.write_csv", 0.0), "s"),
        "sim.write_csv_rows": (counts["sim.write_csv_rows"], "count"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "sim.sweep_alpha_s": (secs["sim.sweep_alpha"], "s"),
        "sim.sweep_alpha_busy_ratio": (secs["sim.RunConfig.run"] / secs["sim.sweep_alpha"],
                                       "ratio"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "kernel.pure_steps_per_s": (pure_rate, "steps/s"),
        "kernel.selected_steps_per_s": (selected_rate, "steps/s"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ofo" / "cli.py").is_file():
        print(f"error: no program source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    runner = None
    try:
        runner = Runner(args.workload, args.seed, work)
        metrics = per_layer(runner) if args.trace else end_to_end(runner, args.seconds)
    finally:
        if runner is not None:
            runner.probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass
    for msg in runner.messages[:10]:
        print(f"check: {msg}")
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
