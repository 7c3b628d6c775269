"""Run the `ofo` CLI with a counter and a timer around the public functions
of each module, then write what they saw as JSON.

    python3 perfbench/traced.py <trace.json> <ofo arguments...>

Each wrapper replaces the module attribute that the caller looks up, so no
file of the program changes.  Times are CPU seconds of the calling thread
inside the call, nested layers included, so sweep threads waiting for the
interpreter lock do not count as busy; `sim.sweep_alpha` is timed in wall
seconds.  The first segment of the smallest gain is kept for the
kernel-against-kernel comparison.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict

import ofo.certificate
import ofo.cli
import ofo.engine
import ofo.plants
import ofo.scenario
import ofo.sim


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.counts = {"engine.steps": 0, "engine.records": 0, "sim.write_csv_rows": 0}
        self.kernel_spec = None
        self._spec_key = None

    def wrap(self, name, func, clock=time.thread_time, observe=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                with self.lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            if observe is not None:
                with self.lock:
                    observe(args, result)
            return result

        return wrapper

    def segment(self, args, result):
        spec = args[0]
        self.counts["engine.steps"] += spec.n_full + (1 if spec.last_dt > 0.0 else 0)
        self.counts["engine.records"] += len(result.times)
        key = (spec.alpha, spec.t0)
        if self._spec_key is None or key < self._spec_key:
            self._spec_key = key
            self.kernel_spec = asdict(spec)

    def csv_rows(self, args, _result):
        self.counts["sim.write_csv_rows"] += len(args[0].t)

    def install(self) -> None:
        scenario_cls = ofo.scenario.Scenario
        loads = scenario_cls.__dict__["loads"].__func__
        scenario_cls.loads = classmethod(self.wrap("scenario.loads", loads))
        ofo.cli.certify = self.wrap("certificate.certify", ofo.cli.certify)
        solve = self.wrap("linalg.solve_lyapunov", ofo.plants.solve_lyapunov)
        ofo.plants.solve_lyapunov = solve
        ofo.certificate.solve_lyapunov = solve
        ofo.sim.optimal_input = self.wrap("sim.optimal_input", ofo.sim.optimal_input)
        ofo.engine.run_segment = self.wrap("engine.run_segment", ofo.engine.run_segment,
                                           observe=self.segment)
        ofo.sim.lyapunov_trace = self.wrap("sim.lyapunov_trace", ofo.sim.lyapunov_trace)
        ofo.sim.summarize = self.wrap("sim.summarize", ofo.sim.summarize)
        ofo.cli.write_csv = self.wrap("sim.write_csv", ofo.cli.write_csv, observe=self.csv_rows)
        ofo.cli.sweep_alpha = self.wrap("sim.sweep_alpha", ofo.cli.sweep_alpha,
                                        clock=time.perf_counter)
        ofo.sim.RunConfig.run = self.wrap("sim.RunConfig.run", ofo.sim.RunConfig.run)

    def dump(self, path: str) -> None:
        doc = {"calls": self.calls, "seconds": self.seconds, "counts": self.counts,
               "kernel_spec": self.kernel_spec}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return ofo.cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
