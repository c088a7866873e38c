#!/usr/bin/env python3
"""Benchmark of the gausscollect CLI: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  The workload's inputs are generated from ``--seed``; one
client issues them as CLI requests in a closed loop (see
``workloads.py``).  A warm-up repetition comes first and is the
reference the later repetitions must reproduce byte for byte; then
repetitions run until ``--seconds`` of them have been timed.

Timings of the warm workload are reported in reference seconds: wall
time scaled by the host speed sampled around each request (see
``calibrate.py``); the raw wall times are printed and saved beside them.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the
median wall time of several fresh processes that import
``gausscollect.cli`` and make a first request; ``peak_rss_mb`` is the
peak RSS of this process, which runs only this workload.

``--trace 1`` alternates untraced repetitions with traced ones (spans
from ``layers.py``) and reports the per-layer metrics of a traced
repetition: medians for times, exact counts, which every traced
repetition must reproduce.  ``trace.overhead_s`` is the traced minus
the untraced median repetition time.

Outputs are checked outside the timed region (``gate.py``); the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller report, with machine information
and the workload's design notes, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gate
import layers
from calibrate import Speed
from spans import ROOT, Tracer
from workloads import WORKLOADS, Client

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"
DESIGN = Path(__file__).resolve().parent / "design.json"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2
# optimized cells of the reference repetition that the gate re-checks
# against the oracles, drawn from the seed; None checks every one
GATE_SAMPLE = {"sweep_compensated": 12, "sweep_uniform": 16, "envelope_session": None}

SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import gausscollect.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["xi", "--sigma-perp-bar", "5", "--sigma-z-bar", "100",
                     "--waist-bar", "10", "--phase", "gouy"])
sys.exit(code)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS; None when it cannot be queried."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


def measure_setup(tally: gate.Tally) -> list:
    """Wall times of fresh processes doing the import and a first request."""
    times = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=REPO, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        tally.check(proc.returncode == 0,
                    f"setup process exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times


def tail(samples: list):
    """Highest percentile with ten samples beyond it; (value, percentile).

    With fewer than 40 samples that percentile would lie below the upper
    quartile, so the upper quartile is used, with ``n // 4`` samples
    beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


@dataclass
class Timing:
    """Raw and reference-second times of one repetition and its requests."""

    raw_wall: float
    wall: float
    raw_requests: list
    requests: list


class Runner:
    """Issues repetitions of one workload and checks their outputs."""

    def __init__(self, workload: str, seed: int, tally: gate.Tally, speed: Speed):
        from gausscollect import cli

        plan_inputs, self.session = WORKLOADS[workload]
        self.plan = plan_inputs(seed)
        self.client = Client(cli, between=speed.maybe_sample)
        self.tally = tally
        self.speed = speed
        self.reference = None

    def repetition(self, tracer: Tracer | None = None):
        """One repetition; returns a :class:`Timing` and the responses."""
        self.speed.sample()
        sampling = self.speed.spent
        start = perf_counter()
        if tracer is None:
            responses = self.session(self.client, self.plan)
        else:
            responses = tracer.call(ROOT, self.session, self.client, self.plan)
        end = perf_counter()
        raw_wall = end - start - (self.speed.spent - sampling)
        self.speed.sample()
        raw = [r.seconds for r in responses]
        ref = [r.seconds * self.speed.scale(r.start, r.start + r.seconds) for r in responses]
        # the harness's own time between requests takes the repetition's mean scale
        wall = sum(ref) + (raw_wall - sum(raw)) * self.speed.scale(start, end)
        gate.check_repetition(self.tally, responses, self.reference)
        if self.reference is None:
            self.reference = responses
        return Timing(raw_wall, wall, raw, ref), responses


def run_untraced(runner: Runner, seconds: float):
    """End-to-end values, printed notes and raw samples of an untraced run."""
    runner.repetition()  # warm-up and reference
    cells = len(gate.optimum_rows(runner.reference))
    reps = []
    while len(reps) < MIN_REPS or sum(t.raw_wall for t in reps) < seconds:
        reps.append(runner.repetition()[0])
    walls = [t.wall for t in reps]
    latencies = [x for t in reps for x in t.requests]
    raw_latencies = [x for t in reps for x in t.raw_requests]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_value, tail_pct = tail(latencies)
    values = {
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(cells / w for w in walls),
        "request_p50_ms": 1e3 * statistics.median(latencies),
        "request_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "repetitions": len(reps),
        "requests": len(latencies),
        "request_tail_percentile": tail_pct,
        "cells_per_repetition": cells,
        "raw_wall_s": statistics.median(t.raw_wall for t in reps),
        "raw_request_p50_ms": 1e3 * statistics.median(raw_latencies),
        "raw_request_tail_ms": 1e3 * tail(raw_latencies)[0],
    }
    samples = {"repetition_s": walls, "raw_repetition_s": [t.raw_wall for t in reps],
               "request_s": latencies, "raw_request_s": raw_latencies,
               "kernel_s": runner.speed.kernel_s}
    return values, notes, samples


def run_traced(runner: Runner, seconds: float):
    """Per-layer values, printed notes and raw samples of a traced run."""
    runner.repetition()  # warm-up and reference, untraced
    tracer = Tracer()
    plain, traced, per_rep = [], [], []
    while (min(len(plain), len(traced)) < MIN_TRACED_REPS
           or sum(t.raw_wall for t in plain + traced) < seconds):
        plain.append(runner.repetition()[0])
        tracer.reset()
        layers.install(tracer)
        try:
            timing, responses = runner.repetition(tracer)
        finally:
            tracer.uninstall()
        traced.append(timing)
        scale = timing.wall / timing.raw_wall
        rep = layers.layer_values(tracer, sum(len(r.stdout.encode()) for r in responses))
        per_rep.append({name: value * scale if layers.PER_LAYER[name] == "s" else value
                        for name, value in rep.items()})

    for name in layers.COUNTS:
        seen = {rep[name] for rep in per_rep}
        runner.tally.check(len(seen) == 1, f"per-layer count {name} not reproduced: {sorted(seen)}")
    values = {
        name: (per_rep[0][name] if name in layers.COUNTS
               else statistics.median(rep[name] for rep in per_rep))
        for name in per_rep[0]
    }
    traced_s = statistics.median(t.wall for t in traced)
    plain_s = statistics.median(t.wall for t in plain)
    values["trace.overhead_s"] = traced_s - plain_s
    notes = {
        "traced_repetitions": len(traced),
        "untraced_repetitions": len(plain),
        "traced_repetition_s": traced_s,
        "untraced_repetition_s": plain_s,
    }
    samples = {"traced_repetition_s": [t.wall for t in traced],
               "untraced_repetition_s": [t.wall for t in plain],
               "traced_raw_repetition_s": [t.raw_wall for t in traced],
               "untraced_raw_repetition_s": [t.raw_wall for t in plain]}
    return values, notes, samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gausscollect" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = gate.Tally()
    speed = Speed()
    runner = Runner(args.workload, args.seed, tally, speed)
    if args.trace:
        values, notes, samples = run_traced(runner, args.seconds)
        units = layers.PER_LAYER
    else:
        setup = measure_setup(tally)
        values, notes, samples = run_untraced(runner, args.seconds)
        values["setup_s"] = statistics.median(setup)
        samples["setup_s"] = setup
        units = END_TO_END

    gate.check_optima(tally, gate.optimum_rows(runner.reference),
                      gate.sample_rng(args.seed), GATE_SAMPLE[args.workload])

    machine = machine_info()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print("notes " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                              for k, v in notes.items()))
    print(f"failed_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for failure in tally.failures[:20]:
        print(f"FAILED: {failure}")

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine,
        "design": json.loads(DESIGN.read_text())["workloads"][args.workload],
        "inputs": runner.plan,
        "notes": notes,
        "samples": samples,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
