"""Benchmark of the ailtl monitor: one seeded workload per invocation.

    python3 perfbench/run.py --workload queue_gated --seed 1 --seconds 25 --trace 0

Imports ``ailtl`` from the ``src`` directory of the checkout this file
sits in, generates the workload's short and long input from the seed,
and runs ``Engine.run`` on them alternately for ``--seconds``.  Every
report is checked against the workload's own expectation.

``--trace 0`` prints the end-to-end metrics: events/s on the long input
from the median of its rescaled run times (see ``harness.py`` for the
rescaling by a reference computation), the log-log scaling slope of run
time against events seen from short to long input (the median over
rounds, each round pairing one short and one long run), the median
rescaled set-up time, and the ``tracemalloc`` peak of one extra run.
``--trace 1`` runs the same timed loop, then one extra run with every
layer hook wrapped (see ``tracing.py``), and prints the per-layer
metrics.  Each metric is printed on its own line, then the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A metric whose hook is gone reads ``null``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ailtl  # noqa: E402

if Path(ailtl.__file__).resolve().parent != ROOT / "src" / "ailtl":
    raise ImportError(f"ailtl imported from {ailtl.__file__}, not from this checkout's src")

from harness import (  # noqa: E402
    REFERENCE_S,
    Prepared,
    Rescaler,
    Tally,
    peak_kib,
    setup_times,
    timed_rounds,
    traced_run,
)
from workloads import WORKLOADS  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    short, long = (Prepared.parse(case) for case in WORKLOADS[workload].cases(seed))
    tally = Tally()
    rescale = Rescaler()
    setup = setup_times(long.case, rescale)
    metrics = {}

    if not trace:
        try:
            peak, report = peak_kib(long)
            tally.check("memory run", report, long.case.expect)
        except Exception:
            peak = None
            tally.raised("memory run")

    samples = timed_rounds(short, long, seconds, rescale, tally)
    if not samples.long:
        for problem in tally.problems:
            print(problem, file=sys.stderr)
        raise SystemExit(f"{workload}: no timed round finished with the expected verdicts")
    if not trace:
        growth = math.log(samples.events_long / samples.events_short)
        metrics["events_per_s"] = (samples.events_long / statistics.median(samples.long), "events/s")
        metrics["scaling_slope"] = (
            statistics.median(math.log(lo / sh) / growth for sh, lo in zip(samples.short, samples.long)),
            "1",
        )
        metrics["setup_s"] = (setup["setup"], "s")
        metrics["peak_mem_kib"] = (peak, "KiB")
    else:
        metrics["dsl.parse_program_s"] = (setup["parse_program"], "s")
        metrics["dsl.parse_trace_s"] = (setup["parse_trace"], "s")
        metrics["runtime.engine_init_s"] = (setup["engine_init"], "s")
        try:
            elapsed, report, tracer = traced_run(long)
        except Exception:
            tally.raised("traced run")
        else:
            tally.check("traced run", report, long.case.expect)
            for name in tracer.missing:
                print(f"missing hook: {name}", file=sys.stderr)
            metrics["runtime.emissions"] = (len(report.emissions), "count")
            metrics["runtime.feedback_events"] = (report.events_seen - len(long.events), "count")
            metrics["runtime.instances_final"] = (len(report.final_statuses), "count")
            metrics.update(tracer.metrics())
            metrics["trace.overhead_ratio"] = (elapsed / statistics.median(samples.long_raw), "ratio")

    for problem in tally.problems:
        print(problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {'missing' if value is None else value} {unit}")
    print(f"{workload} error_rate {tally.failed / tally.attempted} share_of_runs")
    print(
        f"{workload} rounds {len(samples.long)}:"
        f" long {statistics.median(samples.long_raw):.4f} s raw,"
        f" short {statistics.median(samples.short_raw):.4f} s raw,"
        f" reference {statistics.median(rescale.references):.4f} s median"
        f" (rescaled to {REFERENCE_S} s)"
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
