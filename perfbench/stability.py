"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/stability.py --workloads queue_gated,wide_static \\
        --seeds 1-10 --trace 0 --out perfbench/baseline.json

For every workload, runs ``run.py`` once per seed (one after the other,
with the ``run_seconds`` of ``BENCHMARK.json``), and reports per metric
the median, the quartiles from ``statistics.quantiles(values, n=4)``,
and the spread: the distance between the quartiles as a share of the
median.  End-to-end spreads are compared with a third of the metric's
bound.  With ``--out`` the summary is written as JSON, together with the
Python version and CPU count it was measured with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if v["value"] is not None
            ), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values):
                metrics[name] = {"missing": True}
                continue
            metrics[name] = summarise(values)
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            bound = bounds.get(name)
            if bound is not None and args.trace == 0:
                spread = metrics[name]["spread"]
                steady = name == "setup_s" or (spread is not None and spread < bound / 3)
                ok = ok and steady
                print(f"{workload} {name}: median {metrics[name]['median']:.6g} spread {spread:.4f}"
                      f" (bound/3 {bound / 3:.4f}){'' if steady else '  UNSTEADY'}")
        summary[workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        record = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": spec["run_seconds"],
            "seeds": parse_seeds(args.seeds),
            "trace": args.trace,
            "workloads": summary,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
