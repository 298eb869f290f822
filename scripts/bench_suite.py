"""Run the benchmark suite on this checkout and on a parent revision, alternating.

    python3 scripts/bench_suite.py --out BENCH_7.json --seeds 111-120 --parent bb5ef08

Runs the ``command`` of ``BENCHMARK.json`` with ``--trace 0`` and its
``run_seconds``, once per workload and seed, each run in its own
subprocess, and reads the JSON object on the last line it prints.  Each
metric is summarised by ``perfbench/stability.py``'s ``summarise``: the
median, the quartiles, the spread and each run's value in seed order.
Each workload also keeps the ``attempted`` and ``failed`` operation
counts summed over its runs, and how many runs reported a wrong result.
The output carries the Python version, ``nproc``, the git revision and
the seeds.  A checkout with uncommitted changes to tracked files is
named ``<rev>-dirty-<hash>``, with the first 12 hex digits of the SHA-256
of ``git diff HEAD``, so that the revision names the exact tree.

With ``--parent REV`` the same suite also runs on revision ``REV``,
exported with ``git archive`` into a temporary directory, and is written
as the ``parent`` block.  The two sides alternate run by run, and the side
that goes first alternates from one seed to the next, so a drift in the
machine's speed falls on both; each seed then gives one parent/change
pair.  A run that exits with an error stops the suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from stability import parse_seeds, summarise  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result object of one benchmark run in ``checkout``."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: List[dict]) -> dict:
    out = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "incorrect": sum(not r["correct"] for r in runs),
        "metrics": {},
    }
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values):
            out["metrics"][name] = {"missing": True}
        else:
            out["metrics"][name] = {"unit": first["unit"], **summarise(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="as in perfbench/stability.py: 1-10 or 1,2,3")
    parser.add_argument("--parent", help="a git revision to run the same suite on, alternating with this checkout")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    workloads = [w["name"] for w in SPEC["workloads"]]
    diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    dirty = f"-dirty-{hashlib.sha256(diff).hexdigest()[:12]}" if diff else ""
    revisions = {"head": git("rev-parse", "--short", "HEAD") + dirty}
    sides = {"head": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        if args.parent:
            revisions["parent"] = git("rev-parse", "--short", args.parent)
            archive = subprocess.run(
                ["git", "archive", "--format=tar", revisions["parent"]], cwd=ROOT, capture_output=True, check=True
            )
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
            sides["parent"] = Path(tmp)
        runs: Dict[str, Dict[str, list]] = {side: {w: [] for w in workloads} for side in sides}
        for workload in workloads:
            for i, seed in enumerate(seeds):
                for side in list(sides) if i % 2 == 0 else reversed(list(sides)):
                    result = run_once(sides[side], workload, seed)
                    runs[side][workload].append(result)
                    rate = result["metrics"]["events_per_s"]["value"]
                    print(f"{workload} seed {seed} {side}: events_per_s {rate}", file=sys.stderr, flush=True)

    blocks = {
        side: {"revision": revisions[side], "workloads": {w: summary(r) for w, r in runs[side].items()}}
        for side in sides
    }
    report = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": SPEC["run_seconds"],
        "seeds": seeds,
        **blocks["head"],
    }
    if args.parent:
        report["parent"] = blocks["parent"]
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
