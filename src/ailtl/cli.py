"""Command-line entry point.

Exit codes: 0 when the run finished with no violations (or the check
passed), 1 when violations were reported, 2 on usage or parse errors.
A run that the engine stops (``CapExceeded``) still writes its report as
it stood, ends it with an ``error <last_tick> <message>`` line, and
exits with 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .dsl import ParseError, parse_program, parse_trace
from .events import TimestampRegression
from .kb import NonGroundFact, ReservedFunctor, UnboundBuiltinArg
from .profiles import UnknownProfile
from .runtime import Engine, EngineConfig, EngineError, summarize_metrics
from .scenarios import BATTERY_VARIANTS, ETHICS_CONTEXTS, ETHICS_ROLES, SCENARIOS, bench_scenario, gen_scenario
from .temporal import NonGroundAfterContext, UnresolvedPreference

DIAGNOSTIC_ERRORS = (
    ParseError,
    TimestampRegression,
    EngineError,
    UnresolvedPreference,
    NonGroundAfterContext,
    UnboundBuiltinArg,
    NonGroundFact,
    ReservedFunctor,
    UnknownProfile,
    OSError,
    ValueError,
)

METRICS_CSV_HEADER = "f,m,if_eval,max_eval,if_viol_or_broken,total"


def _metrics_csv_row(f: int, total: Dict[str, int]) -> str:
    """The row under ``METRICS_CSV_HEADER``: ``f``, then the summed phase times."""
    return (
        f"{f},{total['retrieval_ns']},{total['if_eval_ns']},"
        f"{total['max_eval_ns']},{total['if_viol_ns']},{total['total_ns']}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ailtl", description="Interval-LTL runtime monitor")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a program over a trace")
    run.add_argument("--program", required=True)
    run.add_argument("--trace", required=True)
    run.add_argument("--report", help="write the report here instead of stdout")
    run.add_argument("--metrics", action="store_true", help="collect per-cycle cost metrics")

    scenario = sub.add_parser("scenario", help="generate a scenario program + trace")
    scenario.add_argument("name", choices=SCENARIOS)
    scenario.add_argument("--size", type=int, default=100)
    scenario.add_argument("--seed", type=int, default=7)
    scenario.add_argument("--out", default=".")
    scenario.add_argument(
        "--inject-duplicate",
        type=int,
        nargs="?",
        const=1,
        default=0,
        metavar="N",
        help="queue: disable gating and append N duplicate pushes",
    )
    scenario.add_argument("--soft", action="store_true", help="supply: soft-limit variant")
    scenario.add_argument("--variant", choices=BATTERY_VARIANTS, default="normal", help="battery variant")
    scenario.add_argument("--dips", type=int, default=2, help="temperature: out-of-band readings")
    scenario.add_argument("--context", choices=ETHICS_CONTEXTS, default="video_game")
    scenario.add_argument("--role", choices=ETHICS_ROLES, default="player")
    scenario.add_argument("--children", action="store_true", help="ethics: small children are watching")

    bench = sub.add_parser("bench", help="measure per-cycle check cost")
    bench.add_argument("--exprs", default="10,100,1000", help="comma-separated expression counts")
    bench.add_argument("--ticks", type=int, default=50)
    bench.add_argument("--repeat", type=int, default=3)

    check = sub.add_parser("check", help="parse and validate a program")
    check.add_argument("--program", required=True)
    return parser


def _scenario_params(args: argparse.Namespace) -> dict:
    if args.name == "queue":
        return {"size": args.size, "seed": args.seed, "inject_duplicates": args.inject_duplicate}
    if args.name == "supply":
        return {"soft": args.soft}
    if args.name == "battery":
        return {"variant": args.variant}
    if args.name == "temperature":
        return {"dips": args.dips}
    if args.name == "ethics":
        return {"context": args.context, "role": args.role, "children": args.children}
    return {}


def _cmd_run(args: argparse.Namespace) -> int:
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    events = parse_trace(Path(args.trace).read_text(encoding="utf-8"))
    engine = Engine(program, EngineConfig(metrics=args.metrics))
    error: Optional[EngineError] = None
    try:
        engine.run(events)
    except EngineError as exc:
        error = exc
    report = engine.report
    text = report.render()
    if error is not None:
        text += f"error {report.last_tick} {error}\n"
    if args.metrics:
        total = summarize_metrics(report.metrics)
        text += f"{METRICS_CSV_HEADER}\n{_metrics_csv_row(total['f'], total)}\n"
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1 if report.violations > 0 else 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    program_text, trace_text = gen_scenario(args.name, **_scenario_params(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    program_path = out / f"{args.name}.ailtl"
    trace_path = out / f"{args.name}.trace"
    program_path.write_text(program_text, encoding="utf-8")
    trace_path.write_text(trace_text, encoding="utf-8")
    print(f"wrote {program_path} and {trace_path}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    counts = [int(part) for part in args.exprs.split(",") if part]
    print(METRICS_CSV_HEADER)
    for f in counts:
        program_text, trace_text = bench_scenario(f, args.ticks)
        program = parse_program(program_text)
        events = parse_trace(trace_text)
        best: Optional[dict] = None
        for _ in range(max(1, args.repeat)):
            engine = Engine(program, EngineConfig(metrics=True))
            report = engine.run(list(events))
            total = summarize_metrics(report.metrics)
            if best is None or total["total_ns"] < best["total_ns"]:
                best = total
        assert best is not None
        print(_metrics_csv_row(f, best))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    parse_program(Path(args.program).read_text(encoding="utf-8"))
    print("ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_check(args)
    except DIAGNOSTIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
