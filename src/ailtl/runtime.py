"""The monitor engine: event loop, gating, due checks, feedback, reports.

The engine owns a run's state, the report included (``Engine.report``,
built at construction).  Per incoming event: action events pass through
the reflective gate first (blocked ones are logged but never recorded),
and everything recorded lands in the history.  After all events of a
tick are ingested, every live expression instance is stepped against the
snapshot; reactions and countermeasures go into one feedback list as
fresh events with the next tick's timestamp, and the next cycle takes
the list whole through the same gate, so an emission in cycle c is never
visible to checks before cycle c+1.

An instance is listed in the report when it is created.  The cycle it
turns terminal, its status goes into the report and the engine drops it.
A violated or broken instance re-arms a clone scoped to later events
while the monitored interval is still live, which is what lets standing
constraints (the temperature rule, the queue guard) fire repeatedly over
a long run.  Reactive rules run on the same machinery as evolutionary
expressions: an empty precondition, the reaction as the repair, no
countermeasures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import profiles
from .dsl import Program
from .events import Event, EventKind, History
from .evolutionary import QUIET, EvolutionaryExpr, ExprRuntime, ExprStatus, TickRuns
from .kb import FactBase
from .metagate import GateDecision, MetaRule, gate
from .terms import Term, render_term


class EngineError(Exception):
    pass


class CapExceeded(EngineError):
    """Per-cycle emission cap or feedback-cascade bound exceeded."""


@dataclass
class EngineConfig:
    metrics: bool = False
    emission_cap: int = 1000
    max_feedback_ticks: int = 10000
    rearm: bool = True


@dataclass
class CycleMetrics:
    tick: int
    f: int
    retrieval_ns: int
    # phase wall times, which the cycle's steps add to
    if_eval_ns: int = 0
    max_eval_ns: int = 0
    if_viol_ns: int = 0

    @property
    def total_ns(self) -> int:
        return self.retrieval_ns + self.if_eval_ns + self.max_eval_ns + self.if_viol_ns


@dataclass(frozen=True, slots=True)
class GateRecord:
    seq: int
    tick: int
    payload: Term
    decision: GateDecision


@dataclass(frozen=True, slots=True)
class TransitionRecord:
    seq: int
    tick: int
    instance: str
    old: ExprStatus
    new: ExprStatus
    cause: Term


@dataclass(frozen=True, slots=True)
class EmissionRecord:
    seq: int
    tick: int
    instance: str
    channel: str  # repair | eta1 | eta2 | eta3 | reactive
    kind: EventKind
    payload: Term


@dataclass(frozen=True, slots=True)
class WarnRecord:
    seq: int
    tick: int
    instance: str
    message: str


@dataclass
class Report:
    last_tick: int = 0
    events_seen: int = 0
    gate_log: List[GateRecord] = field(default_factory=list)
    transitions: List[TransitionRecord] = field(default_factory=list)
    emissions: List[EmissionRecord] = field(default_factory=list)
    warnings: List[WarnRecord] = field(default_factory=list)
    final_statuses: Dict[str, ExprStatus] = field(default_factory=dict)
    ticks: Dict[str, TickRuns] = field(default_factory=dict)  # the ticks each instance was checked at
    metrics: List[CycleMetrics] = field(default_factory=list)

    @property
    def tick_runs(self) -> Dict[str, Tuple[range, ...]]:
        """Each instance's checked ticks as ascending ranges, one per run of one gap."""
        return {name: ticks.runs() for name, ticks in self.ticks.items()}

    @property
    def eval_ticks(self) -> Dict[str, List[int]]:
        """Each instance's checked ticks as a list (``tick_runs`` expanded)."""
        return {name: [tick for run in runs for tick in run] for name, runs in self.tick_runs.items()}

    @property
    def violations(self) -> int:
        return sum(1 for t in self.transitions if t.new is ExprStatus.VIOLATED)

    @property
    def broken(self) -> int:
        return sum(1 for t in self.transitions if t.new is ExprStatus.BROKEN)

    @property
    def blocked_actions(self) -> int:
        return sum(
            1
            for g in self.gate_log
            if g.decision in (GateDecision.BLOCKED_BY_SOLVE_FAIL, GateDecision.BLOCKED_BY_SOLVE_NOT)
        )

    def status_count(self, status: ExprStatus) -> int:
        return sum(1 for s in self.final_statuses.values() if s is status)

    def render(self) -> str:
        """Stable text form: one record per line, chronological, then summary."""
        rows: List[Tuple[int, str]] = []
        for g in self.gate_log:
            rows.append((g.seq, f"gate {g.tick} {g.decision.value} {render_term(g.payload)}"))
        for t in self.transitions:
            rows.append(
                (t.seq, f"transition {t.tick} {t.instance} {t.old.value}->{t.new.value} cause={render_term(t.cause)}")
            )
        for e in self.emissions:
            rows.append(
                (e.seq, f"emit {e.tick} {e.instance} {e.channel} {e.kind.value} {render_term(e.payload)}")
            )
        for w in self.warnings:
            rows.append((w.seq, f"warn {w.tick} {w.instance} {w.message}"))
        rows.sort(key=lambda r: r[0])
        lines = ["# ailtl report", f"run last_tick={self.last_tick} events={self.events_seen} instances={len(self.final_statuses)}"]
        lines.extend(text for _, text in rows)
        lines.extend(f"final {name} {status.value}" for name, status in self.final_statuses.items())
        lines.append(
            "summary"
            f" violations={self.violations}"
            f" broken={self.broken}"
            f" fulfilled={self.status_count(ExprStatus.FULFILLED)}"
            f" fulfilled_so_far={self.status_count(ExprStatus.FULFILLED_SO_FAR)}"
            f" disabled={self.status_count(ExprStatus.DISABLED)}"
            f" dormant={self.status_count(ExprStatus.DORMANT)}"
            f" blocked={self.blocked_actions}"
        )
        if self.metrics:
            total = summarize_metrics(self.metrics)
            lines.append(
                "metrics"
                f" f={total['f']} m={total['retrieval_ns']} if_eval={total['if_eval_ns']}"
                f" max_eval={total['max_eval_ns']} if_viol_or_broken={total['if_viol_ns']}"
                f" total={total['total_ns']}"
            )
        return "\n".join(lines) + "\n"


def summarize_metrics(metrics: List[CycleMetrics]) -> Dict[str, int]:
    out = {
        "f": metrics[-1].f if metrics else 0,
        "retrieval_ns": sum(m.retrieval_ns for m in metrics),
        "if_eval_ns": sum(m.if_eval_ns for m in metrics),
        "max_eval_ns": sum(m.max_eval_ns for m in metrics),
        "if_viol_ns": sum(m.if_viol_ns for m in metrics),
    }
    out["total_ns"] = out["retrieval_ns"] + out["if_eval_ns"] + out["max_eval_ns"] + out["if_viol_ns"]
    return out


@dataclass(slots=True)
class _Instance:
    """A live instance of a named expression; the engine drops it when it ends."""

    name: str
    base: str
    runtime: ExprRuntime
    is_rule: bool


class Engine:
    def __init__(self, program: Program, config: Optional[EngineConfig] = None) -> None:
        self.cfg = config or EngineConfig()
        self.kb = FactBase()
        profile = program.config.get("derived")
        if profile is not None:
            profiles.install(self.kb, str(profile))
        for f in program.facts:
            self.kb.assert_fact(f)
        for name, table in program.costs.items():
            self.kb.register_cost(name, table)
        self.default_k = int(program.config.get("frequency", 1))
        self.history = History()
        self.metarules: List[MetaRule] = list(program.metarules)
        self.report = Report()
        self._clone_counts: Dict[str, int] = {}
        self._feedback: List[Event] = []  # the emissions of the last cycle, all due at the next tick
        self._live: List[_Instance] = []  # the non-terminal instances, in creation order
        for name, expr in program.evolutionary:
            self._live.append(self._create(name, name, expr, is_rule=False))
        for name, rule in program.reactive:
            wrapped = EvolutionaryExpr(core=rule.monitor, repair=rule.reaction)
            self._live.append(self._create(name, name, wrapped, is_rule=True))
        self._seq_no = 0

    def _next_seq(self) -> int:
        self._seq_no += 1
        return self._seq_no

    def _create(self, name: str, base: str, expr: EvolutionaryExpr, is_rule: bool, scan_since: int = -1) -> _Instance:
        """A new instance, listed in the report in creation order."""
        runtime = ExprRuntime(expr, scan_since)
        self.report.final_statuses[name] = runtime.status
        self.report.ticks[name] = runtime.ticks
        return _Instance(name, base, runtime, is_rule)

    # -- event loop ------------------------------------------------------

    def run(self, source: Iterable[Event]) -> Report:
        """Run the source's events, in timestamp order, and close the run.

        The source is read as an iterator, one event ahead of the cycle it
        belongs to, so it is never copied.  Emissions land at the tick
        after the cycle that made them, so while any are pending the next
        cycle is that tick.
        """
        report = self.report
        events = iter(source)
        pending = next(events, None)  # the next source event, read one ahead
        post_source = 0
        while pending is not None or self._feedback:
            if pending is None:
                post_source += 1
                if post_source > self.cfg.max_feedback_ticks:
                    raise CapExceeded(
                        f"feedback cascade exceeded {self.cfg.max_feedback_ticks} ticks past the source"
                    )
            tick = report.last_tick + 1 if self._feedback else pending.timestamp
            batch: List[Event] = []
            while pending is not None and pending.timestamp == tick:
                batch.append(pending)
                pending = next(events, None)
            batch += self._feedback
            self._feedback = []
            self._ingest(batch, tick)
            self._check(tick)
            report.last_tick = tick
        self._finalize()
        return report

    def _ingest(self, batch: List[Event], tick: int) -> None:
        report = self.report
        for e in batch:
            report.events_seen += 1
            if e.kind is EventKind.ACTION:
                decision = gate(e.payload, self.metarules, self.kb, self.history)
                report.gate_log.append(GateRecord(self._next_seq(), tick, e.payload, decision))
                if decision in (GateDecision.BLOCKED_BY_SOLVE_FAIL, GateDecision.BLOCKED_BY_SOLVE_NOT):
                    continue
            self.history.record(e)

    def _check(self, tick: int) -> None:
        report = self.report
        t0 = time.perf_counter_ns() if self.cfg.metrics else 0
        snapshot = self._live
        live: List[_Instance] = []
        spawned: List[_Instance] = []
        cycle = CycleMetrics(tick, len(snapshot), time.perf_counter_ns() - t0) if self.cfg.metrics else None
        emitted = 0
        history, kb, default_k = self.history, self.kb, self.default_k
        for inst in snapshot:
            runtime = inst.runtime
            out = runtime.step(history, kb, tick, default_k, cycle)
            if out is QUIET:
                live.append(inst)  # a quiet step: nothing to record, still live
                continue
            for tr in out.transitions:
                report.transitions.append(
                    TransitionRecord(self._next_seq(), tick, inst.name, tr.old, tr.new, tr.cause)
                )
            for message in out.warnings:
                report.warnings.append(WarnRecord(self._next_seq(), tick, inst.name, message))
            for eff in out.effects:
                channel = "reactive" if inst.is_rule else eff.channel
                report.emissions.append(
                    EmissionRecord(self._next_seq(), tick, inst.name, channel, eff.kind, eff.payload)
                )
                emitted += 1
                if emitted > self.cfg.emission_cap:
                    raise CapExceeded(f"cycle {tick} emitted more than {self.cfg.emission_cap} actions")
                self._feedback.append(Event(eff.kind, eff.payload, tick + 1))
            if not runtime.terminal:
                live.append(inst)
                continue
            report.final_statuses[inst.name] = runtime.status
            if self.cfg.rearm and any(tr.new in (ExprStatus.VIOLATED, ExprStatus.BROKEN) for tr in out.transitions):
                clone = self._respawn(inst, tick)
                if clone is not None:
                    spawned.append(clone)
        # clones are younger than every instance stepped this cycle
        self._live = live + spawned
        if cycle is not None:
            report.metrics.append(cycle)

    def _respawn(self, inst: _Instance, tick: int) -> Optional[_Instance]:
        expr = inst.runtime.expr
        hi = expr.core.op.n
        if hi is not None and tick >= hi:
            return None  # the monitored interval is over; nothing left to guard
        count = self._clone_counts.get(inst.base, 1) + 1
        self._clone_counts[inst.base] = count
        return self._create(f"{inst.base}#{count}", inst.base, expr, inst.is_rule, scan_since=tick)

    def _finalize(self) -> None:
        """Close every live instance, and free each runtime once it is closed."""
        report, live = self.report, self._live
        end = report.last_tick
        self._live = []
        for i, inst in enumerate(live):
            status, transition = inst.runtime.final_report(end)
            if transition is not None:
                report.transitions.append(
                    TransitionRecord(self._next_seq(), end, inst.name, transition.old, transition.new, transition.cause)
                )
            report.final_statuses[inst.name] = status
            live[i] = None  # the runtime is closed: free it before the next one


def run(program: Program, source: Iterable[Event], config: Optional[EngineConfig] = None) -> Report:
    """Run a parsed program over an event source and return the report."""
    return Engine(program, config).run(source)
