"""The monitor engine: event loop, gating, due checks, feedback, reports.

Per incoming event: action events pass through the reflective gate first
(blocked ones are logged but never recorded), everything recorded lands in
the history, and the timed state sequence advances when the snapshot
changed.  After all events of a tick are ingested, every live expression
instance is stepped against the snapshot (an instance leaves the step
loop the cycle it turns terminal); reactions and countermeasures
are emitted as fresh events with the next tick's timestamp and fed back
through the same gate, so an emission in cycle c is never visible to
checks before cycle c+1.

A violated or broken instance is terminal; the engine re-arms a clone
scoped to later events while the monitored interval is still live, which
is what lets standing constraints (the temperature rule, the queue guard)
fire repeatedly over a long run.  Reactive rules run on the same machinery
as evolutionary expressions: an empty precondition, the reaction as the
repair, no countermeasures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import profiles
from .dsl import Program
from .events import Event, EventKind, History, StateSequence
from .evolutionary import EvolutionaryExpr, ExprRuntime, ExprStatus
from .kb import FactBase
from .metagate import GateDecision, MetaRule, gate
from .terms import Term, render_term


class EngineError(Exception):
    pass


class CapExceeded(EngineError):
    """Per-cycle emission cap or feedback-cascade bound exceeded."""


@dataclass
class EngineConfig:
    default_frequency: int = 1
    retention_limit: Optional[int] = None
    metrics: bool = False
    emission_cap: int = 1000
    max_feedback_ticks: int = 10000
    rearm: bool = True


@dataclass
class CycleMetrics:
    tick: int
    f: int
    retrieval_ns: int
    if_eval_ns: int
    max_eval_ns: int
    if_viol_ns: int

    @property
    def total_ns(self) -> int:
        return self.retrieval_ns + self.if_eval_ns + self.max_eval_ns + self.if_viol_ns


@dataclass(frozen=True)
class GateRecord:
    seq: int
    tick: int
    payload: Term
    decision: GateDecision


@dataclass(frozen=True)
class TransitionRecord:
    seq: int
    tick: int
    instance: str
    old: ExprStatus
    new: ExprStatus
    cause: Term


@dataclass(frozen=True)
class EmissionRecord:
    seq: int
    tick: int
    instance: str
    channel: str  # repair | eta1 | eta2 | eta3 | reactive
    kind: EventKind
    payload: Term


@dataclass(frozen=True)
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
    eval_ticks: Dict[str, List[int]] = field(default_factory=dict)
    metrics: List[CycleMetrics] = field(default_factory=list)

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


@dataclass
class _Instance:
    name: str
    base: str
    expr: EvolutionaryExpr
    runtime: ExprRuntime
    is_rule: bool


class Engine:
    def __init__(self, program: Program, config: Optional[EngineConfig] = None) -> None:
        self.cfg = config or EngineConfig()
        self.program = program
        self.kb = FactBase()
        profile = program.config.get("derived")
        if profile is not None:
            profiles.install(self.kb, str(profile))
        for f in program.facts:
            self.kb.assert_fact(f)
        for name, table in program.costs.items():
            self.kb.register_cost(name, table)
        frequency = program.config.get("frequency", self.cfg.default_frequency)
        self.default_k = int(frequency)
        retention = program.config.get("retention", self.cfg.retention_limit)
        self.history = History(default_limit=int(retention) if retention is not None else None)
        self.seq = StateSequence()
        self.metarules: List[MetaRule] = list(program.metarules)
        self.instances: List[_Instance] = []  # every instance, in creation order
        self._clone_counts: Dict[str, int] = {}
        for name, expr in program.evolutionary:
            self.instances.append(_Instance(name, name, expr, ExprRuntime(expr), is_rule=False))
        for name, rule in program.reactive:
            wrapped = EvolutionaryExpr(core=rule.monitor, repair=rule.reaction)
            self.instances.append(_Instance(name, name, wrapped, ExprRuntime(wrapped), is_rule=True))
        self._live: List[_Instance] = list(self.instances)  # the non-terminal ones, in creation order
        self._seq_no = 0

    def _next_seq(self) -> int:
        self._seq_no += 1
        return self._seq_no

    # -- event loop ------------------------------------------------------

    def run(self, source: Iterable[Event]) -> Report:
        report = Report()
        events = list(source)
        feedback: Dict[int, List[Event]] = {}
        i = 0
        last_tick = 0
        post_source = 0
        while True:
            trace_ts = events[i].timestamp if i < len(events) else None
            fb_ts = min(feedback) if feedback else None
            if trace_ts is None and fb_ts is None:
                break
            if trace_ts is None:
                post_source += 1
                if post_source > self.cfg.max_feedback_ticks:
                    raise CapExceeded(
                        f"feedback cascade exceeded {self.cfg.max_feedback_ticks} ticks past the source"
                    )
            tick = min(t for t in (trace_ts, fb_ts) if t is not None)
            batch: List[Event] = []
            while i < len(events) and events[i].timestamp == tick:
                batch.append(events[i])
                i += 1
            batch.extend(feedback.pop(tick, ()))
            self._ingest(report, batch, tick)
            self._check(report, tick, feedback)
            last_tick = tick
        report.last_tick = last_tick
        self._finalize(report, last_tick)
        return report

    def _ingest(self, report: Report, batch: List[Event], tick: int) -> None:
        dirty = False
        for e in batch:
            report.events_seen += 1
            if e.kind is EventKind.ACTION:
                decision = gate(e.payload, self.metarules, self.kb, self.history)
                report.gate_log.append(GateRecord(self._next_seq(), tick, e.payload, decision))
                if decision in (GateDecision.BLOCKED_BY_SOLVE_FAIL, GateDecision.BLOCKED_BY_SOLVE_NOT):
                    continue
            self.history.record(e)
            dirty = True
        self.seq.advance(tick, dirty, (len(self.history.log), self.kb.version))

    def _check(self, report: Report, tick: int, feedback: Dict[int, List[Event]]) -> None:
        timed = self.cfg.metrics
        t0 = time.perf_counter_ns() if timed else 0
        snapshot = self._live
        live: List[_Instance] = []
        spawned: List[_Instance] = []
        t1 = time.perf_counter_ns() if timed else 0
        emitted = 0
        if_eval = max_eval = if_viol = 0
        for inst in snapshot:
            out = inst.runtime.step(self.history, self.kb, tick, self.default_k, timed)
            if_eval += out.if_eval_ns
            max_eval += out.max_eval_ns
            if_viol += out.if_viol_ns
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
                feedback.setdefault(tick + 1, []).append(Event(eff.kind, eff.payload, tick + 1))
            if not inst.runtime.terminal:
                live.append(inst)
            just_ended = any(tr.new in (ExprStatus.VIOLATED, ExprStatus.BROKEN) for tr in out.transitions)
            if self.cfg.rearm and just_ended:
                clone = self._respawn(inst, tick)
                if clone is not None:
                    spawned.append(clone)
        # clones are younger than every instance stepped this cycle
        self._live = live + spawned
        if timed:
            report.metrics.append(
                CycleMetrics(tick, len(snapshot), t1 - t0, if_eval, max_eval, if_viol)
            )

    def _respawn(self, inst: _Instance, tick: int) -> Optional[_Instance]:
        hi = inst.expr.core.op.n
        if hi is not None and tick >= hi:
            return None  # the monitored interval is over; nothing left to guard
        count = self._clone_counts.get(inst.base, 1) + 1
        self._clone_counts[inst.base] = count
        name = f"{inst.base}#{count}"
        clone = _Instance(name, inst.base, inst.expr, ExprRuntime(inst.expr, scan_since=tick), inst.is_rule)
        self.instances.append(clone)
        return clone

    def _finalize(self, report: Report, last_tick: int) -> None:
        for inst in self.instances:
            status, transition = inst.runtime.final_report(last_tick)
            if transition is not None:
                report.transitions.append(
                    TransitionRecord(
                        self._next_seq(), last_tick, inst.name, transition.old, transition.new, transition.cause
                    )
                )
            report.final_statuses[inst.name] = status
            report.eval_ticks[inst.name] = list(inst.runtime.eval_ticks)


def run(program: Program, source: Iterable[Event], config: Optional[EngineConfig] = None) -> Report:
    """Run a parsed program over an event source and return the report."""
    return Engine(program, config).run(source)
