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
A quiet instance whose check reads no log is parked: no cycle steps it
until the fact base moves or its upper bound comes, and the ticks it was
due at meanwhile are added to its report entry when it wakes or the run
ends.
A violated or broken instance re-arms a clone scoped to later events
while the monitored interval is still live, which is what lets standing
constraints (the temperature rule, the queue guard) fire repeatedly over
a long run.  Reactive rules run on the same machinery as evolutionary
expressions: an empty precondition, the reaction as the repair, no
countermeasures.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from math import gcd
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
    """A live instance of a named expression; the engine drops it when it ends.

    ``order`` is its place in creation order; ``parked_at`` is the tick of
    the cycle that last parked it.
    """

    name: str
    base: str
    runtime: ExprRuntime
    is_rule: bool
    order: int
    parked_at: int = 0


_ORDER = attrgetter("order")


def _due_runs(cycles: Tuple[range, ...], after: int, lo: int, k: int) -> Iterator[range]:
    """The cycle ticks above ``after`` at which a check every ``k`` ticks from ``lo`` is due, as ranges.

    Within a run of cycle ticks of gap ``g`` the due ones recur every
    ``k / gcd(g, k)`` ticks of the run, so each run gives at most one range.
    """
    first = len(cycles)
    while first and cycles[first - 1][-1] > after:
        first -= 1
    for run in cycles[first:]:
        if run.start <= after:
            run = run[(after - run.start) // run.step + 1 :]
        period = k // gcd(run.step, k)
        for i, tick in enumerate(run[:period]):
            if (tick - lo) % k == 0:
                yield run[i::period]
                break


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
        self._live: List[_Instance] = []  # the non-terminal instances not parked, in creation order
        for name, expr in program.evolutionary:
            self._live.append(self._create(name, name, expr, is_rule=False))
        for name, rule in program.reactive:
            wrapped = EvolutionaryExpr(core=rule.monitor, repair=rule.reaction)
            self._live.append(self._create(name, name, wrapped, is_rule=True))
        for inst in self._live:
            # compiled here, after the last registration, so that no check pays for it
            core = inst.runtime.expr.core
            self.kb.plan(core.phi)
            self.kb.plan(core.chi)
        self._seq_no = 0
        # the parked instances by upper bound (None: unbounded), the heap
        # of their bounds, and the fact-base version their checks were made at
        self._parked: Dict[Optional[int], List[_Instance]] = {}
        self._bounds: List[int] = []
        self._parked_count = 0
        self._version = self.kb.version
        # the ticks of the cycles run since the first parked instance parked:
        # those up to ``_turned``, and every ``_stride`` ticks since (0: none)
        self._cycles = TickRuns()
        self._turned = 0
        self._stride = 0

    def _next_seq(self) -> int:
        self._seq_no += 1
        return self._seq_no

    def _create(self, name: str, base: str, expr: EvolutionaryExpr, is_rule: bool, scan_since: int = -1) -> _Instance:
        """A new instance, listed in the report in creation order."""
        runtime = ExprRuntime(expr, scan_since)
        order = len(self.report.final_statuses)  # every instance is listed once, under its own name
        self.report.final_statuses[name] = runtime.status
        self.report.ticks[name] = runtime.ticks
        return _Instance(name, base, runtime, is_rule, order)

    # -- event loop ------------------------------------------------------

    def run(self, source: Iterable[Event]) -> Report:
        """Run the source's events, in timestamp order, and close the run.

        The source is read as an iterator, one event ahead of the cycle it
        belongs to, so it is never copied.  Emissions land at the tick
        after the cycle that made them, so while any are pending the next
        cycle is that tick.

        An error (``CapExceeded``, say) is raised with ``report`` as the
        steps so far have left it, once the parked instances have the
        ticks their steps would have added.
        """
        report = self.report
        events = iter(source)
        try:
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
        except Exception:
            self._unpark()
            raise
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
        """Step the instances live at ``tick`` and those it wakes.

        ``retrieval_ns`` times the cycle's own work: the wake test, the
        snapshot, the result lists and, while anything is parked, the
        record of the cycle's tick.  A cycle with no instance live and
        none to wake does only that.  A wake (catch-up and merge) is timed
        into ``max_eval_ns``.
        """
        report, kb = self.report, self.kb
        clock = time.perf_counter_ns if self.cfg.metrics else None
        t0 = clock() if clock else 0
        snapshot = self._live
        wake = kb.version != self._version or (self._bounds and self._bounds[0] <= tick)
        if not (wake or snapshot):
            if self._parked_count and tick - report.last_tick != self._stride:
                self._turn(tick)
            if clock:
                report.metrics.append(CycleMetrics(tick, self._parked_count, clock() - t0))
            return
        live: List[_Instance] = []
        spawned: List[_Instance] = []
        cycle = CycleMetrics(tick, len(snapshot) + self._parked_count, clock() - t0) if clock else None
        if wake:
            t1 = clock() if clock else 0
            snapshot = self._wake(tick)
            if clock:
                cycle.max_eval_ns += clock() - t1
        history, default_k, version = self.history, self.default_k, self._version
        emitted = 0
        try:
            for inst in snapshot:
                runtime = inst.runtime
                out = runtime.step(history, kb, tick, default_k, cycle)
                if out is QUIET:
                    # a quiet step: nothing to record, still live; a check
                    # that stands until the fact base moves is parked
                    if runtime.stands_at(version):
                        self._park(inst, tick)
                    else:
                        live.append(inst)
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
        except Exception:
            # the cycle stepped the instances before ``inst``: the parked ones before it were due too
            this = (range(tick, tick + 1),)
            for parked in self._unpark():
                if parked.order < inst.order:
                    self._catch_up(parked, this)
            raise
        t2 = clock() if clock else 0
        # clones are younger than every instance stepped this cycle
        self._live = live + spawned
        if self._parked_count and tick - report.last_tick != self._stride:
            self._turn(tick)
        if clock:
            cycle.retrieval_ns += clock() - t2
            report.metrics.append(cycle)

    # -- parking -----------------------------------------------------------

    def _park(self, inst: _Instance, tick: int) -> None:
        inst.parked_at = tick
        hi = inst.runtime.expr.core.op.n
        group = self._parked.get(hi)
        if group is None:
            group = self._parked[hi] = []
            if hi is not None:
                heapq.heappush(self._bounds, hi)
        group.append(inst)
        self._parked_count += 1

    def _wake(self, tick: int) -> List[_Instance]:
        """The instances this cycle steps: the live ones and the parked ones it wakes, in creation order.

        A moved fact base wakes every parked instance; the first cycle at
        or past an upper bound wakes the instances it bounds, which then
        close as they would have.
        """
        if self.kb.version != self._version:
            self._version = self.kb.version
            woken = self._unpark()
        else:
            woken = self._unpark(tick)
        return sorted(self._live + woken, key=_ORDER) if woken else self._live

    def _unpark(self, due: Optional[int] = None) -> List[_Instance]:
        """Take out the parked instances, or those bounded at ``due`` or before, with their ticks caught up.

        Each gets the ticks of the cycles run since it parked at which it
        was due, the ticks its quiet steps would have added.
        """
        if due is None:
            woken = [inst for group in self._parked.values() for inst in group]
            self._parked.clear()
            self._bounds.clear()
        else:
            woken = []
            while self._bounds and self._bounds[0] <= due:
                woken += self._parked.pop(heapq.heappop(self._bounds))
        if woken:
            self._parked_count -= len(woken)
            cycles = self._cycle_runs()
            if not self._parked_count:  # no parked instance reads these any more
                self._cycles, self._turned, self._stride = TickRuns(), 0, 0
            for inst in woken:
                self._catch_up(inst, cycles)
        return woken

    def _cycle_runs(self) -> Tuple[range, ...]:
        """The ticks of the cycles run since the first parked instance parked, as ranges."""
        runs = self._cycles.runs()
        if self._stride:
            runs += (range(self._turned + self._stride, self.report.last_tick + 1, self._stride),)
        return runs

    def _turn(self, tick: int) -> None:
        """``tick`` breaks the stride of the cycles since the last turn: record those, start the next.

        So a cycle on the stride costs one compare and records nothing.
        ``report.last_tick`` is the cycle before this one.  The first
        parking starts a stride at the cycle before its own; a catch-up
        reads only the ticks after the parking.
        """
        last = self.report.last_tick
        if self._stride:
            self._cycles.extend(range(self._turned + self._stride, last + 1, self._stride))
        self._turned, self._stride = last, tick - last

    def _catch_up(self, inst: _Instance, cycles: Tuple[range, ...]) -> None:
        """Add the ticks of ``cycles`` after the parking one at which ``inst`` was due."""
        runtime = inst.runtime
        k = runtime.expr.core.op.k
        for ticks in _due_runs(cycles, inst.parked_at, runtime.lo, k if k is not None else self.default_k):
            runtime.ticks.extend(ticks)

    def _respawn(self, inst: _Instance, tick: int) -> Optional[_Instance]:
        expr = inst.runtime.expr
        hi = expr.core.op.n
        if hi is not None and tick >= hi:
            return None  # the monitored interval is over; nothing left to guard
        count = self._clone_counts.get(inst.base, 1) + 1
        self._clone_counts[inst.base] = count
        return self._create(f"{inst.base}#{count}", inst.base, expr, inst.is_rule, scan_since=tick)

    def _finalize(self) -> None:
        """Close every live instance, parked or not, and free each runtime once it is closed."""
        report = self.report
        live = self._live + self._unpark()  # the only list that holds them, so each is freed once closed
        live.sort(key=_ORDER)
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
