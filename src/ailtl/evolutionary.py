"""Evolutionary constraints: armed by an event prefix, watching the future.

An evolutionary expression couples a monitored interval formula with up to
three event sequences: a precondition sequence whose prefix arms the
check, a sequence of events expected to happen later without affecting
the property, and a sequence of breaking events that discharge the
obligation ("expected not to happen").  On violation the expression fires
its repair reaction and then the violation countermeasure; on breakage it
fires the breakage countermeasure; a preventive reaction, when present,
fires on each breaking hit instead of breaking the instance.

One runtime instance owns one status machine:

    dormant -> armed | disabled
    armed   -> holding | violated | broken | fulfilled | disabled
    holding -> violated | broken | fulfilled

Violated, broken, fulfilled and disabled are terminal for the instance;
re-arming after a violation or breakage is the engine's job (it spawns a
fresh instance scoped to later events).  A breaking event seen in the
same state as a falsifying check wins: the instance breaks, it is not
violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from .events import EventKind, History
from .kb import Comparison, EventRef, FactBase
from .patterns import (
    EMPTY_SEQ,
    Mismatch,
    NoEvents,
    PatternSeq,
    PrefixCursor,
    first_hit,
    match_prefix,
    occurrences,
)
from .temporal import (
    ContextualFormula,
    CoreState,
    CoreVerdict,
    Reaction,
    ReactionAtom,
    close_core,
    due,
    eval_once,
    fire_reaction,
    ground_for_emit,
    step_core,
)
from .terms import Binding, Const, Term, subst


class ExprStatus(Enum):
    DORMANT = "dormant"
    ARMED = "armed"
    HOLDING = "holding"
    FULFILLED = "fulfilled"
    FULFILLED_SO_FAR = "fulfilled_so_far"
    VIOLATED = "violated"
    BROKEN = "broken"
    DISABLED = "disabled"


TERMINAL_STATUSES = (
    ExprStatus.FULFILLED,
    ExprStatus.FULFILLED_SO_FAR,
    ExprStatus.VIOLATED,
    ExprStatus.BROKEN,
    ExprStatus.DISABLED,
)


@dataclass(frozen=True)
class EvolutionaryExpr:
    """``pre : core ::: future :::: breaking DIV repair | eta1 || eta2 ||| eta3``"""

    core: ContextualFormula
    pre: PatternSeq = EMPTY_SEQ
    future: PatternSeq = EMPTY_SEQ
    breaking: PatternSeq = EMPTY_SEQ
    repair: Reaction = ()
    eta1: Optional[ReactionAtom] = None
    eta2: Optional[ReactionAtom] = None
    eta3: Reaction = ()


@dataclass(frozen=True)
class Effect:
    channel: str  # repair | eta1 | eta2 | eta3
    kind: EventKind
    payload: Term


@dataclass(frozen=True)
class Transition:
    old: ExprStatus
    new: ExprStatus
    cause: Term


@dataclass
class StepOutcome:
    effects: List[Effect] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    evaluated: bool = False
    # phase wall times, filled only when stepping with timed=True
    if_eval_ns: int = 0
    max_eval_ns: int = 0
    if_viol_ns: int = 0


class ExprRuntime:
    """Live status machine for one expression instance.

    ``scan_since``: events with a strictly greater timestamp are in scope
    for this instance; a fresh root instance uses ``start_tick - 1`` so it
    sees the whole run, a re-armed clone uses the tick it was spawned at.

    Each event sequence reads the log through its own cursor, so a step
    reads only what was logged since the previous one.  The precondition
    cursor lives until the first check, the expected-future cursor until
    its first mismatch, and both are dropped when the instance ends.  The
    breaking cursor is the log length at the previous scan, kept per
    binding the scan has run under.
    """

    def __init__(self, expr: EvolutionaryExpr, scan_since: int = -1) -> None:
        self.expr = expr
        self.scan_since = scan_since
        self.status = ExprStatus.DORMANT
        self.binding: Binding = {}
        self.armed_at: Optional[int] = None
        self.core: Optional[CoreState] = None
        self.eval_ticks: List[int] = []
        self._pre: Optional[PrefixCursor] = PrefixCursor() if expr.pre else None
        self._future: Optional[PrefixCursor] = PrefixCursor() if expr.future else None
        self._breaking_seed = self.binding
        self._breaking_at = 0
        # (binding, log length read under it) of each binding replaced so far
        self._breaking_past: Tuple[Tuple[Binding, int], ...] = ()

    # -- helpers --------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    def _move(self, out: StepOutcome, new: ExprStatus, cause: Term) -> None:
        out.transitions.append(Transition(self.status, new, cause))
        self.status = new
        if new is not ExprStatus.ARMED:
            self._pre = None
        if new in TERMINAL_STATUSES:
            self._future = None
            self._breaking_past = ()

    def _fire(self, out: StepOutcome, channel: str, reaction: Reaction, kb: FactBase, history: History, binding: Binding) -> None:
        for kind, payload in fire_reaction(reaction, kb, binding, history):
            out.effects.append(Effect(channel, kind, payload))

    def _violation_cause(self, holds: bool, binding: Binding, kb: FactBase, history: History) -> Term:
        candidates = [
            lit
            for lit in list(self.expr.core.phi) + list(self.expr.core.chi)
            if not lit.negated and not isinstance(lit.body, Comparison)
        ]
        if not candidates:
            return Const("violated")
        if not holds:
            # the formula had no witness; bind the observed values alone so
            # the cause reports what was actually seen
            probe = tuple(lit for lit in self.expr.core.phi if lit in candidates)
            observed = next(kb.query(probe, seed=binding, history=history), None) if probe else None
            if observed is not None:
                binding = observed
        body = candidates[0].body
        if isinstance(body, EventRef):
            body = body.template
        return ground_for_emit(subst(body, binding))

    # -- stepping -------------------------------------------------------

    def step(
        self, history: History, kb: FactBase, now: int, default_k: int = 1, timed: bool = False
    ) -> StepOutcome:
        """One engine cycle: arm, police sequences, check the formula when due."""
        clock = time.perf_counter_ns if timed else None
        out = StepOutcome()
        if self.terminal:
            return out

        t0 = clock() if clock else 0
        if self.status in (ExprStatus.DORMANT, ExprStatus.ARMED):
            self._police_pre(out, history, kb, now)
        t1 = clock() if clock else 0
        if clock:
            out.if_eval_ns = t1 - t0
        if self.status not in (ExprStatus.ARMED, ExprStatus.HOLDING):
            return out

        broke = self._scan_breaking(out, history, kb)
        if not broke:
            self._police_future(out, history, kb)
        t2 = clock() if clock else 0
        if clock:
            out.if_viol_ns = t2 - t1
        if broke:
            return out
        self._check_core(out, history, kb, now, default_k)
        if clock:
            out.max_eval_ns = clock() - t2
        return out

    def _police_pre(self, out: StepOutcome, history: History, kb: FactBase, now: int) -> None:
        """Arm on a precondition prefix; until the first check, rebind or disable."""
        result = match_prefix(self.expr.pre, history, self.scan_since + 1, kb, None, self._pre)
        if isinstance(result, NoEvents):
            return
        if isinstance(result, Mismatch):
            self._move(out, ExprStatus.DISABLED, Const("precondition_order"))
            return
        self.binding = result.binding
        if self.status is ExprStatus.DORMANT:
            self.armed_at = now
            self.core = CoreState.enable(self.expr.core.op, now)
            self._move(out, ExprStatus.ARMED, Const("precondition_prefix"))

    def _scan_breaking(self, out: StepOutcome, history: History, kb: FactBase) -> bool:
        """True when the instance just broke.

        A scan reads the events logged since the previous one.  A
        rebinding restarts it from ``scan_since``; an event read before is
        then skipped when it already hit under an earlier binding, so each
        hit is reported once.
        """
        pattern = self.expr.breaking
        if not pattern.elems:
            return False
        if self.binding != self._breaking_seed:
            if self._breaking_at:
                self._breaking_past += ((self._breaking_seed, self._breaking_at),)
            self._breaking_seed, self._breaking_at = self.binding, 0
        start, self._breaking_at = self._breaking_at, len(history.log)
        for idx, event, hit in occurrences(pattern, history, self.scan_since, kb, self._breaking_seed, start):
            if any(
                idx < upto and first_hit(pattern, event, seed, kb, history) is not None
                for seed, upto in self._breaking_past
            ):
                continue
            if self.expr.eta3:
                # preventive countermeasure: fire once per distinct hit, stay armed
                self._fire(out, "eta3", self.expr.eta3, kb, history, hit)
                continue
            self._move(out, ExprStatus.BROKEN, event.payload)
            if self.expr.eta2 is not None:
                self._fire(out, "eta2", (self.expr.eta2,), kb, history, hit)
            return True
        return False

    def step_preventive(self, imminent: Event, kb: FactBase, history: History) -> Optional[List[Effect]]:
        """Preventive countermeasure for an imminent breaking event.

        When the event unifies with a breaking element while the instance
        is armed or holding and a preventive reaction exists, its
        preference construct is resolved and the chosen actions returned;
        the instance stays alive.  Otherwise None: the standard breaking
        path applies.
        """
        if self.status not in (ExprStatus.ARMED, ExprStatus.HOLDING) or not self.expr.eta3:
            return None
        hit = first_hit(self.expr.breaking, imminent, self.binding, kb, history)
        if hit is None:
            return None
        return [Effect("eta3", kind, payload) for kind, payload in fire_reaction(self.expr.eta3, kb, hit, history)]

    def _police_future(self, out: StepOutcome, history: History, kb: FactBase) -> None:
        if self._future is None:
            return
        # a rebinding of the precondition restarts the cursor from armed_at
        result = match_prefix(self.expr.future, history, self.armed_at, kb, self.binding, self._future)
        if isinstance(result, Mismatch):
            # expected-future events out of order: warn once, keep checking
            self._future = None
            out.warnings.append(f"expected-future sequence mismatched at relevant event {result.at}")

    def _check_core(self, out: StepOutcome, history: History, kb: FactBase, now: int, default_k: int) -> None:
        assert self.core is not None and self.armed_at is not None
        if self.core.terminal:
            return
        if now < self.core.lo:
            return
        # frequency is anchored at the interval start (the arming state when
        # no lower bound was given), keeping checks clock-aligned
        if not due(self.expr.core.op, self.core.lo, now, default_k):
            return
        if self.core.hi is not None and now > self.core.hi:
            verdict = close_core(self.core, self.expr.core.op)
            self._settle(out, history, kb, verdict, self.binding, holds=None)
            return
        holds, binding = eval_once(self.expr.core, kb, history, self.binding)
        out.evaluated = True
        self.eval_ticks.append(now)
        if holds is None:
            return  # context not applicable in this state
        verdict = step_core(self.core, self.expr.core.op, holds, now)
        self._settle(out, history, kb, verdict, binding, holds)

    def _settle(
        self,
        out: StepOutcome,
        history: History,
        kb: FactBase,
        verdict: CoreVerdict,
        binding: Binding,
        holds: Optional[bool],
    ) -> None:
        if verdict is CoreVerdict.VIOLATED_NOW:
            cause = self._violation_cause(bool(holds), binding, kb, history)
            self._move(out, ExprStatus.VIOLATED, cause)
            if self.expr.repair:
                self._fire(out, "repair", self.expr.repair, kb, history, binding)
            if self.expr.eta1 is not None:
                self._fire(out, "eta1", (self.expr.eta1,), kb, history, binding)
        elif verdict is CoreVerdict.HOLDS_FINAL:
            self._move(out, ExprStatus.FULFILLED, Const("interval_closed"))
        elif verdict is CoreVerdict.HOLDS_SO_FAR and self.status is ExprStatus.ARMED:
            self._move(out, ExprStatus.HOLDING, Const("first_check"))

    # -- run end --------------------------------------------------------

    def final_report(self, end: int) -> Tuple[ExprStatus, Optional[Transition]]:
        """Close the instance when the run ends.

        A bounded interval that elapsed settles for good; an open one is
        fulfilled only "so far".  Terminal statuses are left untouched.
        """
        if self.terminal or self.status is ExprStatus.DORMANT:
            return self.status, None
        assert self.core is not None
        if self.core.hi is not None and end >= self.core.hi:
            verdict = close_core(self.core, self.expr.core.op)
            new = ExprStatus.FULFILLED if verdict is CoreVerdict.HOLDS_FINAL else ExprStatus.VIOLATED
            cause = Const("interval_closed" if new is ExprStatus.FULFILLED else "no_witness")
        else:
            new = ExprStatus.FULFILLED_SO_FAR
            cause = Const("end_of_run")
        transition = Transition(self.status, new, cause)
        self.status = new
        return new, transition
