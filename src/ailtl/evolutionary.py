"""Evolutionary constraints: armed by an event prefix, watching the future.

An evolutionary expression couples a monitored interval formula with up to
three event sequences: a precondition sequence whose prefix arms the
check, a sequence of events expected to happen later without affecting
the property, and a sequence of breaking events that discharge the
obligation ("expected not to happen").  On violation the expression fires
its repair reaction and then the violation countermeasure; on breakage it
fires the breakage countermeasure.  A preventive reaction, when present,
replaces breakage: it fires once per distinct breaking hit, in the cycle
after the engine has recorded the breaking event, and the instance stays
armed.

One runtime instance owns one status machine:

    dormant -> armed | disabled
    armed   -> holding | violated | broken | fulfilled | disabled
    holding -> violated | broken | fulfilled

The status is the instance's one verdict: the verdict machine
(``temporal.step_core``) stores nothing.  Violated, broken, fulfilled
and disabled are terminal for the instance; re-arming after a violation
or breakage is the engine's job (it spawns a fresh instance scoped to
later events).  A breaking event seen in the
same state as a falsifying check wins: the instance breaks, it is not
violated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from .events import EventKind, History
from .kb import Comparison, Delta, EventRef, FactBase, UnboundBuiltinArg
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
    CoreVerdict,
    Reaction,
    ReactionAtom,
    close_core,
    due,
    eval_once,
    fire_reaction,
    ground_for_emit,
    quiet_result,
    step_core,
)
from .terms import EMPTY_BINDING, Binding, Const, Term, subst

if TYPE_CHECKING:
    from .runtime import CycleMetrics


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
    # the check result that leaves a holding instance as it is, kept once
    # per expression (see ``ExprRuntime.step``)
    quiet: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "quiet", quiet_result(self.core.op.op))


@dataclass(frozen=True, slots=True)
class Effect:
    channel: str  # repair | eta1 | eta2 | eta3
    kind: EventKind
    payload: Term


@dataclass(frozen=True, slots=True)
class Transition:
    old: ExprStatus
    new: ExprStatus
    cause: Term


@dataclass
class StepOutcome:
    effects: List[Effect] = field(default_factory=list)
    transitions: List[Transition] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)


# The outcome of a quiet step, shared by every instance: tuples, so nothing
# can be appended to it.
QUIET = StepOutcome((), (), ())

# bound once: an enum member lookup is about ten times slower than a global
_HOLDING = ExprStatus.HOLDING

# the causes of status moves, built once: a report keeps one per transition
_CAUSE = {
    name: Const(name)
    for name in (
        "violated",
        "precondition_order",
        "precondition_prefix",
        "first_check",
        "witness",
        "interval_closed",
        "no_witness",
        "end_of_run",
    )
}


class TickRuns:
    """Increasing ticks, kept as runs of one gap.

    The open run is (start, last, gap): a tick one ``gap`` after ``last``
    extends it with one compare and one store.  A tick at any other gap
    closes the run, which is kept as its gap and its length in gaps (two
    varints in a byte string), and opens the next run at ``last``.  So a
    steady stride costs nothing per tick, and an irregular one a byte or
    two per change of gap.  ``runs`` gives the ticks back as disjoint
    ranges, one per run.
    """

    __slots__ = ("_first", "_closed", "_start", "_last", "_gap")

    def __init__(self) -> None:
        self._first: Optional[int] = None
        self._closed: Optional[bytearray] = None
        self._start = self._last = 0
        self._gap: Optional[int] = None  # None until the second tick

    def add(self, tick: int) -> None:
        """Record ``tick``, which is above every tick recorded before."""
        if tick - self._last == self._gap:
            self._last = tick
        else:
            self._turn(tick)

    def extend(self, ticks: range) -> None:
        """Record each tick of ``ticks``, all above every tick recorded before, in O(1).

        The state is the one that adding the ticks one by one leaves: the
        second tick sets the run's gap to the range's step, and every tick
        after it only moves ``last``.
        """
        for tick in ticks[:2]:
            self.add(tick)
        if len(ticks) > 2:
            self._last = ticks[-1]

    def _turn(self, tick: int) -> None:
        if self._gap is not None:
            if self._closed is None:
                self._closed = bytearray()
            _put_varint(self._closed, self._gap)
            _put_varint(self._closed, (self._last - self._start) // self._gap)
            self._start = self._last
        elif self._first is None:
            self._first = self._start = self._last = tick
            return
        self._gap = tick - self._last
        self._last = tick

    def runs(self) -> Tuple[range, ...]:
        """The ticks as ascending ranges; each after the first leaves out the tick it starts from."""
        if self._first is None:
            return ()
        out = []
        base, skip = self._first, 0
        values = _varints(self._closed or b"")
        for gap, count in zip(values, values):
            out.append(range(base + skip * gap, base + gap * count + 1, gap))
            base, skip = base + gap * count, 1
        gap = self._gap or 1
        out.append(range(base + skip * gap, self._last + 1, gap))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TickRuns) and self.runs() == other.runs()


def _put_varint(buf: bytearray, n: int) -> None:
    """Append ``n >= 0``, seven bits a byte, low bits first; a set top bit means more follow."""
    while n >= 0x80:
        buf.append(n & 0x7F | 0x80)
        n >>= 7
    buf.append(n)


def _varints(buf: bytes) -> Iterator[int]:
    n = shift = 0
    for byte in buf:
        n |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            yield n
            n = shift = 0


@dataclass(slots=True)
class _Check:
    """The inputs and the result of an evaluated check; a delta test moves ``log_length``."""

    kb: FactBase
    version: int
    binding: Binding
    history: Optional[History]  # None when the check does not read the log
    log_length: int
    result: Tuple[Optional[bool], Binding]
    delta: Optional[Delta]  # the formula's delta test, when its context reads no history


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
    binding the scan has run under.  The inputs and result of the last
    evaluated check are kept too, until the instance ends: a due check
    whose inputs have not moved reuses that result (see ``_evaluate``).
    The ticks of the checks are kept as runs of one gap (``TickRuns``),
    so a check at the stride of the check before allocates nothing.
    """

    __slots__ = (
        "expr",
        "scan_since",
        "status",
        "binding",
        "armed_at",
        "lo",
        "_pre",
        "_future",
        "_breaking_seed",
        "_breaking_at",
        "_breaking_past",
        "_last",
        "ticks",
    )

    def __init__(self, expr: EvolutionaryExpr, scan_since: int = -1) -> None:
        self.expr = expr
        self.scan_since = scan_since
        self.status = ExprStatus.DORMANT
        self.binding: Binding = EMPTY_BINDING
        self.armed_at: Optional[int] = None
        self.lo: Optional[int] = None  # the interval's lower bound, set on arming; the upper is ``op.n``
        self._pre: Optional[PrefixCursor] = PrefixCursor() if expr.pre else None
        self._future: Optional[PrefixCursor] = PrefixCursor() if expr.future else None
        self._breaking_seed = self.binding
        self._breaking_at = 0
        # (binding, log length read under it) of each binding replaced so far
        self._breaking_past: Tuple[Tuple[Binding, int], ...] = ()
        self._last: Optional[_Check] = None
        self.ticks = TickRuns()  # the ticks this instance was checked at

    # -- helpers --------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def eval_ticks(self) -> List[int]:
        """The checked ticks, in order (``ticks`` expanded)."""
        return [tick for run in self.ticks.runs() for tick in run]

    def _move(self, out: StepOutcome, new: ExprStatus, cause: Term) -> None:
        out.transitions.append(Transition(self.status, new, cause))
        self.status = new
        if new is not ExprStatus.ARMED:
            self._pre = None
        if new in TERMINAL_STATUSES:
            self._future = None
            self._breaking_past = ()
            self._last = None

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
            return _CAUSE["violated"]
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
        self, history: History, kb: FactBase, now: int, default_k: int = 1, timed: Optional[CycleMetrics] = None
    ) -> StepOutcome:
        """One engine cycle: arm, police sequences, check the formula when due.

        Most steps are quiet (``_quiet``): a holding instance with nothing
        to watch, before its upper bound.  Such a step is the due test and
        the check alone.  A step that is not due, or whose check leaves
        the verdict as it is (``EvolutionaryExpr.quiet``, or a context with
        no solution), returns the shared ``QUIET`` outcome, which the
        engine recognises by identity.  Any other result goes through the
        pure verdict machine (``step_core``) and ``_settle``, which alone
        moves the status, the instance's one verdict.

        ``timed`` is the cycle's metrics record, or None: a timed step adds
        its phase times to it (the check to ``max_eval_ns``, on the quiet
        path too), so timing changes no outcome.
        """
        clock = time.perf_counter_ns if timed else None
        if self._quiet(now):
            if not due(self.expr.core.op, self.lo, now, default_k):
                return QUIET
            t0 = clock() if clock else 0
            holds, binding = self._evaluate(history, kb)
            self.ticks.add(now)
            out = QUIET
            if holds is not None and holds is not self.expr.quiet:
                out = StepOutcome()
                self._settle(out, history, kb, step_core(self.expr.core.op, holds, now), binding, holds)
            if clock:
                timed.max_eval_ns += clock() - t0
            return out

        out = StepOutcome()
        if self.terminal:
            return out

        t0 = clock() if clock else 0
        if self.status in (ExprStatus.DORMANT, ExprStatus.ARMED):
            self._police_pre(out, history, kb, now)
        t1 = clock() if clock else 0
        if clock:
            timed.if_eval_ns += t1 - t0
        if self.status not in (ExprStatus.ARMED, ExprStatus.HOLDING):
            return out

        broke = self._scan_breaking(out, history, kb)
        if not broke:
            self._police_future(out, history, kb)
        t2 = clock() if clock else 0
        if clock:
            timed.if_viol_ns += t2 - t1
        if broke:
            return out
        self._check_core(out, history, kb, now, default_k)
        if clock:
            timed.max_eval_ns += clock() - t2
        return out

    def stands_at(self, version: int) -> bool:
        """Does the last check stand until the fact base moves from ``version``?

        It does when it reads no log and was made at ``version``: the
        instance's binding moves only when a sequence is policed, so a
        quiet instance (``_quiet``) would reuse the check's result on
        every due tick before its upper bound.
        """
        last = self._last
        return last is not None and last.history is None and last.version == version

    def _quiet(self, now: int) -> bool:
        """Is this a quiet step: holding, no cursor or breaking scan, before the upper bound?

        Then no sequence needs policing, a check cannot close the
        interval, and only a result other than the quiet one moves the
        verdict.  A holding instance has been checked, so it is past its
        lower bound, and its verdict is open: ``_settle`` moves the status
        whenever the verdict settles.
        """
        hi = self.expr.core.op.n
        return (
            self.status is _HOLDING
            and self._future is None
            and not self.expr.breaking.elems
            and (hi is None or now < hi)
        )

    def _police_pre(self, out: StepOutcome, history: History, kb: FactBase, now: int) -> None:
        """Arm on a precondition prefix; until the first check, rebind or disable."""
        result = match_prefix(self.expr.pre, history, self.scan_since + 1, kb, None, self._pre)
        if isinstance(result, NoEvents):
            return
        if isinstance(result, Mismatch):
            self._move(out, ExprStatus.DISABLED, _CAUSE["precondition_order"])
            return
        self.binding = result.binding
        if self.status is ExprStatus.DORMANT:
            self.armed_at = now
            m = self.expr.core.op.m
            self.lo = m if m is not None else now
            self._move(out, ExprStatus.ARMED, _CAUSE["precondition_prefix"])

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
        op = self.expr.core.op
        if now < self.lo:
            return
        # an elapsed interval closes on the first step past it, due or not
        if op.n is not None and now > op.n:
            self._settle(out, history, kb, close_core(op), self.binding, holds=None)
            return
        # frequency is anchored at the interval start (the arming state when
        # no lower bound was given), keeping checks clock-aligned
        if not due(op, self.lo, now, default_k):
            return
        holds, binding = self._evaluate(history, kb)
        self.ticks.add(now)
        if holds is None:
            return  # context not applicable in this state
        self._settle(out, history, kb, step_core(op, holds, now), binding, holds)

    def _evaluate(self, history: History, kb: FactBase) -> Tuple[Optional[bool], Binding]:
        """``eval_once``, or the previous check's result when it still stands.

        A check reads the fact base at its version, the instance's binding
        (compared by value: the precondition hands over a fresh but equal
        one on every read) and, when the plan of the formula or its
        context reads the history, the log up to its length.  A
        registration moves the version too, so the plans stay the same
        while it stands.  When all of these stand, the result is reused.

        When only the log grew and the previous check found no solution,
        the formula's delta test (``Plan.delta``) looks only at the rows
        that entered since that check's log length; the context reads no
        history then, so it committed to the same binding.  If the test
        finds nothing the result stands for the longer log too.  If it
        finds a solution, or raises, ``eval_once`` runs in full, so the
        witness and everything reported from it are those of a full check.
        """
        last = self._last
        if last is not None and last.kb is kb and last.version == kb.version and last.binding == self.binding:
            if last.history is None or (last.history is history and last.log_length == len(history.log)):
                return last.result
            if last.delta is not None and last.result[0] is False and last.history is history:
                try:
                    hit = last.delta(last.result[1], history, last.log_length)
                except UnboundBuiltinArg:
                    hit = True  # the full check raises it, as NonGroundAfterContext
                if not hit:
                    last.log_length = len(history.log)
                    return last.result
        f = self.expr.core
        result = eval_once(f, kb, history, self.binding)
        phi, chi = kb.plan(f.phi), kb.plan(f.chi)
        reads = phi.reads_history or chi.reads_history
        delta = None if chi.reads_history else phi.delta
        self._last = _Check(kb, kb.version, self.binding, history if reads else None, len(history.log), result, delta)
        return result

    def _settle(
        self,
        out: StepOutcome,
        history: History,
        kb: FactBase,
        verdict: CoreVerdict,
        binding: Binding,
        holds: Optional[bool],
    ) -> None:
        # no check decided it: the interval closed, on a quiet check or unchecked
        closed = holds is None or holds is self.expr.quiet
        if verdict is CoreVerdict.VIOLATED_NOW:
            cause = _CAUSE["no_witness"] if closed else self._violation_cause(holds, binding, kb, history)
            self._move(out, ExprStatus.VIOLATED, cause)
            if self.expr.repair:
                self._fire(out, "repair", self.expr.repair, kb, history, binding)
            if self.expr.eta1 is not None:
                self._fire(out, "eta1", (self.expr.eta1,), kb, history, binding)
        elif verdict is CoreVerdict.HOLDS_FINAL:
            self._move(out, ExprStatus.FULFILLED, _CAUSE["interval_closed" if closed else "witness"])
        elif verdict is CoreVerdict.HOLDS_SO_FAR and self.status is ExprStatus.ARMED:
            self._move(out, ExprStatus.HOLDING, _CAUSE["first_check"])

    # -- run end --------------------------------------------------------

    def final_report(self, end: int) -> Tuple[ExprStatus, Optional[Transition]]:
        """Close the instance when the run ends.

        A bounded interval that elapsed settles for good; an open one is
        fulfilled only "so far".  Terminal statuses are left untouched.
        """
        if self.terminal or self.status is ExprStatus.DORMANT:
            return self.status, None
        op = self.expr.core.op
        if op.n is not None and end >= op.n:
            new = ExprStatus.FULFILLED if close_core(op) is CoreVerdict.HOLDS_FINAL else ExprStatus.VIOLATED
            cause = _CAUSE["interval_closed" if new is ExprStatus.FULFILLED else "no_witness"]
        else:
            new = ExprStatus.FULFILLED_SO_FAR
            cause = _CAUSE["end_of_run"]
        transition = Transition(self.status, new, cause)
        self.status = new
        return new, transition
