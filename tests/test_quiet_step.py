"""The quiet step: a holding instance with nothing to watch, inside its interval.

Such a step is the due test and the check alone.  When it is not due,
or its check leaves the verdict as it is, the step returns the shared
``QUIET`` outcome and the engine records nothing for it; any other
result goes through the verdict machine like every other step.  These
tests compare whole runs with the quiet step forced off, which must give
the same report and the same check ticks; pin its boundaries (the upper
bound, a deciding check, a context with no solution, a check that is
not due, told apart from a check by the check ticks); and check that
the shared outcome cannot be changed.  The verdict-machine call count
on static constraints is guarded in ``test_reuse``.
"""

from __future__ import annotations

import random

import pytest

from ailtl.dsl import parse_program, parse_trace
from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import QUIET, EvolutionaryExpr, ExprRuntime, ExprStatus
from ailtl.kb import FactBase, Literal
from ailtl.patterns import PatternElem, PatternSeq
from ailtl.runtime import CycleMetrics, EngineConfig, run
from ailtl.scenarios import gen_scenario
from ailtl.temporal import ContextualFormula, IntervalOp, TemporalOp
from ailtl.terms import Compound, Const, Var, atom

from genprog import random_profile_program, random_profile_trace, random_program, random_trace
from test_golden import CASES, GOLDEN_DIR
from test_reuse import outcome


def _without_quiet_steps(monkeypatch):
    monkeypatch.setattr(ExprRuntime, "_quiet", lambda self, now: False)


@pytest.fixture
def quiet_steps(monkeypatch):
    """How the quiet steps ended: shared outcome, or through the verdict machine."""
    counts = {"shared": 0, "settled": 0}
    step, quiet = ExprRuntime.step, ExprRuntime._quiet

    def counted(self, history, kb, now, default_k=1, timed=None):
        was_quiet = quiet(self, now)
        out = step(self, history, kb, now, default_k, timed)
        if was_quiet:
            counts["shared" if out is QUIET else "settled"] += 1
        return out

    monkeypatch.setattr(ExprRuntime, "step", counted)
    return counts


def _compare_with_quiet_steps_off(monkeypatch, cases):
    with_quiet = [outcome(program, events) for program, events in cases]
    monkeypatch.undo()  # the counting wrapper goes too
    _without_quiet_steps(monkeypatch)
    without = [outcome(program, events) for program, events in cases]
    assert with_quiet == without


def test_random_runs_give_the_same_report_without_quiet_steps(monkeypatch, quiet_steps):
    # with parking on, a parked instance takes no quiet steps at all
    monkeypatch.setattr(ExprRuntime, "stands_at", lambda self, version: False)
    cases = []
    for seed in range(80):
        rng = random.Random(seed)
        program = random_program(rng)
        cases.append((program, random_trace(rng, program)))
    _compare_with_quiet_steps_off(monkeypatch, cases)
    assert quiet_steps["shared"] > 100


def test_random_profile_runs_give_the_same_report_without_quiet_steps(monkeypatch, quiet_steps):
    cases = []
    for seed in range(100):
        rng = random.Random(seed)
        program = random_profile_program(rng)
        cases.append((program, random_profile_trace(rng, program)))
    _compare_with_quiet_steps_off(monkeypatch, cases)
    # checks over derived state also come out deciding on the quiet path
    assert quiet_steps["shared"] > 1000 and quiet_steps["settled"] > 40


def _golden_run(case, config=None):
    name, params = CASES[case]
    program, trace = gen_scenario(name, **params)
    report = run(parse_program(program), parse_trace(trace), config)
    return report.render(), report.eval_ticks


@pytest.mark.parametrize("case", sorted(CASES))
def test_shipped_scenarios_give_the_golden_report_without_quiet_steps(monkeypatch, case):
    golden = (GOLDEN_DIR / f"{case}.txt").read_text(encoding="utf-8")
    text, ticks = _golden_run(case)
    # timed steps take the quiet path too; only the metrics line is new
    timed_text, timed_ticks = _golden_run(case, EngineConfig(metrics=True))
    _without_quiet_steps(monkeypatch)
    assert _golden_run(case) == (golden, ticks)
    assert text == golden
    assert timed_text.startswith(golden.removesuffix("\n") + "\nmetrics ") and timed_ticks == ticks


# -- boundaries ---------------------------------------------------------------------

# each formula's check gives the operator's quiet result on an empty fact base
_QUIET_FORMULAS = {
    TemporalOp.ALWAYS: (Literal(Const("ok"), negated=True),),
    TemporalOp.NEVER: (Literal(Const("bad")),),
    TemporalOp.EVENTUALLY: (Literal(Const("good")),),
}


def _expr(op, m=None, n=None, k=None, chi=()):
    return EvolutionaryExpr(core=ContextualFormula(IntervalOp(op, m, n, k), _QUIET_FORMULAS[op], tuple(chi)))


def _steps(rt, ticks, h, kb):
    """Step at each tick: how each step ended, told apart by identity and by the check ticks.

    "not_due" and "checked" are the shared ``QUIET`` outcome without and
    with a check at that tick; None is an outcome of the step's own.
    """
    ends = []
    for tick in ticks:
        out = rt.step(h, kb, tick)
        ends.append(None if out is not QUIET else "checked" if rt.eval_ticks[-1:] == [tick] else "not_due")
    return ends


@pytest.mark.parametrize(
    "op, settled",
    [
        (TemporalOp.ALWAYS, ExprStatus.FULFILLED),
        (TemporalOp.NEVER, ExprStatus.FULFILLED),
        (TemporalOp.EVENTUALLY, ExprStatus.VIOLATED),
    ],
)
def test_a_check_at_the_upper_bound_settles(op, settled):
    rt = ExprRuntime(_expr(op, 1, 4))
    h, kb = History(), FactBase()
    assert _steps(rt, [1, 2, 3], h, kb) == [None, "checked", "checked"] and rt.status is ExprStatus.HOLDING
    assert not rt._quiet(4)
    last = rt.step(h, kb, 4)
    assert [(t.old, t.new) for t in last.transitions] == [(ExprStatus.HOLDING, settled)]
    assert rt.eval_ticks == [1, 2, 3, 4]


def test_an_eventually_whose_check_comes_true_is_fulfilled():
    rt = ExprRuntime(_expr(TemporalOp.EVENTUALLY))
    h, kb = History(), FactBase()
    _steps(rt, [1, 2], h, kb)
    kb.assert_fact(Const("good"))
    assert rt._quiet(3)
    out = rt.step(h, kb, 3)
    assert out is not QUIET and [(t.old, t.new) for t in out.transitions] == [
        (ExprStatus.HOLDING, ExprStatus.FULFILLED)
    ]
    assert rt.terminal and rt.eval_ticks == [1, 2, 3]


def test_a_holding_instance_still_polices_its_expected_future():
    expr = EvolutionaryExpr(
        core=ContextualFormula(IntervalOp(TemporalOp.NEVER), _QUIET_FORMULAS[TemporalOp.NEVER]),
        future=PatternSeq(
            (
                PatternElem(atom("ping", Var("X")), EventKind.EXTERNAL),
                PatternElem(atom("pong", Var("X")), EventKind.EXTERNAL),
            )
        ),
    )
    rt = ExprRuntime(expr)
    h, kb = History(), FactBase()
    rt.step(h, kb, 1)
    assert rt.status is ExprStatus.HOLDING and not rt._quiet(2)
    h.record(Event(EventKind.EXTERNAL, atom("pong", Const("a")), 2))
    assert rt.step(h, kb, 2).warnings == ["expected-future sequence mismatched at relevant event 0"]
    assert rt._quiet(3) and rt.step(h, kb, 3) is QUIET  # the cursor is gone with the mismatch


@pytest.mark.parametrize("op", list(TemporalOp))
def test_a_context_with_no_solution_stays_quiet(op):
    ctx = Compound("ctx", (Var("X"),))
    rt = ExprRuntime(_expr(op, chi=[Literal(ctx)]))
    h, kb = History(), FactBase()
    kb.assert_fact(Compound("ctx", (Const("a"),)))
    rt.step(h, kb, 1)
    assert rt.status is ExprStatus.HOLDING
    kb.retract_fact(Compound("ctx", (Const("a"),)))
    assert rt.step(h, kb, 2) is QUIET
    assert rt.status is ExprStatus.HOLDING and rt.eval_ticks == [1, 2]


@pytest.mark.parametrize("op", list(TemporalOp))
def test_a_check_that_is_not_due_adds_no_check_tick(op):
    rt = ExprRuntime(_expr(op, k=3))
    assert _steps(rt, range(1, 11), History(), FactBase()) == [None] + ["not_due", "not_due", "checked"] * 3
    assert rt.eval_ticks == [1, 4, 7, 10]


def test_a_timed_quiet_check_carries_its_own_time():
    rt = ExprRuntime(_expr(TemporalOp.NEVER))
    h, kb = History(), FactBase()
    rt.step(h, kb, 1, timed=CycleMetrics(1, 1, 0, 0, 0, 0))
    cycle = CycleMetrics(2, 1, 0, 0, 0, 0)
    assert rt.step(h, kb, 2, timed=cycle) is QUIET
    assert rt.eval_ticks == [1, 2] and cycle.max_eval_ns > 0
    assert cycle.if_eval_ns == cycle.if_viol_ns == 0  # the quiet path polices nothing
    assert rt.step(h, kb, 3) is QUIET


# -- the shared outcome ---------------------------------------------------------------


@pytest.mark.parametrize("end", ["not_due", "checked"])
def test_shared_outcomes_cannot_be_appended_to(end):
    """A step that is not due and a check that changes nothing both return ``QUIET``."""
    rt = ExprRuntime(_expr(TemporalOp.ALWAYS, k=2))
    h, kb = History(), FactBase()
    rt.step(h, kb, 1)
    outs = {"not_due": rt.step(h, kb, 2), "checked": rt.step(h, kb, 3)}
    assert rt.eval_ticks == [1, 3]
    shared = outs[end]
    assert shared is QUIET
    for records in (shared.effects, shared.transitions, shared.warnings):
        with pytest.raises(AttributeError):
            records.append(None)
        assert records == ()
