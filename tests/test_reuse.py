"""Due checks reuse the previous result while none of their inputs moved.

A check reads the fact base (its version), the instance's binding and,
when the formula or its context reads the history, the log (its
length).  A due check whose inputs all stand reuses the result of the
last evaluated one.  When only the log grew since a check that found no
solution, the result stands too if the delta test finds no solution
among the rows that entered since.  Otherwise ``eval_once`` runs.  These
tests count the ``eval_once`` calls (and, on static constraints, the
``step_core`` calls: a quiet check does not step the verdict machine),
and compare whole runs with reuse (delta tests included) forced off,
which must give the same report byte for byte.
"""

from __future__ import annotations

import random

import pytest

from ailtl import evolutionary, kb as kb_module, profiles
from ailtl.dsl import parse_program, parse_trace
from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import EvolutionaryExpr, ExprRuntime, ExprStatus
from ailtl.kb import Comparison, EventRef, FactBase, Literal
from ailtl.patterns import PatternElem, PatternSeq, Quant
from ailtl.runtime import EngineConfig, run
from ailtl.scenarios import bench_scenario, gen_scenario
from ailtl.temporal import ContextualFormula, IntervalOp, NonGroundAfterContext, TemporalOp
from ailtl.terms import Compound, Const, Var, atom

from genprog import random_profile_program, random_profile_trace, random_program, random_trace
from test_golden import CASES, GOLDEN_DIR


@pytest.fixture
def evaluations(monkeypatch):
    """The arguments of every ``eval_once`` the runtime makes."""
    calls = []
    original = evolutionary.eval_once

    def counting(f, kb, history=None, seed=None):
        calls.append((f, len(history.log) if history is not None else None, kb.version))
        return original(f, kb, history, seed)

    monkeypatch.setattr(evolutionary, "eval_once", counting)
    return calls


def _without_reuse(monkeypatch):
    monkeypatch.setattr(
        ExprRuntime,
        "_evaluate",
        lambda self, history, kb: evolutionary.eval_once(self.expr.core, kb, history, self.binding),
    )


def _never(*phi, chi=()):
    return EvolutionaryExpr(core=ContextualFormula(IntervalOp(TemporalOp.NEVER), tuple(phi), tuple(chi)))


def _step_through(rt, timeline):
    """Record each tick's events, apply its fact-base change, step; the ticks evaluated."""
    h, kb = History(), FactBase()
    evaluated = []
    for tick, events, change in timeline:
        for name in events:
            h.record(Event(EventKind.PRESENT, atom(name, Const(tick)), tick))
        if change is not None:
            kb.assert_fact(change)
        rt.step(h, kb, tick)
        if rt.eval_ticks[-1:] == [tick]:
            evaluated.append(tick)
    return evaluated


# -- a new evaluation only when the snapshot changed -----------------------------

# tick, events logged at it, fact asserted at it
_TIMELINE = [
    (1, ["reading"], None),
    (2, ["reading"], None),  # the log grew
    (3, [], None),  # nothing moved
    (4, [], Const("other")),  # the fact base moved
    (5, ["reading"], None),
    (6, [], None),
]


def test_a_formula_over_facts_is_evaluated_again_only_when_the_facts_move(evaluations):
    rt = ExprRuntime(_never(Literal(Compound("bad", (Var("X"),)))))
    assert _step_through(rt, _TIMELINE) == [1, 2, 3, 4, 5, 6]
    assert [(log, version) for _, log, version in evaluations] == [(1, 0), (2, 1)]
    assert rt.eval_ticks == [1, 2, 3, 4, 5, 6]


def test_a_formula_over_the_log_is_evaluated_again_whenever_the_log_grows(evaluations):
    rt = ExprRuntime(
        _never(
            Literal(EventRef(EventKind.PRESENT, Compound("reading", (Var("T"),)))),
            Literal(Comparison(">", Var("T"), Const(99))),
        )
    )
    assert _step_through(rt, _TIMELINE) == [1, 2, 3, 4, 5, 6]
    assert [(log, version) for _, log, version in evaluations] == [(1, 0), (2, 0), (2, 1), (3, 1)]


def test_a_context_over_the_log_makes_the_check_read_the_log(evaluations):
    rt = ExprRuntime(
        _never(
            Literal(Compound("bad", (Var("T"),))),
            chi=[Literal(EventRef(EventKind.PRESENT, Compound("reading", (Var("T"),))))],
        )
    )
    _step_through(rt, _TIMELINE)
    assert [log for _, log, _ in evaluations] == [1, 2, 2, 3]


def test_a_new_binding_is_evaluated_again(evaluations):
    # the context never applies, so the instance stays armed and the
    # precondition is read again every step: it hands over an equal
    # binding while every go agrees, and drops X at go(b)
    expr = EvolutionaryExpr(
        core=ContextualFormula(
            IntervalOp(TemporalOp.ALWAYS), (Literal(Const("fine")),), (Literal(Compound("ctx", (Var("X"),))),)
        ),
        pre=PatternSeq((PatternElem(atom("go", Var("X")), EventKind.ACTION, Quant.PLUS),)),
    )
    rt = ExprRuntime(expr)
    h, kb = History(), FactBase()
    bindings = []
    for tick, option in ((1, "a"), (2, None), (3, "b"), (4, None)):
        if option is not None:
            h.record(Event(EventKind.ACTION, atom("go", Const(option)), tick))
        rt.step(h, kb, tick)
        assert rt.eval_ticks[-1] == tick
        bindings.append(dict(rt.binding))
    assert rt.status is ExprStatus.ARMED
    assert bindings == [{"X": Const("a")}, {"X": Const("a")}, {}, {}]
    assert len(evaluations) == 2


def test_the_remembered_result_goes_when_the_instance_ends():
    rt = ExprRuntime(_never(Literal(Const("bad"))))
    h, kb = History(), FactBase()
    rt.step(h, kb, 1)
    assert rt._last is not None
    kb.assert_fact(Const("bad"))
    rt.step(h, kb, 2)
    assert rt.status is ExprStatus.VIOLATED and rt._last is None


# -- count guards on whole runs ---------------------------------------------------


def test_static_constraints_are_evaluated_once_per_instance(evaluations):
    program, trace = bench_scenario(50, 40)
    report = run(parse_program(program), parse_trace(trace))
    assert len(evaluations) == 50
    assert sum(len(ticks) for ticks in report.eval_ticks.values()) == 50 * 40


def test_static_constraints_step_the_verdict_machine_once_per_instance(monkeypatch):
    calls = 0
    original = evolutionary.step_core

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(evolutionary, "step_core", counted)
    program, trace = bench_scenario(50, 40)
    report = run(parse_program(program), parse_trace(trace))
    assert calls == 50  # the first checks; every later one is quiet
    assert sum(len(ticks) for ticks in report.eval_ticks.values()) == 50 * 40


def test_a_rule_over_the_log_is_evaluated_on_every_due_tick_the_log_grew(evaluations):
    program, trace = gen_scenario("temperature")
    report = run(parse_program(program), parse_trace(trace))
    readings = {e.timestamp for e in parse_trace(trace)}
    due = [tick for ticks in report.eval_ticks.values() for tick in ticks]
    assert due and set(due) <= readings
    assert len(evaluations) == len(due)


# -- whole runs, reuse on and off -------------------------------------------------


def outcome(program, events):
    try:
        report = run(program, events, EngineConfig(max_feedback_ticks=50))
    except Exception as exc:  # the run's error is part of what must agree
        return f"{type(exc).__name__}: {exc}"
    return report.render(), report.eval_ticks


def test_random_runs_give_the_same_report_without_reuse(monkeypatch, evaluations):
    cases = []
    for seed in range(80):
        rng = random.Random(seed)
        program = random_program(rng)
        cases.append((program, random_trace(rng, program)))
    with_reuse = [outcome(program, events) for program, events in cases]
    evaluated = len(evaluations)
    _without_reuse(monkeypatch)
    without = [outcome(program, events) for program, events in cases]
    assert with_reuse == without
    checks = sum(len(ticks) for result in without if isinstance(result, tuple) for ticks in result[1].values())
    reused = (len(evaluations) - evaluated) - evaluated
    assert checks > 100 and reused > 50  # the runs check, and reuse skips some of it


def test_random_profile_runs_give_the_same_report_without_reuse(monkeypatch):
    # formulas over derived state, where a check whose log grew runs the
    # delta test first; count its outcomes to see that it ran both ways
    outcomes = []
    compile_delta = kb_module._delta

    def counted_delta(solvers):
        delta = compile_delta(solvers)

        def counted(binding, history, since):
            found = delta(binding, history, since)
            outcomes.append(found)
            return found

        return counted

    monkeypatch.setattr(kb_module, "_delta", counted_delta)
    cases = []
    for seed in range(100):
        rng = random.Random(seed)
        program = random_profile_program(rng)
        cases.append((program, random_profile_trace(rng, program)))
    with_reuse = [outcome(program, events) for program, events in cases]
    _without_reuse(monkeypatch)
    without = [outcome(program, events) for program, events in cases]
    assert with_reuse == without
    reports = [result for result in without if isinstance(result, tuple)]
    assert len(reports) >= 80
    assert sum("violated" in text for text, _ in reports) >= 40
    assert outcomes.count(False) > 300 and outcomes.count(True) > 20


def test_a_delta_test_that_raises_hands_the_check_to_eval_once(evaluations):
    # on the empty queue the check finds nothing and raises nothing; once
    # an entry is there the comparison is reached unbound
    rt = ExprRuntime(
        _never(Literal(atom("in_queue", Var("E"), Var("V"))), Literal(Comparison(">", Var("Z"), Const(3))))
    )
    h, kb = History(), FactBase()
    profiles.install(kb, "queue")
    rt.step(h, kb, 1)
    h.record(Event(EventKind.ACTION, atom("peek", Const("q1")), 2))
    rt.step(h, kb, 2)  # the delta test finds nothing
    h.record(Event(EventKind.ACTION, atom("push", Const(7), Const("q1")), 3))
    with pytest.raises(NonGroundAfterContext, match="not ground: Z"):
        rt.step(h, kb, 3)
    assert len(evaluations) == 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_shipped_scenarios_give_the_golden_report_without_reuse(monkeypatch, case):
    name, params = CASES[case]
    program, trace = gen_scenario(name, **params)
    _without_reuse(monkeypatch)
    report = run(parse_program(program), parse_trace(trace))
    assert report.render().encode("utf-8") == (GOLDEN_DIR / f"{case}.txt").read_bytes()
