from __future__ import annotations

import random

import pytest

from ailtl.dsl import parse_program, parse_trace
from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import ExprStatus
from ailtl.kb import Comparison, EventRef, FactBase, Literal
from ailtl.temporal import (
    Choice,
    ContextualFormula,
    CoreVerdict,
    IntervalOp,
    ReactionAtom,
    ReactiveRule,
    TemporalOp,
    UnresolvedPreference,
    close_core,
    due,
    eval_once,
    fire_reaction,
    step_core,
)
from ailtl.runtime import EngineConfig, run
from ailtl.terms import Compound, Const, Var, atom

from oracles import quantifier_verdict


def op(kind=TemporalOp.ALWAYS, m=None, n=None, k=None):
    return IntervalOp(kind, m, n, k)


def test_due_every_k_ticks_from_enable():
    o = op(k=10)
    hits = [t for t in range(0, 35) if due(o, 0, t)]
    assert hits == [0, 10, 20, 30]


def test_due_defaults_to_every_tick():
    o = op()
    assert all(due(o, 3, t) for t in range(3, 10))


def test_due_matches_modular_oracle():
    o = op(k=3)
    assert due(o, 2, 5)
    for now in range(2, 21):
        assert due(o, 2, now) == ((now - 2) % 3 == 0)


def test_interval_invariants():
    with pytest.raises(ValueError):
        IntervalOp(TemporalOp.ALWAYS, 5, 3)
    with pytest.raises(ValueError):
        IntervalOp(TemporalOp.ALWAYS, k=0)


def formula(kind, phi, chi=()):
    return ContextualFormula(op(kind), phi, chi)


def test_eval_once_temperature_in_band():
    kb = FactBase()
    kb.assert_fact(atom("temperature", Const(20)))
    f = formula(
        TemporalOp.ALWAYS,
        (
            Literal(Compound("temperature", (Var("T"),))),
            Literal(Comparison("<=", Const(19), Var("T"))),
            Literal(Comparison("<=", Var("T"), Const(21))),
        ),
    )
    holds, binding = eval_once(f, kb)
    assert holds is True and binding["T"] == Const(20)


def test_eval_once_false_on_empty_store():
    f = formula(TemporalOp.EVENTUALLY, (Literal(Compound("goal_reached", (Var("G"),))),))
    holds, _ = eval_once(f, FactBase())
    assert holds is False


def test_eval_once_duplicate_pair_signals_never_violation():
    kb = FactBase()
    kb.assert_fact(atom("in_queue", Const("e1"), Const(5)))
    kb.assert_fact(atom("in_queue", Const("e2"), Const(5)))
    f = formula(
        TemporalOp.NEVER,
        (
            Literal(Compound("in_queue", (Var("E1"), Var("RX")))),
            Literal(Compound("in_queue", (Var("E2"), Var("RX")))),
            Literal(Comparison("\\=", Var("E1"), Var("E2"))),
        ),
    )
    holds, binding = eval_once(f, kb)
    assert holds is True  # satisfiable: exactly what NEVER must not see
    assert binding["RX"] == Const(5)


def test_eval_once_context_binds_then_formula_checks():
    kb = FactBase()
    h = History()
    h.record(Event(EventKind.PRESENT, atom("temperature", Const(18)), 1))
    f = ContextualFormula(
        op(TemporalOp.ALWAYS),
        (Literal(Comparison("<=", Const(19), Var("T"))),),
        (Literal(EventRef(EventKind.PRESENT, Compound("temperature", (Var("T"),)))),),
    )
    holds, binding = eval_once(f, kb, h)
    assert holds is False and binding["T"] == Const(18)


def test_eval_once_unsatisfiable_context_is_not_applicable():
    kb = FactBase()
    f = ContextualFormula(
        op(TemporalOp.ALWAYS),
        (Literal(Comparison("<=", Const(19), Var("T"))),),
        (Literal(Compound("reading", (Var("T"),))),),
    )
    holds, _ = eval_once(f, kb)
    assert holds is None


def run_machine(kind, m, n, valuations):
    """Drive the verdict machine over an explicit valuation sequence.

    As the engine does: step it at each tick from the lower bound to the
    upper one while the verdict is open, and close it when the
    valuations end first.
    """
    o = IntervalOp(kind, m, n, 1)
    for now in range(m, min(n + 1, len(valuations))):
        verdict = step_core(o, valuations[now], now)
        if verdict is not CoreVerdict.HOLDS_SO_FAR:
            return verdict
    return close_core(o)


def test_always_holds_through_interval():
    seq = [False, False, True, True, True, False]  # outside values ignored
    assert run_machine(TemporalOp.ALWAYS, 2, 4, seq) is CoreVerdict.HOLDS_FINAL


def test_eventually_with_single_witness():
    seq = [False, False, False, True, False, False]
    assert run_machine(TemporalOp.EVENTUALLY, 2, 4, seq) is CoreVerdict.HOLDS_FINAL


def test_unbounded_never_violates_on_counterexample():
    o = op(TemporalOp.NEVER)
    for now in range(7):
        assert step_core(o, False, now) is CoreVerdict.HOLDS_SO_FAR
    assert step_core(o, True, 7) is CoreVerdict.VIOLATED_NOW


def test_unbounded_forms_never_settle():
    o = op(TemporalOp.ALWAYS)
    for now in range(50):
        assert step_core(o, True, now) is CoreVerdict.HOLDS_SO_FAR


@pytest.mark.parametrize("kind", list(TemporalOp))
def test_no_check_comes_before_the_lower_bound(kind):
    # the engine, not the verdict machine, keeps a check from coming
    # before m: OP(m, n) armed at tick 0 is first checked at m
    rng = random.Random(kind.value)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(m, 11)
        vals = [rng.random() < 0.5 for _ in range(12)]
        program = parse_program(f"expr:\n{kind.value}({m}, {n}) good_N(yes).\n")
        trace = "\n".join(f"{t} N good({'yes' if vals[t] else 'no'})" for t in range(12))
        report = run(program, parse_trace(trace), EngineConfig(rearm=False))
        assert report.eval_ticks["e1"][0] == m, (m, n, vals)
        expected = ExprStatus.FULFILLED if quantifier_verdict(kind.value, m, n, vals) else ExprStatus.VIOLATED
        assert report.final_statuses["e1"] is expected, (m, n, vals)


def test_degenerate_interval_checks_one_tick():
    o = op(TemporalOp.EVENTUALLY, m=3, n=3)
    assert step_core(o, True, 3) is CoreVerdict.HOLDS_FINAL
    assert step_core(o, False, 3) is CoreVerdict.VIOLATED_NOW


@pytest.mark.parametrize("kind", list(TemporalOp))
def test_machine_agrees_with_quantifier_oracle_spot(kind):
    # the exhaustive sweep lives in the acceptance suite; spot-check here
    for m, n in ((0, 3), (1, 4), (2, 2)):
        for bits in range(2**5):
            seq = [(bits >> i) & 1 == 1 for i in range(5)]
            got = run_machine(kind, m, n, seq) is CoreVerdict.HOLDS_FINAL
            assert got == quantifier_verdict(kind.value, m, n, seq)


def test_fire_reaction_choice_picks_cheapest():
    kb = FactBase()
    kb.register_cost("less_expensive", {"ext": 3, "gas": 2, "solar": 1})
    reaction = (
        ReactionAtom(Compound("modify_temperature", (Var("S"),))),
        Choice("S", (Const("ext"), Const("gas"), Const("solar")), "less_expensive"),
    )
    emitted = fire_reaction(reaction, kb, {})
    assert emitted == [(EventKind.ACTION, Compound("modify_temperature", (Const("solar"),)))]


def test_fire_reaction_tie_breaks_by_listed_order():
    kb = FactBase()
    kb.register_cost("pref", {"x": 1, "y": 1})
    reaction = (
        ReactionAtom(Compound("act", (Var("P"),))),
        Choice("P", (Const("y"), Const("x")), "pref"),
    )
    emitted = fire_reaction(reaction, kb, {})
    assert emitted[0][1] == Compound("act", (Const("y"),))


def test_fire_reaction_skips_failed_precondition():
    kb = FactBase()
    reaction = (
        ReactionAtom(
            Compound("retry", (Var("G"),)),
            precond=(Literal(Compound("have_resources", (Var("G"),))),),
        ),
    )
    assert fire_reaction(reaction, kb, {"G": Const("g1")}) == []
    kb.assert_fact(atom("have_resources", Const("g1")))
    assert fire_reaction(reaction, kb, {"G": Const("g1")}) == [
        (EventKind.ACTION, Compound("retry", (Const("g1"),)))
    ]


def test_fire_reaction_plain_atom_with_binding():
    kb = FactBase()
    reaction = (ReactionAtom(Compound("block", (Var("R"),))),)
    emitted = fire_reaction(reaction, kb, {"R": Const("r")})
    assert emitted == [(EventKind.ACTION, Compound("block", (Const("r"),)))]


def test_fire_reaction_grounds_residual_variables():
    kb = FactBase()
    reaction = (ReactionAtom(Compound("block", (Compound("consume", (Const("r"), Var("Q"))),))),)
    emitted = fire_reaction(reaction, kb, {})
    assert emitted == [
        (EventKind.ACTION, Compound("block", (Compound("consume", (Const("r"), Const("any"))),)))
    ]


def test_fire_reaction_unregistered_cost_errors():
    kb = FactBase()
    reaction = (Choice("S", (Const("x"),), "nope"), ReactionAtom(Var("S")))
    with pytest.raises(UnresolvedPreference):
        fire_reaction(reaction, kb, {})


def test_fire_reaction_is_deterministic():
    kb = FactBase()
    kb.register_cost("pref", {"x": 2, "y": 1})
    kb.assert_fact(atom("have_resources", Const("g1")))
    reaction = (
        ReactionAtom(Compound("act", (Var("P"),))),
        Choice("P", (Const("x"), Const("y")), "pref"),
        ReactionAtom(Compound("retry", (Var("G"),)), precond=(Literal(Compound("have_resources", (Var("G"),))),)),
    )
    first = fire_reaction(reaction, kb, {"G": Const("g1")})
    assert all(fire_reaction(reaction, kb, {"G": Const("g1")}) == first for _ in range(5))


def test_reactive_rule_requires_reaction():
    monitor = formula(TemporalOp.ALWAYS, (Literal(Const("ok")),))
    with pytest.raises(ValueError):
        ReactiveRule(monitor, ())
