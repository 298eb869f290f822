from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ailtl.kb import FactBase, Literal
from ailtl.metagate import GateDecision, MetaRule, NonGroundReify, Polarity, gate
from ailtl.terms import Compound, Const, Var, Wildcard, atom, variables

from oracles import MetaAtom, acceptable, base_version, head_binding, operative_atom_set, reference_gate


# the context/role vignette: what a solve gate looks like in practice
def ethics_kb(context, role, exception=False):
    kb = FactBase()
    kb.assert_fact(atom("present_context", Const(context)))
    kb.assert_fact(atom("agent_role", Const(role)))
    rows = {
        ("video_game", "player"): ("shoot", "beat", "shout"),
        ("reality", "citizen"): ("shout", "call_police"),
        ("reality", "police"): ("threaten", "arrest", "shoot"),
    }
    for (c, r), actions in rows.items():
        for action in actions:
            kb.assert_fact(atom("allowed", Const(c), Const(r), Const(action)))
            kb.assert_fact(atom("ethical", Const(c), Const(r), Const(action)))
    if exception:
        kb.assert_fact(atom("ethical_exception", Const(context), Const("shoot")))
    return kb


def ethics_rules():
    head = Compound("execute_action", (Var("Act"),))
    solve_body = (
        Literal(Compound("present_context", (Var("C"),))),
        Literal(Compound("agent_role", (Var("R"),))),
        Literal(Compound("allowed", (Var("C"), Var("R"), Var("Act")))),
        Literal(Compound("ethical", (Var("C"), Var("R"), Var("Act")))),
    )
    not_body = (
        Literal(Compound("present_context", (Var("C"),))),
        Literal(Compound("ethical_exception", (Var("C"), Var("Act")))),
    )
    return [MetaRule(Polarity.SOLVE, head, solve_body), MetaRule(Polarity.SOLVE_NOT, head, not_body)]


def shoot():
    return Compound("execute_action", (Const("shoot"),))


def test_gate_confirms_allowed_ethical_action():
    kb = ethics_kb("video_game", "player")
    assert gate(shoot(), ethics_rules(), kb) is GateDecision.CONFIRMED


def test_gate_blocks_when_solve_body_fails():
    kb = ethics_kb("reality", "citizen")
    assert gate(shoot(), ethics_rules(), kb) is GateDecision.BLOCKED_BY_SOLVE_FAIL


def test_gate_blocks_on_exception_even_when_solve_succeeds():
    kb = ethics_kb("video_game", "player", exception=True)
    assert gate(shoot(), ethics_rules(), kb) is GateDecision.BLOCKED_BY_SOLVE_NOT


def test_gate_without_matching_rules_lets_goal_proceed():
    kb = ethics_kb("video_game", "player")
    assert gate(Compound("wave", (Const("hello"),)), ethics_rules(), kb) is GateDecision.NO_RULES_APPLY


def test_gate_solve_not_alone_failing_confirms():
    kb = FactBase()
    rules = [MetaRule(Polarity.SOLVE_NOT, Compound("go", (Var("X"),)), (Literal(Compound("banned", (Var("X"),))),))]
    assert gate(Compound("go", (Const("n"),)), rules, kb) is GateDecision.CONFIRMED


def test_gate_requires_ground_goal():
    with pytest.raises(NonGroundReify):
        gate(Compound("go", (Var("X"),)), [], FactBase())


def test_solve_not_dominates_succeeding_solve():
    kb = FactBase()
    kb.assert_fact(atom("fine", Const("x")))
    kb.assert_fact(atom("veto", Const("x")))
    head = Compound("act", (Var("V"),))
    rules = [
        MetaRule(Polarity.SOLVE, head, (Literal(Compound("fine", (Var("V"),))),)),
        MetaRule(Polarity.SOLVE_NOT, head, (Literal(Compound("veto", (Var("V"),))),)),
    ]
    assert gate(Compound("act", (Const("x"),)), rules, kb) is GateDecision.BLOCKED_BY_SOLVE_NOT


def test_any_succeeding_solve_rule_suffices():
    kb = FactBase()
    kb.assert_fact(atom("second_route", Const("x")))
    head = Compound("act", (Var("V"),))
    rules = [
        MetaRule(Polarity.SOLVE, head, (Literal(Compound("first_route", (Var("V"),))),)),
        MetaRule(Polarity.SOLVE, head, (Literal(Compound("second_route", (Var("V"),))),)),
    ]
    assert gate(Compound("act", (Const("x"),)), rules, kb) is GateDecision.CONFIRMED


def test_meta_constant_head_must_match_exactly():
    kb = FactBase()
    rules = [MetaRule(Polarity.SOLVE, Compound("act", (Const("left"),)), ())]
    assert gate(Compound("act", (Const("left"),)), rules, kb) is GateDecision.CONFIRMED
    assert gate(Compound("act", (Const("right"),)), rules, kb) is GateDecision.NO_RULES_APPLY


def test_acceptable_schemata():
    p = Const("p")
    assert acceptable({MetaAtom(Polarity.SOLVE, p), p})
    assert not acceptable({MetaAtom(Polarity.SOLVE_NOT, p), p})
    assert acceptable(set())
    assert not acceptable({MetaAtom(Polarity.SOLVE, p)})


def test_base_version_strips_meta_atoms():
    p, q = Const("p"), Const("q")
    full = {MetaAtom(Polarity.SOLVE, p), p, q}
    assert base_version(full) == {p, q}
    assert base_version({p, q}) == {p, q}
    assert base_version({MetaAtom(Polarity.SOLVE_NOT, p)}) == set()


def test_operative_atom_set_is_acceptable_for_the_vignette():
    for context, role in (("video_game", "player"), ("reality", "citizen"), ("reality", "police")):
        for exception in (False, True):
            kb = ethics_kb(context, role, exception)
            goals = [Compound("execute_action", (Const(a),)) for a in ("shoot", "shout", "arrest", "wave")]
            realized = operative_atom_set(goals, ethics_rules(), kb)
            assert acceptable(realized), (context, role, exception)


_consts = st.sampled_from([Const("a"), Const("b"), Const(1)])


def _compounds(children):
    return st.builds(Compound, st.sampled_from(["f", "g"]), st.lists(children, min_size=1, max_size=3).map(tuple))


# few leaves keep the oracle's enumeration (subterms ** head variables) small
_goals = st.recursive(_consts, _compounds, max_leaves=6)
_heads = st.recursive(
    st.one_of(_consts, st.sampled_from([Var("X"), Var("Y"), Wildcard("_"), Wildcard("_w")])), _compounds, max_leaves=4
)


def _fill(head, values):
    # an instance of the head: each variable occurrence and wildcard takes the next value
    if isinstance(head, (Var, Wildcard)):
        return values.pop() if values else Const("a")
    if isinstance(head, Compound):
        return Compound(head.functor, tuple(_fill(a, values) for a in head.args))
    return head


@given(_heads, _goals, st.lists(_goals, max_size=4), st.booleans(), st.sets(_consts), st.booleans())
def test_gate_matches_heads_like_the_enumerating_oracle(head, other, values, instance, marked, negated):
    # wildcards, repeated variables and nested heads, against an instance of
    # the head (repeated variables then agree only by chance) or any goal
    goal = _fill(head, list(values)) if instance else other
    kb = FactBase()
    for c in marked:
        kb.assert_fact(Compound("marked", (c,)))
    body = (Literal(Compound("marked", (Var("X"),)), negated=negated),) if "X" in variables(head) else ()
    for polarity in Polarity:
        rules = [MetaRule(polarity, head, body)]
        assert gate(goal, rules, kb) is reference_gate(goal, rules, kb)


def test_head_binding_oracle_binds_variables_and_skips_wildcards():
    goal = Compound("f", (Const("a"), Compound("g", (Const("a"),)), Const("b")))
    head = Compound("f", (Var("X"), Compound("g", (Var("X"),)), Wildcard("_")))
    assert head_binding(head, goal) == {"X": Const("a")}
    assert head_binding(Compound("f", (Var("X"), Wildcard("_"), Var("X"))), goal) is None
