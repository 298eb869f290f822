from __future__ import annotations

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from ailtl.events import Event, EventKind, History
from ailtl.kb import (
    Comparison,
    EventRef,
    FactBase,
    Literal,
    NonGroundFact,
    ReservedFunctor,
    UnboundBuiltinArg,
    since_capable,
    yield_matches,
)
from ailtl.terms import Compound, Const, Var, Wildcard, atom

from oracles import brute_force_query, reference_query, solutions_as_set


def fact(functor, *args):
    return atom(functor, *(Const(a) for a in args))


def lit(functor, *args, negated=False):
    return Literal(atom(functor, *(Const(a) if not isinstance(a, (Var, Wildcard)) else a for a in args)), negated)


def test_assert_inserts_and_is_idempotent():
    kb = FactBase()
    assert kb.assert_fact(fact("in_queue", "e1", 42))
    assert fact("in_queue", "e1", 42) in kb
    assert not kb.assert_fact(fact("in_queue", "e1", 42))
    assert len(kb) == 1


def test_assert_rejects_non_ground():
    kb = FactBase()
    with pytest.raises(NonGroundFact):
        kb.assert_fact(Compound("quantity", (Const("r"), Var("V"))))


def test_assert_rejects_registered_functor():
    kb = FactBase()
    kb.register("in_queue", 2, lambda kb, h, args, b: iter(()))
    with pytest.raises(ReservedFunctor):
        kb.assert_fact(fact("in_queue", "e1", 5))


def test_retract_is_noop_on_absent_fact():
    kb = FactBase()
    kb.assert_fact(fact("in_queue", "e1", 42))
    assert kb.retract_fact(fact("in_queue", "e1", 42))
    assert fact("in_queue", "e1", 42) not in kb
    assert not kb.retract_fact(fact("never", "there"))


def test_retract_leaves_other_facts():
    kb = FactBase()
    kb.assert_fact(fact("p", 1))
    kb.assert_fact(fact("p", 2))
    kb.retract_fact(fact("p", 1))
    assert fact("p", 2) in kb and len(kb) == 1


def test_query_with_comparison():
    kb = FactBase()
    kb.assert_fact(fact("quantity", "r", 7))
    conj = (
        Literal(Compound("quantity", (Const("r"), Var("V")))),
        Literal(Comparison("<", Var("V"), Const(10))),
    )
    assert list(kb.query(conj)) == [{"V": Const(7)}]


def test_query_finds_duplicate_pair():
    kb = FactBase()
    kb.assert_fact(fact("in_queue", "e1", 5))
    kb.assert_fact(fact("in_queue", "e2", 5))
    conj = (
        Literal(Compound("in_queue", (Var("X"), Var("R")))),
        Literal(Compound("in_queue", (Var("Y"), Var("R")))),
        Literal(Comparison("\\=", Var("X"), Var("Y"))),
    )
    solutions = list(kb.query(conj))
    assert solutions and all(s["X"] != s["Y"] for s in solutions)


def test_query_on_empty_store():
    kb = FactBase()
    assert list(kb.query((Literal(Compound("p", (Var("X"),))),))) == []


def test_negation_as_failure():
    kb = FactBase()
    kb.assert_fact(fact("p", 1))
    kb.assert_fact(fact("q", 1))
    kb.assert_fact(fact("q", 2))
    conj = (
        Literal(Compound("q", (Var("X"),))),
        Literal(Compound("p", (Var("X"),)), negated=True),
    )
    assert list(kb.query(conj)) == [{"X": Const(2)}]


def test_negated_literal_with_unbound_variable_errors():
    kb = FactBase()
    conj = (Literal(Compound("p", (Var("X"),)), negated=True),)
    with pytest.raises(UnboundBuiltinArg):
        list(kb.query(conj))


def test_negated_literal_with_wildcard_is_fine():
    kb = FactBase()
    kb.assert_fact(fact("in_queue", "e1", 5))
    hit = (Literal(Compound("in_queue", (Wildcard(), Const(5))), negated=True),)
    miss = (Literal(Compound("in_queue", (Wildcard(), Const(6))), negated=True),)
    assert list(kb.query(hit)) == []
    assert list(kb.query(miss)) == [{}]


def test_unbound_comparison_arg_errors():
    kb = FactBase()
    with pytest.raises(UnboundBuiltinArg):
        list(kb.query((Literal(Comparison("<", Var("V"), Const(10))),)))


def test_registered_evaluator_answers_queries():
    kb = FactBase()

    def evens(kb_, hist, args, binding):
        from ailtl.kb import yield_matches

        yield from yield_matches(args, binding, [(Const(i),) for i in (0, 2, 4)])

    kb.register("even", 1, evens)
    out = list(kb.query((Literal(Compound("even", (Var("N"),))),)))
    assert [s["N"] for s in out] == [Const(0), Const(2), Const(4)]


def test_seed_binding_constrains_the_query():
    kb = FactBase()
    kb.assert_fact(fact("p", 1))
    kb.assert_fact(fact("p", 2))
    conj = (Literal(Compound("p", (Var("X"),))),)
    assert list(kb.query(conj, seed={"X": Const(2)})) == [{"X": Const(2)}]
    assert list(kb.query(conj, seed={"X": Const(9)})) == []


def test_solution_order_is_store_insertion_order():
    kb = FactBase()
    for v in (3, 1, 2):
        kb.assert_fact(fact("p", v))
    out = [s["X"] for s in kb.query((Literal(Compound("p", (Var("X"),))),))]
    assert out == [Const(3), Const(1), Const(2)]


def test_determinism_same_store_same_query():
    kb = FactBase()
    for v in (5, 5, 7, 2):
        kb.assert_fact(fact("p", v))
        kb.assert_fact(fact("q", v + 1))
    conj = (
        Literal(Compound("p", (Var("X"),))),
        Literal(Compound("q", (Var("Y"),))),
    )
    assert list(kb.query(conj)) == list(kb.query(conj))


def test_soundness_every_solution_recheckable():
    kb = FactBase()
    facts = [fact("edge", "a", "b"), fact("edge", "b", "c"), fact("edge", "a", "c"), fact("node", "a")]
    for f in facts:
        kb.assert_fact(f)
    conj = (
        Literal(Compound("edge", (Var("X"), Var("Y")))),
        Literal(Compound("edge", (Var("Y"), Var("Z")))),
    )
    for sol in kb.query(conj):
        from ailtl.terms import subst

        for l in conj:
            assert subst(l.body, sol) in kb


# small-instance completeness: engine solutions == brute-force enumeration
_consts = st.sampled_from([Const("a"), Const("b"), Const(1), Const(2)])
_facts = st.lists(
    st.builds(lambda f, a, b: Compound(f, (a, b)), st.sampled_from(["p", "q"]), _consts, _consts),
    min_size=0,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_facts, st.integers(0, 2), st.booleans())
def test_completeness_matches_brute_force(facts, shape, negate_last):
    kb = FactBase()
    for f in facts:
        kb.assert_fact(f)
    x, y = Var("X"), Var("Y")
    conj = [Literal(Compound("p", (x, y)))]
    if shape >= 1:
        conj.append(Literal(Compound("q", (y, x))))
    if shape == 2:
        conj.append(Literal(Compound("q", (x, x)), negated=negate_last))
    conj = tuple(conj)
    got = solutions_as_set(kb.query(conj), ["X", "Y"])
    expected = brute_force_query(kb, conj)
    assert got == expected


def test_registering_an_evaluator_recompiles_and_moves_the_version():
    kb = FactBase()
    conj = (Literal(Compound("even", (Var("N"),))),)
    assert list(kb.query(conj)) == []  # compiled while even/1 is a stored relation
    version = kb.version
    kb.register("even", 1, lambda kb_, hist, args, binding: yield_matches(args, binding, [(Const(0),), (Const(2),)]))
    assert kb.version > version
    assert [s["N"] for s in kb.query(conj)] == [Const(0), Const(2)]


def test_a_variable_literal_is_answered_as_the_atom_it_is_bound_to():
    kb = FactBase()
    kb.assert_fact(fact("p", 1))
    kb.register("ev", 1, _ev)
    x = (Literal(Var("X")),)
    assert list(kb.query(x, seed={"X": fact("p", 1)})) == [{"X": fact("p", 1)}]
    assert list(kb.query(x, seed={"X": fact("p", 2)})) == []
    # an evaluator sees the arguments of the bound atom
    assert list(kb.query(x, seed={"X": fact("ev", 1)}, history=History())) == [{"X": fact("ev", 1)}]


# the compiled plans against the recursive interpreter they replaced: the
# same solution sequence, and the same error at the same point of it
_ATOMS = [Const("a"), Const("b"), Const(1), Const(2)]
_VARS = [Var("X"), Var("Y")]
_args = st.one_of(
    st.sampled_from(_ATOMS + _VARS + [Wildcard("_")]),
    st.builds(lambda a: Compound("f", (a,)), st.sampled_from(_ATOMS + _VARS)),
)
_templates = st.one_of(
    st.builds(lambda f, a, b: Compound(f, (a, b)), st.sampled_from(["p", "q"]), _args, _args),
    st.just(Const("r")),
)
_bodies = st.one_of(
    _templates,
    st.builds(lambda a: Compound("ev", (a,)), _args),
    st.builds(Comparison, st.sampled_from(["<", "<=", ">", ">=", "=", "\\="]), _args, _args),
    st.builds(EventRef, st.sampled_from([EventKind.PRESENT, EventKind.PAST, EventKind.ACTION]), _templates),
    st.sampled_from(_VARS + [Const(3), Wildcard("_w")]),
)
_conjs = st.lists(st.builds(Literal, _bodies, st.booleans()), max_size=4).map(tuple)
_ground = st.sampled_from(_ATOMS + [Compound("f", (Const("a"),))])
_stored = st.lists(
    st.one_of(st.builds(lambda f, a, b: Compound(f, (a, b)), st.sampled_from(["p", "q"]), _ground, _ground), st.just(Const("r"))),
    max_size=8,
)
_logged = st.lists(
    st.tuples(
        st.sampled_from([EventKind.PRESENT, EventKind.EXTERNAL, EventKind.ACTION]),
        st.one_of(st.builds(lambda f, a, b: Compound(f, (a, b)), st.sampled_from(["p", "q"]), _ground, _ground), st.just(Const("r"))),
    ),
    max_size=5,
)
_seeds = st.dictionaries(
    st.sampled_from(["X", "Y"]),
    st.sampled_from(_ATOMS + [Const("r"), Compound("p", (Const("a"), Const(1))), Compound("ev", (Const(1),))]),
)


def _ev(kb_, history, args, binding):
    """ev(N): N is 1, or the log length modulo 3; nothing without a history."""
    if history is None:
        return
    yield from yield_matches(args, binding, [(Const(1),), (Const(len(history.log) % 3),)])


def _sequence(solutions):
    out = []
    try:
        for solution in solutions:
            out.append(solution)
            if len(out) > 200:
                break
    except UnboundBuiltinArg as exc:
        out.append(("raised", str(exc)))
    return out


@settings(max_examples=400, deadline=None)
@given(_conjs, _stored, _logged, _seeds, st.booleans())
def test_plans_give_the_reference_solution_sequence(conj, stored, logged, seed, with_history):
    kb = FactBase()
    kb.register("ev", 1, _ev)
    for f in stored:
        kb.assert_fact(f)
    history = None
    if with_history:
        history = History()
        for tick, (kind, payload) in enumerate(logged):
            history.record(Event(kind, payload, tick))
    expected = _sequence(reference_query(kb, conj, seed, history))
    assert _sequence(kb.query(conj, seed, history)) == expected
    assert _sequence(kb.query(conj, seed, history)) == expected  # and again from the memo


# the delta test of a plan against the recursive interpreter: when a
# conjunction had no solution at log length L0, the rows that entered since
# tell whether it has one at L1


@since_capable
def _row(kb_, history, args, binding, since=0):
    """row(K, V): put(K, V) adds the row unless it is there, del(K, V) removes it.

    Each row is born at the index of the put that added it; with ``since``
    only the rows born at or after it are seen.
    """
    if history is None:
        return
    born = {}
    for index, event in enumerate(history.log):
        name, key = event.payload.functor, event.payload.args
        if name == "put":
            born.setdefault(key, index)
        elif name == "del":
            born.pop(key, None)
    yield from yield_matches(args, binding, [key for key, index in born.items() if index >= since])


_row_args = st.sampled_from(_VARS + [Var("Z"), Var("Z"), Const("a"), Const(1), Wildcard("_")])
_row_body = st.builds(lambda a, b: Compound("row", (a, b)), _row_args, _row_args)
_capable_literals = st.one_of(
    st.builds(Literal, _row_body),  # positive: the only steps that read the history
    st.builds(Literal, _row_body),
    st.builds(Literal, _templates, st.booleans()),
    st.builds(
        Literal, st.builds(Comparison, st.sampled_from(["<", "<=", ">", ">=", "=", "\\="]), _row_args, _row_args), st.booleans()
    ),
)
_row_values = st.sampled_from([Const("a"), Const("b"), Const(1), Const(2)])
_change = st.tuples(st.sampled_from(["put", "put", "del"]), _row_values, _row_values).map(
    lambda c: Compound(c[0], (c[1], c[2]))
)


def _outcome(solutions):
    """'found', 'none', or 'raised' when the search hits an unbound built-in first."""
    try:
        return "found" if next(solutions, None) is not None else "none"
    except UnboundBuiltinArg:
        return "raised"


# at least one row literal, anywhere in the conjunction
_capable_conjs = st.builds(
    lambda row, others, at: tuple(others[:at]) + (Literal(row),) + tuple(others[at:]),
    _row_body,
    st.lists(_capable_literals, max_size=3),
    st.integers(0, 3),
)


@settings(max_examples=300, deadline=None)
@given(_capable_conjs, _stored, st.lists(_change, max_size=6), st.lists(_change, min_size=1, max_size=4), _seeds)
def test_the_delta_test_finds_a_solution_exactly_when_a_new_one_exists(conj, stored, before, after, seed):
    kb = FactBase()
    kb.register("row", 2, _row)
    for f in stored:
        kb.assert_fact(f)
    history = History()
    for change in before:
        history.record(Event(EventKind.ACTION, change, 0))
    assume(_outcome(reference_query(kb, conj, seed, history)) == "none")
    since = len(history.log)
    for change in after:
        history.record(Event(EventKind.ACTION, change, 1))
    delta = kb.plan(conj).delta
    assert delta is not None
    try:
        found = "found" if delta(dict(seed), history, since) else "none"
    except UnboundBuiltinArg:
        found = "raised"
    now = _outcome(reference_query(kb, conj, seed, history))
    event(f"delta {found}, reference {now}")
    # a raise on either side means the full search must run
    assert (found == "none") == (now == "none"), (found, now)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.builds(Literal, _bodies, st.booleans()), st.builds(Literal, _row_body, st.booleans())), max_size=4))
def test_a_plan_has_a_delta_test_only_when_every_history_step_is_a_positive_since_call(conj):
    kb = FactBase()
    kb.register("ev", 1, _ev)
    kb.register("row", 2, _row)

    def reads(lit):
        body = lit.body
        return isinstance(body, (EventRef, Var)) or (isinstance(body, Compound) and body.functor in ("ev", "row"))

    reading = [lit for lit in conj if reads(lit)]
    capable = bool(reading) and all(
        not lit.negated and isinstance(lit.body, Compound) and lit.body.functor == "row" for lit in reading
    )
    plan = kb.plan(tuple(conj))
    assert (plan.delta is not None) == capable
    assert plan.reads_history == bool(reading)
