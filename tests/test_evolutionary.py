from __future__ import annotations

import itertools

from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import EvolutionaryExpr, ExprRuntime, ExprStatus
from ailtl.kb import Comparison, FactBase, Literal
from ailtl.patterns import PatternElem, PatternSeq, Quant
from ailtl.temporal import Choice, ContextualFormula, IntervalOp, ReactionAtom, TemporalOp
from ailtl.terms import Compound, Const, Var, Wildcard, atom

ALLOWED_TRANSITIONS = {
    (ExprStatus.DORMANT, ExprStatus.ARMED),
    (ExprStatus.DORMANT, ExprStatus.DISABLED),
    (ExprStatus.ARMED, ExprStatus.HOLDING),
    (ExprStatus.ARMED, ExprStatus.VIOLATED),
    (ExprStatus.ARMED, ExprStatus.BROKEN),
    (ExprStatus.ARMED, ExprStatus.DISABLED),
    (ExprStatus.ARMED, ExprStatus.FULFILLED),
    (ExprStatus.ARMED, ExprStatus.FULFILLED_SO_FAR),
    (ExprStatus.HOLDING, ExprStatus.VIOLATED),
    (ExprStatus.HOLDING, ExprStatus.BROKEN),
    (ExprStatus.HOLDING, ExprStatus.FULFILLED),
    (ExprStatus.HOLDING, ExprStatus.FULFILLED_SO_FAR),
}


def elem(name, *args, kind=None, quant=Quant.ONE):
    return PatternElem(atom(name, *args), kind, quant)


def seq(*elems):
    return PatternSeq(tuple(elems))


def never(*phi, m=None, n=None, k=None):
    return ContextualFormula(IntervalOp(TemporalOp.NEVER, m, n, k), tuple(phi))


def always(*phi, m=None, n=None, k=None):
    return ContextualFormula(IntervalOp(TemporalOp.ALWAYS, m, n, k), tuple(phi))


def drive(expr, timeline, kb=None, default_k=1, runtime=None):
    """Mini engine: record each tick's events, then step the instance."""
    kb = kb or FactBase()
    h = History()
    rt = runtime or ExprRuntime(expr)
    collected = []
    for tick, events, mutate in timeline:
        for e in events:
            h.record(e)
        if mutate:
            mutate(kb)
        out = rt.step(h, kb, tick, default_k)
        collected.append((tick, out))
    transitions = [(t, tr) for t, out in collected for tr in out.transitions]
    effects = [(t, e) for t, out in collected for e in out.effects]
    for _, tr in transitions:
        assert (tr.old, tr.new) in ALLOWED_TRANSITIONS, f"illegal transition {tr}"
    return rt, transitions, effects


def A(payload, t):
    return Event(EventKind.ACTION, payload, t)


def P(payload, t):
    return Event(EventKind.PAST, payload, t)


def N(payload, t):
    return Event(EventKind.PRESENT, payload, t)


def set_fact(old, new):
    def apply(kb):
        if old is not None:
            kb.retract_fact(old)
        if new is not None:
            kb.assert_fact(new)

    return apply


def supply_expr():
    return EvolutionaryExpr(
        core=never(
            Literal(Compound("quantity", (Const("r"), Var("V")))),
            Literal(Comparison("<", Var("V"), Const(5))),
        ),
        pre=seq(elem("supply", Const("r"), Wildcard("_s"), kind=EventKind.PAST, quant=Quant.PLUS)),
        future=seq(elem("consume", Const("r"), Var("Q"), kind=EventKind.ACTION, quant=Quant.PLUS)),
        repair=(ReactionAtom(Compound("block", (Compound("consume", (Const("r"), Var("Q"))),))),),
    )


def q(v):
    return atom("quantity", Const("r"), Const(v))


def test_supply_violation_fires_repair():
    timeline = [
        (1, [P(atom("supply", Const("r"), Const(10)), 1)], set_fact(None, q(10))),
        (2, [A(atom("consume", Const("r"), Const(2)), 2)], set_fact(q(10), q(8))),
        (3, [A(atom("consume", Const("r"), Const(5)), 3)], set_fact(q(8), q(3))),
    ]
    rt, transitions, effects = drive(supply_expr(), timeline)
    assert rt.status is ExprStatus.VIOLATED
    violated = [tr for _, tr in transitions if tr.new is ExprStatus.VIOLATED]
    assert len(violated) == 1 and violated[0].cause == atom("quantity", Const("r"), Const(3))
    assert [(t, e.channel, e.payload) for t, e in effects] == [
        (3, "repair", Compound("block", (Compound("consume", (Const("r"), Const("any"))),)))
    ]


def test_no_evaluation_before_the_prefix_arms():
    rt = ExprRuntime(supply_expr())
    h, kb = History(), FactBase()
    kb.assert_fact(q(1))  # would violate immediately if checked
    for tick in range(1, 4):
        out = rt.step(h, kb, tick)
        assert not out.evaluated and rt.status is ExprStatus.DORMANT
    assert rt.eval_ticks == []


def battery_expr(with_eta3=False):
    eta3 = (
        (
            ReactionAtom(Compound("alternative_plan", (Var("S"),))),
            Choice("S", (Const("tow"), Const("swap")), "fastest"),
        )
        if with_eta3
        else ()
    )
    return EvolutionaryExpr(
        core=always(
            Literal(Compound("charge_level", (Var("L"),))),
            Literal(Comparison(">", Var("L"), Const(20))),
            m=0,
            n=60,
            k=10,
        ),
        pre=seq(elem("recharge_battery", kind=EventKind.PAST)),
        future=seq(elem("normal_usage_action", Var("Act"), quant=Quant.STAR)),
        breaking=seq(elem("extensive_usage_action", Var("Act"), quant=Quant.STAR)),
        repair=(ReactionAtom(Const("stop_robot_operation")),),
        eta1=ReactionAtom(Const("alert_user_possible_fault")),
        eta2=ReactionAtom(Const("recharge_battery"), kind=EventKind.GOAL),
        eta3=eta3,
    )


def battery_kb():
    kb = FactBase()
    kb.assert_fact(atom("normal_usage_action", Const("move")))
    kb.assert_fact(atom("extensive_usage_action", Const("dry_water")))
    kb.assert_fact(atom("charge_level", Const(80)))
    kb.register_cost("fastest", {"tow": 9, "swap": 4})
    return kb


def charge(old, new):
    return set_fact(atom("charge_level", Const(old)), atom("charge_level", Const(new)))


def test_battery_breaks_on_extensive_usage():
    timeline = [
        (0, [P(Const("recharge_battery"), 0)], None),
        (10, [A(Const("move"), 10)], charge(80, 70)),
        (20, [A(Const("dry_water"), 20)], charge(70, 10)),
        (30, [], None),
    ]
    rt, transitions, effects = drive(battery_expr(), timeline, battery_kb())
    assert rt.status is ExprStatus.BROKEN
    broken = [tr for _, tr in transitions if tr.new is ExprStatus.BROKEN]
    assert broken and broken[0].cause == Const("dry_water")
    channels = [e.channel for _, e in effects]
    assert channels == ["eta2"]
    assert effects[0][1].kind is EventKind.GOAL and effects[0][1].payload == Const("recharge_battery")


def test_battery_low_charge_under_normal_usage_violates():
    timeline = [
        (0, [P(Const("recharge_battery"), 0)], None),
        (10, [A(Const("move"), 10)], charge(80, 40)),
        (20, [A(Const("move"), 20)], charge(40, 10)),
    ]
    rt, transitions, effects = drive(battery_expr(), timeline, battery_kb())
    assert rt.status is ExprStatus.VIOLATED
    channels = [e.channel for _, e in effects]
    assert channels == ["repair", "eta1"]  # immediate repair first, then the countermeasure


def test_broken_takes_precedence_over_violation_in_same_state():
    timeline = [
        (0, [P(Const("recharge_battery"), 0)], None),
        (10, [A(Const("dry_water"), 10)], charge(80, 5)),
    ]
    rt, transitions, effects = drive(battery_expr(), timeline, battery_kb())
    assert rt.status is ExprStatus.BROKEN
    assert [e.channel for _, e in effects] == ["eta2"]


def test_countermeasures_are_exclusive_over_all_two_event_orderings():
    for boom_tick, drop_tick in itertools.product((10, 20), repeat=2):
        timeline = [(0, [P(Const("recharge_battery"), 0)], None)]
        for tick in (10, 20):
            events = [A(Const("dry_water"), tick)] if tick == boom_tick else []
            mutate = charge(80, 5) if tick == drop_tick else None
            timeline.append((tick, events, mutate))
        rt, transitions, effects = drive(battery_expr(), timeline, battery_kb())
        channels = {e.channel for _, e in effects}
        if boom_tick <= drop_tick:
            assert rt.status is ExprStatus.BROKEN and channels == {"eta2"}
        else:
            assert rt.status is ExprStatus.VIOLATED and channels == {"repair", "eta1"}


def test_vacuous_hold_fulfills_at_interval_end():
    expr = EvolutionaryExpr(core=never(Literal(Compound("impossible", (Const(1),))), m=0, n=3))
    timeline = [(t, [], None) for t in range(5)]
    rt, transitions, _ = drive(expr, timeline)
    assert rt.status is ExprStatus.FULFILLED
    assert transitions[-1][0] == 3  # settled exactly at the upper bound


def test_preventive_countermeasure_fires_per_hit_and_keeps_instance_alive():
    expr = battery_expr(with_eta3=True)
    timeline = [
        (0, [P(Const("recharge_battery"), 0)], None),
        (10, [A(Const("dry_water"), 10)], None),
        (20, [A(Const("dry_water"), 20)], None),
        (30, [], None),
    ]
    rt, transitions, effects = drive(expr, timeline, battery_kb())
    assert rt.status is ExprStatus.HOLDING
    eta3 = [(t, e.payload) for t, e in effects if e.channel == "eta3"]
    assert eta3 == [
        (10, Compound("alternative_plan", (Const("swap"),))),
        (20, Compound("alternative_plan", (Const("swap"),))),
    ]
    # same hit never fires twice: stepping again adds nothing
    h = History()
    assert not rt.step(h, battery_kb(), 40).effects


def test_preventive_hit_fires_once_across_rebindings():
    # the precondition binds Y, then drops it: {X} -> {X, Y=5} -> {X};
    # boom(3) hits under the first and third binding, and fires once
    expr = EvolutionaryExpr(
        core=never(Literal(Const("impossible")), m=100),
        pre=seq(elem("a", Var("X"), quant=Quant.PLUS), elem("b", Var("Y"), quant=Quant.PLUS)),
        breaking=seq(elem("boom", Var("Y"))),
        eta3=(ReactionAtom(Compound("hold", (Var("Y"),))),),
    )
    timeline = [
        (1, [A(atom("a", Const(1)), 1), A(atom("boom", Const(3)), 1)], None),
        (2, [A(atom("b", Const(5)), 2)], None),
        (3, [A(atom("b", Const(6)), 3)], None),
    ]
    rt, _, effects = drive(expr, timeline)
    assert rt.status is ExprStatus.ARMED
    assert [(t, e.payload) for t, e in effects] == [(1, Compound("hold", (Const(3),)))]


def test_step_preventive_resolves_the_preference_directly():
    expr = battery_expr(with_eta3=True)
    kb = battery_kb()
    h = History()
    rt = ExprRuntime(expr)
    h.record(P(Const("recharge_battery"), 0))
    rt.step(h, kb, 0)
    assert rt.status in (ExprStatus.ARMED, ExprStatus.HOLDING)
    imminent = A(Const("dry_water"), 5)
    effects = rt.step_preventive(imminent, kb, h)
    assert effects is not None
    assert [(e.channel, e.payload) for e in effects] == [
        ("eta3", Compound("alternative_plan", (Const("swap"),)))
    ]
    assert rt.status in (ExprStatus.ARMED, ExprStatus.HOLDING)  # prevention, not breakage
    # a non-breaking event resolves nothing
    assert rt.step_preventive(A(Const("move"), 6), kb, h) is None


def test_step_preventive_is_none_without_eta3():
    expr = battery_expr(with_eta3=False)
    kb = battery_kb()
    h = History()
    rt = ExprRuntime(expr)
    h.record(P(Const("recharge_battery"), 0))
    rt.step(h, kb, 0)
    assert rt.step_preventive(A(Const("dry_water"), 5), kb, h) is None


def test_eta3_without_breaking_hit_never_fires():
    expr = battery_expr(with_eta3=True)
    timeline = [
        (0, [P(Const("recharge_battery"), 0)], None),
        (10, [A(Const("move"), 10)], None),
    ]
    _, _, effects = drive(expr, timeline, battery_kb())
    assert [e for _, e in effects if e.channel == "eta3"] == []


def test_precondition_mismatch_disables():
    expr = EvolutionaryExpr(
        core=never(Literal(Compound("impossible", (Const(1),)))),
        pre=seq(elem("first"), elem("second")),
    )
    timeline = [(1, [A(Const("second"), 1)], None)]
    rt, transitions, _ = drive(expr, timeline)
    assert rt.status is ExprStatus.DISABLED


def test_future_mismatch_warns_but_keeps_checking():
    expr = EvolutionaryExpr(
        core=never(Literal(Compound("bad", (Const(1),)))),
        pre=seq(elem("go")),
        future=seq(elem("step1"), elem("step2")),
    )
    timeline = [
        (1, [A(Const("go"), 1)], None),
        (2, [A(Const("step2"), 2)], None),  # out of expected order
        (3, [], set_fact(None, atom("bad", Const(1)))),
    ]
    rt, transitions, _ = drive(expr, timeline)
    assert rt.status is ExprStatus.VIOLATED  # still monitored after the warning


def test_final_report_unbounded_is_fulfilled_so_far():
    expr = EvolutionaryExpr(core=never(Literal(Compound("bad", (Const(1),)))))
    rt, _, _ = drive(expr, [(1, [A(Const("tick"), 1)], None)])
    status, transition = rt.final_report(5)
    assert status is ExprStatus.FULFILLED_SO_FAR
    assert transition is not None and transition.new is ExprStatus.FULFILLED_SO_FAR


def test_final_report_bounded_past_end_is_fulfilled():
    expr = EvolutionaryExpr(core=always(Literal(Compound("ok", (Const(1),))), m=0, n=10))
    kb = FactBase()
    kb.assert_fact(atom("ok", Const(1)))
    rt, _, _ = drive(expr, [(1, [A(Const("tick"), 1)], None)], kb)
    status, _ = rt.final_report(25)
    assert status is ExprStatus.FULFILLED


def test_final_report_keeps_terminal_status():
    timeline = [
        (0, [P(Const("recharge_battery"), 0)], None),
        (10, [A(Const("dry_water"), 10)], None),
    ]
    rt, _, _ = drive(battery_expr(), timeline, battery_kb())
    assert rt.status is ExprStatus.BROKEN
    status, transition = rt.final_report(99)
    assert status is ExprStatus.BROKEN and transition is None
