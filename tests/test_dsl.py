from __future__ import annotations

import pytest

from ailtl.dsl import ParseError, parse_program, parse_trace, render, render_event, render_trace
from ailtl.events import EventKind, TimestampRegression
from ailtl.kb import Comparison, EventRef, Literal
from ailtl.patterns import Quant
from ailtl.temporal import Choice, TemporalOp
from ailtl.terms import Compound, Const, Var


def test_parses_the_queue_constraint():
    text = "expr:\npush_P+(Req,Q) : NEVER in_queue(E1,RX), in_queue(E2,RX), E1 \\= E2 ::: pop_A+(E,Q).\n"
    program = parse_program(text)
    _, expr = program.evolutionary[0]
    assert expr.core.op.op is TemporalOp.NEVER
    pre = expr.pre.elems[0]
    assert pre.kind is EventKind.PAST and pre.quant is Quant.PLUS
    assert pre.template == Compound("push", (Var("Req"), Var("Q")))
    fut = expr.future.elems[0]
    assert fut.kind is EventKind.ACTION and fut.template == Compound("pop", (Var("E"), Var("Q")))
    assert expr.core.phi[2] == Literal(Comparison("\\=", Var("E1"), Var("E2")))


def test_parses_the_temperature_rule():
    text = (
        "rules:\n"
        "ALWAYS(480,1020;10) 19 <= T, T <= 21 :: temperature_N(T)"
        " DIV modify_temperature(S), S IN {ext,gas,solar : less_expensive}.\n"
    )
    program = parse_program(text)
    _, rule = program.reactive[0]
    assert (rule.monitor.op.m, rule.monitor.op.n, rule.monitor.op.k) == (480, 1020, 10)
    assert rule.monitor.chi == (Literal(EventRef(EventKind.PRESENT, Compound("temperature", (Var("T"),)))),)
    choice = rule.reaction[1]
    assert isinstance(choice, Choice)
    assert choice.var == "S" and choice.cost == "less_expensive"
    assert choice.options == (Const("ext"), Const("gas"), Const("solar"))


def test_clock_literals_map_to_ticks():
    text = "rules:\nALWAYS(8:00, 17:00; 10) 19 <= T, T <= 21 :: temperature_N(T) DIV fix(T).\n"
    program = parse_program(text)
    _, rule = program.reactive[0]
    assert (rule.monitor.op.m, rule.monitor.op.n) == (480, 1020)


def test_clock_literals_respect_tick_scale():
    text = "config:\ntick = second.\nrules:\nALWAYS(0:05, 1:00) ok DIV note.\n"
    program = parse_program(text)
    _, rule = program.reactive[0]
    assert (rule.monitor.op.m, rule.monitor.op.n) == (300, 3600)


def test_inverted_interval_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse_program("expr:\nALWAYS(5,3) p.\n")
    assert "bound" in str(err.value)


@pytest.mark.parametrize("value", ["0", "often"])
def test_a_frequency_below_one_is_a_parse_error(value):
    with pytest.raises(ParseError) as err:
        parse_program(f"config:\nfrequency = {value}.\nexpr:\nNEVER ghost.\n")
    assert "frequency" in str(err.value)


@pytest.mark.parametrize("entry", ["tick = fortnight.", "frequency = 0."])
def test_a_bad_config_entry_is_positioned_at_its_key(entry):
    with pytest.raises(ParseError) as err:
        parse_program(f"expr:\nNEVER ghost.\nconfig:\nderived = queue.\n  {entry}\n")
    assert (err.value.line, err.value.col) == (5, 3)


def test_parse_error_positions_point_at_the_offending_token():
    with pytest.raises(ParseError) as err:
        parse_program("facts:\nok(1)\nbad\n")
    # the missing dot is discovered at 'bad' on line 3
    assert err.value.line == 3 and err.value.col == 1


def test_unknown_character_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_program("facts:\nok(1) ? bad.\n")
    assert err.value.line == 2 and err.value.col == 7


def test_section_required():
    with pytest.raises(ParseError):
        parse_program("in_queue(e1, 5).\n")
    with pytest.raises(ParseError):
        parse_program("")


def test_both_quantifier_spellings_parse():
    a = parse_program("expr:\npush_P+(Req,Q) : NEVER dup(Req).\n")
    b = parse_program("expr:\npush_P(Req,Q)+ : NEVER dup(Req).\n")
    assert a.evolutionary[0][1].pre == b.evolutionary[0][1].pre
    with pytest.raises(ParseError):
        parse_program("expr:\npush_P+(Req,Q)* : NEVER dup(Req).\n")


def test_evolutionary_with_every_segment():
    text = (
        "expr:\n"
        "recharge_battery_P : ALWAYS(0, 360; 30) charge_level(L), L > 20"
        " ::: normal_usage_action(Act)* :::: extensive_usage_action(Act)*"
        " DIV stop_robot_operation | alert_user_possible_fault_A || recharge_battery_G"
        " ||| alt(S), S IN {tow, swap : fastest}.\n"
    )
    _, expr = parse_program(text).evolutionary[0]
    assert expr.pre.elems[0].template == Const("recharge_battery")
    assert expr.future.elems[0].quant is Quant.STAR
    assert expr.breaking.elems[0].template == Compound("extensive_usage_action", (Var("Act"),))
    assert expr.repair[0].payload == Const("stop_robot_operation")
    assert expr.eta1.payload == Const("alert_user_possible_fault")
    assert expr.eta2.kind is EventKind.GOAL
    assert isinstance(expr.eta3[1], Choice)


def test_reaction_preconditions_parse():
    # a precondition conjunction is greedy, so preconditioned atoms go last
    text = "expr:\nNEVER stuck(G) DIV drop_G(G), retry(G) :< have_resources(G), slack(G).\n"
    _, expr = parse_program(text).evolutionary[0]
    drop, retry = expr.repair
    assert drop.kind is EventKind.GOAL and drop.payload == Compound("drop", (Var("G"),))
    assert retry.precond == (
        Literal(Compound("have_resources", (Var("G"),))),
        Literal(Compound("slack", (Var("G"),))),
    )


def test_meta_rules_parse_with_and_without_bodies():
    text = (
        "meta:\n"
        "solve(execute_action(Act)) :- present_context(C), allowed(C, Act).\n"
        "solve_not(launch(X)).\n"
    )
    program = parse_program(text)
    solve, solve_not = program.metarules
    assert solve.head == Compound("execute_action", (Var("Act"),))
    assert len(solve.body) == 2
    assert solve_not.body == ()


def test_costs_and_config_sections():
    text = "costs:\nless_expensive(ext, 3).\nless_expensive(solar, 1).\nconfig:\nderived = queue.\nfrequency = 5.\n"
    program = parse_program(text)
    assert program.costs == {"less_expensive": {"ext": 3, "solar": 1}}
    assert program.config == {"derived": "queue", "frequency": 5}


def test_unicode_comparisons_normalize():
    program = parse_program("expr:\nNEVER quantity(r, V), V ≤ 5, V ≠ 0.\n")
    phi = program.evolutionary[0][1].core.phi
    assert phi[1].body.op == "<=" and phi[2].body.op == "\\="


def test_comments_and_whitespace_are_insignificant():
    text = "facts:  # the knowledge base\n\n  in_queue(e1, 5).   # one entry\n"
    assert parse_program(text).facts == [Compound("in_queue", (Const("e1"), Const(5)))]


# -- traces ---------------------------------------------------------------


def test_parse_trace_basic_line():
    events = parse_trace("3 A push(42,q1)\n")
    assert len(events) == 1
    e = events[0]
    assert e.kind is EventKind.ACTION and e.timestamp == 3
    assert e.payload == Compound("push", (Const(42), Const("q1")))


def test_parse_trace_skips_comments_and_blanks():
    events = parse_trace("# header\n\n1 P recharge_battery\n")
    assert len(events) == 1 and events[0].payload == Const("recharge_battery")


def test_parse_trace_rejects_unknown_kind():
    with pytest.raises(ParseError):
        parse_trace("5 X foo\n")


def test_parse_trace_rejects_regression():
    with pytest.raises(TimestampRegression):
        parse_trace("3 A a\n2 A b\n")


def test_parse_trace_rejects_non_atom_payload():
    with pytest.raises(ParseError):
        parse_trace("1 A 42\n")


def test_event_render_round_trip():
    events = parse_trace("3 A push(42, q1)\n7 N temperature(20)\n")
    text = render_trace(events)
    assert parse_trace(text) == events
    assert render_event(events[0]) == "3 A push(42, q1)"


# -- render round trips -----------------------------------------------------


def test_render_round_trips_the_queue_program():
    text = (
        "config:\nderived = queue.\n"
        "meta:\nsolve_not(push(V, Q)) :- in_queue(_e, V).\n"
        "expr:\npush_P+(Req, Q) : NEVER in_queue(E1, RX), in_queue(E2, RX), E1 \\= E2 ::: pop_A+(E, Q).\n"
    )
    program = parse_program(text)
    assert parse_program(render(program)) == program


def test_render_preserves_operator_parameters():
    program = parse_program("expr:\nEVENTUALLY(3, 9; 2) done(X).\n")
    assert "EVENTUALLY(3, 9; 2)" in render(program)
    assert parse_program(render(program)) == program


def test_render_round_trips_full_scenario_programs():
    from ailtl.scenarios import SCENARIOS, gen_scenario

    for name in SCENARIOS:
        program = parse_program(gen_scenario(name)[0])
        assert parse_program(render(program)) == program, name
