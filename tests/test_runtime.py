from __future__ import annotations

import pytest

from ailtl.dsl import parse_program, parse_trace
from ailtl.evolutionary import ExprStatus
from ailtl.metagate import GateDecision
from ailtl.runtime import CapExceeded, EngineConfig, run
from ailtl.scenarios import gen_scenario
from ailtl.terms import Const

from oracles import queue_trace_stats


def small_queue(inject=0):
    program, trace = gen_scenario("queue", size=12, seed=3, inject_duplicates=inject)
    return parse_program(program), parse_trace(trace)


def test_gated_queue_run_has_no_violations():
    program, events = small_queue()
    report = run(program, events)
    assert report.violations == 0
    stats = queue_trace_stats(events, gated=True)
    assert report.blocked_actions == stats["duplicates"]


def test_injected_duplicates_violate_exactly_once_each():
    program, events = small_queue(inject=2)
    report = run(program, events)
    stats = queue_trace_stats(events)
    assert stats["duplicates"] == 2
    assert report.violations == 2
    causes = [t.cause for t in report.transitions if t.new is ExprStatus.VIOLATED]
    values = {c.args[1] for c in causes}
    assert values <= set(stats["duplicate_values"])


def test_gate_completeness_every_action_is_tagged():
    program, events = small_queue()
    report = run(program, events)
    actions = [e for e in events if e.kind.value == "A"]
    assert len(report.gate_log) == len(actions)
    assert all(isinstance(g.decision, GateDecision) for g in report.gate_log)


def test_identical_inputs_give_identical_reports():
    program_text, trace_text = gen_scenario("queue", size=15, seed=11)
    a = run(parse_program(program_text), parse_trace(trace_text))
    b = run(parse_program(program_text), parse_trace(trace_text))
    assert a.transitions == b.transitions
    assert a.emissions == b.emissions
    assert a.gate_log == b.gate_log
    assert a.final_statuses == b.final_statuses
    assert a.render() == b.render()


def test_empty_trace_leaves_expressions_dormant():
    program, _ = small_queue()
    report = run(program, [])
    assert report.final_statuses == {"e1": ExprStatus.DORMANT}
    assert report.violations == 0


def test_emitted_reaction_becomes_an_event_on_the_next_tick():
    program = parse_program("rules:\nEVENTUALLY(1, 1) ping DIV pong.\n")
    events = parse_trace("1 N tickmark(1)\n")
    report = run(program, events)
    assert [(e.tick, e.channel) for e in report.emissions] == [(1, "reactive")]
    # the pong action is gated (and recorded) one cycle later
    assert [(g.tick, g.decision) for g in report.gate_log] == [(2, GateDecision.NO_RULES_APPLY)]
    assert report.gate_log[0].payload == Const("pong")


def test_per_cycle_emission_cap():
    program = parse_program("rules:\nEVENTUALLY(1, 1) ping DIV a, b, c.\n")
    events = parse_trace("1 N tickmark(1)\n")
    with pytest.raises(CapExceeded):
        run(program, events, EngineConfig(emission_cap=2))


def test_feedback_cascade_is_bounded():
    # each echo re-violates the re-armed clone, which echoes again
    program = parse_program("rules:\nNEVER echo_A(X) DIV echo(again).\n")
    events = parse_trace("1 A echo(start)\n")
    with pytest.raises(CapExceeded):
        run(program, events, EngineConfig(max_feedback_ticks=20))


def test_rearm_can_be_disabled():
    program = parse_program("rules:\nNEVER echo_A(X) DIV echo(again).\n")
    events = parse_trace("1 A echo(start)\n")
    report = run(program, events, EngineConfig(rearm=False))
    assert report.violations == 1
    assert list(report.final_statuses) == ["r1"]


def test_eval_ticks_follow_the_frequency():
    program = parse_program("expr:\nNEVER(0, 40; 5) ghost.\n")
    trace = "\n".join(f"{t} N tickmark({t})" for t in range(0, 41))
    report = run(program, parse_trace(trace))
    assert report.eval_ticks["e1"] == list(range(0, 41, 5))
    assert report.final_statuses["e1"] is ExprStatus.FULFILLED


def test_config_default_frequency_applies_when_k_is_omitted():
    program = parse_program("config:\nfrequency = 4.\nexpr:\nNEVER(0, 20) ghost.\n")
    trace = "\n".join(f"{t} N tickmark({t})" for t in range(0, 21))
    report = run(program, parse_trace(trace))
    assert report.eval_ticks["e1"] == [0, 4, 8, 12, 16, 20]


def test_metrics_identity_for_a_single_expression():
    program = parse_program("facts:\nwatched(off).\nexpr:\nNEVER watched(on).\n")
    trace = "\n".join(f"{t} N tickmark({t})" for t in range(1, 11))
    report = run(program, parse_trace(trace), EngineConfig(metrics=True))
    assert len(report.metrics) == 10
    for cycle in report.metrics:
        assert cycle.f == 1
        assert cycle.total_ns == (
            cycle.retrieval_ns + cycle.if_eval_ns + cycle.max_eval_ns + cycle.if_viol_ns
        )


def test_metrics_disabled_collects_nothing():
    program = parse_program("facts:\nwatched(off).\nexpr:\nNEVER watched(on).\n")
    report = run(program, parse_trace("1 N tickmark(1)\n"))
    assert report.metrics == []


def test_report_render_is_documented_shape():
    program, events = small_queue(inject=1)
    text = run(program, events).render()
    lines = text.strip().splitlines()
    assert lines[0] == "# ailtl report"
    assert lines[1].startswith("run last_tick=")
    assert any(l.startswith("transition ") and "->violated" in l for l in lines)
    assert lines[-1].startswith("summary violations=1 ")


SUPPLY_GOLDEN = """\
# ailtl report
run last_tick=5 events=5 instances=2
gate 1 no_rules_apply supply(r, 10)
transition 1 e1 dormant->armed cause=precondition_prefix
transition 1 e1 armed->holding cause=first_check
gate 2 no_rules_apply consume(r, 2)
gate 3 no_rules_apply consume(r, 2)
gate 4 no_rules_apply consume(r, 3)
transition 4 e1 holding->violated cause=quantity(r, 3)
emit 4 e1 repair A block(consume(r, any))
gate 5 no_rules_apply block(consume(r, any))
final e1 violated
final e1#2 dormant
summary violations=1 broken=0 fulfilled=0 fulfilled_so_far=0 disabled=0 dormant=1 blocked=0
"""


def test_report_text_is_stable_golden():
    program_text, trace_text = gen_scenario("supply")
    report = run(parse_program(program_text), parse_trace(trace_text))
    assert report.render() == SUPPLY_GOLDEN


def test_goal_events_are_not_gated():
    program = parse_program("meta:\nsolve_not(wave(X)).\n")
    report = run(program, parse_trace("1 G wave(hi)\n2 A wave(hi)\n"))
    # only the action went through the gate; the goal was recorded directly
    assert len(report.gate_log) == 1
    assert report.gate_log[0].decision is GateDecision.BLOCKED_BY_SOLVE_NOT


def _transitions(program_text, trace_text):
    report = run(parse_program(program_text), parse_trace(trace_text))
    return [line for line in report.render().splitlines() if line.startswith("transition ")]


def test_an_unbounded_eventually_is_fulfilled_by_its_witness():
    trace = "\n".join(f"{t} N tickmark({t})" for t in range(1, 4))
    assert _transitions("facts:\ngood(yes).\nexpr:\nEVENTUALLY good(yes).\n", trace) == [
        "transition 1 e1 dormant->armed cause=precondition_prefix",
        "transition 1 e1 armed->fulfilled cause=witness",
    ]


def test_a_bounded_eventually_with_a_witness_before_its_bound_is_fulfilled_by_it():
    trace = "1 N tickmark(1)\n2 N tickmark(2)\n3 N ping(yes)\n4 N tickmark(4)\n"
    assert _transitions("expr:\nEVENTUALLY(0, 8) ping_N(yes).\n", trace) == [
        "transition 1 e1 dormant->armed cause=precondition_prefix",
        "transition 1 e1 armed->holding cause=first_check",
        "transition 3 e1 holding->fulfilled cause=witness",
    ]


def test_an_always_that_holds_to_its_bound_closes_the_interval():
    trace = "\n".join(f"{t} N tickmark({t})" for t in range(0, 5))
    assert _transitions("expr:\nALWAYS(0, 3) not ghost.\n", trace) == [
        "transition 0 e1 dormant->armed cause=precondition_prefix",
        "transition 0 e1 armed->holding cause=first_check",
        "transition 3 e1 holding->fulfilled cause=interval_closed",
    ]


def test_an_eventually_whose_interval_closes_on_a_check_is_violated_for_no_witness():
    trace = "\n".join(f"{t} N good(no)" for t in range(0, 6))
    assert _transitions("expr:\nEVENTUALLY(0, 3) good_N(yes).\n", trace) == [
        "transition 0 e1 dormant->armed cause=precondition_prefix",
        "transition 0 e1 armed->holding cause=first_check",
        "transition 3 e1 holding->violated cause=no_witness",
    ]


def test_an_eventually_whose_interval_closes_between_checks_is_violated_for_no_witness():
    trace = "\n".join(f"{t} N good(no)" for t in range(0, 6))
    assert _transitions("expr:\nEVENTUALLY(0, 3; 2) good_N(yes).\n", trace) == [
        "transition 0 e1 dormant->armed cause=precondition_prefix",
        "transition 0 e1 armed->holding cause=first_check",
        "transition 4 e1 holding->violated cause=no_witness",
    ]


def _records(program_text, trace_text):
    report = run(parse_program(program_text), parse_trace(trace_text))
    return [line for line in report.render().splitlines() if line.startswith(("transition ", "emit "))]


_SPARSE_TICKS = (0, 2, 5, 7, 9)  # past the bound, 5, 7 and 9 are not due at k=2


def test_an_eventually_whose_interval_elapsed_closes_on_the_next_step_that_is_not_due():
    trace = "\n".join(f"{t} N good(no)" for t in _SPARSE_TICKS)
    assert _records("expr:\nEVENTUALLY(0, 3; 2) good_N(yes) DIV fix.\n", trace) == [
        "transition 0 e1 dormant->armed cause=precondition_prefix",
        "transition 0 e1 armed->holding cause=first_check",
        "transition 5 e1 holding->violated cause=no_witness",
        "emit 5 e1 repair A fix",
    ]


def test_an_always_whose_interval_elapsed_closes_on_the_next_step_that_is_not_due():
    trace = "\n".join(f"{t} N good(yes)" for t in _SPARSE_TICKS)
    assert _records("expr:\nALWAYS(0, 3; 2) good_N(yes).\n", trace) == [
        "transition 0 e1 dormant->armed cause=precondition_prefix",
        "transition 0 e1 armed->holding cause=first_check",
        "transition 5 e1 holding->fulfilled cause=interval_closed",
    ]
