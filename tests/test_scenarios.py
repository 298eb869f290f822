from __future__ import annotations

import pytest

from ailtl.dsl import parse_program, parse_trace
from ailtl.events import EventKind
from ailtl.evolutionary import ExprStatus
from ailtl.metagate import GateDecision
from ailtl.runtime import run
from ailtl.scenarios import (
    ETHICS_ATTEMPTS,
    ethics_allowed,
    gen_scenario,
)
from ailtl.terms import Compound, Const

from oracles import battery_levels, queue_trace_stats, supply_ledger


def run_scenario(name, **params):
    program_text, trace_text = gen_scenario(name, **params)
    events = parse_trace(trace_text)
    return run(parse_program(program_text), events), events


def transitions_of(report, *statuses):
    wanted = set(statuses)
    return [(t.tick, t.instance, t.new, t.cause) for t in report.transitions if t.new in wanted]


def emissions_of(report):
    return [(e.tick, e.channel, e.kind, e.payload) for e in report.emissions]


def test_generation_is_deterministic():
    for name in ("queue", "supply", "battery", "temperature", "ambulance", "ethics"):
        assert gen_scenario(name) == gen_scenario(name)
    a = gen_scenario("queue", size=20, seed=9, inject_duplicates=2)
    b = gen_scenario("queue", size=20, seed=9, inject_duplicates=2)
    assert a == b
    assert gen_scenario("queue", seed=9) != gen_scenario("queue", seed=10)


def test_queue_pops_are_fifo_in_every_generated_trace():
    for seed in (1, 7, 23):
        for inject in (0, 3):
            _, trace_text = gen_scenario("queue", size=30, seed=seed, inject_duplicates=inject)
            stats = queue_trace_stats(parse_trace(trace_text), gated=inject == 0)
            assert stats["fifo"], (seed, inject)


def test_queue_size_five_is_pushes_then_pops():
    _, trace_text = gen_scenario("queue", size=5, seed=1)
    events = parse_trace(trace_text)
    functors = [e.payload.functor for e in events]
    pushes = functors.count("push")
    assert pushes == 5
    assert functors == ["push"] * pushes + ["pop"] * (len(functors) - pushes)
    assert queue_trace_stats(events, gated=True)["fifo"]


def test_queue_items_stay_in_range():
    _, trace_text = gen_scenario("queue", size=60, seed=5)
    for e in parse_trace(trace_text):
        if isinstance(e.payload, Compound) and e.payload.functor == "push":
            assert 1 <= e.payload.args[0].value <= 300


def test_queue_gated_matches_oracle():
    report, events = run_scenario("queue", size=40, seed=7)
    stats = queue_trace_stats(events, gated=True)
    assert report.violations == 0
    assert report.blocked_actions == stats["duplicates"]
    assert report.final_statuses["e1"] is ExprStatus.FULFILLED_SO_FAR


@pytest.mark.parametrize("inject", [1, 2, 4])
def test_queue_injected_duplicates_match_oracle(inject):
    report, events = run_scenario("queue", size=40, seed=7, inject_duplicates=inject)
    stats = queue_trace_stats(events)
    assert stats["duplicates"] == inject
    assert report.violations == inject


def test_injected_queue_above_the_item_range_is_a_usage_error():
    # 301 distinct items cannot be drawn from [1, 300]
    with pytest.raises(ValueError):
        gen_scenario("queue", size=301, seed=7, inject_duplicates=1)
    with pytest.raises(ValueError):
        gen_scenario("queue", size=5, seed=7, inject_duplicates=6)
    program_text, trace_text = gen_scenario("queue", size=300, seed=7, inject_duplicates=1)
    assert len(parse_trace(trace_text)) == 2 * (300 + 1)  # ungated: every push enters and is popped


def test_supply_hard_variant_matches_ledger_oracle():
    report, events = run_scenario("supply")
    tick, level = supply_ledger(events, 5)
    assert (tick, level) == (4, 3)
    assert transitions_of(report, ExprStatus.VIOLATED) == [
        (4, "e1", ExprStatus.VIOLATED, Compound("quantity", (Const("r"), Const(3))))
    ]
    assert emissions_of(report) == [
        (4, "repair", EventKind.ACTION, Compound("block", (Compound("consume", (Const("r"), Const("any"))),)))
    ]
    assert report.final_statuses["e1"] is ExprStatus.VIOLATED
    assert report.final_statuses["e1#2"] is ExprStatus.DORMANT


def test_supply_soft_variant_matches_ledger_oracle():
    report, events = run_scenario("supply", soft=True)
    tick, level = supply_ledger(events, 8)
    assert (tick, level) == (3, 6)
    assert transitions_of(report, ExprStatus.VIOLATED) == [
        (3, "e1", ExprStatus.VIOLATED, Compound("quantity", (Const("r"), Const(6))))
    ]
    assert emissions_of(report) == [
        (
            3,
            "repair",
            EventKind.ACTION,
            Compound(
                "allow",
                (
                    Compound("consume", (Const("r"), Const("any"))),
                    Compound("lt", (Const("any"), Const(3))),
                ),
            ),
        )
    ]


def test_battery_normal_matches_oracle():
    report, events = run_scenario("battery", variant="normal")
    checks = list(range(0, 361, 30))
    levels = battery_levels(events, {"move": 6, "clean_rubbish": 8}, checks)
    assert all(v > 20 for v in levels.values())
    assert report.violations == 0 and report.broken == 0
    assert report.final_statuses == {"e1": ExprStatus.FULFILLED}
    fulfilled = transitions_of(report, ExprStatus.FULFILLED)
    assert fulfilled[0][0] == 360  # settled exactly at the six-hour bound


def test_battery_fault_matches_oracle():
    report, events = run_scenario("battery", variant="fault")
    checks = list(range(0, 361, 30))
    levels = battery_levels(events, {"move": 12, "clean_rubbish": 14}, checks)
    expected_tick = next(t for t in checks if levels[t] <= 20)
    assert expected_tick == 210
    violated = transitions_of(report, ExprStatus.VIOLATED)
    assert violated == [
        (210, "e1", ExprStatus.VIOLATED, Compound("charge_level", (Const(levels[210]),)))
    ]
    assert emissions_of(report) == [
        (210, "repair", EventKind.ACTION, Const("stop_robot_operation")),
        (210, "eta1", EventKind.ACTION, Const("alert_user_possible_fault")),
    ]


def test_battery_extensive_matches_oracle():
    report, _ = run_scenario("battery", variant="extensive")
    broken = transitions_of(report, ExprStatus.BROKEN)
    assert broken == [(100, "e1", ExprStatus.BROKEN, Const("dry_water"))]
    assert emissions_of(report) == [
        (100, "eta2", EventKind.GOAL, Const("recharge_battery"))
    ]
    assert report.violations == 0 and report.broken == 1


def test_temperature_matches_oracle():
    report, events = run_scenario("temperature", dips=2)
    # straight-line: out-of-band readings at due ticks are the violations
    readings = {e.timestamp: e.payload.args[0].value for e in events}
    expected = [t for t in range(480, 1021, 10) if not 19 <= readings[t] <= 21]
    assert expected == [600, 610]
    violated = transitions_of(report, ExprStatus.VIOLATED)
    assert [t for t, *_ in violated] == expected
    assert emissions_of(report) == [
        (600, "reactive", EventKind.ACTION, Compound("modify_temperature", (Const("solar"),))),
        (610, "reactive", EventKind.ACTION, Compound("modify_temperature", (Const("solar"),))),
    ]
    # the last re-armed instance survives to the end of office hours
    last = sorted(report.final_statuses)[-1]
    assert report.final_statuses[last] is ExprStatus.FULFILLED


def test_ambulance_matches_oracle():
    report, _ = run_scenario("ambulance")
    assert report.violations == 0 and report.broken == 0
    # one preventive firing per breaking hit, minimum travel time wins
    assert emissions_of(report) == [
        (3, "eta3", EventKind.ACTION, Compound("alternative_transportation", (Const("elicopter"),))),
        (4, "eta3", EventKind.ACTION, Compound("alternative_transportation", (Const("elicopter"),))),
        (5, "eta3", EventKind.ACTION, Compound("alternative_transportation", (Const("elicopter"),))),
    ]
    assert report.final_statuses == {"e1": ExprStatus.FULFILLED_SO_FAR}


def _ethics_expected(context, role, children):
    """Manual rule application over the scenario matrix."""
    out = []
    permitted = ethics_allowed(context, role)
    for action in ETHICS_ATTEMPTS:
        if children and context == "video_game" and action == "shoot":
            out.append(GateDecision.BLOCKED_BY_SOLVE_NOT)
        elif action in permitted:
            out.append(GateDecision.CONFIRMED)
        else:
            out.append(GateDecision.BLOCKED_BY_SOLVE_FAIL)
    return out


@pytest.mark.parametrize(
    "context,role,children",
    [
        ("video_game", "player", False),
        ("video_game", "player", True),
        ("role_game", "player", False),
        ("reality", "citizen", False),
        ("reality", "police", False),
    ],
)
def test_ethics_gate_matches_manual_rule_application(context, role, children):
    report, _ = run_scenario("ethics", context=context, role=role, children=children)
    got = [g.decision for g in report.gate_log]
    assert got == _ethics_expected(context, role, children)
