"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Every expected value is produced by an independent oracle (quantifier
sweeps, set-based ledgers, manual rule application, full-enumeration
matchers) -- never by the machinery under test.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

import pytest

from ailtl.dsl import ParseError, parse_program, parse_trace, render
from ailtl.events import Event, EventKind, History
from ailtl.evolutionary import EvolutionaryExpr, ExprRuntime, ExprStatus
from ailtl.kb import FactBase, Literal
from ailtl.metagate import GateDecision, MetaRule, Polarity, gate
from ailtl.patterns import PatternElem, PatternSeq, Quant
from ailtl.runtime import EngineConfig, run, summarize_metrics
from ailtl.scenarios import bench_scenario, gen_scenario
from ailtl.temporal import (
    ContextualFormula,
    CoreVerdict,
    IntervalOp,
    ReactionAtom,
    TemporalOp,
    step_core,
)
from ailtl.terms import Compound, Const, Var, atom

from genprog import random_program
from oracles import (
    acceptable,
    battery_levels,
    operative_atom_set,
    quantifier_verdict,
    queue_trace_stats,
    reference_gate,
    supply_ledger,
)


def report_pass(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {text}")


# -- 1. operator-oracle equivalence ----------------------------------------


def test_criterion_1_operator_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    for kind in TemporalOp:
        for bits in range(1024):
            seq = [(bits >> i) & 1 == 1 for i in range(10)]
            for m in range(10):
                for n in range(m, 10):
                    op = IntervalOp(kind, m, n, 1)
                    # stepped from m while open; the step at n settles it
                    for t in range(m, n + 1):
                        verdict = step_core(op, seq[t], t)
                        if verdict is not CoreVerdict.HOLDS_SO_FAR:
                            break
                    got = verdict is CoreVerdict.HOLDS_FINAL
                    expected = quantifier_verdict(kind.value, m, n, seq)
                    assert got == expected, (kind, m, n, bits)
                    cases += 1
    elapsed = time.perf_counter() - started
    assert cases == 3 * 55 * 1024
    assert elapsed < 10.0, f"exhaustive sweep took {elapsed:.1f}s"
    report_pass(1, f"{cases} operator/interval/valuation cases match the quantifier oracle in {elapsed:.1f}s")


# -- 2. frequency subsampling ------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_criterion_2_frequency_subsampling(k):
    due = [t for t in range(100) if t % k == 0]

    # evaluated ticks are exactly the due ticks
    ghost = parse_program(f"expr:\nNEVER(0, 99; {k}) ghost.\n")
    trace = "\n".join(f"{t} N tickmark({t})" for t in range(100))
    report = run(ghost, parse_trace(trace))
    assert report.eval_ticks["e1"] == due

    # verdicts equal the oracle restricted to the subsampled sequence
    rng = random.Random(1000 + k)
    for _ in range(20):
        vals = [rng.random() < 0.8 for _ in range(100)]
        program = parse_program(f"expr:\nALWAYS(0, 99; {k}) good_N(yes).\n")
        lines = [f"{t} N good({'yes' if vals[t] else 'no'})" for t in range(100)]
        rep = run(program, parse_trace("\n".join(lines)), EngineConfig(rearm=False))
        sub = [vals[t] for t in due]
        expected_ok = all(sub)
        violated = [t.tick for t in rep.transitions if t.new is ExprStatus.VIOLATED]
        if expected_ok:
            assert violated == [] and rep.final_statuses["e1"] is ExprStatus.FULFILLED
        else:
            first_bad = next(t for t in due if not vals[t])
            assert violated == [first_bad]
            assert rep.eval_ticks["e1"] == [t for t in due if t <= first_bad]
    report_pass(2, f"k={k}: evaluated ticks = multiples, verdicts match the subsampled oracle")


# -- 3. queue reproduction ----------------------------------------------------


def test_criterion_3_queue_reproduction():
    started = time.perf_counter()
    program_text, trace_text = gen_scenario("queue", size=100, seed=7)
    events = parse_trace(trace_text)
    pushes = [e for e in events if isinstance(e.payload, Compound) and e.payload.functor == "push"]
    assert len(pushes) == 100
    assert all(1 <= p.payload.args[0].value <= 300 for p in pushes)
    report = run(parse_program(program_text), events)
    gated_stats = queue_trace_stats(events, gated=True)
    assert report.violations == 0
    assert report.blocked_actions == gated_stats["duplicates"] > 0
    assert gated_stats["fifo"]

    for inject in (1, 2, 5):
        program_text, trace_text = gen_scenario("queue", size=100, seed=7, inject_duplicates=inject)
        events = parse_trace(trace_text)
        stats = queue_trace_stats(events)
        rep = run(parse_program(program_text), events)
        assert stats["fifo"]
        assert stats["duplicates"] == inject
        assert rep.violations == inject, f"inject={inject}"
        causes = [t.cause.args[1] for t in rep.transitions if t.new is ExprStatus.VIOLATED]
        assert set(causes) <= set(stats["duplicate_values"])
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"queue runs took {elapsed:.2f}s"
    report_pass(3, f"gated run clean, injected duplicates violate one-for-one, in {elapsed:.2f}s")


# -- 4. evolutionary status machine -------------------------------------------


def _ordering_expr():
    return EvolutionaryExpr(
        core=ContextualFormula(IntervalOp(TemporalOp.NEVER), (Literal(Compound("bad", (Const("on"),))),)),
        future=PatternSeq((PatternElem(atom("ping"), EventKind.ACTION, Quant.PLUS),)),
        breaking=PatternSeq((PatternElem(atom("boom"), EventKind.EXTERNAL),)),
        repair=(ReactionAtom(Const("fixit")),),
        eta1=ReactionAtom(Const("warn_violated")),
        eta2=ReactionAtom(Const("warn_broken")),
    )


def test_criterion_4_status_machine_orderings():
    checked = 0
    for bad_t, boom_t, ping_t in itertools.product((1, 2, 3), repeat=3):
        kb = FactBase()
        h = History()
        rt = ExprRuntime(_ordering_expr())
        per_tick = {}
        per_tick.setdefault(boom_t, []).append(Event(EventKind.EXTERNAL, Const("boom"), boom_t))
        per_tick.setdefault(ping_t, []).append(Event(EventKind.ACTION, Const("ping"), ping_t))
        effects = []
        for tick in (1, 2, 3):
            for e in sorted(per_tick.get(tick, ()), key=lambda e: e.timestamp):
                h.record(e)
            if tick == bad_t:
                kb.assert_fact(atom("bad", Const("on")))
            out = rt.step(h, kb, tick)
            effects.extend(out.effects)
        # the definition: a breaking event at/before the falsifying state
        # discharges the obligation; otherwise the expression is violated
        expected = ExprStatus.BROKEN if boom_t <= bad_t else ExprStatus.VIOLATED
        assert rt.status is expected, (bad_t, boom_t, ping_t)
        channels = [e.channel for e in effects]
        if expected is ExprStatus.BROKEN:
            assert channels == ["eta2"], channels
        else:
            assert channels == ["repair", "eta1"], channels
        checked += 1
    assert checked == 27
    report_pass(4, "all 27 orderings (incl. ties) match the definition; eta1 iff violated, eta2 iff broken")


# -- 5. gate semantics ----------------------------------------------------------


def _random_gate_program(rng: random.Random):
    consts = [Const(c) for c in "abc"]
    kb = FactBase()
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.5:
            kb.assert_fact(Compound("p", (rng.choice(consts),)))
        else:
            kb.assert_fact(Compound("q", (rng.choice(consts), rng.choice(consts))))
    rules = []
    for _ in range(rng.randint(0, 5)):
        polarity = rng.choice(list(Polarity))
        functor = rng.choice(["act", "launch"])
        head_arg = Var("A") if rng.random() < 0.7 else rng.choice(consts)
        body = []
        for _ in range(rng.randint(0, 2)):
            arg = head_arg if isinstance(head_arg, Var) and rng.random() < 0.7 else rng.choice(consts)
            if rng.random() < 0.6:
                body.append(Literal(Compound("p", (arg,)), negated=rng.random() < 0.25))
            else:
                body.append(Literal(Compound("q", (arg, rng.choice(consts)))))
        rules.append(MetaRule(polarity, Compound(functor, (head_arg,)), tuple(body)))
    goals = [Compound(f, (c,)) for f in ("act", "launch") for c in consts]
    return kb, rules, goals


def test_criterion_5_gate_semantics():
    started = time.perf_counter()
    rng = random.Random(20250801)
    dominance_checked = 0
    decisions = set()
    negated = constant_heads = 0
    for i in range(1000):
        kb, rules, goals = _random_gate_program(rng)
        negated += any(lit.negated for r in rules for lit in r.body)
        constant_heads += any(isinstance(r.head.args[0], Const) for r in rules)
        realized = operative_atom_set(goals, rules, kb)
        assert acceptable(realized), f"program {i} realized a non-acceptable set"
        for goal in goals:
            decision = gate(goal, rules, kb)
            assert decision is reference_gate(goal, rules, kb), (i, goal)
            decisions.add(decision)
            if decision is GateDecision.BLOCKED_BY_SOLVE_NOT:
                dominance_checked += 1
                assert goal not in realized
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"gate sweep took {elapsed:.1f}s"
    # the sweep reaches every decision, negated body literals and constant heads
    assert decisions == set(GateDecision) and negated and constant_heads
    report_pass(
        5,
        f"1000 random programs realize acceptable sets and agree with the reference gate"
        f" ({dominance_checked} solve_not blocks) in {elapsed:.1f}s",
    )


# -- 6. per-cycle cost model -----------------------------------------------------


def test_criterion_6_cost_model_linearity():
    totals = {}
    for f in (10, 100, 1000):
        program_text, trace_text = bench_scenario(f, ticks=100)
        program = parse_program(program_text)
        events = parse_trace(trace_text)
        best = None
        for _ in range(3):
            gc.collect()
            gc.disable()
            try:
                report = run(program, list(events), EngineConfig(metrics=True))
            finally:
                gc.enable()
            total = summarize_metrics(report.metrics)["total_ns"]
            best = total if best is None or total < best else best
        totals[f] = best
    ratio = totals[1000] / totals[10]
    assert 50 <= ratio <= 200, f"f=10 -> f=1000 scaled by {ratio:.1f}, outside [50, 200]"
    mid_ratio = totals[100] / totals[10]
    assert 5 <= mid_ratio <= 20, f"f=10 -> f=100 scaled by {mid_ratio:.1f}, outside [5, 20]"
    report_pass(
        6,
        "per-cycle totals scale linearly in f: "
        + ", ".join(f"f={f}: {totals[f] / 1e6:.2f}ms" for f in totals)
        + f"; 10->1000 ratio {ratio:.0f}",
    )


# -- 7. scenario golden outcomes ---------------------------------------------------


def test_criterion_7_scenario_golden_outcomes():
    # battery: broken + recharge goal under extensive usage
    program, trace = gen_scenario("battery", variant="extensive")
    rep = run(parse_program(program), parse_trace(trace))
    assert [(e.tick, e.channel, e.kind, e.payload) for e in rep.emissions] == [
        (100, "eta2", EventKind.GOAL, Const("recharge_battery"))
    ]
    assert rep.broken == 1 and rep.violations == 0

    # battery: violated + user alert under normal usage with low charge
    program, trace = gen_scenario("battery", variant="fault")
    events = parse_trace(trace)
    rep = run(parse_program(program), events)
    levels = battery_levels(events, {"move": 12, "clean_rubbish": 14}, list(range(0, 361, 30)))
    expected_tick = next(t for t in sorted(levels) if levels[t] <= 20)
    assert [(e.tick, e.channel, e.payload) for e in rep.emissions] == [
        (expected_tick, "repair", Const("stop_robot_operation")),
        (expected_tick, "eta1", Const("alert_user_possible_fault")),
    ]
    assert rep.violations == 1

    # supply/consume: violated + block, and the soft-limit variant
    for soft, threshold in ((False, 5), (True, 8)):
        program, trace = gen_scenario("supply", soft=soft)
        events = parse_trace(trace)
        rep = run(parse_program(program), events)
        tick, level = supply_ledger(events, threshold)
        violated = [t for t in rep.transitions if t.new is ExprStatus.VIOLATED]
        assert [(v.tick, v.cause) for v in violated] == [
            (tick, Compound("quantity", (Const("r"), Const(level))))
        ]
        assert rep.emissions[0].payload.functor == ("allow" if soft else "block")

    # temperature: each repair selects the minimum-cost source
    program, trace = gen_scenario("temperature", dips=2)
    rep = run(parse_program(program), parse_trace(trace))
    assert [e.payload for e in rep.emissions] == [
        Compound("modify_temperature", (Const("solar"),)),
        Compound("modify_temperature", (Const("solar"),)),
    ]
    assert [e.tick for e in rep.emissions] == [600, 610]

    # ambulance: the preventive countermeasure picks the fastest transport
    program, trace = gen_scenario("ambulance")
    rep = run(parse_program(program), parse_trace(trace))
    assert [(e.channel, e.payload) for e in rep.emissions] == [
        ("eta3", Compound("alternative_transportation", (Const("elicopter"),)))
    ] * 3
    assert rep.violations == 0 and rep.broken == 0
    report_pass(7, "battery, supply, temperature and ambulance reports match their straight-line oracles")


# -- 8. DSL round trip ----------------------------------------------------------


def _mutations(text: str):
    yield text.replace(".", "", 1), "dot removed"
    yield text.replace("(", "", 1), "paren removed"
    yield text + "dangling\n", "item outside a section"
    yield text + "expr:\nALWAYS(5, 3) p.\n", "inverted interval"
    yield "facts:\nbro?ken.\n", "stray character"


def test_criterion_8_dsl_round_trip():
    rng = random.Random(777)
    mutated = 0
    for i in range(500):
        program = random_program(rng)
        text = render(program)
        again = parse_program(text)
        assert again == program, f"program {i} failed the round trip"
        if i % 25 == 0 and "(" in text and "." in text:
            for bad, _label in _mutations(text):
                try:
                    parse_program(bad)
                except ParseError as err:
                    lines = bad.splitlines() or [""]
                    assert 1 <= err.line <= len(lines) + 1
                    assert err.col >= 1
                    mutated += 1
                else:
                    raise AssertionError(f"mutation {_label!r} parsed cleanly")
    assert mutated >= 80
    report_pass(8, f"500 programs round-tripped; {mutated} malformed variants all gave positioned errors")
