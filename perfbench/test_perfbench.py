"""Checks of the benchmark itself: deterministic inputs, faithful tracing."""

from __future__ import annotations

import pytest

import ailtl.evolutionary
import ailtl.runtime
from ailtl.events import History
from ailtl.kb import FactBase

import tracing
from harness import Prepared, mismatches, outcome, timed_run, traced_run
from workloads import WORKLOADS

# small sizes keep the suite fast; the benchmark itself uses WORKLOADS' sizes
SMALL = {"queue_gated": 30, "wide_static": 4, "agent_feedback": 40}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_byte_identical_for_a_fixed_seed(name):
    workload = WORKLOADS[name]
    assert workload.cases(11) == workload.cases(11)


@pytest.mark.parametrize("name", ["queue_gated", "agent_feedback"])
def test_generators_depend_on_the_seed(name):
    generate = WORKLOADS[name].generate
    assert generate(1, SMALL[name]).trace != generate(2, SMALL[name]).trace


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_gives_the_untraced_verdicts(name):
    prep = Prepared.parse(WORKLOADS[name].generate(5, SMALL[name]))
    originals = (ailtl.runtime.gate, History.since, FactBase.query, FactBase.register, ailtl.evolutionary.occurrences)

    _, plain = timed_run(prep)
    _, traced, tracer = traced_run(prep)

    assert outcome(traced) == outcome(plain)
    assert mismatches(plain, prep.case.expect) == []
    assert tracer.missing == []
    assert (ailtl.runtime.gate, History.since, FactBase.query, FactBase.register, ailtl.evolutionary.occurrences) == originals


def test_expectation_check_catches_a_wrong_verdict():
    prep = Prepared.parse(WORKLOADS["agent_feedback"].generate(5, SMALL["agent_feedback"]))
    _, report = timed_run(prep)
    report.emissions.pop()
    assert [m.split(":")[0] for m in mismatches(report, prep.case.expect)] == ["emitted"]


def test_layers_a_workload_bypasses_read_zero_calls():
    prep = Prepared.parse(WORKLOADS["wide_static"].generate(1, SMALL["wide_static"]))
    _, _, tracer = traced_run(prep)
    metrics = tracer.metrics()
    for metric in ("metagate.gate_calls", "profiles.evaluate_calls", "temporal.fire_reaction_calls"):
        assert metrics[metric][0] == 0
    assert metrics["temporal.eval_once_calls"][0] > 0


def test_missing_hook_reads_missing_not_zero(monkeypatch):
    hooks = tuple(
        (layer, module, "no_such_helper" if layer == "patterns.occurrences" else path, kind)
        for layer, module, path, kind in tracing.HOOKS
    )
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    prep = Prepared.parse(WORKLOADS["agent_feedback"].generate(5, SMALL["agent_feedback"]))
    _, _, tracer = traced_run(prep)
    metrics = tracer.metrics()
    assert tracer.missing == ["patterns.occurrences"]
    assert metrics["patterns.occurrences_calls"][0] is None
    assert metrics["patterns.occurrences_self_us"][0] is None
    assert metrics["kb.query_calls"][0] > 0
