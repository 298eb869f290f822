"""Seeded benchmark workloads and their independently derived expectations.

Each workload turns a seed into a short and a long input: program text,
trace text, and the verdict facts the engine must reproduce.  The
expectations come from the generator's own draws (or, for the shipped
queue scenario, from a straight-line replay of its trace text), never
from running the engine.  Only facts that the planned engine changes do
not redefine are expected: violation ticks, the blocked-action count,
the multiset of emitted payloads and ``events_seen``.  Status names and
report bytes are left out on purpose.

A generator takes the seed and a size (queue pushes, ticks).  The long
input's size is ``SCALE`` times the short one's, so that the log-log
slope of run time against events seen can be fitted between them.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from ailtl.scenarios import bench_scenario, queue_scenario

SCALE = 4


@dataclass(frozen=True)
class Expect:
    violation_ticks: Tuple[int, ...]  # sorted, one entry per violation
    blocked: int
    emitted: Tuple[Tuple[str, int], ...]  # sorted (rendered payload, count)
    events_seen: int


@dataclass(frozen=True)
class Case:
    program: str
    trace: str
    expect: Expect


def _expect(violation_ticks: List[int], blocked: int, emitted: List[str], trace_events: int) -> Expect:
    return Expect(
        violation_ticks=tuple(sorted(violation_ticks)),
        blocked=blocked,
        emitted=tuple(sorted(Counter(emitted).items())),
        events_seen=trace_events + len(emitted),
    )


def _trace_lines(trace: str) -> List[str]:
    return [line for line in trace.splitlines() if line.strip() and not line.lstrip().startswith("#")]


# -- queue_gated ---------------------------------------------------------------

_PUSH = re.compile(r"^\d+ A push\((\d+), q1\)$")
_POP = re.compile(r"^\d+ A pop\(e(\d+), q1\)$")


def queue_gated(seed: int, size: int) -> Case:
    """``scenarios.queue_scenario`` with its ``solve_not`` duplicate gate.

    The replay admits a push unless its value is in the queue, numbers
    admitted pushes ``e1, e2, ...`` and removes popped entries, as the
    gate and the ``queue`` profile are specified to; it never overlaps
    two entries of one value, so the ``NEVER`` self-join cannot fire.
    """
    program, trace = queue_scenario(size, seed)
    lines = _trace_lines(trace)
    entries: Dict[int, int] = {}
    admitted = blocked = 0
    for line in lines:
        push, pop = _PUSH.match(line), _POP.match(line)
        if push:
            value = int(push.group(1))
            if value in entries.values():
                blocked += 1
                continue
            admitted += 1
            entries[admitted] = value
        elif pop:
            del entries[int(pop.group(1))]
        else:
            raise ValueError(f"unexpected queue trace line {line!r}")
    return Case(program, trace, _expect([], blocked, [], len(lines)))


# -- wide_static ---------------------------------------------------------------

WIDE_EXPRS = 1000


def wide_static(seed: int, ticks: int) -> Case:
    """``scenarios.bench_scenario``: identical never-violated constraints.

    The scenario has no seed; every seed gives the same input.  The
    constraints are kept identical and are not deduplicated.
    """
    program, trace = bench_scenario(WIDE_EXPRS, ticks)
    return Case(program, trace, _expect([], 0, [], len(_trace_lines(trace))))


# -- agent_feedback ------------------------------------------------------------

SENSOR_FREQUENCIES = (1, 2, 1, 3)  # checking frequency k of each band rule
OPTIONS = ("heater", "fan", "vent")
BAND_WIDTH = 6
OUT_OF_BAND_EVERY = 8  # one out-of-band reading per this many due checks of a sensor
ROUTINE_ACTIONS = ("move", "clean")
HEAVY_ACTIONS = ("flush", "pump")
HEAVY_EVERY = 16  # ticks between heavy actions
ROUTINE_SHARE = 0.2
REFUSED_SHARE = 0.03


def agent_feedback(seed: int, ticks: int) -> Case:
    """Band rules that repair out-of-band readings, plus a breakable duty.

    Every sensor ``sensorI`` reads once a tick; its rule
    ``ALWAYS(0, H; k) lo <= T, T <= hi :: sensorI_N(T)`` is checked on
    ticks divisible by ``k`` and, on a violation, emits
    ``adjust(sensorI, S)`` with ``S`` the cheapest option of the sensor's
    cost table.  That action comes back through the gate, whose ``solve``
    rule lets it pass because ``usable(sensorI, S)`` is stored.  The agent
    also attempts adjustments with an unusable option, which the gate
    blocks.  A standing ``NEVER`` duty is broken by the heavy action that
    comes every ``HEAVY_EVERY`` ticks (a fact classifies it); each break
    emits the goal ``cool_down(Act)`` and the engine re-arms the duty for
    later events.

    The seed draws bands, costs, readings, which due check of each run of
    ``OUT_OF_BAND_EVERY`` reads out of band, and the actions; the counts
    of violations and heavy actions, which set the work per event, are
    fixed by the length.

    Expected: a violation on every due tick whose reading is out of band,
    one ``adjust`` per violation with the cheapest option, one
    ``cool_down`` per heavy action (at most one action per tick), and one
    blocked attempt per refused adjustment.  The last tick's readings are
    in band, so no feedback cascade runs past the trace.
    """
    rng = random.Random(seed)
    horizon = ticks + 1000
    sensors = []
    for i, k in enumerate(SENSOR_FREQUENCIES, start=1):
        lo = rng.randint(15, 25)
        costs = rng.sample(range(1, 10), len(OPTIONS))
        sensors.append((f"sensor{i}", k, lo, lo + BAND_WIDTH, costs))

    facts = ["facts:", "halted(no)."]
    facts += [f"routine_action({a})." for a in ROUTINE_ACTIONS]
    facts += [f"heavy_action({a})." for a in HEAVY_ACTIONS]
    rules = ["rules:"]
    costs_section = ["costs:"]
    for name, k, lo, hi, costs in sensors:
        facts += [f"usable({name}, {option})." for option in OPTIONS]
        rules.append(
            f"ALWAYS(0, {horizon}; {k}) {lo} <= T, T <= {hi} :: {name}_N(T)"
            f" DIV adjust({name}, S), S IN {{{', '.join(OPTIONS)} : cost_{name}}}."
        )
        costs_section += [f"cost_{name}({option}, {cost})." for option, cost in zip(OPTIONS, costs)]
    program = "\n".join(
        facts
        + ["meta:", "solve(adjust(D, S)) :- usable(D, S)."]
        + rules
        + ["expr:", "NEVER halted(yes) ::: routine_action(Act)* :::: heavy_action(Act)* || cool_down_G(Act)."]
        + costs_section
    ) + "\n"

    out_of_band = set()
    for name, k, _lo, _hi, _costs in sensors:
        due = list(range(k, ticks, k))  # the last tick always reads in band
        for block in range(0, len(due), OUT_OF_BAND_EVERY):
            out_of_band.add((name, rng.choice(due[block : block + OUT_OF_BAND_EVERY])))

    trace = ["# agent feedback workload"]
    violations: List[int] = []
    emitted: List[str] = []
    blocked = 0
    for tick in range(1, ticks + 1):
        for name, k, lo, hi, costs in sensors:
            if (name, tick) in out_of_band:
                offset = rng.randint(1, 5)
                reading = lo - offset if rng.random() < 0.5 else hi + offset
                violations.append(tick)
                emitted.append(f"adjust({name}, {OPTIONS[costs.index(min(costs))]})")
            else:
                reading = rng.randint(lo, hi)
            trace.append(f"{tick} N {name}({reading})")
        draw = rng.random()
        if tick % HEAVY_EVERY == 0:
            action = rng.choice(HEAVY_ACTIONS)
            emitted.append(f"cool_down({action})")
        elif draw < ROUTINE_SHARE:
            action = rng.choice(ROUTINE_ACTIONS)
        elif draw < ROUTINE_SHARE + REFUSED_SHARE:
            action = f"adjust({rng.choice(sensors)[0]}, drain)"
            blocked += 1
        else:
            continue
        trace.append(f"{tick} A {action}")
    return Case(program, "\n".join(trace) + "\n", _expect(violations, blocked, emitted, len(trace) - 1))


class Workload(NamedTuple):
    generate: Callable[[int, int], Case]
    short_size: int

    def cases(self, seed: int) -> Tuple[Case, Case]:
        """The short and the long input for ``seed``."""
        return self.generate(seed, self.short_size), self.generate(seed, self.short_size * SCALE)


WORKLOADS: Dict[str, Workload] = {
    "queue_gated": Workload(queue_gated, 100),
    "wide_static": Workload(wide_static, 25),
    "agent_feedback": Workload(agent_feedback, 150),
}
