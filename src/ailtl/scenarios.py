"""Deterministic scenario generators: program + trace pairs.

Each generator is a pure function of its parameters and seed, built on a
documented linear-congruential generator (Numerical Recipes parameters:
``x' = 1664525*x + 1013904223 mod 2^32``), so regeneration is
byte-identical across runs and platforms.

Scenarios:

* ``queue``       -- a FIFO service queue; pushes draw items uniformly
  from [1, 300]; the no-duplicates guard is enforced by a solve_not gate
  rule (or deliberately left off, with duplicates injected, to exercise
  violations).
* ``supply``      -- stock kept above a threshold while supplies and
  consumes arrive; hard and soft-limit variants.
* ``battery``     -- charge must stay up for six hours after a recharge
  despite normal usage; extensive usage breaks the obligation instead.
* ``temperature`` -- office-hours temperature band with the cheapest
  energy source chosen on each repair.
* ``ambulance``   -- rescue must not be late; a traffic jam sequence is
  countered preventively with the fastest alternative transport.
* ``ethics``      -- the context/role action gate, no temporal rules.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Lcg:
    """Seeded linear-congruential generator; documented, platform-independent."""

    MOD = 2**32
    MUL = 1664525
    INC = 1013904223

    def __init__(self, seed: int) -> None:
        self.state = seed % self.MOD

    def next(self) -> int:
        self.state = (self.MUL * self.state + self.INC) % self.MOD
        return self.state

    def uniform(self, lo: int, hi: int) -> int:
        """Uniform draw from [lo, hi] (inclusive)."""
        return lo + self.next() % (hi - lo + 1)


QUEUE_ITEMS = 300  # queue items are drawn from [1, QUEUE_ITEMS]


def queue_scenario(size: int = 100, seed: int = 7, inject_duplicates: int = 0) -> Tuple[str, str]:
    """Pushes then FIFO pops on one queue, items uniform in [1, 300].

    With no injection the gate rule is included and duplicate push
    attempts are blocked, so the no-duplicates constraint never violates.
    With ``inject_duplicates`` > 0 the gate is left out, base items are
    made distinct, and that many duplicate pushes are appended as the
    final pushes: the run then violates exactly once per duplicate.
    Distinct items need ``size`` <= 300, and each duplicate repeats one
    of them, so ``inject_duplicates`` <= ``size``; otherwise ValueError.
    """
    rng = Lcg(seed)
    gated = inject_duplicates == 0
    if not gated and size > QUEUE_ITEMS:
        raise ValueError(f"an injected queue draws {size} distinct items from only {QUEUE_ITEMS}")
    if inject_duplicates > size:
        raise ValueError(f"cannot inject {inject_duplicates} duplicates of {size} items")
    values: List[int] = []
    if gated:
        values = [rng.uniform(1, QUEUE_ITEMS) for _ in range(size)]
    else:
        seen = set()
        while len(values) < size:
            v = rng.uniform(1, QUEUE_ITEMS)
            if v not in seen:
                seen.add(v)
                values.append(v)
        values.extend(values[i] for i in range(inject_duplicates))

    # simulate the gate to know which pushes enter and in which order
    queue: List[Tuple[int, int]] = []  # (entry ordinal, value)
    in_queue = set()
    ordinal = 0
    for v in values:
        if gated and v in in_queue:
            continue  # the engine's gate will block this attempt
        ordinal += 1
        queue.append((ordinal, v))
        in_queue.add(v)

    trace: List[str] = ["# queue scenario"]
    tick = 0
    for v in values:
        tick += 1
        trace.append(f"{tick} A push({v}, q1)")
    for ordinal, _v in queue:
        tick += 1
        trace.append(f"{tick} A pop(e{ordinal}, q1)")

    program_lines = [
        "config:",
        "derived = queue.",
    ]
    if gated:
        program_lines += [
            "meta:",
            "solve_not(push(V, Q)) :- in_queue(_e, V).",
        ]
    program_lines += [
        "expr:",
        "push_P+(Req, Q) : NEVER in_queue(E1, RX), in_queue(E2, RX), E1 \\= E2 ::: pop_A+(E, Q).",
    ]
    return "\n".join(program_lines) + "\n", "\n".join(trace) + "\n"


def supply_scenario(soft: bool = False) -> Tuple[str, str]:
    """Stock guarded above a threshold; consumption drives it below.

    Supplies push the stock of resource ``r`` to 10; three consumes then
    lower it to 3.  The hard variant (threshold 5) blocks consumption on
    violation; the soft variant (threshold 8, reached earlier) only
    restricts it to small amounts.
    """
    threshold = 8 if soft else 5
    repair = "allow(consume(r, Q), lt(Q, 3))" if soft else "block(consume(r, Q))"
    program = "\n".join(
        [
            "config:",
            "derived = stock.",
            "expr:",
            f"supply_P+(r, _s) : NEVER quantity(r, V), V < {threshold}"
            f" ::: consume_A+(r, Q) DIV {repair}.",
        ]
    )
    trace = "\n".join(
        [
            "# supply/consume scenario",
            "1 A supply(r, 10)",
            "2 A consume(r, 2)",
            "3 A consume(r, 2)",
            "4 A consume(r, 3)",
        ]
    )
    return program + "\n", trace + "\n"


BATTERY_VARIANTS = ("normal", "fault", "extensive")


def battery_scenario(variant: str = "normal") -> Tuple[str, str]:
    """Six-hour charge guarantee after a recharge (1 tick = 1 minute).

    ``normal``: routine actions, charge stays up, the expression is
    fulfilled at the end of the window.  ``fault``: the same routine
    drains far too fast (a battery defect), so the constraint is violated
    under normal usage and the user is alerted.  ``extensive``: a flooding
    emergency makes the robot dry water -- an extensive-usage action that
    breaks the obligation and raises the recharge goal instead.
    """
    if variant not in BATTERY_VARIANTS:
        raise ValueError(f"unknown battery variant {variant!r}")
    move_drain, clean_drain = (12, 14) if variant == "fault" else (6, 8)
    program = "\n".join(
        [
            "facts:",
            "battery_full(100).",
            f"drain(move, {move_drain}).",
            f"drain(clean_rubbish, {clean_drain}).",
            "drain(dry_water, 45).",
            "normal_usage_action(move).",
            "normal_usage_action(clean_rubbish).",
            "extensive_usage_action(dry_water).",
            "config:",
            "derived = battery.",
            "expr:",
            "recharge_battery_P : ALWAYS(0, 360; 30) charge_level(L), L > 20"
            " ::: normal_usage_action(Act)* :::: extensive_usage_action(Act)*"
            " DIV stop_robot_operation | alert_user_possible_fault_A || recharge_battery_G.",
        ]
    )
    trace_lines = ["# battery scenario", "0 P recharge_battery"]
    for tick in range(30, 360, 30):
        trace_lines.append(f"{tick} A move")
    trace_lines.append("360 A clean_rubbish")
    if variant == "extensive":
        # flooding emergency between the tick-90 and tick-120 moves
        trace_lines.insert(5, "100 A dry_water")
    return program + "\n", "\n".join(trace_lines) + "\n"


def temperature_scenario(dips: int = 2) -> Tuple[str, str]:
    """Office-hours band 19..21 checked every 10 minutes, 8:00 to 17:00.

    Readings sit at 20 except for ``dips`` consecutive out-of-band
    readings starting at 10:00; each due check that sees one violates and
    repairs with the cheapest energy source from the cost table.
    """
    program = "\n".join(
        [
            "rules:",
            "ALWAYS(8:00, 17:00; 10) 19 <= T, T <= 21 :: temperature_N(T)"
            " DIV modify_temperature(S), S IN {ext, gas, solar : less_expensive}.",
            "costs:",
            "less_expensive(ext, 3).",
            "less_expensive(gas, 2).",
            "less_expensive(solar, 1).",
        ]
    )
    dip_ticks = {600 + 10 * i for i in range(dips)}
    trace_lines = ["# temperature scenario"]
    for tick in range(480, 1021, 10):
        reading = 18 if tick in dip_ticks else 20
        trace_lines.append(f"{tick} N temperature({reading})")
    return program + "\n", "\n".join(trace_lines) + "\n"


def ambulance_scenario() -> Tuple[str, str]:
    """Rescue must never be late; a jam sequence triggers the preventive
    countermeasure, choosing the transport with the shortest reach time."""
    program = "\n".join(
        [
            "expr:",
            "accident_P(D) : NEVER late_rescue(D)"
            " :::: traffic_P, ambulance_sent_P, ambulance_blocked_P"
            " ||| alternative_transportation(S), S IN {elicopter, boat : faster_reach}.",
            "costs:",
            "faster_reach(elicopter, 12).",
            "faster_reach(boat, 20).",
        ]
    )
    trace = "\n".join(
        [
            "# ambulance scenario",
            "1 P accident(via_appia)",
            "3 P traffic",
            "4 P ambulance_sent",
            "5 P ambulance_blocked",
        ]
    )
    return program + "\n", trace + "\n"


ETHICS_CONTEXTS = ("video_game", "role_game", "reality")
ETHICS_ROLES = ("player", "citizen", "police")

# what is allowed-and-ethical per (context, role); shoot in reality is the
# police option for extreme cases, a plain citizen must not
_ETHICS_MATRIX: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("video_game", "player"): ("shoot", "beat", "kill_enemy", "shout", "threaten"),
    ("role_game", "player"): ("shout", "threaten", "kill_enemy"),
    ("reality", "citizen"): ("shout", "call_police", "defend"),
    ("reality", "police"): ("shout", "threaten", "arrest", "shoot"),
}

ETHICS_ATTEMPTS = ("shoot", "beat", "shout", "call_police", "arrest", "threaten")


def ethics_allowed(context: str, role: str) -> Tuple[str, ...]:
    return _ETHICS_MATRIX.get((context, role), ())


def ethics_scenario(context: str = "video_game", role: str = "player", children: bool = False) -> Tuple[str, str]:
    """The reactive-behaviour gate: context/role matrix plus exceptions.

    Attempted actions are routed through solve/solve_not; with small
    children watching, shooting is unethical even inside a video game.
    """
    if context not in ETHICS_CONTEXTS:
        raise ValueError(f"unknown context {context!r}")
    if role not in ETHICS_ROLES:
        raise ValueError(f"unknown role {role!r}")
    lines = ["facts:", f"present_context({context}).", f"agent_role({role})."]
    for (c, r), actions in sorted(_ETHICS_MATRIX.items()):
        for action in actions:
            lines.append(f"allowed({c}, {r}, {action}).")
            lines.append(f"ethical({c}, {r}, {action}).")
    if children:
        lines.append("kids_watching(yes).")
        lines.append("ethical_exception(video_game, shoot).")
    lines += [
        "meta:",
        "solve(execute_action(Act)) :- present_context(C), agent_role(R),"
        " allowed(C, R, Act), ethical(C, R, Act).",
        "solve_not(execute_action(Act)) :- present_context(C), ethical_exception(C, Act).",
    ]
    trace_lines = ["# ethics gate scenario"]
    for i, action in enumerate(ETHICS_ATTEMPTS, start=1):
        trace_lines.append(f"{i} A execute_action({action})")
    return "\n".join(lines) + "\n", "\n".join(trace_lines) + "\n"


def bench_scenario(exprs: int, ticks: int) -> Tuple[str, str]:
    """``exprs`` identical never-violated constraints over a dense trace."""
    lines = ["facts:", "watched(off).", "expr:"]
    lines.extend("NEVER watched(on)." for _ in range(exprs))
    trace = [f"{t} N tickmark({t})" for t in range(1, ticks + 1)]
    return "\n".join(lines) + "\n", "\n".join(trace) + "\n"


SCENARIOS = ("queue", "supply", "battery", "temperature", "ambulance", "ethics")


def gen_scenario(name: str, **params) -> Tuple[str, str]:
    """Dispatch to a generator; same name + parameters means identical bytes."""
    if name == "queue":
        return queue_scenario(**params)
    if name == "supply":
        return supply_scenario(**params)
    if name == "battery":
        return battery_scenario(**params)
    if name == "temperature":
        return temperature_scenario(**params)
    if name == "ambulance":
        return ambulance_scenario()
    if name == "ethics":
        return ethics_scenario(**params)
    raise ValueError(f"unknown scenario {name!r}")
