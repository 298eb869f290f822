"""Independent oracles the test suite checks the engine against.

Everything here is deliberately written on a different plan from the
production code: brute-force enumeration instead of backtracking search,
whole-trace quantifiers instead of verdict machines, recursive
segmentation instead of a state-set matcher, straight-line ledgers
instead of the event loop.  Expected values in the tests are computed by
these oracles, never copied from the implementation under test.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ailtl.events import Event, EventKind, PAST_LIKE
from ailtl.kb import Comparison, FactBase, Literal
from ailtl.patterns import (
    Complete,
    MatchResult,
    Mismatch,
    NoEvents,
    PatternSeq,
    Prefix,
    Quant,
)
from ailtl.terms import Binding, Compound, Const, Term, match, subst, variables


# -- conjunctive queries by brute force ------------------------------------


def store_constants(kb: FactBase) -> List[Term]:
    seen: List[Term] = []

    def walk(t: Term) -> None:
        if isinstance(t, Const) and t not in seen:
            seen.append(t)
        elif isinstance(t, Compound):
            for a in t.args:
                walk(a)

    for fact in kb.facts():
        walk(fact)
    return seen


def brute_force_query(kb: FactBase, conj: Sequence[Literal], seed: Optional[Binding] = None) -> Set[Tuple]:
    """All solutions by enumerating ground substitutions over store constants."""
    names: List[str] = []
    for lit in conj:
        body = lit.body
        inner = (body.lhs, body.rhs) if isinstance(body, Comparison) else (body,)
        for t in inner:
            for v in variables(t):
                if v not in names and v not in (seed or {}):
                    names.append(v)
    constants = store_constants(kb) or [Const(0)]
    solutions: Set[Tuple] = set()
    for combo in itertools.product(constants, repeat=len(names)):
        binding: Binding = dict(seed or {})
        binding.update(dict(zip(names, combo)))
        if all(_literal_holds(kb, lit, binding) for lit in conj):
            solutions.add(tuple(sorted((n, binding[n]) for n in names)))
    return solutions


def _literal_holds(kb: FactBase, lit: Literal, binding: Binding) -> bool:
    body = lit.body
    if isinstance(body, Comparison):
        lhs, rhs = subst(body.lhs, binding), subst(body.rhs, binding)
        ok = _compare(body.op, lhs, rhs)
    else:
        ground = subst(body, binding)
        ok = any(match(ground, f, {}) is not None for f in kb.facts())
    return not ok if lit.negated else ok


def _compare(op: str, lhs: Term, rhs: Term) -> bool:
    if op == "=":
        return lhs == rhs
    if op == "\\=":
        return lhs != rhs
    if not (isinstance(lhs, Const) and isinstance(rhs, Const)):
        return False
    if not (isinstance(lhs.value, int) and isinstance(rhs.value, int)):
        return False
    return {"<": lhs.value < rhs.value, "<=": lhs.value <= rhs.value, ">": lhs.value > rhs.value, ">=": lhs.value >= rhs.value}[op]


def solutions_as_set(solutions: Iterable[Binding], names: Sequence[str]) -> Set[Tuple]:
    return {tuple(sorted((n, s[n]) for n in names if n in s)) for s in solutions}


# -- interval operators by direct quantification ---------------------------


def quantifier_verdict(op: str, m: int, n: int, valuations: Sequence[bool]) -> bool:
    """Final truth of OP(m, n) over an explicit valuation sequence."""
    window = valuations[m : n + 1]
    if op == "ALWAYS":
        return all(window)
    if op == "EVENTUALLY":
        return any(window)
    if op == "NEVER":
        return not any(window)
    raise ValueError(op)


# -- pattern matching by recursive segmentation ----------------------------

_CONFLICT = ("conflict",)


def _elem_hits(elem, event: Event, exports: Binding, kb: Optional[FactBase]) -> Optional[Binding]:
    if elem.kind is not None:
        kinds = PAST_LIKE if elem.kind is EventKind.PAST else (elem.kind,)
        if event.kind not in kinds:
            return None
    hit = match(elem.template, event.payload, exports)
    if hit is not None:
        return hit
    if kb is None or not isinstance(elem.template, Compound) or len(elem.template.args) != 1:
        return None
    hit = match(elem.template.args[0], event.payload, exports)
    if hit is None:
        return None
    probe = Literal(Compound(elem.template.functor, (event.payload,)))
    if next(kb.query((probe,)), None) is None:
        return None
    return hit


def _run_ok(quant: Quant, count: int) -> bool:
    return count == 1 if quant is Quant.ONE else (count >= 1 if quant is Quant.PLUS else True)


def _run_exports(elem, events: Sequence[Event], exports: Binding, kb: Optional[FactBase]) -> Optional[Binding]:
    """Exports after one run, with disagreeing in-run variables demoted."""
    run_vals: Dict[str, object] = {}
    for e in events:
        hit = _elem_hits(elem, e, exports, kb)
        if hit is None:
            return None
        for name, value in hit.items():
            if name in exports:
                continue
            seen = run_vals.get(name)
            if seen is None:
                run_vals[name] = value
            elif seen != value:
                run_vals[name] = _CONFLICT
    out = dict(exports)
    for name, value in run_vals.items():
        if value is not _CONFLICT:
            out[name] = value
    return out


def _parses(pattern: PatternSeq, events: Sequence[Event], kb: Optional[FactBase], seed: Binding):
    """All (closed_elements, complete, exports) parse outcomes of the events."""
    elems = pattern.elems

    def rec(i: int, j: int, exports: Binding):
        if i == len(events):
            # stop here: element j is in progress with zero events
            closed = j
            complete = all(e.quant is Quant.STAR for e in elems[j:])
            yield closed, complete, exports
            return
        if j == len(elems):
            return  # events left over but no elements to absorb them
        max_len = 1 if elems[j].quant is Quant.ONE else len(events) - i
        min_len = 0 if elems[j].quant is Quant.STAR else 1
        for length in range(min_len, max_len + 1):
            run = events[i : i + length]
            new_exports = _run_exports(elems[j], run, exports, kb)
            if new_exports is None:
                continue
            if length > 0 and i + length == len(events):
                # the run may stay open at the end of the log
                closed = j + 1 if _run_ok(elems[j].quant, length) else j
                complete = _run_ok(elems[j].quant, length) and all(
                    e.quant is Quant.STAR for e in elems[j + 1 :]
                )
                yield closed, complete, new_exports
            if _run_ok(elems[j].quant, length):
                yield from rec(i + length, j + 1, new_exports)

    yield from rec(0, 0, dict(seed))


def oracle_match_prefix(
    pattern: PatternSeq,
    events: Sequence[Event],
    since: int,
    kb: Optional[FactBase] = None,
    seed: Optional[Binding] = None,
) -> MatchResult:
    """Reference implementation of prefix matching by full enumeration."""
    if not pattern.elems:
        return Complete(dict(seed or {}))
    relevant = [
        e
        for e in events
        if e.timestamp >= since and any(_elem_hits(el, e, {}, kb) is not None for el in pattern.elems)
    ]
    if not relevant:
        return NoEvents()
    alive_upto = 0
    for i in range(len(relevant), -1, -1):
        if any(True for _ in _parses(pattern, relevant[:i], kb, dict(seed or {}))):
            alive_upto = i
            break
    if alive_upto < len(relevant):
        return Mismatch(alive_upto)
    outcomes = list(_parses(pattern, relevant, kb, dict(seed or {})))
    for closed, complete, exports in outcomes:
        if complete:
            return Complete(exports)
    best = max(outcomes, key=lambda o: o[0])
    return Prefix(best[0], best[2])


# -- queue trace oracle ------------------------------------------------------


def supply_ledger(events: Sequence[Event], threshold: int) -> Tuple[Optional[int], int]:
    """Quantity ledger straight off the trace: first tick it dips below."""
    level = 0
    for e in events:
        f = e.payload.functor if isinstance(e.payload, Compound) else None
        if f == "supply":
            level += e.payload.args[1].value
        elif f == "consume":
            level -= e.payload.args[1].value
        if f in ("supply", "consume") and level < threshold:
            return e.timestamp, level
    return None, level


def battery_levels(events: Sequence[Event], drains: Dict[str, int], checks: Sequence[int]) -> Dict[int, int]:
    """Charge at each check tick by direct arithmetic over the trace."""
    spent: Dict[int, int] = {}
    for e in events:
        name = e.payload.value if isinstance(e.payload, Const) else e.payload.functor
        if e.kind is EventKind.ACTION:
            spent[e.timestamp] = spent.get(e.timestamp, 0) + drains.get(name, 0)
    return {check: 100 - sum(v for t, v in spent.items() if t <= check) for check in checks}


def queue_trace_stats(events: Sequence[Event], gated: bool = False) -> Dict[str, object]:
    """Set-based duplicate count and FIFO conformance, straight off the trace.

    With ``gated`` a duplicate push attempt never enters the queue (the
    gate blocks it), so it gets no entry index.
    """
    queue: List[Tuple[str, Term]] = []
    in_queue: Set[Term] = set()
    duplicates = 0
    duplicate_values: List[Term] = []
    ordinal = 0
    pops_fifo = True
    pop_order: List[str] = []
    for e in events:
        func = e.payload.functor if isinstance(e.payload, Compound) else None
        if func == "push":
            value = e.payload.args[0]
            if value in in_queue:
                duplicates += 1
                duplicate_values.append(value)
                if gated:
                    continue
            ordinal += 1
            queue.append((f"e{ordinal}", value))
            in_queue.add(value)
        elif func == "pop":
            index = str(e.payload.args[0].value)
            pop_order.append(index)
            if not queue or queue[0][0] != index:
                pops_fifo = False
            queue = [(i, v) for i, v in queue if i != index]
    return {
        "duplicates": duplicates,
        "duplicate_values": duplicate_values,
        "fifo": pops_fifo,
        "pops": pop_order,
    }


# -- derived-state ledgers ------------------------------------------------------


def _remembered_calls(events: Sequence[Event]) -> List[Tuple[str, Tuple[Term, ...]]]:
    out = []
    for e in events:
        if e.kind not in PAST_LIKE:
            continue
        if isinstance(e.payload, Compound):
            out.append((e.payload.functor, e.payload.args))
        else:
            out.append((str(e.payload.value), ()))
    return out


def queue_contents(events: Sequence[Event]) -> List[Tuple[Term, Term]]:
    """``(entry, value)`` rows left in the queue, rebuilt by list surgery."""
    rows: List[Tuple[Term, Term]] = []
    pushes = 0
    for name, args in _remembered_calls(events):
        if name == "push" and len(args) == 2:
            pushes += 1
            rows.append((Const(f"e{pushes}"), args[0]))
        elif name == "pop" and len(args) == 2 and isinstance(args[0], Const):
            rows = [row for row in rows if str(row[0].value) != str(args[0].value)]
    return rows


def stock_totals(events: Sequence[Event], initial: Sequence[Tuple[Term, int]]) -> List[Tuple[Term, int]]:
    """``(resource, level)`` rows: initial stock, then supplies minus consumes."""
    totals: List[List] = []
    for resource, amount in list(initial) + [
        (args[0], args[1].value if name == "supply" else -args[1].value)
        for name, args in _remembered_calls(events)
        if name in ("supply", "consume") and len(args) == 2
        and isinstance(args[1], Const) and isinstance(args[1].value, int)
    ]:
        for row in totals:
            if row[0] == resource:
                row[1] += amount
                break
        else:
            totals.append([resource, amount])
    return [(resource, level) for resource, level in totals]


def battery_charge(events: Sequence[Event], drains: Dict[str, int], full: int = 100) -> int:
    """Charge after the events: full at the last recharge, minus later drains."""
    recharges = [
        i for i, e in enumerate(events)
        if e.kind in PAST_LIKE and e.payload == Const("recharge_battery")
    ]
    after = events[recharges[-1] + 1 :] if recharges else events
    spent = 0
    for e in after:
        if e.kind is EventKind.ACTION:
            name = e.payload.functor if isinstance(e.payload, Compound) else str(e.payload.value)
            spent += drains.get(name, 0)
    return full - spent
