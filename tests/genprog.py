"""Seeded random generator of well-formed Program values and traces for them.

Used by the DSL round-trip tests: generate a Program, render it, parse it
back, compare structurally.  The generator only builds values the
concrete syntax can express (identifiers never carry accidental kind
postfixes, preconditions only close a reaction, intervals are ordered).
``random_trace`` draws events for a program, mostly ground instances of
the program's own atoms, so that its patterns, event references and
gate heads get to match.

``random_profile_program`` and ``random_profile_trace`` draw programs over
a derived-state profile (``queue``, ``stock`` or ``battery``) whose
formulas self-join the profile predicate or compare its values, and
traces of the events that profile folds, with enough repeated values
that a ``NEVER`` over duplicates fires.  They draw from their own
sequence, so the programs of ``random_program`` stay as they were.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from ailtl.dsl import Program
from ailtl.events import Event, EventKind
from ailtl.evolutionary import EvolutionaryExpr
from ailtl.kb import Comparison, EventRef, Literal
from ailtl.metagate import MetaRule, Polarity
from ailtl.patterns import PatternElem, PatternSeq, Quant
from ailtl.temporal import Choice, ContextualFormula, IntervalOp, ReactionAtom, ReactiveRule, TemporalOp
from ailtl.terms import Compound, Const, Term, Var, Wildcard

IDENTS = ["alpha", "beta", "gamma", "delta", "omega", "sensor", "motor", "stock"]
VARS = ["X", "Y", "Z", "V", "W"]
WILDS = ["_a", "_b", "_any"]
KINDS = list(EventKind)
CMPS = ["<", "<=", ">", ">=", "=", "\\="]


def _const(rng: random.Random) -> Const:
    if rng.random() < 0.4:
        return Const(rng.randrange(0, 100))
    return Const(rng.choice(IDENTS))


def _term(rng: random.Random, depth: int = 0, ground: bool = False) -> Term:
    roll = rng.random()
    if depth < 2 and roll < 0.3:
        args = tuple(_term(rng, depth + 1, ground) for _ in range(rng.randint(1, 3)))
        return Compound(rng.choice(IDENTS), args)
    if not ground and roll < 0.55:
        return Var(rng.choice(VARS))
    if not ground and roll < 0.65:
        return Wildcard(rng.choice(WILDS))
    return _const(rng)


def _atom(rng: random.Random, ground: bool = False) -> Term:
    if rng.random() < 0.25:
        return Const(rng.choice(IDENTS))
    args = tuple(_term(rng, 1, ground) for _ in range(rng.randint(1, 3)))
    return Compound(rng.choice(IDENTS), args)


def _literal(rng: random.Random) -> Literal:
    roll = rng.random()
    negated = rng.random() < 0.2
    if roll < 0.2:
        return Literal(Comparison(rng.choice(CMPS), _term(rng, 2), _term(rng, 2)), negated)
    if roll < 0.4:
        template = _atom(rng)
        return Literal(EventRef(rng.choice(KINDS), template), negated)
    return Literal(_atom(rng), negated)


def _conj(rng: random.Random, lo: int = 1, hi: int = 3) -> Tuple[Literal, ...]:
    return tuple(_literal(rng) for _ in range(rng.randint(lo, hi)))


def _op(rng: random.Random) -> IntervalOp:
    kind = rng.choice(list(TemporalOp))
    shape = rng.randrange(5)
    if shape == 0:
        return IntervalOp(kind)
    m = rng.randrange(0, 60)
    if shape == 1:
        return IntervalOp(kind, m)
    if shape == 2:
        return IntervalOp(kind, m, m + rng.randrange(0, 60))
    if shape == 3:
        return IntervalOp(kind, m, None, rng.randrange(1, 20))
    return IntervalOp(kind, m, m + rng.randrange(0, 60), rng.randrange(1, 20))


def _pattern_elem(rng: random.Random) -> PatternElem:
    kind = rng.choice(KINDS + [None, None])
    quant = rng.choice(list(Quant))
    return PatternElem(_atom(rng), kind, quant)


def _patseq(rng: random.Random, lo: int = 1, hi: int = 2) -> PatternSeq:
    return PatternSeq(tuple(_pattern_elem(rng) for _ in range(rng.randint(lo, hi))))


def _reaction_atom(rng: random.Random, precond: bool = False) -> ReactionAtom:
    kind = rng.choice(KINDS) if rng.random() < 0.3 else EventKind.ACTION
    cond = _conj(rng, 1, 2) if precond else ()
    return ReactionAtom(_atom(rng), kind, cond)


def _reaction(rng: random.Random) -> Tuple:
    elems: List = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.3:
            options = tuple(_const(rng) for _ in range(rng.randint(2, 3)))
            elems.append(Choice(rng.choice(VARS), options, rng.choice(IDENTS)))
        else:
            elems.append(_reaction_atom(rng))
    if rng.random() < 0.3:
        # a precondition conjunction is greedy, so it may only close the list
        elems.append(_reaction_atom(rng, precond=True))
    return tuple(elems)


def _metarule(rng: random.Random) -> MetaRule:
    polarity = rng.choice(list(Polarity))
    head = Compound(rng.choice(["act", "launch"]), tuple(_term(rng, 1) for _ in range(rng.randint(1, 2))))
    body = _conj(rng, 0, 2)
    return MetaRule(polarity, head, body)


def _reactive(rng: random.Random) -> ReactiveRule:
    chi = _conj(rng, 1, 2) if rng.random() < 0.5 else ()
    return ReactiveRule(ContextualFormula(_op(rng), _conj(rng), chi), _reaction(rng))


def _evolutionary(rng: random.Random) -> EvolutionaryExpr:
    chi = _conj(rng, 1, 2) if rng.random() < 0.4 else ()
    return EvolutionaryExpr(
        core=ContextualFormula(_op(rng), _conj(rng), chi),
        pre=_patseq(rng) if rng.random() < 0.7 else PatternSeq(()),
        future=_patseq(rng) if rng.random() < 0.5 else PatternSeq(()),
        breaking=_patseq(rng) if rng.random() < 0.5 else PatternSeq(()),
        repair=_reaction(rng) if rng.random() < 0.6 else (),
        eta1=_reaction_atom(rng) if rng.random() < 0.4 else None,
        eta2=_reaction_atom(rng) if rng.random() < 0.4 else None,
        eta3=_reaction(rng) if rng.random() < 0.3 else (),
    )


def random_program(rng: random.Random) -> Program:
    program = Program()
    for _ in range(rng.randint(0, 4)):
        program.facts.append(_atom(rng, ground=True))
    for _ in range(rng.randint(0, 3)):
        program.metarules.append(_metarule(rng))
    for _ in range(rng.randint(0, 3)):
        program.reactive.append((f"r{len(program.reactive) + 1}", _reactive(rng)))
    for _ in range(rng.randint(0, 3)):
        program.evolutionary.append((f"e{len(program.evolutionary) + 1}", _evolutionary(rng)))
    for _ in range(rng.randint(0, 2)):
        table = {rng.choice(IDENTS) + str(i): rng.randrange(0, 50) for i in range(rng.randint(1, 3))}
        program.costs[f"cost{len(program.costs) + 1}"] = table
    if rng.random() < 0.5:
        program.config["frequency"] = rng.randrange(1, 10)
    if rng.random() < 0.3:
        program.config["retention"] = rng.randrange(1, 100)
    if not (
        program.facts
        or program.metarules
        or program.reactive
        or program.evolutionary
        or program.costs
        or program.config
    ):
        program.facts.append(_atom(rng, ground=True))
    return program


def _program_atoms(program: Program) -> List[Term]:
    """Every atom the program mentions: facts, literals, pattern templates, payloads, gate heads."""
    atoms: List[Term] = list(program.facts)

    def conj(literals) -> None:
        for lit in literals:
            body = lit.body
            if isinstance(body, EventRef):
                atoms.append(body.template)
            elif not isinstance(body, Comparison):
                atoms.append(body)

    def reaction(elems) -> None:
        for elem in elems:
            if isinstance(elem, ReactionAtom):
                atoms.append(elem.payload)
                conj(elem.precond)

    for rule in program.metarules:
        atoms.append(rule.head)
        conj(rule.body)
    for _, rule in program.reactive:
        conj(rule.monitor.phi + rule.monitor.chi)
        reaction(rule.reaction)
    for _, expr in program.evolutionary:
        conj(expr.core.phi + expr.core.chi)
        for pattern in (expr.pre, expr.future, expr.breaking):
            atoms.extend(elem.template for elem in pattern.elems)
        reaction(expr.repair + expr.eta3 + tuple(a for a in (expr.eta1, expr.eta2) if a is not None))
    return [a for a in atoms if isinstance(a, (Const, Compound))]


def _ground(rng: random.Random, t: Term, pool: List[Const]) -> Term:
    if isinstance(t, (Var, Wildcard)):
        return rng.choice(pool)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_ground(rng, a, pool) for a in t.args))
    return t


def random_trace(rng: random.Random, program: Program, events: int = 30) -> List[Event]:
    """``events`` events in timestamp order, 80% of them grounding an atom of ``program``."""
    atoms = [a for a in _program_atoms(program) if not (isinstance(a, Const) and isinstance(a.value, int))]
    pool = [Const(0), Const(50), Const("alpha"), Const("beta")]
    out: List[Event] = []
    tick = 0
    for _ in range(events):
        tick += rng.choice((0, 1, 1, 2, 7))
        if atoms and rng.random() < 0.8:
            payload = _ground(rng, rng.choice(atoms), pool)
        else:
            payload = _atom(rng, ground=True)
        out.append(Event(rng.choice(KINDS), payload, tick))
    return out


# -- programs over a derived-state profile ------------------------------------------


def _lit(body, negated: bool = False) -> Literal:
    return Literal(body, negated)


def _cmp(op: str, lhs: Term, rhs: Term) -> Literal:
    return Literal(Comparison(op, lhs, rhs))


def _a(functor: str, *args: Term) -> Compound:
    return Compound(functor, tuple(args))


_E1, _E2, _V, _W, _C = Var("E1"), Var("E2"), Var("V"), Var("W"), Var("C")


def _queue_formula(rng: random.Random, bound: Term) -> Tuple[Literal, ...]:
    """A conjunction over ``in_queue``; ``bound`` is a value the precondition may bind."""
    c = Const(rng.randint(1, 6))
    if rng.random() < 0.03:
        # the comparison is unbound once the queue has an entry: the run errs then
        return (_lit(_a("in_queue", _E1, _V)), _cmp(">", Var("Unbound"), c))
    return rng.choice(
        [
            (_lit(_a("in_queue", _E1, _V)), _lit(_a("in_queue", _E2, _V)), _cmp("\\=", _E1, _E2)),
            (_lit(_a("in_queue", _E1, bound)), _lit(_a("in_queue", _E2, bound)), _cmp("\\=", _E1, _E2)),
            (_lit(_a("in_queue", _E1, _V)), _lit(_a("in_queue", _E2, _W)), _cmp("\\=", _E1, _E2), _cmp("<", _V, _W)),
            (_lit(_a("in_queue", _E1, _V)), _cmp(rng.choice(CMPS), _V, c)),
            (_lit(_a("in_queue", _E1, _V)), _lit(_a("bad", _V))),
            (_lit(_a("in_queue", _E1, _V)), _lit(_a("ok", _V), negated=True)),
            (_lit(_a("limit", _C)), _lit(_a("in_queue", _E1, _V)), _cmp(">", _V, _C)),
            (_lit(_a("in_queue", _E1, bound)),),
            # not answered by the delta test: a negated profile literal, an event reference
            (_lit(_a("bad", _V)), _lit(_a("in_queue", Wildcard("_e"), _V), negated=True)),
            (_lit(EventRef(EventKind.PAST, _a("push", _V, Wildcard("_q")))), _lit(_a("in_queue", _E1, _V)),
             _lit(_a("in_queue", _E2, _V)), _cmp("\\=", _E1, _E2)),
        ]
    )


def _stock_formula(rng: random.Random, bound: Term) -> Tuple[Literal, ...]:
    c = Const(rng.randint(0, 12))
    return rng.choice(
        [
            (_lit(_a("quantity", _E1, _V)), _cmp(rng.choice(CMPS), _V, c)),
            (_lit(_a("quantity", _E1, _V)), _lit(_a("quantity", _E2, _W)), _cmp("\\=", _E1, _E2), _cmp(">", _V, _W)),
            (_lit(_a("quantity", _E1, _V)), _lit(_a("quantity", _E2, _V)), _cmp("\\=", _E1, _E2)),
            (_lit(_a("quantity", _E1, _V)), _lit(_a("low", _E1, _C)), _cmp("<", _V, _C)),
            (_lit(_a("limit", _C)), _lit(_a("quantity", _E1, _V)), _cmp(">", _V, _C)),
            (_lit(_a("quantity", bound, _V)), _cmp("<", _V, c)),
            (_lit(_a("quantity", _E1, _V)), _lit(_a("quantity", _E1, Const(0)), negated=True), _cmp(">", _V, c)),
        ]
    )


def _battery_formula(rng: random.Random, bound: Term) -> Tuple[Literal, ...]:
    c = Const(rng.randint(60, 100))
    return rng.choice(
        [
            (_lit(_a("charge_level", _V)), _cmp(rng.choice(CMPS), _V, c)),
            (_lit(_a("charge_level", _V)), _lit(_a("charge_level", _W)), _cmp("\\=", _V, _W)),
            (_lit(_a("limit", _C)), _lit(_a("charge_level", _V)), _cmp("<", _V, _C)),
            (_lit(_a("charge_level", _V)), _lit(_a("ok", _V), negated=True), _cmp("<", _V, c)),
            (_lit(_a("charge_level", _V)), _lit(EventRef(EventKind.ACTION, Const("move"))), _cmp("<", _V, c)),
        ]
    )


_PROFILE_FORMULAS = {"queue": _queue_formula, "stock": _stock_formula, "battery": _battery_formula}

# the precondition that arms an instance, and the variable it binds
_PROFILE_PRE = {
    "queue": (_a("push", Var("Req"), Wildcard("_q")), Var("Req")),
    "stock": (_a("supply", Var("Res"), Wildcard("_n")), Var("Res")),
    "battery": (Const("move"), Var("Unused")),
}

# reactions that feed events the profile folds back into the run
_PROFILE_REPAIRS = {
    "queue": (_a("pop", _E1, Const("q1")), _a("alarm", _V)),
    "stock": (_a("supply", _E1, Const(3)), _a("alarm", _V)),
    "battery": (Const("recharge_battery"), _a("alarm", _V)),
}


_K, _KV = Var("K"), Var("KV")

# a context that reads the history, and literals that tie the formula to
# what it bound: the oldest queue entry, the first resource above 2, the charge
_PROFILE_CONTEXTS = {
    "queue": ((_lit(_a("in_queue", _K, Wildcard("_v"))),), (_lit(_a("in_queue", _K, _KV)), _lit(_a("bad", _KV)))),
    "stock": ((_lit(_a("quantity", _K, _KV)), _cmp(">", _KV, Const(2))), (_lit(_a("quantity", _E2, _W)), _cmp("<", _W, _KV))),
    "battery": ((_lit(_a("charge_level", _KV)),), (_lit(_a("charge_level", _W)), _cmp("<", _KV, Const(80)))),
}


def _profile_formula(rng: random.Random, profile: str, bound: Term) -> ContextualFormula:
    """A formula over the profile, without a context, with a stored one, or with one over the log."""
    phi = _PROFILE_FORMULAS[profile](rng, bound)
    roll = rng.random()
    if roll < 0.6:
        chi: Tuple[Literal, ...] = ()
    elif roll < 0.75:
        chi = (_lit(_a("cap", _K)),)  # stored: the delta test still applies
    else:
        # the context reads the history, so every check runs in full
        chi, tie = _PROFILE_CONTEXTS[profile]
        phi = tie if rng.random() < 0.5 else phi + tie
    return ContextualFormula(_profile_op(rng), phi, chi)


def _profile_op(rng: random.Random) -> IntervalOp:
    kind = rng.choice([TemporalOp.NEVER] * 3 + [TemporalOp.ALWAYS, TemporalOp.EVENTUALLY])
    shape = rng.randrange(4)
    if shape == 0:
        return IntervalOp(kind)
    m = rng.randrange(0, 10)
    if shape == 1:
        return IntervalOp(kind, m, None, rng.randrange(1, 4))
    return IntervalOp(kind, m, m + rng.randrange(5, 60), rng.randrange(1, 3) if shape == 3 else None)


def random_profile_program(rng: random.Random) -> Program:
    """A program with ``derived = queue|stock|battery`` and formulas over its predicate."""
    profile = rng.choice(["queue", "stock", "battery"])
    program = Program()
    program.config["derived"] = profile
    if rng.random() < 0.3:
        program.config["frequency"] = rng.randrange(1, 4)
    if profile == "stock":
        for resource in ("r", "s"):
            if rng.random() < 0.7:
                program.facts.append(_a("initial_quantity", Const(resource), Const(rng.randint(0, 8))))
        program.facts.append(_a("low", Const("r"), Const(rng.randint(1, 6))))
    if profile == "battery":
        program.facts.append(_a("battery_full", Const(rng.choice([90, 100]))))
        program.facts.append(_a("drain", Const("move"), Const(rng.randint(0, 9))))
        program.facts.append(_a("drain", Const("clean"), Const(rng.randint(0, 9))))
    program.facts.append(_a("limit", Const(rng.randint(1, 95))))
    program.facts.append(_a("cap", Const(rng.randint(1, 9))))
    for value in range(1, 7):
        if rng.random() < 0.3:
            program.facts.append(_a("bad", Const(value)))
        if rng.random() < 0.6:
            program.facts.append(_a("ok", Const(value)))
    if profile == "queue" and rng.random() < 0.3:
        program.metarules.append(
            MetaRule(Polarity.SOLVE_NOT, _a("push", _V, Var("Q")), (_lit(_a("in_queue", Wildcard("_e"), _V)),))
        )
    for _ in range(rng.randint(1, 3)):
        pre_atom, bound = _PROFILE_PRE[profile]
        pre = rng.random() < 0.5
        core = _profile_formula(rng, profile, bound if pre else _V)
        # a standing violation re-arms and fires every due tick, so only a
        # bounded interval may emit: its cascade ends with the interval
        emits = core.op.n is not None
        expr = EvolutionaryExpr(
            core=core,
            pre=PatternSeq((PatternElem(pre_atom, EventKind.PAST, rng.choice([Quant.ONE, Quant.PLUS])),))
            if pre else PatternSeq(()),
            repair=(ReactionAtom(rng.choice(_PROFILE_REPAIRS[profile])),) if emits and rng.random() < 0.5 else (),
            eta1=ReactionAtom(_a("violated", _V)) if emits and rng.random() < 0.5 else None,
        )
        program.evolutionary.append((f"e{len(program.evolutionary) + 1}", expr))
    monitor = _profile_formula(rng, profile, _V)
    if monitor.op.n is not None and rng.random() < 0.5:
        program.reactive.append(("r1", ReactiveRule(monitor, (ReactionAtom(_a("alarm", _V)),))))
    return program


def random_profile_trace(rng: random.Random, program: Program, events: int = 40) -> List[Event]:
    """``events`` events in timestamp order, mostly ones the program's profile folds."""
    profile = program.config["derived"]
    out: List[Event] = []
    tick = pushes = 0
    for _ in range(events):
        tick += rng.choice((0, 1, 1, 2, 5))
        roll = rng.random()
        if roll < 0.1:
            payload: Term = Const("idle")
        elif profile == "queue":
            if roll < 0.65 or not pushes:
                pushes += 1
                payload = _a("push", Const(rng.randint(1, 6)), Const("q1"))
            else:
                payload = _a("pop", Const(f"e{rng.randint(1, pushes)}"), Const("q1"))
        elif profile == "stock":
            name = "supply" if roll < 0.55 else "consume"
            payload = _a(name, Const(rng.choice("rst")), Const(rng.randint(0, 6)))
        else:
            payload = rng.choice([Const("move"), Const("clean"), Const("move"), Const("recharge_battery")])
        kind = EventKind.ACTION if rng.random() < 0.8 else rng.choice([EventKind.PAST, EventKind.EXTERNAL, EventKind.PRESENT])
        out.append(Event(kind, payload, tick))
    return out
