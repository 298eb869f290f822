"""First-order terms, bindings and one-way matching.

Terms are the lingua franca of the whole engine: stored facts, event
payloads, formula literals, pattern templates and reaction atoms are all
built from them.  The vocabulary is deliberately small:

* ``Const``    -- a symbol (lowercase-initial identifier) or an integer.
  Bare predicate atoms (arity 0) are represented as ``Const`` as well;
  there is no zero-argument ``Compound`` anywhere in the system.
* ``Var``      -- an uppercase-initial logical variable.
* ``Wildcard`` -- an underscore-initial "unknown value"; matches anything
  and never binds.
* ``Compound`` -- ``functor(arg, ...)`` with at least one argument.

A ``Binding`` maps variable names to ground terms.  Matching is one-way:
the left side may contain variables and wildcards, the right side must be
ground.  That is all the engine ever needs (facts, events and gated goals
are ground by construction), so full unification is intentionally absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

Binding = Dict[str, "Term"]

# The binding that binds nothing, shared by every caller.  No binding is ever
# changed in place (``match`` extends a copy), so sharing it is safe.
EMPTY_BINDING: Binding = {}


@dataclass(frozen=True)
class Term:
    """Base class for all term variants."""


@dataclass(frozen=True)
class Const(Term):
    value: Union[str, int]


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Wildcard(Term):
    name: str = "_"


@dataclass(frozen=True)
class Compound(Term):
    functor: str
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise ValueError("0-ary atoms are Const terms, not Compounds")


def atom(functor: str, *args: Term) -> Term:
    """Build a predicate atom: ``Const`` when bare, ``Compound`` otherwise."""
    if args:
        return Compound(functor, tuple(args))
    return Const(functor)


def functor_of(t: Term) -> Optional[Tuple[str, int]]:
    """(functor, arity) of a predicate atom, or None for non-atoms."""
    if isinstance(t, Compound):
        return (t.functor, len(t.args))
    if isinstance(t, Const) and isinstance(t.value, str):
        return (t.value, 0)
    return None


def is_ground(t: Term) -> bool:
    if isinstance(t, (Var, Wildcard)):
        return False
    if isinstance(t, Compound):
        return all(is_ground(a) for a in t.args)
    return True


def variables(t: Term) -> Iterator[str]:
    """Named variables occurring in ``t``, left to right, with repeats."""
    if isinstance(t, Var):
        yield t.name
    elif isinstance(t, Compound):
        for a in t.args:
            yield from variables(a)


def subst(t: Term, binding: Binding) -> Term:
    """Replace every bound variable in ``t`` by its ground value."""
    if isinstance(t, Var):
        bound = binding.get(t.name)
        return bound if bound is not None else t
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(subst(a, binding) for a in t.args))
    return t


def match(pattern: Term, ground: Term, binding: Binding) -> Optional[Binding]:
    """One-way match of ``pattern`` against a ground term.

    Returns an extended copy of ``binding`` on success, None on failure.
    Wildcards match anything and bind nothing; a variable already bound
    must see the same value again.
    """
    out = dict(binding)
    if _match_into(pattern, ground, out):
        return out
    return None


def _match_into(pattern: Term, ground: Term, binding: Binding) -> bool:
    if isinstance(pattern, Wildcard):
        return True
    if isinstance(pattern, Var):
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = ground
            return True
        return seen == ground
    if isinstance(pattern, Const):
        return pattern == ground
    if isinstance(pattern, Compound):
        if not isinstance(ground, Compound):
            return False
        if pattern.functor != ground.functor or len(pattern.args) != len(ground.args):
            return False
        return all(_match_into(p, g, binding) for p, g in zip(pattern.args, ground.args))
    return False


def render_term(t: Term) -> str:
    if isinstance(t, Const):
        return str(t.value)
    if isinstance(t, (Var, Wildcard)):
        return t.name
    if isinstance(t, Compound):
        return f"{t.functor}({', '.join(render_term(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")
