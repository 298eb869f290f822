"""Runtime monitor for event-driven agents.

Interval temporal constraints (ALWAYS / EVENTUALLY / NEVER over tick
intervals, with per-constraint checking frequency), evolutionary
expressions armed by event-sequence prefixes with repair and
countermeasure dispatch, and a reflective solve/solve_not gate over
attempted actions.  Programs and traces are plain text files; see
:mod:`ailtl.dsl` for the grammar and :mod:`ailtl.cli` for the entry
point.
"""

from .events import Event, EventKind, History, TimestampRegression
from .evolutionary import EvolutionaryExpr, ExprRuntime, ExprStatus
from .kb import Comparison, EventRef, FactBase, Literal, NonGroundFact, ReservedFunctor, UnboundBuiltinArg
from .metagate import GateDecision, MetaRule, NonGroundReify, Polarity, gate
from .patterns import (
    Complete,
    Mismatch,
    NoEvents,
    PatternElem,
    PatternSeq,
    Prefix,
    PrefixCursor,
    Quant,
    match_prefix,
    occurrences,
    template_match,
)
from .dsl import ParseError, Program, parse_program, parse_trace, render, render_event
from .runtime import CapExceeded, CycleMetrics, Engine, EngineConfig, Report, run
from .temporal import (
    ContextualFormula,
    CoreVerdict,
    IntervalOp,
    NonGroundAfterContext,
    ReactionAtom,
    ReactiveRule,
    TemporalOp,
    UnresolvedPreference,
    due,
    eval_once,
    fire_reaction,
    step_core,
)
from .terms import Binding, Compound, Const, Term, Var, Wildcard, atom, is_ground, match, render_term, subst

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
