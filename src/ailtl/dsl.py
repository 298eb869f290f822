"""Parser and pretty-printer for constraint programs and trace files.

One grammar, shared bit-exact by every module that reads or writes the
concrete syntax.  A program file has up to six sections, in any order:

    facts:   ground atoms, one per line, dot-terminated
    meta:    solve(head) :- body.   /   solve_not(head) :- body.
    rules:   OP(m,n;k) formula [:: context] DIV reaction .
    expr:    [pre-seq :] OP(m,n;k) formula [:: context]
                 [::: future-seq] [:::: breaking-seq]
                 [DIV reaction] [| eta1] [|| eta2] [||| eta3] .
    costs:   costname(option, cost).
    config:  key = value.

Functors carry event-kind postfixes (``_E _I _N _P _A _G``): in patterns
they select the kind filter, in formula literals they turn the literal
into a history lookup, in reactions they pick the emitted event kind
(default: action).  Pattern quantifiers ``+``/``*`` may sit between the
functor and its arguments (``push_P+(Req,Q)``) or after them
(``normal_usage_action(Act)*``).  Times are plain ticks or ``H:MM`` clock
literals mapped through the configured tick scale (default one tick per
minute).  ``#`` starts a comment; whitespace is insignificant.

An action precondition (``atom :< conj``) is greedy: its conjunction runs
to the end of the reaction element list, so preconditioned atoms must be
written after unconditioned ones.

Trace files are line based: ``<timestamp> <kind letter> <term>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .events import Event, EventKind, KIND_BY_LETTER
from .kb import Comparison, Conj, EventRef, Literal, render_literal
from .metagate import MetaRule, Polarity
from .patterns import PatternElem, PatternSeq, Quant
from .evolutionary import EvolutionaryExpr
from .temporal import (
    Choice,
    ContextualFormula,
    IntervalOp,
    Reaction,
    ReactionAtom,
    ReactiveRule,
    TemporalOp,
)
from .terms import Compound, Const, Term, Var, Wildcard, functor_of, render_term

SECTIONS = ("facts", "meta", "rules", "expr", "costs", "config")
OP_KEYWORDS = {op.value: op for op in TemporalOp}

TICK_SCALES = {"minute": (60, 1), "second": (3600, 60)}  # H:MM -> h*a + mm*b


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass
class Program:
    facts: List[Term] = field(default_factory=list)
    metarules: List[MetaRule] = field(default_factory=list)
    reactive: List[Tuple[str, ReactiveRule]] = field(default_factory=list)
    evolutionary: List[Tuple[str, EvolutionaryExpr]] = field(default_factory=list)
    costs: Dict[str, Dict[str, int]] = field(default_factory=dict)
    config: Dict[str, Union[str, int]] = field(default_factory=dict)


def split_kind(name: str) -> Tuple[str, Optional[EventKind]]:
    """Strip a trailing event-kind postfix from a functor, if present."""
    if len(name) > 2 and name[-2] == "_" and name[-1] in KIND_BY_LETTER:
        return name[:-2], KIND_BY_LETTER[name[-1]]
    return name, None


def attach_kind(name: str, kind: Optional[EventKind]) -> str:
    return name if kind is None else f"{name}_{kind.value}"


# -- lexer ----------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    typ: str
    value: str
    line: int
    col: int


_PUNCT1 = {"(": "LP", ")": "RP", "{": "LB", "}": "RB", ",": "COMMA", ".": "DOT", ";": "SEMI", "+": "PLUS", "*": "STAR"}
_COLONS = {1: "COLON", 2: "COLON2", 3: "COLON3", 4: "COLON4"}
_PIPES = {1: "PIPE", 2: "PIPE2", 3: "PIPE3"}
_UNICODE_CMP = {"≤": "<=", "≥": ">=", "≠": "\\="}


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def err(msg: str) -> ParseError:
        return ParseError(line, col, msg)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in OP_KEYWORDS or word in ("DIV", "IN"):
                typ = "KW"
            elif word[0] == "_":
                typ = "WILD"
            elif word[0].isupper():
                typ = "VAR"
            else:
                typ = "IDENT"
            out.append(Token(typ, word, line, start_col))
            col += j - i
            i = j
            continue
        if c == ":":
            j = i
            while j < n and text[j] == ":" and j - i < 4:
                j += 1
            count = j - i
            if count == 1 and j < n and text[j] == "-":
                out.append(Token("ARROW", ":-", line, start_col))
                j += 1
            elif count == 1 and j < n and text[j] == "<":
                out.append(Token("PRECOND", ":<", line, start_col))
                j += 1
            else:
                out.append(Token(_COLONS[count], ":" * count, line, start_col))
            col += j - i
            i = j
            continue
        if c == "|":
            j = i
            while j < n and text[j] == "|" and j - i < 3:
                j += 1
            out.append(Token(_PIPES[j - i], "|" * (j - i), line, start_col))
            col += j - i
            i = j
            continue
        if c in "<>":
            if i + 1 < n and text[i + 1] == "=":
                out.append(Token("CMP", c + "=", line, start_col))
                i += 2
                col += 2
            else:
                out.append(Token("CMP", c, line, start_col))
                i += 1
                col += 1
            continue
        if c == "=":
            out.append(Token("CMP", "=", line, start_col))
            i += 1
            col += 1
            continue
        if c == "\\":
            if i + 1 < n and text[i + 1] == "=":
                out.append(Token("CMP", "\\=", line, start_col))
                i += 2
                col += 2
                continue
            raise err("expected '=' after '\\'")
        if c in _UNICODE_CMP:
            out.append(Token("CMP", _UNICODE_CMP[c], line, start_col))
            i += 1
            col += 1
            continue
        if c in _PUNCT1:
            out.append(Token(_PUNCT1[c], c, line, start_col))
            i += 1
            col += 1
            continue
        raise err(f"unexpected character {c!r}")
    out.append(Token("EOF", "", line, col))
    return out


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[Token], clock_scale: Tuple[int, int]) -> None:
        self.toks = tokens
        self.i = 0
        self.clock_scale = clock_scale
        self.saw_clock_literal = False
        self.config_at: Dict[str, Token] = {}  # the key token of the config entry that set each key

    def peek(self, ahead: int = 0) -> Token:
        try:
            return self.toks[self.i + ahead]
        except IndexError:
            return self.toks[-1]  # EOF, which ``advance`` never moves past

    def advance(self) -> Token:
        tok = self.toks[self.i]
        if tok.typ != "EOF":
            self.i += 1
        return tok

    def error(self, tok: Token, message: str) -> ParseError:
        found = tok.value or "end of input"
        return ParseError(tok.line, tok.col, f"{message}, found {found!r}")

    def expect(self, typ: str, what: str) -> Token:
        tok = self.peek()
        if tok.typ != typ:
            raise self.error(tok, f"expected {what}")
        return self.advance()

    def at_section_header(self) -> bool:
        return self.peek().typ == "IDENT" and self.peek().value in SECTIONS and self.peek(1).typ == "COLON"

    # terms ---------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.typ == "INT":
            self.advance()
            return Const(int(tok.value))
        if tok.typ == "VAR":
            self.advance()
            return Var(tok.value)
        if tok.typ == "WILD":
            self.advance()
            return Wildcard(tok.value)
        if tok.typ == "IDENT":
            self.advance()
            if self.peek().typ == "LP":
                self.advance()
                args = [self.parse_term()]
                while self.peek().typ == "COMMA":
                    self.advance()
                    args.append(self.parse_term())
                self.expect("RP", "')'")
                return Compound(tok.value, tuple(args))
            return Const(tok.value)
        raise self.error(tok, "expected a term")

    # literals ------------------------------------------------------

    def parse_literal(self) -> Literal:
        negated = False
        if self.peek().typ == "IDENT" and self.peek().value == "not":
            self.advance()
            negated = True
        lhs = self.parse_term()
        if self.peek().typ == "CMP":
            op = self.advance().value
            rhs = self.parse_term()
            return Literal(Comparison(op, lhs, rhs), negated)
        fa = functor_of(lhs)
        if fa is not None:
            base, kind = split_kind(fa[0])
            if kind is not None:
                template = Compound(base, lhs.args) if isinstance(lhs, Compound) else Const(base)
                return Literal(EventRef(kind, template), negated)
        return Literal(lhs, negated)

    def parse_conj(self) -> Conj:
        literals = [self.parse_literal()]
        while self.peek().typ == "COMMA":
            self.advance()
            literals.append(self.parse_literal())
        return tuple(literals)

    # patterns ------------------------------------------------------

    def parse_pattern_elem(self) -> PatternElem:
        tok = self.expect("IDENT", "a pattern functor")
        quant = Quant.ONE
        if self.peek().typ in ("PLUS", "STAR"):
            quant = Quant.PLUS if self.advance().typ == "PLUS" else Quant.STAR
        args: Tuple[Term, ...] = ()
        if self.peek().typ == "LP":
            self.advance()
            parsed = [self.parse_term()]
            while self.peek().typ == "COMMA":
                self.advance()
                parsed.append(self.parse_term())
            self.expect("RP", "')'")
            args = tuple(parsed)
        if self.peek().typ in ("PLUS", "STAR"):
            if quant is not Quant.ONE:
                raise self.error(self.peek(), "duplicate pattern quantifier")
            quant = Quant.PLUS if self.advance().typ == "PLUS" else Quant.STAR
        base, kind = split_kind(tok.value)
        template: Term = Compound(base, args) if args else Const(base)
        return PatternElem(template, kind, quant)

    def parse_patseq(self) -> PatternSeq:
        elems = [self.parse_pattern_elem()]
        while self.peek().typ == "COMMA":
            self.advance()
            elems.append(self.parse_pattern_elem())
        return PatternSeq(tuple(elems))

    # operators -----------------------------------------------------

    def parse_time(self) -> int:
        tok = self.expect("INT", "a time")
        value = int(tok.value)
        if self.peek().typ == "COLON":
            self.advance()
            mm_tok = self.expect("INT", "minutes after ':'")
            mm = int(mm_tok.value)
            if mm >= 60:
                raise ParseError(mm_tok.line, mm_tok.col, f"minutes must be below 60, found {mm}")
            self.saw_clock_literal = True
            a, b = self.clock_scale
            return value * a + mm * b
        return value

    def parse_op(self) -> IntervalOp:
        tok = self.peek()
        if tok.typ != "KW" or tok.value not in OP_KEYWORDS:
            raise self.error(tok, "expected ALWAYS, EVENTUALLY or NEVER")
        self.advance()
        op = OP_KEYWORDS[tok.value]
        m = n = k = None
        if self.peek().typ == "LP":
            self.advance()
            m = self.parse_time()
            if self.peek().typ == "COMMA":
                self.advance()
                n = self.parse_time()
            if self.peek().typ == "SEMI":
                self.advance()
                k = self.parse_time()
            self.expect("RP", "')'")
        try:
            return IntervalOp(op, m, n, k)
        except ValueError as exc:
            raise ParseError(tok.line, tok.col, str(exc)) from exc

    # reactions -----------------------------------------------------

    def parse_reaction_atom(self) -> ReactionAtom:
        term = self.parse_term()
        fa = functor_of(term)
        if fa is None:
            raise self.error(self.peek(), "reaction atom must be a predicate atom")
        base, kind = split_kind(fa[0])
        payload: Term = Compound(base, term.args) if isinstance(term, Compound) else Const(base)
        precond: Conj = ()
        if self.peek().typ == "PRECOND":
            self.advance()
            precond = self.parse_conj()
        return ReactionAtom(payload, kind or EventKind.ACTION, precond)

    def parse_relem(self):
        if self.peek().typ == "VAR" and self.peek(1).typ == "KW" and self.peek(1).value == "IN":
            var = self.advance().value
            self.advance()  # IN
            self.expect("LB", "'{'")
            options = [self.parse_term()]
            while self.peek().typ == "COMMA":
                self.advance()
                options.append(self.parse_term())
            self.expect("COLON", "':' before the preference name")
            cost = self.expect("IDENT", "a cost evaluator name").value
            self.expect("RB", "'}'")
            return Choice(var, tuple(options), cost)
        return self.parse_reaction_atom()

    def parse_reaction(self) -> Reaction:
        elems = [self.parse_relem()]
        while self.peek().typ == "COMMA":
            self.advance()
            elems.append(self.parse_relem())
        return tuple(elems)

    # sections ------------------------------------------------------

    def parse_fact(self) -> Term:
        tok = self.peek()
        term = self.parse_term()
        self.expect("DOT", "'.' after fact")
        fa = functor_of(term)
        if fa is None:
            raise ParseError(tok.line, tok.col, "a fact must be a predicate atom")
        return term

    def parse_metarule(self) -> MetaRule:
        tok = self.expect("IDENT", "solve or solve_not")
        if tok.value not in ("solve", "solve_not"):
            raise ParseError(tok.line, tok.col, f"expected solve or solve_not, found {tok.value!r}")
        polarity = Polarity.SOLVE if tok.value == "solve" else Polarity.SOLVE_NOT
        self.expect("LP", "'('")
        head = self.parse_term()
        self.expect("RP", "')'")
        body: Conj = ()
        if self.peek().typ == "ARROW":
            self.advance()
            body = self.parse_conj()
        self.expect("DOT", "'.' after meta rule")
        return MetaRule(polarity, head, body)

    def parse_reactive(self) -> ReactiveRule:
        op = self.parse_op()
        phi = self.parse_conj()
        chi: Conj = ()
        if self.peek().typ == "COLON2":
            self.advance()
            chi = self.parse_conj()
        kw = self.peek()
        if kw.typ != "KW" or kw.value != "DIV":
            raise self.error(kw, "expected DIV")
        self.advance()
        reaction = self.parse_reaction()
        self.expect("DOT", "'.' after rule")
        return ReactiveRule(ContextualFormula(op, phi, chi), reaction)

    def parse_evo(self) -> EvolutionaryExpr:
        pre = PatternSeq(())
        tok = self.peek()
        if not (tok.typ == "KW" and tok.value in OP_KEYWORDS):
            pre = self.parse_patseq()
            self.expect("COLON", "':' after the precondition sequence")
        op = self.parse_op()
        phi = self.parse_conj()
        chi: Conj = ()
        future = PatternSeq(())
        breaking = PatternSeq(())
        repair: Reaction = ()
        eta1 = eta2 = None
        eta3: Reaction = ()
        if self.peek().typ == "COLON2":
            self.advance()
            chi = self.parse_conj()
        if self.peek().typ == "COLON3":
            self.advance()
            future = self.parse_patseq()
        if self.peek().typ == "COLON4":
            self.advance()
            breaking = self.parse_patseq()
        if self.peek().typ == "KW" and self.peek().value == "DIV":
            self.advance()
            repair = self.parse_reaction()
        if self.peek().typ == "PIPE":
            self.advance()
            eta1 = self.parse_reaction_atom()
        if self.peek().typ == "PIPE2":
            self.advance()
            eta2 = self.parse_reaction_atom()
        if self.peek().typ == "PIPE3":
            self.advance()
            eta3 = self.parse_reaction()
        self.expect("DOT", "'.' after expression")
        return EvolutionaryExpr(ContextualFormula(op, phi, chi), pre, future, breaking, repair, eta1, eta2, eta3)

    def parse_costrow(self) -> Tuple[str, str, int]:
        name = self.expect("IDENT", "a cost table name").value
        self.expect("LP", "'('")
        opt_tok = self.peek()
        if opt_tok.typ not in ("IDENT", "INT"):
            raise self.error(opt_tok, "expected an option name")
        self.advance()
        self.expect("COMMA", "','")
        cost_tok = self.expect("INT", "an integer cost")
        self.expect("RP", "')'")
        self.expect("DOT", "'.' after cost row")
        return name, opt_tok.value, int(cost_tok.value)

    def parse_kv(self) -> Tuple[str, Union[str, int]]:
        key_tok = self.expect("IDENT", "a config key")
        key = key_tok.value
        eq = self.peek()
        if eq.typ != "CMP" or eq.value != "=":
            raise self.error(eq, "expected '='")
        self.advance()
        tok = self.peek()
        if tok.typ == "INT":
            self.advance()
            value: Union[str, int] = int(tok.value)
        elif tok.typ == "IDENT":
            self.advance()
            value = tok.value
        else:
            raise self.error(tok, "expected a config value")
        self.expect("DOT", "'.' after config entry")
        self.config_at[key] = key_tok
        return key, value

    def parse_program(self) -> Program:
        program = Program()
        if self.peek().typ == "EOF":
            raise self.error(self.peek(), "expected a section header")
        while self.peek().typ != "EOF":
            if not self.at_section_header():
                raise self.error(self.peek(), "expected a section header")
            section = self.advance().value
            self.advance()  # colon
            while self.peek().typ != "EOF" and not self.at_section_header():
                if section == "facts":
                    program.facts.append(self.parse_fact())
                elif section == "meta":
                    program.metarules.append(self.parse_metarule())
                elif section == "rules":
                    rule = self.parse_reactive()
                    program.reactive.append((f"r{len(program.reactive) + 1}", rule))
                elif section == "expr":
                    expr = self.parse_evo()
                    program.evolutionary.append((f"e{len(program.evolutionary) + 1}", expr))
                elif section == "costs":
                    name, option, cost = self.parse_costrow()
                    program.costs.setdefault(name, {})[option] = cost
                else:
                    key, value = self.parse_kv()
                    program.config[key] = value
        return program


def parse_program(text: str) -> Program:
    """Parse a program file; raises :class:`ParseError` with a position."""
    tokens = tokenize(text)
    parser = _Parser(tokens, TICK_SCALES["minute"])
    program = parser.parse_program()
    scale_name = program.config.get("tick", "minute")
    if scale_name not in TICK_SCALES:
        at = parser.config_at["tick"]
        raise ParseError(at.line, at.col, f"unknown tick scale {scale_name!r}")
    frequency = program.config.get("frequency", 1)
    if not isinstance(frequency, int) or frequency < 1:
        at = parser.config_at["frequency"]
        raise ParseError(at.line, at.col, f"frequency must be an integer of at least 1, found {frequency!r}")
    if parser.saw_clock_literal and scale_name != "minute":
        # clock literals were mapped with the default scale; redo with the real one
        reparse = _Parser(tokens, TICK_SCALES[scale_name])
        program = reparse.parse_program()
    return program


# -- traces ---------------------------------------------------------------


def parse_trace(text: str) -> List[Event]:
    """Parse a trace file: one ``<timestamp> <kind letter> <term>`` per line."""
    events: List[Event] = []
    last_ts: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise ParseError(lineno, 1, "expected '<timestamp> <kind> <term>'")
        ts_text, kind_text, term_text = parts
        if not ts_text.isdigit():
            raise ParseError(lineno, 1, f"expected a non-negative timestamp, found {ts_text!r}")
        ts = int(ts_text)
        kind = KIND_BY_LETTER.get(kind_text)
        if kind is None:
            raise ParseError(lineno, len(ts_text) + 2, f"unknown event kind {kind_text!r}")
        col = len(ts_text) + len(kind_text) + 3
        try:
            toks = tokenize(term_text)
            parser = _Parser(toks, TICK_SCALES["minute"])
            payload = parser.parse_term()
        except ParseError as err:
            raise ParseError(lineno, col + err.col - 1, err.message) from None
        if parser.peek().typ != "EOF":
            raise ParseError(lineno, col, f"trailing input after event term: {parser.peek().value!r}")
        if functor_of(payload) is None:
            raise ParseError(lineno, col, "event payload must be a predicate atom")
        event = Event(kind, payload, ts)
        if last_ts is not None and ts < last_ts:
            from .events import TimestampRegression

            raise TimestampRegression(f"line {lineno}: timestamp {ts} < previous {last_ts}")
        last_ts = ts
        events.append(event)
    return events


# -- rendering ------------------------------------------------------------


def render_event(e: Event) -> str:
    return f"{e.timestamp} {e.kind.value} {render_term(e.payload)}"


def render_trace(events: List[Event]) -> str:
    return "".join(render_event(e) + "\n" for e in events)


def _functor(t: Term) -> str:
    fa = functor_of(t)
    assert fa is not None
    return fa[0]


def _render_head(t: Term, name: str) -> str:
    if isinstance(t, Compound):
        return f"{name}({', '.join(render_term(a) for a in t.args)})"
    return name


def _render_conj(conj: Conj) -> str:
    return ", ".join(render_literal(l) for l in conj)


def _render_pattern_elem(e: PatternElem) -> str:
    name = attach_kind(_functor(e.template), e.kind)
    if isinstance(e.template, Compound):
        return f"{name}{e.quant.value}({', '.join(render_term(a) for a in e.template.args)})"
    return f"{name}{e.quant.value}"


def _render_patseq(p: PatternSeq) -> str:
    return ", ".join(_render_pattern_elem(e) for e in p.elems)


def _render_op(op: IntervalOp) -> str:
    head = op.op.value
    if op.m is None and op.n is None and op.k is None:
        return head
    inner = "" if op.m is None else str(op.m)
    if op.n is not None:
        inner += f", {op.n}"
    if op.k is not None:
        inner += f"; {op.k}"
    return f"{head}({inner})"


def _render_reaction_atom(a: ReactionAtom) -> str:
    kind = None if a.kind is EventKind.ACTION else a.kind
    text = _render_head(a.payload, attach_kind(_functor(a.payload), kind))
    if a.precond:
        text += f" :< {_render_conj(a.precond)}"
    return text


def _render_relem(elem) -> str:
    if isinstance(elem, Choice):
        options = ", ".join(render_term(o) for o in elem.options)
        return f"{elem.var} IN {{{options} : {elem.cost}}}"
    return _render_reaction_atom(elem)


def _render_reaction(r: Reaction) -> str:
    return ", ".join(_render_relem(e) for e in r)


def _render_metarule(rule: MetaRule) -> str:
    head = f"{rule.polarity.value}({render_term(rule.head)})"
    if rule.body:
        return f"{head} :- {_render_conj(rule.body)}."
    return f"{head}."


def _render_reactive(rule: ReactiveRule) -> str:
    text = f"{_render_op(rule.monitor.op)} {_render_conj(rule.monitor.phi)}"
    if rule.monitor.chi:
        text += f" :: {_render_conj(rule.monitor.chi)}"
    return f"{text} DIV {_render_reaction(rule.reaction)}."


def _render_evo(expr: EvolutionaryExpr) -> str:
    parts: List[str] = []
    if expr.pre.elems:
        parts.append(f"{_render_patseq(expr.pre)} :")
    parts.append(_render_op(expr.core.op))
    parts.append(_render_conj(expr.core.phi))
    if expr.core.chi:
        parts.append(f":: {_render_conj(expr.core.chi)}")
    if expr.future.elems:
        parts.append(f"::: {_render_patseq(expr.future)}")
    if expr.breaking.elems:
        parts.append(f":::: {_render_patseq(expr.breaking)}")
    if expr.repair:
        parts.append(f"DIV {_render_reaction(expr.repair)}")
    if expr.eta1 is not None:
        parts.append(f"| {_render_reaction_atom(expr.eta1)}")
    if expr.eta2 is not None:
        parts.append(f"|| {_render_reaction_atom(expr.eta2)}")
    if expr.eta3:
        parts.append(f"||| {_render_reaction(expr.eta3)}")
    return " ".join(parts) + "."


def render(program: Program) -> str:
    """Canonical text for a program; ``parse_program(render(p))`` equals ``p``."""
    lines: List[str] = []
    if program.facts:
        lines.append("facts:")
        lines.extend(f"{render_term(f)}." for f in program.facts)
    if program.metarules:
        lines.append("meta:")
        lines.extend(_render_metarule(r) for r in program.metarules)
    if program.reactive:
        lines.append("rules:")
        lines.extend(_render_reactive(rule) for _, rule in program.reactive)
    if program.evolutionary:
        lines.append("expr:")
        lines.extend(_render_evo(expr) for _, expr in program.evolutionary)
    if program.costs:
        lines.append("costs:")
        for name, table in program.costs.items():
            lines.extend(f"{name}({option}, {cost})." for option, cost in table.items())
    if program.config:
        lines.append("config:")
        lines.extend(f"{key} = {value}." for key, value in program.config.items())
    return "\n".join(lines) + "\n"
