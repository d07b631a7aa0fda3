"""Germ description language: a one-pass parser.

Line-oriented declarations of polynomial map germs and mixed (conjugate-
aware) germs, together with attached metadata blocks: named set components
given by rational parametrizations, named polynomials, and witness curves
with Laurent expansions in the tube variable t.

    map mfx1 : R^3 -> R^2
    vars x, y, z
    G1 = x*y
    G2 = x*z
    assert_set M {
      (0, s1, s2)
    }

Parsing is recursive descent over a token stream, read by one regular
expression, that builds the exact objects (RealMapGerm, Parametrization,
CurveFamily) as it reads.
Each component, assert_set block and assert_poly is evaluated where it is
parsed, over the context that the header and the vars line fix; sets and
polynomials use the real coordinates, realified for a mixed germ.  A
witness block may name a set declared after it, so witnesses resolve at
the end of their declaration.

Errors carry a line, a column and the tokens that would have been
accepted, and come in source order.  A line or block is checked for syntax
before meaning (declared variables only, matching arities, vanishing at
the origin, conj and i only in mixed declarations, negative powers only
on t), and a duplicate germ, component, set, polynomial or witness name,
a variable named conj and a repeated stratum, gamma or c line in a
witness block are caught where they are read.  Only the component count,
witness blocks on a mixed germ and the witnesses themselves wait for the
declaration's end.

One evaluator, eval_expr, reads every expression.  What differs between
map and assert_poly lines (Polynomial), mixed components (MixedPolynomial),
set lines (numerator/denominator pairs) and witness curves (LaurentPoly) is
a policy record, _Algebra: the value of each name and of each conj(name),
how a constant is read, how a divisor is inverted and whether a negative
power is allowed.  The evaluator reports each refusal at the node's line
and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from germlab.curves import CurveFamily, LaurentPoly
from germlab.germs import Parametrization, RealMapGerm, realify_mixed
from germlab.mixed import ComplexRational, I, MixedPolynomial, realified_context
from germlab.poly import MAX_ARITY, Polynomial, VarContext

KEYWORDS = {"map", "mixed", "vars", "assert_set", "assert_poly", "witness"}


class GermParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected=()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        text = f"line {line}, col {col}: {message}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        super().__init__(text)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, NEWLINE, EOF, or the punctuation itself
    value: str
    line: int
    col: int


# One alternative per token kind, tried in order; BAD takes any other
# character.  \w is str.isalnum() or "_", and an identifier must also start
# with a letter or "_", which tokenize checks.
_TOKEN = re.compile(r"""
    (?P<COMMENT>\#[^\n]*) | (?P<NEWLINE>\n) | (?P<SPACE>[ \t\r]+)
  | (?P<PUNCT>->|[:,^+\-*/(){}=]) | (?P<INT>[0-9]+) | (?P<IDENT>\w+)
  | (?P<BAD>.)""", re.VERBOSE | re.DOTALL)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "NEWLINE":
            toks.append(Token("NEWLINE", "\\n", line, col))
            line, col = line + 1, 1
            continue
        if kind == "BAD" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
            raise GermParseError(f"unexpected character {value[0]!r}", line, col)
        if kind in ("PUNCT", "INT", "IDENT"):
            toks.append(Token(value if kind == "PUNCT" else kind, value, line, col))
        if kind != "COMMENT":  # a comment takes no columns
            col += len(value)
    toks.append(Token("NEWLINE", "\\n", line, col))
    toks.append(Token("EOF", "", line, col))
    return toks


# -- parser ----------------------------------------------------------------
# Expressions are tagged tuples; var/conj/div/pow keep their position for
# the semantic errors eval_expr reports.


@dataclass(frozen=True)
class WitnessDecl:
    """A parsed witness block, resolved at the end of its declaration."""
    name: str
    stratum: str | None
    gamma: list | None
    coeffs: list | None
    assumptions: tuple[str, ...]
    line: int
    col: int


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def fail(self, message: str, expected=()):
        t = self.peek()
        raise GermParseError(message, t.line, t.col, expected)

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            self.fail(f"found {t.value!r}", expected=(what or kind,))
        return self.advance()

    def expect_word(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "IDENT" or t.value != word:
            self.fail(f"found {t.value!r}", expected=(repr(word),))
        return self.advance()

    def at_word(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.value == word

    def skip_newlines(self):
        while self.peek().kind == "NEWLINE":
            self.advance()

    def end_line(self):
        t = self.peek()
        if t.kind not in ("NEWLINE", "EOF"):
            self.fail(f"found {t.value!r} after a complete line",
                      expected=("end of line",))
        self.skip_newlines()

    # -- expressions ----------------------------------------------------

    def parse_expr(self):
        t = self.peek()
        negate = False
        if t.kind == "-":
            self.advance()
            negate = True
        node = self.parse_term()
        if negate:
            node = ("neg", node)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            t = self.advance()
            rhs = self.parse_factor()
            if t.kind == "*":
                node = ("mul", node, rhs)
            else:
                node = ("div", node, rhs, t.line, t.col)
        return node

    def parse_factor(self):
        node = self.parse_base()
        if self.peek().kind == "^":
            caret = self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            k = self.expect("INT", "integer exponent")
            node = ("pow", node, sign * int(k.value), caret.line, caret.col)
        return node

    def parse_base(self):
        t = self.peek()
        if t.kind == "INT":
            self.advance()
            return ("int", Fraction(int(t.value)))
        if t.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        if t.kind == "IDENT":
            if t.value == "conj":
                self.advance()
                self.expect("(", "'('")
                name = self.expect("IDENT", "variable name")
                self.expect(")", "')'")
                return ("conj", name.value, name.line, name.col)
            self.advance()
            return ("var", t.value, t.line, t.col)
        self.fail(f"found {t.value!r}",
                  expected=("number", "variable", "'('", "'conj'"))

    def parse_tuple(self) -> list:
        self.expect("(", "'('")
        items = [self.parse_expr()]
        while self.peek().kind == ",":
            self.advance()
            items.append(self.parse_expr())
        self.expect(")", "')'")
        return items

    # -- declarations ----------------------------------------------------

    def parse_file(self) -> GermFile:
        by_name: dict[str, object] = {}
        self.skip_newlines()
        while self.peek().kind != "EOF":
            decl = self.parse_decl(by_name)
            by_name[decl.name] = decl
            self.skip_newlines()
        if not by_name:
            self.fail("empty input", expected=("'map'", "'mixed'"))
        return GermFile(decls=tuple(by_name.values()), by_name=by_name)

    def parse_decl(self, seen: dict):
        if not (self.at_word("map") or self.at_word("mixed")):
            self.fail(f"found {self.peek().value!r}",
                      expected=("'map'", "'mixed'"))
        head = self.advance()
        kind = head.value
        name = self.expect("IDENT", "germ name").value
        if name in seen:
            raise GermParseError(f"duplicate germ name {name!r}",
                                 head.line, head.col)
        src, tgt = self.parse_arities(kind)
        ctx = VarContext(self.parse_vars(kind, src))
        # Sets and polynomials live over the real coordinates.
        real_ctx = ctx if kind == "map" else realified_context(ctx)
        real = _real(real_ctx)
        alg = real if kind == "map" else _mixed(ctx)
        comps, sets, polys, witnesses = {}, {}, {}, {}
        while True:
            t = self.peek()
            if (t.kind == "IDENT" and t.value not in KEYWORDS
                    and self.toks[self.i + 1].kind == "="):
                last = self.advance()
                if last.value in comps:
                    raise GermParseError(f"duplicate component {last.value!r}",
                                         last.line, last.col)
                self.advance()  # '='
                ast = self.parse_expr()
                self.end_line()
                value = eval_expr(ast, alg)
                if value.has_constant_term():
                    raise GermParseError(
                        f"component {last.value!r} does not vanish at the origin",
                        last.line, last.col)
                comps[last.value] = value
            elif self.at_word("assert_set"):
                self.parse_assert_set(sets, real_ctx)
            elif self.at_word("assert_poly"):
                self.parse_assert_poly(polys, real)
            elif self.at_word("witness"):
                self.parse_witness(witnesses)
            else:
                break

        if not comps:
            self.fail("declaration has no components",
                      expected=("component line",))
        if len(comps) != tgt:
            raise GermParseError(
                f"{len(comps)} components for target arity {tgt}",
                last.line, last.col)
        if kind == "mixed":
            if witnesses:
                wd = next(iter(witnesses.values()))
                raise GermParseError(
                    "witness blocks attach to map declarations; realify first",
                    wd.line, wd.col)
            (cname, f), = comps.items()
            return ResolvedMixedGerm(name=name, ctx=ctx, component_name=cname,
                                     poly=f, realified=realify_mixed([f], name=name),
                                     sets=sets, polys=polys)
        return ResolvedMapGerm(
            name=name,
            germ=RealMapGerm(ctx=ctx, components=tuple(comps.values()), name=name),
            component_names=tuple(comps), sets=sets, polys=polys,
            witnesses={n: _resolve_witness(wd, ctx, sets, tgt)
                       for n, wd in witnesses.items()})

    def parse_arities(self, kind: str) -> tuple[int, int]:
        """The rest of the header line after the germ name."""
        self.expect(":", "':'")
        space = "R" if kind == "map" else "C"
        self.expect_word(space)
        self.expect("^", "'^'")
        src_tok = self.expect("INT", "source arity")
        src = int(src_tok.value)
        self.expect("->", "'->'")
        self.expect_word(space)
        if kind == "map":
            self.expect("^", "'^'")
            tgt_tok = self.expect("INT", "target arity")
        limit = MAX_ARITY if kind == "map" else MAX_ARITY // 2
        if not 1 <= src <= limit:
            raise GermParseError(f"source arity {src} out of range 1..{limit}",
                                 src_tok.line, src_tok.col)
        tgt = int(tgt_tok.value) if kind == "map" else 1  # C^n -> C
        if not 1 <= tgt <= src:
            raise GermParseError(
                f"target arity {tgt} must lie in 1..{src}",
                tgt_tok.line, tgt_tok.col)
        self.end_line()
        return src, tgt

    def parse_vars(self, kind: str, src: int) -> list[str]:
        """The vars line, or x1, x2, ... (z1, ... if mixed) without one."""
        if not self.at_word("vars"):
            prefix = "x" if kind == "map" else "z"
            return [f"{prefix}{i + 1}" for i in range(src)]
        self.advance()
        names = [self.expect("IDENT", "variable name")]
        while self.peek().kind == ",":
            self.advance()
            names.append(self.expect("IDENT", "variable name"))
        var_names = [t.value for t in names]
        for t in names:
            if var_names.count(t.value) > 1:
                raise GermParseError(
                    f"duplicate variable {t.value!r}", t.line, t.col)
            if kind == "mixed" and t.value == "i":
                raise GermParseError(
                    "'i' is the imaginary unit in a mixed declaration",
                    t.line, t.col)
            if t.value == "conj":
                raise GermParseError(
                    "'conj' is the conjugation conj(...), not a variable name",
                    t.line, t.col)
        if len(var_names) != src:
            raise GermParseError(
                f"{len(var_names)} variables declared for source arity {src}",
                names[0].line, names[0].col)
        self.end_line()
        return var_names

    def parse_assert_set(self, sets: dict, target: VarContext):
        head = self.advance()
        name = self.expect("IDENT", "set name").value
        if name in sets:
            raise GermParseError(f"duplicate set {name!r}", head.line, head.col)
        self.expect("{", "'{'")
        self.skip_newlines()
        lines = []
        while self.peek().kind == "(":
            lines.append(self.parse_tuple())
            self.end_line()
        self.expect("}", "'}'")
        self.end_line()
        if not lines:
            raise GermParseError("assert_set block is empty",
                                 head.line, head.col)
        comps = []
        for idx, tup in enumerate(lines):
            where = f"set {name!r} line {idx + 1}"
            if len(tup) != target.arity:
                raise GermParseError(
                    f"{where} has {len(tup)} entries for {target.arity} variables",
                    head.line, head.col)
            pnames = _params_of(tup)
            clash = [n for n in pnames if n in target.names]
            if clash:
                raise GermParseError(
                    f"set {name!r} reuses germ variable {clash[0]!r} as a parameter",
                    head.line, head.col)
            ctx = _param_context(pnames, where, head.line, head.col)
            alg = _rational(ctx)
            rats = [eval_expr(ast, alg) for ast in tup]
            comps.append(Parametrization(
                target=target, params=ctx,
                numerators=tuple(r.num for r in rats),
                denominators=tuple(r.den for r in rats),
                name=f"{name}[{idx}]"))
        sets[name] = comps

    def parse_assert_poly(self, polys: dict, alg: _Algebra):
        self.advance()
        name = self.expect("IDENT", "polynomial name")
        if name.value in polys:
            raise GermParseError(f"duplicate assert_poly {name.value!r}",
                                 name.line, name.col)
        self.expect("{", "'{'")
        self.skip_newlines()
        ast = self.parse_expr()
        self.end_line()
        self.expect("}", "'}'")
        self.end_line()
        polys[name.value] = eval_expr(ast, alg)

    def parse_witness(self, witnesses: dict):
        head = self.advance()
        name = self.expect("IDENT", "witness name").value
        if name in witnesses:
            raise GermParseError(f"duplicate witness {name!r}",
                                 head.line, head.col)
        self.expect("{", "'{'")
        self.skip_newlines()
        lines: dict = {}  # stratum, gamma and c, each at most once
        assumptions: list[str] = []
        while self.peek().kind == "IDENT":
            word = self.advance()
            if word.value in lines:
                raise GermParseError(
                    f"duplicate {word.value} line in witness {name!r}",
                    word.line, word.col)
            if word.value == "stratum":
                lines["stratum"] = self.expect("IDENT", "set name").value
            elif word.value in ("gamma", "c"):
                lines[word.value] = self.parse_tuple()
            elif word.value == "assume":
                assumptions.append(self.expect("IDENT", "assumption name").value)
            else:
                raise GermParseError(
                    f"found {word.value!r}", word.line, word.col,
                    expected=("'stratum'", "'gamma'", "'c'", "'assume'"))
            self.end_line()
        self.expect("}", "'}'")
        self.end_line()
        if "gamma" not in lines:
            raise GermParseError("witness block needs a gamma line",
                                 head.line, head.col)
        witnesses[name] = WitnessDecl(
            name=name, stratum=lines.get("stratum"), gamma=lines["gamma"],
            coeffs=lines.get("c"), assumptions=tuple(assumptions),
            line=head.line, col=head.col)


# -- semantic evaluation -------------------------------------------------


class _Reject(Exception):
    """An algebra refuses an operation; eval_expr adds the node's position."""


@dataclass(frozen=True)
class _Algebra:
    names: dict  # name -> value
    conj: dict | None  # name -> value of conj(name); None outside mixed
    const: Callable  # Fraction -> value
    invert: Callable  # b -> 1/b, or raises _Reject
    negative_power: Callable | None = None  # v -> None or raises _Reject


_NOT_CONSTANT = "division is only defined by nonzero constants here"


def _real(ctx: VarContext) -> _Algebra:
    """Polynomial values over a fixed real context."""

    def invert(b):
        if not b.is_constant():
            raise _Reject(_NOT_CONSTANT)
        c = b.constant_value()
        if c == 0:
            raise _Reject("division by zero")
        return Fraction(1) / c

    return _Algebra(dict(zip(ctx.names, ctx.gens())), None, ctx.const, invert)


def _mixed(ctx: VarContext) -> _Algebra:
    """MixedPolynomial values; i and conj are live here."""

    def invert(b):
        if b.is_zero() or not all(p.is_constant() for p in b.parts.values()):
            raise _Reject(_NOT_CONSTANT)
        re, im = b.re.constant_value(), b.im.constant_value()
        norm = re * re + im * im
        return ComplexRational(re / norm, -im / norm)

    names = {n: MixedPolynomial.var(ctx, n) for n in ctx.names}
    names["i"] = MixedPolynomial.const(ctx, I)
    conj = {n: MixedPolynomial.conj_var(ctx, n) for n in ctx.names}
    return _Algebra(names, conj, lambda c: MixedPolynomial.const(ctx, c), invert)


def _rational(ctx: VarContext) -> _Algebra:
    """(numerator, denominator) pairs over a parameter context."""
    one = ctx.one()

    def invert(b):
        if b.num.is_zero():
            raise _Reject("division by an identically zero expression")
        return _Rat(b.den, b.num)

    return _Algebra({n: _Rat(g, one) for n, g in zip(ctx.names, ctx.gens())},
                    None, lambda c: _Rat(ctx.const(c), one), invert)


def _laurent(ctx: VarContext) -> _Algebra:
    """LaurentPoly values; the reserved name t is the tube variable."""

    def invert(b):
        parts = b.parts
        if len(parts) != 1 or 0 not in parts or not parts[0].is_constant():
            raise _Reject(_NOT_CONSTANT)
        return LaurentPoly.const(ctx, Fraction(1) / parts[0].constant_value())

    def negative_power(v):
        if len(v.parts) != 1 or not next(iter(v.parts.values())).is_constant():
            raise _Reject(
                "negative powers require a constant multiple of a power of t")

    names = {n: LaurentPoly.from_poly(g) for n, g in zip(ctx.names, ctx.gens())}
    names["t"] = LaurentPoly.t_power(ctx, 1)
    return _Algebra(names, None, lambda c: LaurentPoly.const(ctx, c), invert,
                    negative_power)


@dataclass(frozen=True)
class _Rat:
    num: Polynomial
    den: Polynomial

    def __add__(self, other):
        return _Rat(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __sub__(self, other):
        return _Rat(self.num * other.den - other.num * self.den,
                    self.den * other.den)

    def __mul__(self, other):
        return _Rat(self.num * other.num, self.den * other.den)

    def __neg__(self):
        return _Rat(-self.num, self.den)

    def __pow__(self, k: int):
        return _Rat(self.num**k, self.den**k)


def _collect_vars(node):
    """Names read as variables in node, conj() arguments excluded."""
    if node[0] == "var":
        yield node[1]
    for child in node[1:]:
        if isinstance(child, tuple):
            yield from _collect_vars(child)


def eval_expr(node, alg: _Algebra):
    tag = node[0]
    if tag == "int":
        return alg.const(node[1])
    if tag in ("var", "conj"):
        _, name, line, col = node
        table = alg.names if tag == "var" else alg.conj
        if table is None:
            raise GermParseError(
                "conj() is only available in mixed declarations", line, col)
        if name not in table:
            raise GermParseError(f"undeclared variable {name!r}", line, col)
        return table[name]
    if tag == "neg":
        return -eval_expr(node[1], alg)
    if tag == "add":
        return eval_expr(node[1], alg) + eval_expr(node[2], alg)
    if tag == "sub":
        return eval_expr(node[1], alg) - eval_expr(node[2], alg)
    if tag == "mul":
        return eval_expr(node[1], alg) * eval_expr(node[2], alg)
    try:
        if tag == "div":
            return eval_expr(node[1], alg) * alg.invert(eval_expr(node[2], alg))
        if tag == "pow":
            v, k = eval_expr(node[1], alg), node[2]
            if k < 0:
                if alg.negative_power is None:
                    raise _Reject(
                        "negative powers are only allowed on the tube variable t")
                alg.negative_power(v)
            return v**k
    except _Reject as exc:
        raise GermParseError(str(exc), node[3], node[4]) from None
    raise AssertionError(f"unknown node {tag}")


# -- resolved declarations -----------------------------------------------


@dataclass(frozen=True)
class WitnessSpec:
    name: str
    gamma: CurveFamily
    coeffs: tuple[LaurentPoly, ...] | None
    stratum: Parametrization | None
    assumptions: frozenset[str]


@dataclass(frozen=True)
class ResolvedMapGerm:
    kind = "map"
    name: str
    germ: RealMapGerm
    component_names: tuple[str, ...]
    sets: dict[str, list[Parametrization]]
    polys: dict[str, Polynomial]
    witnesses: dict[str, WitnessSpec]

    @property
    def ctx(self) -> VarContext:
        return self.germ.ctx

    def canonical_text(self) -> str:
        m, p = self.germ.source_arity, self.germ.target_arity
        out = [f"map {self.name} : R^{m} -> R^{p}",
               "vars " + ", ".join(self.ctx.names)]
        for cname, comp in zip(self.component_names, self.germ.components):
            out.append(f"{cname} = {comp.text()}")
        return "\n".join(out)


@dataclass(frozen=True)
class ResolvedMixedGerm:
    kind = "mixed"
    name: str
    ctx: VarContext  # complex variable names
    component_name: str
    poly: MixedPolynomial
    realified: RealMapGerm
    sets: dict[str, list[Parametrization]]
    polys: dict[str, Polynomial]

    @property
    def germ(self) -> RealMapGerm:
        # Mixed declarations take part in the real analyses via realification.
        return self.realified

    def canonical_text(self) -> str:
        out = [f"mixed {self.name} : C^{self.ctx.arity} -> C",
               "vars " + ", ".join(self.ctx.names),
               f"{self.component_name} = {self.poly.text()}"]
        return "\n".join(out)


@dataclass(frozen=True)
class GermFile:
    decls: tuple
    by_name: dict[str, object]

    def single(self, name: str | None = None):
        if name is not None:
            return pick(self.by_name, name, "germ")
        if len(self.decls) > 1:
            known = ", ".join(d.name for d in self.decls)
            raise GermlabUsage(
                f"file declares several germs ({known}); pick one with --germ")
        return self.decls[0]


class GermlabUsage(Exception):
    """Bad invocation: missing names, wrong modes.  Exit code 2 territory."""


def pick(table: dict, name: str, what: str, where: str = ""):
    """table[name], or a usage error listing the names the file has."""
    if name not in table:
        known = ", ".join(sorted(table)) or "none"
        raise GermlabUsage(f"no {what} named {name!r}{where} (file has: {known})")
    return table[name]


def _params_of(lines_asts: list, exclude=()) -> list[str]:
    names = dict.fromkeys(n for ast in lines_asts for n in _collect_vars(ast))
    return [n for n in names if n not in exclude]


def _param_context(names: list[str], what: str, line: int, col: int) -> VarContext:
    """The parameters of a set line or witness, s0 when there are none."""
    if len(names) > MAX_ARITY:
        raise GermParseError(f"{what} has {len(names)} parameters; a "
                             f"context holds at most {MAX_ARITY}", line, col)
    return VarContext(names or ["s0"])


def _resolve_witness(wd: WitnessDecl, target: VarContext,
                     sets: dict[str, list[Parametrization]],
                     target_arity: int) -> WitnessSpec:
    stratum = None
    stratum_params: list[str] = []
    if wd.stratum is not None:
        if wd.stratum not in sets:
            raise GermParseError(
                f"witness {wd.name!r} references unknown set {wd.stratum!r}",
                wd.line, wd.col)
        comps = sets[wd.stratum]
        if len(comps) != 1:
            raise GermParseError(
                f"stratum set {wd.stratum!r} must have exactly one component",
                wd.line, wd.col)
        stratum = comps[0]
        stratum_params = list(stratum.params.names)
        if "t" in stratum_params:
            raise GermParseError(
                f"stratum set {wd.stratum!r} has a parameter 't', the tube "
                f"variable of witness {wd.name!r}", wd.line, wd.col)

    if len(wd.gamma) != target.arity:
        raise GermParseError(
            f"gamma has {len(wd.gamma)} coordinates for {target.arity} variables",
            wd.line, wd.col)
    if wd.coeffs is not None and len(wd.coeffs) != target_arity:
        raise GermParseError(
            f"c has {len(wd.coeffs)} entries for {target_arity} components",
            wd.line, wd.col)

    inferred = _params_of(wd.gamma + (wd.coeffs or []), exclude=("t",))
    clash = [n for n in inferred if n in target.names]
    if clash:
        raise GermParseError(
            f"witness {wd.name!r} reuses germ variable {clash[0]!r} as a parameter",
            wd.line, wd.col)
    names = stratum_params + [n for n in inferred if n not in stratum_params]
    ctx = _param_context(names, f"witness {wd.name!r}", wd.line, wd.col)
    alg = _laurent(ctx)
    gamma = CurveFamily(
        target=target, params=ctx,
        coords=tuple(eval_expr(ast, alg) for ast in wd.gamma))
    coeffs = (None if wd.coeffs is None
              else tuple(eval_expr(ast, alg) for ast in wd.coeffs))
    if stratum is not None and stratum.params.names != ctx.names:
        # Re-express the stratum over the witness's joint parameter context.
        stratum = Parametrization(
            target=stratum.target, params=ctx,
            numerators=tuple(p.lift(ctx) for p in stratum.numerators),
            denominators=tuple(p.lift(ctx) for p in stratum.denominators),
            name=stratum.name)
    return WitnessSpec(name=wd.name, gamma=gamma, coeffs=coeffs,
                       stratum=stratum, assumptions=frozenset(wd.assumptions))


def parse_text(text: str) -> GermFile:
    return _Parser(tokenize(text)).parse_file()


def parse_path(path) -> GermFile:
    from pathlib import Path

    try:
        return parse_text(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise GermlabUsage(f"{path}: not UTF-8 text ({exc.reason} at byte "
                           f"{exc.start})") from None


def parse_mixed_expr(text: str, ctx: VarContext) -> MixedPolynomial:
    """One mixed-polynomial expression over the given complex variables."""
    parser = _Parser(tokenize(text))
    parser.skip_newlines()
    ast = parser.parse_expr()
    parser.skip_newlines()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise GermParseError(f"found {tail.value!r} after the expression",
                             tail.line, tail.col)
    return eval_expr(ast, _mixed(ctx))
