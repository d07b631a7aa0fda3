"""Exact multivariate polynomial arithmetic over rational coefficients.

Everything downstream (Jacobians, Milnor determinants, pullbacks) reduces to
the handful of operations defined here, so the module stays deliberately
small: dense exponent vectors, graded-lex ordering for printing, and a
fraction-free determinant.  No floats in any identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

Exponents = tuple[int, ...]


def _grlex(e: Exponents) -> tuple[int, Exponents]:
    # Graded lexicographic sort key: total degree first, then the exponent
    # vector itself.  Used descending for the canonical term order.
    return (sum(e), e)


def _coeff(c) -> Fraction:
    assert not isinstance(c, float), "core arithmetic is exact; no floats"
    return c if isinstance(c, Fraction) else Fraction(c)


class VarContext:
    """Ordered, immutable collection of variable names.

    Every Polynomial carries a reference to its context; operations on two
    polynomials require equal contexts (same names, same order).
    """

    __slots__ = ("names", "_pos")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("need at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable in {names!r}")
        # Dense exponent vectors; fine for the small arities used here.
        if len(names) > 10:
            raise ValueError(f"arity {len(names)} > 10 not supported")
        self.names = names
        self._pos = {n: i for i, n in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        if name not in self._pos:
            raise ValueError(f"unknown variable {name!r} in context {self.names}")
        return self._pos[name]

    def var(self, name: str) -> "Polynomial":
        e = [0] * self.arity
        e[self.position(name)] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def const(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * self.arity: _coeff(c)})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarContext) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarContext({', '.join(self.names)})"


class Polynomial:
    """A polynomial with Fraction coefficients over a fixed VarContext.

    Terms map dense exponent tuples to nonzero coefficients; the zero
    polynomial stores no terms, so equal polynomials have identical term
    maps.  Instances are immutable by convention.

    Example
    -------
    >>> ctx = VarContext(["x", "y"])
    >>> x, y = ctx.gens()
    >>> ((x + y) * (x - y)).text()
    'x^2 - y^2'
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Mapping[Exponents, Fraction]):
        self.ctx = ctx
        clean = {}
        for e, c in terms.items():
            assert len(e) == ctx.arity, f"exponent vector {e} has wrong length"
            c = _coeff(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        assert self.is_constant(), f"not a constant: {self}"
        return self.terms.get((0,) * self.ctx.arity, Fraction(0))

    def degree_in(self, name: str) -> int:
        i = self.ctx.position(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self) -> tuple[Exponents, Fraction]:
        """Leading term under graded lex.  Undefined on zero."""
        assert self.terms, "zero polynomial has no leading term"
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    # -- ring operations -------------------------------------------------

    def _require_same_ctx(self, other: "Polynomial") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ctx(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Polynomial(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -_coeff(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return Polynomial(self.ctx, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ctx(other)
        terms: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Polynomial(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        assert isinstance(k, int) and k >= 0, f"bad exponent {k!r}"
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ctx.names, frozenset(self.terms.items())))

    # -- calculus and evaluation ----------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.ctx.position(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                terms[tuple(d)] = c * e[i]
        return Polynomial(self.ctx, terms)

    def gradient(self) -> tuple["Polynomial", ...]:
        return tuple(self.diff(n) for n in self.ctx.names)

    def evaluate(self, values: Sequence):
        """Substitute values for the variables, left to right.

        Values may be Fractions (exact), floats (approximate cross-checks
        only), or Polynomials over another context (composition).
        """
        if len(values) != self.ctx.arity:
            raise ValueError(
                f"expected {self.ctx.arity} values, got {len(values)}")
        total = None
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    def lift(self, ctx: VarContext) -> "Polynomial":
        """Reinterpret over a larger context containing this one's names."""
        if ctx == self.ctx:
            return self
        pos = [ctx.position(n) for n in self.ctx.names]
        terms = {}
        for e, c in self.terms.items():
            big = [0] * ctx.arity
            for p, k in zip(pos, e):
                big[p] = k
            terms[tuple(big)] = c
        return Polynomial(ctx, terms)

    # -- exact division --------------------------------------------------

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Quotient self / divisor when the division is exact.

        Repeated leading-term cancellation under graded lex; in an integral
        domain the leading term of the remainder stays divisible whenever
        divisor | self, so a failed monomial division proves the division
        inexact.  Raises ArithmeticError then, and ZeroDivisionError (also
        an ArithmeticError) on a zero divisor.
        """
        self._require_same_ctx(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        ed, cd = divisor.leading()
        rem = dict(self.terms)
        out: dict[Exponents, Fraction] = {}
        while rem:
            er = max(rem, key=_grlex)
            cr = rem[er]
            eq = tuple(a - b for a, b in zip(er, ed))
            if any(k < 0 for k in eq):
                raise ArithmeticError(
                    f"inexact division: {Polynomial(self.ctx, rem)} by {divisor}")
            cq = cr / cd
            out[eq] = cq
            for e2, c2 in divisor.terms.items():
                e = tuple(a + b for a, b in zip(eq, e2))
                s = rem.get(e, 0) - cq * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return Polynomial(self.ctx, out)

    # -- printing --------------------------------------------------------

    def text(self) -> str:
        """Canonical form: graded-lex descending, explicit * and ^."""
        if not self.terms:
            return "0"
        out = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                n if k == 1 else f"{n}^{k}"
                for n, k in zip(self.ctx.names, e)
                if k
            )
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not out:
                out.append(body if c > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(out)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"


class PolyMatrix:
    """Rectangular matrix of Polynomials over one shared context."""

    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, rows: Sequence[Sequence[Polynomial]]):
        assert rows and rows[0], "empty matrix"
        self.ctx = rows[0][0].ctx
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.entries = []
        for row in rows:
            assert len(row) == self.cols, "ragged rows"
            for p in row:
                assert p.ctx == self.ctx, "mixed contexts in matrix"
            self.entries.append(list(row))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        assert self.cols == other.rows, f"shape mismatch {self.shape} @ {other.shape}"
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.ctx.zero()
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if not (a.is_zero() or b.is_zero()):
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def minors(self, k: int) -> list[Polynomial]:
        """All k x k minors, row/column index sets in lexicographic order."""
        assert 0 < k <= min(self.rows, self.cols)
        out = []
        for ri in combinations(range(self.rows), k):
            for ci in combinations(range(self.cols), k):
                out.append(self.submatrix(ri, ci).det())
        return out

    def det(self) -> Polynomial:
        """Exact determinant, fraction-free.

        Cofactor expansion below size 4; Bareiss elimination from size 4 on.
        All intermediate divisions in the Bareiss sweep are exact in the
        polynomial ring, so no rational functions ever appear.
        """
        assert self.rows == self.cols, f"determinant of non-square {self.shape}"
        n = self.rows
        if n < 4:
            return _cofactor_det(self.entries, self.ctx)
        return _bareiss_det(self.entries, self.ctx)


def _cofactor_det(m: list[list[Polynomial]], ctx: VarContext) -> Polynomial:
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = ctx.zero()
    for j in range(n):
        if m[0][j].is_zero():
            continue
        sub = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        term = m[0][j] * _cofactor_det(sub, ctx)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _bareiss_det(m: list[list[Polynomial]], ctx: VarContext) -> Polynomial:
    n = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = ctx.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            # Pivot search; a row swap flips the sign.
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return ctx.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = m[k][k] * m[i][j]
                if not (m[i][k].is_zero() or m[k][j].is_zero()):
                    elt = elt - m[i][k] * m[k][j]
                if k:
                    elt = elt.exact_div(prev)
                m[i][j] = elt
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign > 0 else -d
