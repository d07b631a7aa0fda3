"""Mixed polynomials: complex polynomials in z and conj(z), kept exact.

A mixed polynomial is stored as re + i*im, where re and im are rational
Polynomials over the doubled context (z1, ..., zn, conj(z1), ..., conj(zn)):
the exponent vector of a term is nu followed by mu, standing for
z^nu * zbar^mu.  Every operation is an operation of the Polynomial ring, so
products and sums of products run on its packed-integer kernel:

* a product or a Hermitian pairing is two sums of products, one for the
  real part and one for the imaginary part;
* Wirtinger derivatives are `Polynomial.diff` in a z or conj(z) variable,
  and conjugation swaps the two halves of each exponent vector;
* a mixed polynomial is holomorphic exactly when no exponent vector has a
  nonzero conj(z) half, so holomorphy detection is a structural check, not
  a limit computation;
* realification substitutes z = x + i*y, and Wirtinger calculus and
  realification are independent routes out of the same data, which is
  what lets the regularity checks compare them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping, Sequence

from germlab.poly import (Exponents, Polynomial, VarContext, _coeff, _power,
                          _sum_of_products)


class ComplexRational:
    """Exact complex coefficient with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _coeff(re)
        self.im = _coeff(im)

    @staticmethod
    def coerce(v) -> "ComplexRational":
        if isinstance(v, ComplexRational):
            return v
        return ComplexRational(v)

    def __add__(self, other):
        if not isinstance(other, (int, Fraction, ComplexRational)):
            return NotImplemented
        other = ComplexRational.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def text(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        im = f"+ {abs(self.im)}*i" if self.im > 0 else f"- {abs(self.im)}*i"
        if abs(self.im) == 1:
            im = im[:-3] + "i"
        return f"({self.re} {im})"


I = ComplexRational(0, 1)

TermKey = tuple[Exponents, Exponents]


@lru_cache(maxsize=64)
def _doubled(ctx: VarContext) -> VarContext:
    """The context (z1, ..., zn, conj(z1), ..., conj(zn)) of the two parts."""
    return VarContext(ctx.names + tuple(f"conj({n})" for n in ctx.names))


def _swap(p: Polynomial, n: int) -> Polynomial:
    # z^nu * zbar^mu -> z^mu * zbar^nu
    return p._moved(p.ctx, [*range(n, 2 * n), *range(n)])


class MixedPolynomial:
    """Expanded mixed polynomial over named complex variables.

    re and im are the real and imaginary parts, Polynomials over the
    doubled context; `terms` is the view (nu, mu) -> ComplexRational,
    where nu indexes powers of z and mu powers of conj(z).
    """

    __slots__ = ("ctx", "re", "im")

    def __init__(self, ctx: VarContext, terms: Mapping[TermKey, ComplexRational]):
        n = ctx.arity
        re, im = {}, {}
        for (nu, mu), c in terms.items():
            if len(nu) != n or len(mu) != n:
                raise ValueError(f"exponent pair {(nu, mu)} is not two vectors of length {n}")
            c = ComplexRational.coerce(c)
            e = tuple(nu) + tuple(mu)
            re[e], im[e] = c.re, c.im
        d = _doubled(ctx)
        self.ctx, self.re, self.im = ctx, Polynomial(d, re), Polynomial(d, im)

    @classmethod
    def _trusted(cls, ctx: VarContext, re: Polynomial, im: Polynomial) -> "MixedPolynomial":
        p = object.__new__(cls)
        p.ctx, p.re, p.im = ctx, re, im
        return p

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _gen(ctx: VarContext, j: int) -> "MixedPolynomial":
        d = _doubled(ctx)
        return MixedPolynomial._trusted(ctx, d.var(d.names[j]), d.zero())

    @staticmethod
    def var(ctx: VarContext, name: str) -> "MixedPolynomial":
        return MixedPolynomial._gen(ctx, ctx.position(name))

    @staticmethod
    def conj_var(ctx: VarContext, name: str) -> "MixedPolynomial":
        return MixedPolynomial._gen(ctx, ctx.arity + ctx.position(name))

    @staticmethod
    def const(ctx: VarContext, c) -> "MixedPolynomial":
        c = ComplexRational.coerce(c)
        d = _doubled(ctx)
        return MixedPolynomial._trusted(ctx, d.const(c.re), d.const(c.im))

    # -- queries ---------------------------------------------------------

    @property
    def terms(self) -> dict[TermKey, ComplexRational]:
        n = self.ctx.arity
        re, im = self.re.terms, self.im.terms
        return {(e[:n], e[n:]): ComplexRational(re.get(e, 0), im.get(e, 0))
                for e in {**re, **im}}

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def is_holomorphic(self) -> bool:
        """No conjugated variable survives expansion."""
        conj = self.re.ctx.names[self.ctx.arity:]
        return not any(p.degree_in(v) for p in (self.re, self.im) for v in conj)

    def support(self) -> set[int]:
        """Indices of complex variables actually appearing."""
        n, names = self.ctx.arity, self.re.ctx.names
        return {i for i in range(n) for p in (self.re, self.im)
                if p.degree_in(names[i]) or p.degree_in(names[n + i])}

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "MixedPolynomial | None":
        if isinstance(other, (int, Fraction, ComplexRational)):
            return MixedPolynomial.const(self.ctx, other)
        if not isinstance(other, MixedPolynomial):
            return None
        if other.ctx != self.ctx:
            raise ValueError(f"context mismatch: {self.ctx!r} vs {other.ctx!r}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MixedPolynomial._trusted(self.ctx, self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return MixedPolynomial._trusted(self.ctx, -self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MixedPolynomial._trusted(self.ctx, self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _mixed_sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, MixedPolynomial.const(self.ctx, 1))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = MixedPolynomial.const(self.ctx, other)
        if not isinstance(other, MixedPolynomial):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def conj(self) -> "MixedPolynomial":
        """Complex conjugate: swap z and conj(z) exponents, negate im."""
        n = self.ctx.arity
        return MixedPolynomial._trusted(self.ctx, _swap(self.re, n), -_swap(self.im, n))

    # -- Wirtinger calculus ----------------------------------------------

    def _diff(self, j: int) -> "MixedPolynomial":
        v = self.re.ctx.names[j]
        return MixedPolynomial._trusted(self.ctx, self.re.diff(v), self.im.diff(v))

    def dz(self, name: str) -> "MixedPolynomial":
        """Derivative in z_name, treating conj(z) as an independent symbol."""
        return self._diff(self.ctx.position(name))

    def dzbar(self, name: str) -> "MixedPolynomial":
        return self._diff(self.ctx.arity + self.ctx.position(name))

    def wirtinger(self) -> tuple[tuple["MixedPolynomial", ...], tuple["MixedPolynomial", ...]]:
        dzs = tuple(self.dz(n) for n in self.ctx.names)
        dzbars = tuple(self.dzbar(n) for n in self.ctx.names)
        return dzs, dzbars

    # -- realification ---------------------------------------------------

    def realify(self) -> tuple[Polynomial, Polynomial]:
        """Real and imaginary parts over interleaved real coordinates.

        z_j = v_re + i*v_im where v is the complex variable's name; the real
        context interleaves (v1_re, v1_im, v2_re, v2_im, ...).  In a term,
        z_j^a * conj(z_j)^b is |z_j|^(2 min(a, b)) times z_j^d or conj(z_j)^d
        with d = |a - b|.  Choosing the real or the imaginary part of each
        such power gives one chain of cached real powers; the number k of
        imaginary choices, plus one for the coefficient's imaginary part,
        sends the chain to the real (k even) or imaginary (k odd) sum with
        the sign of i^k.
        """
        real_ctx, (re, im) = self._realify_chains()
        return _sum_of_products(real_ctx, re), _sum_of_products(real_ctx, im)

    def _realify_chains(self):
        """realify's context and its (real, imaginary) lists of chains."""
        n = self.ctx.arity
        real_ctx = realified_context(self.ctx)
        gens = real_ctx.gens()
        const = lru_cache(maxsize=None)(real_ctx.const)  # one factor per value

        @lru_cache(maxsize=None)
        def modulus(j: int, m: int) -> Polynomial:
            x, y = gens[2 * j], gens[2 * j + 1]
            return (x * x + y * y) ** m

        @lru_cache(maxsize=None)
        def power(j: int, d: int) -> tuple[Polynomial, Polynomial]:
            # (x + i*y)^d = sum_r C(d, r) * i^r * x^(d - r) * y^r
            parts = ({}, {})
            for r in range(d + 1):
                e = [0] * (2 * n)
                e[2 * j], e[2 * j + 1] = d - r, r
                parts[r % 2][tuple(e)] = -comb(d, r) if r % 4 > 1 else comb(d, r)
            return Polynomial(real_ctx, parts[0]), Polynomial(real_ctx, parts[1])

        chains: tuple[list, list] = ([], [])
        for k0, part in ((0, self.re), (1, self.im)):
            for e, c in part.terms.items():
                picks = [(k0, c, [])]  # (power of i, coefficient, factors)
                for j in range(n):
                    a, b = e[j], e[n + j]
                    shared = [modulus(j, min(a, b))] if a and b else []
                    if a == b:
                        picks = [(k, s, f + shared) for k, s, f in picks]
                        continue
                    re, im = power(j, abs(a - b))
                    flip = 1 if a > b else -1  # conj(z)^d has imaginary part -im
                    picks = [(k + t, s * flip if t else s, f + shared + [g])
                             for k, s, f in picks for t, g in ((0, re), (1, im))]
                for k, s, f in picks:
                    chains[k % 2].append([const(-s if k % 4 > 1 else s), *f])
        return real_ctx, chains

    # -- printing --------------------------------------------------------

    def text(self) -> str:
        """Canonical form mirroring the input syntax: conj(v) for zbar.

        Graded lex on the doubled exponent, whose names print each conj(z)
        factor the way the parser reads it; a real coefficient prints as
        in Polynomial.text.
        """
        d, re, im = self.re.ctx, self.re.terms, self.im.terms
        out = []
        for e in sorted({**re, **im}, key=lambda e: (sum(e), e), reverse=True):
            c = ComplexRational(re.get(e, 0), im.get(e, 0))
            if not c.im:
                t = Polynomial(d, {e: c.re}).text()
            else:
                mono = Polynomial(d, {e: 1}).text()
                t = c.text() if mono == "1" else f"{c.text()}*{mono}"
            # The parser takes a unary minus only at the start of an expression.
            out.append(t if not out else f"- {t[1:]}" if t[0] == "-" else f"+ {t}")
        return " ".join(out) or "0"

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"MixedPolynomial({self.text()})"


def realified_context(ctx: VarContext) -> VarContext:
    return VarContext([f"{n}_{part}" for n in ctx.names for part in ("re", "im")])


def _mixed_sum_of_products(pairs: Sequence[tuple[MixedPolynomial, MixedPolynomial]]
                           ) -> MixedPolynomial:
    """sum a * b over the pairs, as one sum of products per part.

    (a.re + i a.im)(b.re + i b.im) has real part a.re b.re - a.im b.im and
    imaginary part a.re b.im + a.im b.re.
    """
    ctx = pairs[0][0].ctx
    for pair in pairs:
        for p in pair:
            if p.ctx != ctx:
                raise ValueError(f"context mismatch: {ctx!r} vs {p.ctx!r}")
    d = _doubled(ctx)
    minus = d.const(-1)
    re = _sum_of_products(d, [c for a, b in pairs
                              for c in ((a.re, b.re), (minus, a.im, b.im))])
    im = _sum_of_products(d, [c for a, b in pairs
                              for c in ((a.re, b.im), (a.im, b.re))])
    return MixedPolynomial._trusted(ctx, re, im)


def hermitian_pairing(us: Iterable[MixedPolynomial],
                      vs: Iterable[MixedPolynomial]) -> MixedPolynomial:
    """<u, v> = sum u_j * conj(v_j), conjugate-linear in the second slot."""
    us, vs = list(us), list(vs)
    if not us or len(us) != len(vs):
        raise ValueError(f"pairing needs two nonempty vectors of one length, "
                         f"got {len(us)} and {len(vs)}")
    return _mixed_sum_of_products([(u, v.conj()) for u, v in zip(us, vs)])
