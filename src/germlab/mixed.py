"""Mixed polynomials: complex polynomials in z and conj(z), kept exact.

A mixed polynomial is re + i*im, where re and im are rational Polynomials
over the doubled context (z1, ..., zn, conj(z1), ..., conj(zn)): the
exponent vector of a term is nu followed by mu, standing for
z^nu * zbar^mu.  MixedPolynomial is the `poly.Graded` ring with u = i,
part 0 the real part and part 1 the imaginary part, so every sum, product
and Hermitian pairing is one `_graded_chains` expansion and one sum of
products per part on the packed-integer kernel.  Besides:

* Wirtinger derivatives are `Polynomial.diff` in a z or conj(z) variable,
  and conjugation swaps the two halves of each exponent vector;
* a mixed polynomial is holomorphic exactly when no exponent vector has a
  nonzero conj(z) half, so holomorphy detection is a structural check, not
  a limit computation;
* realification substitutes z = x + i*y through the same expansion, and
  Wirtinger calculus and realification are independent routes out of the
  same data, which is what lets the regularity checks compare them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

from germlab.poly import Exponents, Graded, Polynomial, VarContext, _coeff, _graded_chains


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


class MixedPolynomial(Graded):
    """Expanded mixed polynomial over named complex variables.

    re and im, parts 0 and 1, are the real and imaginary parts,
    Polynomials over the doubled context; `terms` is the view
    (nu, mu) -> ComplexRational, where nu indexes powers of z and mu
    powers of conj(z).
    """

    __slots__ = ()
    _scalars = (int, Fraction, ComplexRational)
    _part_ctx = staticmethod(_doubled)

    @staticmethod
    def _land(k: int) -> tuple[int, bool]:
        return k % 2, k % 4 > 1  # i^k = (-1)^(k // 2) * i^(k % 2)

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
        super().__init__(ctx, {0: Polynomial(d, re), 1: Polynomial(d, im)})

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _gen(ctx: VarContext, j: int) -> "MixedPolynomial":
        d = _doubled(ctx)
        return MixedPolynomial._of(ctx, {0: d.var(d.names[j])})

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
        return MixedPolynomial._of(ctx, {0: d.const(c.re), 1: d.const(c.im)})

    # -- queries ---------------------------------------------------------

    @property
    def re(self) -> Polynomial:
        return self.parts.get(0) or _doubled(self.ctx).zero()

    @property
    def im(self) -> Polynomial:
        return self.parts.get(1) or _doubled(self.ctx).zero()

    @property
    def terms(self) -> dict[TermKey, ComplexRational]:
        n = self.ctx.arity
        re, im = self.re.terms, self.im.terms
        return {(e[:n], e[n:]): ComplexRational(re.get(e, 0), im.get(e, 0))
                for e in {**re, **im}}

    def has_constant_term(self) -> bool:
        return any(p.has_constant_term() for p in self.parts.values())

    def is_holomorphic(self) -> bool:
        """No conjugated variable survives expansion."""
        conj = _doubled(self.ctx).names[self.ctx.arity:]
        return not any(p.degree_in(v) for p in self.parts.values() for v in conj)

    def support(self) -> set[int]:
        """Indices of complex variables actually appearing."""
        n, names = self.ctx.arity, _doubled(self.ctx).names
        return {i for i in range(n) for p in self.parts.values()
                if p.degree_in(names[i]) or p.degree_in(names[n + i])}

    def conj(self) -> "MixedPolynomial":
        """Complex conjugate: swap z and conj(z) exponents, negate im."""
        n = self.ctx.arity
        return self._of(self.ctx, {k: -_swap(p, n) if k else _swap(p, n)
                                   for k, p in self.parts.items()})

    # -- Wirtinger calculus ----------------------------------------------

    def _diff(self, j: int) -> "MixedPolynomial":
        v = _doubled(self.ctx).names[j]
        return self._of(self.ctx, {k: p.diff(v) for k, p in self.parts.items()})

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
        with d = |a - b|.  Each term is one chain of graded factors: its
        coefficient at grade 0 (real part) or 1 (imaginary part), then
        |z_j|^2m at grade 0 and the real and imaginary parts of each power
        at grades 0 and 1, so `_graded_chains` sends each choice of parts
        to the real or imaginary sum with the sign of i^k.
        """
        n = self.ctx.arity
        real_ctx = realified_context(self.ctx)
        gens = real_ctx.gens()
        const = lru_cache(maxsize=None)(real_ctx.const)  # one factor per value

        @lru_cache(maxsize=None)
        def modulus(j: int, m: int) -> dict[int, Polynomial]:
            x, y = gens[2 * j], gens[2 * j + 1]
            return {0: (x * x + y * y) ** m}

        @lru_cache(maxsize=None)
        def power(j: int, d: int, s: int) -> dict[int, Polynomial]:
            # (x + s*i*y)^d = sum_r C(d, r) * (s*i)^r * x^(d - r) * y^r, s = +-1
            parts = ({}, {})
            for r in range(d + 1):
                e = [0] * (2 * n)
                e[2 * j], e[2 * j + 1] = d - r, r
                parts[r % 2][tuple(e)] = comb(d, r) * s ** r * (-1 if r % 4 > 1 else 1)
            return {0: Polynomial(real_ctx, parts[0]), 1: Polynomial(real_ctx, parts[1])}

        chains = []
        for k, part in sorted(self.parts.items()):
            for e, c in part.terms.items():
                chain = [{k: const(c)}]
                for j in range(n):
                    a, b = e[j], e[n + j]
                    if a and b:
                        chain.append(modulus(j, min(a, b)))
                    if a != b:
                        chain.append(power(j, abs(a - b), 1 if a > b else -1))
                chains.append(chain)
        buckets = _graded_chains(real_ctx, chains, self._land)
        return tuple(Polynomial.sum_of_products(real_ctx, buckets.get(b, [])) for b in (0, 1))

    # -- printing --------------------------------------------------------

    def text(self) -> str:
        """Canonical form mirroring the input syntax: conj(v) for zbar.

        Graded lex on the doubled exponent, whose names print each conj(z)
        factor the way the parser reads it; a real coefficient prints as
        in Polynomial.text.
        """
        d, re, im = _doubled(self.ctx), self.re.terms, self.im.terms
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


def realified_context(ctx: VarContext) -> VarContext:
    return VarContext([f"{n}_{part}" for n in ctx.names for part in ("re", "im")])


def hermitian_pairing(us: Iterable[MixedPolynomial],
                      vs: Iterable[MixedPolynomial]) -> MixedPolynomial:
    """<u, v> = sum u_j * conj(v_j), conjugate-linear in the second slot."""
    us, vs = list(us), list(vs)
    if not us or len(us) != len(vs):
        raise ValueError(f"pairing needs two nonempty vectors of one length, "
                         f"got {len(us)} and {len(vs)}")
    ctx = us[0].ctx
    for p in us + vs:
        if p.ctx != ctx:
            raise ValueError(f"context mismatch: {ctx!r} vs {p.ctx!r}")
    return MixedPolynomial.sum_of_products(ctx, [(u, v.conj()) for u, v in zip(us, vs)])
