"""Mixed polynomials: complex polynomials in z and conj(z), kept exact.

A mixed polynomial is stored expanded as a map (nu, mu) -> complex rational
coefficient, standing for sum c * z^nu * zbar^mu.  Wirtinger derivatives
act term by term on that form, and realification expands each monomial into
a pair of real polynomials over interleaved coordinates (re, im per complex
variable).  Two consequences worth stating once:

* a mixed polynomial is holomorphic exactly when no term has mu != 0, so
  holomorphy detection is a structural check, not a limit computation;
* realification and Wirtinger calculus are independent routes out of the
  same data, which is what lets the regularity checks compare them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from germlab.poly import Exponents, Polynomial, VarContext


class ComplexRational:
    """Exact complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        assert not isinstance(re, float) and not isinstance(im, float)
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

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

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, ComplexRational)):
            return NotImplemented
        return self + (-ComplexRational.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction, ComplexRational)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction, ComplexRational)):
            return NotImplemented
        other = ComplexRational.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conj(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, ComplexRational)):
            return NotImplemented
        other = ComplexRational.coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

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

    def __repr__(self) -> str:
        return f"ComplexRational({self.text()})"


I = ComplexRational(0, 1)

TermKey = tuple[Exponents, Exponents]


def _mixed_key(k: TermKey):
    nu, mu = k
    total = sum(nu) + sum(mu)
    return (total, nu, mu)


class MixedPolynomial:
    """Expanded mixed polynomial over named complex variables.

    Terms map (nu, mu) exponent pairs to nonzero ComplexRational
    coefficients; nu indexes powers of z, mu powers of conj(z).
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VarContext, terms: Mapping[TermKey, ComplexRational]):
        self.ctx = ctx
        clean = {}
        for (nu, mu), c in terms.items():
            assert len(nu) == ctx.arity and len(mu) == ctx.arity
            c = ComplexRational.coerce(c)
            if c:
                clean[(tuple(nu), tuple(mu))] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @staticmethod
    def var(ctx: VarContext, name: str) -> "MixedPolynomial":
        e = [0] * ctx.arity
        e[ctx.position(name)] = 1
        zero = (0,) * ctx.arity
        return MixedPolynomial(ctx, {(tuple(e), zero): ComplexRational(1)})

    @staticmethod
    def conj_var(ctx: VarContext, name: str) -> "MixedPolynomial":
        e = [0] * ctx.arity
        e[ctx.position(name)] = 1
        zero = (0,) * ctx.arity
        return MixedPolynomial(ctx, {(zero, tuple(e)): ComplexRational(1)})

    @staticmethod
    def const(ctx: VarContext, c) -> "MixedPolynomial":
        zero = (0,) * ctx.arity
        return MixedPolynomial(ctx, {(zero, zero): ComplexRational.coerce(c)})

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_holomorphic(self) -> bool:
        """No conjugated variable survives expansion."""
        return all(not any(mu) for _, mu in self.terms)

    def support(self) -> set[int]:
        """Indices of complex variables actually appearing."""
        out = set()
        for nu, mu in self.terms:
            for i in range(self.ctx.arity):
                if nu[i] or mu[i]:
                    out.add(i)
        return out

    # -- arithmetic ------------------------------------------------------

    def _req(self, other: "MixedPolynomial"):
        assert self.ctx == other.ctx, "context mismatch"

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = MixedPolynomial.const(self.ctx, other)
        if not isinstance(other, MixedPolynomial):
            return NotImplemented
        self._req(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k, ComplexRational(0)) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return MixedPolynomial(self.ctx, terms)

    __radd__ = __add__

    def __neg__(self):
        return MixedPolynomial(self.ctx, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = MixedPolynomial.const(self.ctx, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            c = ComplexRational.coerce(other)
            return MixedPolynomial(self.ctx, {k: c * v for k, v in self.terms.items()})
        if not isinstance(other, MixedPolynomial):
            return NotImplemented
        self._req(other)
        terms: dict[TermKey, ComplexRational] = {}
        for (n1, m1), c1 in self.terms.items():
            for (n2, m2), c2 in other.terms.items():
                k = (
                    tuple(a + b for a, b in zip(n1, n2)),
                    tuple(a + b for a, b in zip(m1, m2)),
                )
                s = terms.get(k, ComplexRational(0)) + c1 * c2
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
        return MixedPolynomial(self.ctx, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        assert isinstance(k, int) and k >= 0
        out = MixedPolynomial.const(self.ctx, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = MixedPolynomial.const(self.ctx, other)
        if not isinstance(other, MixedPolynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def conj(self) -> "MixedPolynomial":
        """Complex conjugate: swap nu and mu, conjugate coefficients."""
        return MixedPolynomial(
            self.ctx, {(mu, nu): c.conj() for (nu, mu), c in self.terms.items()}
        )

    # -- Wirtinger calculus ----------------------------------------------

    def dz(self, name: str) -> "MixedPolynomial":
        """Derivative in z_name, treating conj(z) as an independent symbol."""
        i = self.ctx.position(name)
        terms = {}
        for (nu, mu), c in self.terms.items():
            if nu[i]:
                d = list(nu)
                d[i] -= 1
                k = (tuple(d), mu)
                terms[k] = terms.get(k, ComplexRational(0)) + c * nu[i]
        return MixedPolynomial(self.ctx, terms)

    def dzbar(self, name: str) -> "MixedPolynomial":
        i = self.ctx.position(name)
        terms = {}
        for (nu, mu), c in self.terms.items():
            if mu[i]:
                d = list(mu)
                d[i] -= 1
                k = (nu, tuple(d))
                terms[k] = terms.get(k, ComplexRational(0)) + c * mu[i]
        return MixedPolynomial(self.ctx, terms)

    def wirtinger(self) -> tuple[tuple["MixedPolynomial", ...], tuple["MixedPolynomial", ...]]:
        dzs = tuple(self.dz(n) for n in self.ctx.names)
        dzbars = tuple(self.dzbar(n) for n in self.ctx.names)
        return dzs, dzbars

    # -- realification ---------------------------------------------------

    def realify(self, real_ctx: VarContext | None = None) -> tuple[Polynomial, Polynomial]:
        """Real and imaginary parts over interleaved real coordinates.

        z_j = v_re + i*v_im where v is the complex variable's name; the real
        context interleaves (v1_re, v1_im, v2_re, v2_im, ...).
        """
        if real_ctx is None:
            real_ctx = realified_context(self.ctx)
        if real_ctx.arity != 2 * self.ctx.arity:
            raise ValueError(
                f"real context {real_ctx!r} needs {2 * self.ctx.arity} variables")
        pairs = []
        for j in range(self.ctx.arity):
            re = real_ctx.var(real_ctx.names[2 * j])
            im = real_ctx.var(real_ctx.names[2 * j + 1])
            pairs.append((re, im))

        total_re = real_ctx.zero()
        total_im = real_ctx.zero()
        for (nu, mu), c in self.terms.items():
            tre, tim = real_ctx.const(c.re), real_ctx.const(c.im)
            for j, (re, im) in enumerate(pairs):
                for _ in range(nu[j]):
                    tre, tim = tre * re - tim * im, tre * im + tim * re
                for _ in range(mu[j]):
                    tre, tim = tre * re + tim * im, tim * re - tre * im
            total_re = total_re + tre
            total_im = total_im + tim
        return total_re, total_im

    def evaluate(self, values: Sequence[complex]) -> complex:
        """Float evaluation at complex points; cross-checks only."""
        assert len(values) == self.ctx.arity
        total = 0j
        for (nu, mu), c in self.terms.items():
            term = complex(float(c.re), float(c.im))
            for v, k in zip(values, nu):
                term *= v**k
            for v, k in zip(values, mu):
                term *= v.conjugate() ** k
            total += term
        return total

    # -- printing --------------------------------------------------------

    def text(self) -> str:
        """Canonical form mirroring the input syntax: conj(v) for zbar."""
        if not self.terms:
            return "0"
        out = []
        for key in sorted(self.terms, key=_mixed_key, reverse=True):
            nu, mu = key
            c = self.terms[key]
            factors = []
            for j, name in enumerate(self.ctx.names):
                if nu[j]:
                    factors.append(name if nu[j] == 1 else f"{name}^{nu[j]}")
            for j, name in enumerate(self.ctx.names):
                if mu[j]:
                    factors.append(
                        f"conj({name})" if mu[j] == 1 else f"conj({name})^{mu[j]}"
                    )
            mono = "*".join(factors)
            if c.im:
                body = c.text() if not mono else f"{c.text()}*{mono}"
                out.append(body if not out else f"+ {body}")
                continue
            mag = abs(c.re)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not out:
                out.append(body if c.re > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if c.re > 0 else f"- {body}")
        return " ".join(out)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"MixedPolynomial({self.text()})"


def realified_context(ctx: VarContext) -> VarContext:
    names = []
    for n in ctx.names:
        names.extend([f"{n}_re", f"{n}_im"])
    return VarContext(names)


def hermitian_pairing(us: Iterable[MixedPolynomial],
                      vs: Iterable[MixedPolynomial]) -> MixedPolynomial:
    """<u, v> = sum u_j * conj(v_j), conjugate-linear in the second slot."""
    us, vs = list(us), list(vs)
    assert us and len(us) == len(vs)
    acc = MixedPolynomial.const(us[0].ctx, 0)
    for u, v in zip(us, vs):
        acc = acc + u * v.conj()
    return acc
