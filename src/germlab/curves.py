"""Curve families: finite Laurent expansions in t with polynomial spectators.

A witness curve gamma(t) and its coefficient path c(t) are vectors of
LaurentPoly values: finitely many powers of t, each weighted by an exact
polynomial in the spectator parameters.  Substituting such a vector into a
germ component stays inside the same ring, so limits as t -> 0 reduce to
reading off the minimal surviving power of t.

LaurentPoly is the `poly.Graded` ring with u = t, one part per power of t,
and its operators are `poly.RingElement`'s, the ones Polynomial has.  Its
sums and products, `CurveFamily.pullback` (`substitute` reads the ring
from the Laurent coordinates) and `witness.normal_vector_along_curve` all
run on `LaurentPoly.sum_of_products`: one poly-kernel sum of products per
power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from germlab.poly import Graded, Polynomial, VarContext, substitute


class LaurentPoly(Graded):
    """sum_k p_k(s) * t^k with integer k of either sign and p_k exact."""

    __slots__ = ()
    _scalars = (int, Fraction, Polynomial)  # read through const

    def __init__(self, ctx: VarContext, parts: Mapping[int, Polynomial]):
        for k, p in parts.items():
            if not isinstance(k, int):
                raise ValueError(f"power of t must be an int, got {k!r}")
            if p.ctx != ctx:
                raise ValueError(f"spectator context mismatch: {p.ctx!r} vs {ctx!r}")
        super().__init__(ctx, parts)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def t_power(ctx: VarContext, k: int) -> "LaurentPoly":
        return LaurentPoly(ctx, {k: ctx.one()})

    @staticmethod
    def from_poly(p: Polynomial) -> "LaurentPoly":
        return LaurentPoly(p.ctx, {0: p})

    @staticmethod
    def const(ctx: VarContext, c) -> "LaurentPoly":
        # A Polynomial over the spectators is the coefficient of t^0.
        if isinstance(c, Polynomial):
            return LaurentPoly.from_poly(c)
        return LaurentPoly(ctx, {0: ctx.const(c)})

    # -- queries ---------------------------------------------------------

    def valuation(self) -> int:
        """Smallest power of t with a surviving coefficient."""
        if not self.parts:
            raise ValueError("zero expansion has no valuation")
        return min(self.parts)

    def leading(self) -> Polynomial:
        return self.parts[self.valuation()]

    def coefficient(self, k: int) -> Polynomial:
        return self.parts.get(k, self.ctx.zero())

    # -- arithmetic ------------------------------------------------------

    def __pow__(self, k: int):
        if not isinstance(k, int) or k >= 0:
            return super().__pow__(k)
        # Only monomials in t with constant coefficient invert exactly.
        if len(self.parts) != 1:
            raise ValueError(f"cannot invert {self}")
        (kk, p), = self.parts.items()
        if not p.is_constant():
            raise ValueError(f"cannot invert non-constant coefficient {p}")
        inv = LaurentPoly(self.ctx, {-kk: self.ctx.const(Fraction(1) / p.constant_value())})
        return inv ** (-k)

    # -- printing --------------------------------------------------------

    def text(self) -> str:
        if not self.parts:
            return "0"
        out = []
        for k in sorted(self.parts, reverse=True):
            p = self.parts[k]
            body = p.text()
            if " " in body:  # a sum: its terms print with spaces between
                body = f"({body})"
            if k == 0:
                out.append(body)
            else:
                tk = "t" if k == 1 else f"t^{k}"
                out.append(tk if body == "1" else f"{body}*{tk}")
        return " + ".join(out)


@dataclass(frozen=True)
class CurveFamily:
    """A parametrized arc t -> gamma(t; s) into a germ's source space."""

    target: VarContext
    params: VarContext
    coords: tuple[LaurentPoly, ...]

    def __post_init__(self):
        if len(self.coords) != self.target.arity:
            raise ValueError(f"{len(self.coords)} coordinates for "
                             f"{self.target.arity} variables")
        if any(c.ctx != self.params for c in self.coords):
            raise ValueError("coordinate not over the curve's parameters")

    def pullback(self, p: Polynomial) -> LaurentPoly:
        """p(gamma(t)), exact in the Laurent ring."""
        if p.ctx != self.target:
            raise ValueError("polynomial not over the curve's target")
        return substitute(p, self.coords)

    def limit_coords(self) -> tuple[Polynomial, ...] | None:
        """Coordinates of gamma(0), or None when some coordinate blows up."""
        out = []
        for c in self.coords:
            if c.is_zero():
                out.append(self.params.zero())
                continue
            if c.valuation() < 0:
                return None
            out.append(c.coefficient(0))
        return tuple(out)

    def text(self) -> str:
        return "(" + ", ".join(c.text() for c in self.coords) + ")"


@dataclass(frozen=True)
class DirectionLimit:
    """Leading direction of a Laurent vector as t -> 0.

    The valuation is the minimal power of t appearing in any coordinate;
    leading collects each coordinate's coefficient at that power.
    """

    valuation: int
    leading: tuple[Polynomial, ...]

    def text(self) -> str:
        return "(" + ", ".join(p.text() for p in self.leading) + ")"


def direction_limit(vec: Sequence[LaurentPoly]) -> DirectionLimit:
    nonzero = [v for v in vec if not v.is_zero()]
    if not nonzero:
        raise ValueError("direction limit of the zero vector")
    nu = min(v.valuation() for v in nonzero)
    ctx = vec[0].ctx
    leading = tuple(v.coefficient(nu) if not v.is_zero() else ctx.zero() for v in vec)
    return DirectionLimit(valuation=nu, leading=leading)
