"""Map germs, their Milnor sets, and rational parametrizations.

The central computation stacks the component gradients of a germ G on top
of the radial direction and takes the Gram determinant: its zero set is
where the fibers of G fail to meet spheres transversally.  The radial row
is the coordinate vector itself; the displayed determinants downstream are
all normalized to that choice, and rescaling the row by 2 would only square
an overall constant into them.

Parametrizations are tuples of rational functions used for declared set
components.  Membership claims never decompose varieties: they are checked
by exact pullback, with denominators cleared in a sum grouped one variable
at a time, so each cleared factor multiplies a grouped sum once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from germlab.poly import Polynomial, PolyMatrix, VarContext


class GermlabRejection(Exception):
    """An analysis precondition failed; carries a structured reason."""

    def __init__(self, reason: str, **details):
        super().__init__(reason)
        self.reason = reason
        self.details = details


@dataclass(frozen=True)
class RealMapGerm:
    """Polynomial map germ (R^m, 0) -> (R^p, 0), components over one context."""

    ctx: VarContext
    components: tuple[Polynomial, ...]
    name: str = ""

    def __post_init__(self):
        if not self.components:
            raise ValueError("a germ needs at least one component")
        p, m = self.target_arity, self.source_arity
        if m < p:
            raise ValueError(f"arities m={m}, p={p} out of range")
        for g in self.components:
            if g.ctx != self.ctx:
                raise ValueError("component over a foreign context")
            if g.has_constant_term():
                raise ValueError(f"component {g.text()} does not vanish at 0")

    @property
    def source_arity(self) -> int:
        return self.ctx.arity

    @property
    def target_arity(self) -> int:
        return len(self.components)

    def jacobian(self) -> PolyMatrix:
        return PolyMatrix([list(g.gradient()) for g in self.components])

    def stacked(self) -> PolyMatrix:
        """Jacobian rows plus the radial row (the coordinate vector)."""
        rows = [list(g.gradient()) for g in self.components]
        rows.append(list(self.ctx.gens()))
        return PolyMatrix(rows)

    def singular_minors(self) -> list[Polynomial]:
        """All p x p minors of the Jacobian; their common zeros are Sing G."""
        return self.jacobian().minors()

    def milnor_minors(self) -> list[Polynomial]:
        """The stacked matrix's maximal minors, cutting out M(G); none for m = p."""
        a = self.stacked()
        if a.rows > a.cols:
            raise GermlabRejection(
                f"stacked matrix of {self.label()} is {a.rows} x {a.cols}: "
                "no maximal minors cut out its Milnor set",
                stacked_shape=list(a.shape))
        return a.minors()

    def label(self) -> str:
        return self.name or "germ"


@dataclass(frozen=True)
class MilnorData:
    """The Milnor set's defining polynomial plus the routes that led to it."""

    germ: RealMapGerm
    stacked: PolyMatrix
    milnor_poly: Polynomial
    square_det: Polynomial | None  # det of the stacked matrix when square

    def to_json_dict(self) -> dict:
        out = {
            "germ": self.germ.label(),
            "milnor_poly": self.milnor_poly.text(),
            "stacked_shape": list(self.stacked.shape),
            "variables": list(self.germ.ctx.names),
        }
        if self.square_det is not None:
            out["square_det"] = self.square_det.text()
        return out


def milnor_data(germ: RealMapGerm) -> MilnorData:
    """Gram determinant of the stacked matrix A.

    When A is square, det(A A^T) = det(A)^2, so only det(A) is computed
    and squared; the test suite checks that identity against the Gram
    route and the Cauchy-Binet sum rather than assuming it.
    """
    a = germ.stacked()
    if a.rows == a.cols:
        square = a.det()
        return MilnorData(germ=germ, stacked=a, milnor_poly=square * square,
                          square_det=square)
    mp = a.gram().det()
    return MilnorData(germ=germ, stacked=a, milnor_poly=mp, square_det=None)


# -- rational parametrizations ------------------------------------------


@dataclass(frozen=True)
class Parametrization:
    """Tuple of rational functions s -> (n_1/d_1, ..., n_m/d_m).

    Declares one component of a semialgebraic set inside the target
    context's space.  Denominators must not vanish identically.
    """

    target: VarContext
    params: VarContext
    numerators: tuple[Polynomial, ...]
    denominators: tuple[Polynomial, ...]
    name: str = ""

    def __post_init__(self):
        m = self.target.arity
        if len(self.numerators) != m or len(self.denominators) != m:
            raise ValueError(
                f"{len(self.numerators)} numerators and "
                f"{len(self.denominators)} denominators for target arity {m}")
        for n, d in zip(self.numerators, self.denominators):
            if n.ctx != self.params or d.ctx != self.params:
                raise ValueError("coordinate over a foreign parameter context")
            if d.is_zero():
                raise ValueError("denominator identically zero")

    @property
    def dim(self) -> int:
        """Declared dimension: the number of parameters."""
        return self.params.arity

    def tangent_numerators(self, name: str) -> tuple[Polynomial, ...]:
        """Quotient-rule numerators of d/ds_name; denominators are d_i^2."""
        out = []
        for n, d in zip(self.numerators, self.denominators):
            out.append(n.diff(name) * d - n * d.diff(name))
        return tuple(out)

    def text(self) -> str:
        parts = []
        for n, d in zip(self.numerators, self.denominators):
            if d.is_constant() and d.constant_value() == 1:
                parts.append(n.text())
            else:
                parts.append(f"({n.text()})/({d.text()})")
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class PullbackResult:
    """Outcome of substituting a parametrization into one polynomial."""

    vanishes: bool
    numerator: Polynomial
    witness: tuple[Fraction, ...] | None = None
    witness_value: Fraction | None = None


def pullback_numerator(p: Polynomial, phi: Parametrization) -> Polynomial:
    """Numerator of p(phi(s)) after clearing denominators.

    Each variable x_i whose denominator d_i is not 1 is cleared to its
    degree D_i in p: the monomial c * prod x_i^{e_i} contributes
    c * prod n_i^{e_i} d_i^{D_i - e_i}.  The result vanishes identically
    exactly when the pullback does, since the cleared factor prod d_i^{D_i}
    is not identically zero.

    The sum is grouped one variable at a time, the cleared variables first,
    as in a multivariate Horner scheme (Ceberio & Kreinovich, "Greedy
    algorithms for optimizing multivariate Horner schemes", ACM SIGSAM
    Bulletin 38(1), 2004).  The terms split by their exponent j of the
    current variable x_i, and that level is one sum of products over the
    chains [R_j, n_i^j, d_i^(D_i - j)], where R_j is the grouped value of
    the remaining variables over the terms with exponent j.  So each
    cleared factor multiplies a grouped sum once, not a copy per term.
    Each power is built once per variable and exponent; no chain is built
    for j > 0 when n_i is 0, no d_i factor when d_i is 1, and none for an
    R_j that cancels to 0.

    The term order this gives is not `substitute`'s schoolbook order, and
    nothing reads it: every caller tests `is_zero()`, prints the sorted
    `text()`, evaluates exactly or pulls back again through the result.
    """
    if phi.target != p.ctx:
        raise ValueError(
            f"parametrization targets {phi.target!r}, polynomial lives in {p.ctx!r}")
    params, m = phi.params, p.ctx.arity
    nums, dens = phi.numerators, phi.denominators
    one = params.one()
    cleared = [d != one for d in dens]
    order = sorted(range(m), key=lambda i: not cleared[i])
    tops = [p.degree_in(name) if c else 0 for name, c in zip(p.ctx.names, cleared)]
    zero = [n.is_zero() for n in nums]
    powers: dict[tuple[int, int, bool], Polynomial] = {}

    def power(i: int, k: int, den: bool = False) -> Polynomial:
        got = powers.get((i, k, den))
        if got is None:
            got = powers[i, k, den] = (dens if den else nums)[i] ** k
        return got

    def grouped(terms: list, level: int) -> Polynomial:
        if level == m:
            ((_, c),) = terms  # the exponents are all split: one term is left
            return params.const(c)
        i = order[level]
        top = tops[i]
        groups: dict[int, list] = {}
        for t in terms:
            groups.setdefault(t[0][i], []).append(t)
        chains = []
        for j, part in groups.items():
            if j and zero[i]:
                continue
            r = grouped(part, level + 1)
            if r.is_zero():
                continue
            chain = [r]
            if j:
                chain.append(power(i, j))
            if top > j:
                chain.append(power(i, top - j, den=True))
            chains.append(chain)
        if len(chains) == 1 and len(chains[0]) == 1:
            return chains[0][0]
        return Polynomial.sum_of_products(params, chains)

    return grouped(list(p.terms.items()), 0)


def pullback_vanishes(p: Polynomial, phi: Parametrization) -> PullbackResult:
    """Exact vanishing of p along phi, with a rational witness otherwise."""
    num = pullback_numerator(p, phi)
    if num.is_zero():
        return PullbackResult(vanishes=True, numerator=num)
    witness, value = _nonzero_point(num, avoid=list(phi.denominators))
    return PullbackResult(vanishes=False, numerator=num,
                          witness=witness, witness_value=value)


def _nonzero_point(p: Polynomial, avoid: list[Polynomial]):
    """(point, p(point)) at a rational point where p and each of avoid are nonzero.

    Such points are dense, so the seeded search terminates fast; the
    deterministic fallback walks integer points outward.
    """
    from germlab.sampling import derive_rng, iter_rational_points, DEFAULT_SEED

    rng = derive_rng(DEFAULT_SEED, "pullback-witness")
    arity = p.ctx.arity
    fallback = (tuple(Fraction(k + i) for i in range(arity)) for k in range(1, 50))
    for pt in chain(islice(iter_rational_points(rng, arity, radius=2), 400), fallback):
        value = p.evaluate(pt)
        if value != 0 and all(q.evaluate(pt) != 0 for q in avoid):
            return pt, value
    raise AssertionError(f"could not find a nonzero point for {p}")


# -- realification of mixed maps ----------------------------------------


def realify_mixed(fs, name: str = "") -> RealMapGerm:
    """Realified germ of a tuple of mixed polynomials over one context.

    Each complex component contributes its real and imaginary part, in
    order, over the interleaved real coordinates of the shared context.
    """
    from germlab.mixed import realified_context

    fs = list(fs)
    if not fs:
        raise ValueError("no components to realify")
    ctx = fs[0].ctx
    rctx = realified_context(ctx)
    comps = []
    for f in fs:
        if f.ctx != ctx:
            raise ValueError(f"mixed components over different contexts: "
                             f"{ctx!r} vs {f.ctx!r}")
        re, im = f.realify()
        comps.extend([re, im])
    return RealMapGerm(ctx=rctx, components=tuple(comps), name=name)
