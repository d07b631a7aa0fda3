"""Conformal gradient frames and the constructions that preserve them.

A germ has an orthogonal frame of equal-length component gradients exactly
when J J^T is a scalar matrix; the scalar is the shared squared gradient
norm, called the conformal factor here.  Checks are exact: residuals are
polynomials, and a verdict of "holds" means every residual is the zero
polynomial, not small.

The mixed-route check decides on the pairing of conjugated Wirtinger
derivatives alone and never realifies the germ; the conformal factor of a
mixed germ, a real quantity, comes from the frame check of its
realification.  The two verdicts are computed independently so the test suite can compare them
rather than trusting one route.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from germlab.certify import RegularityReport
from germlab.germs import (
    GermlabRejection,
    Parametrization,
    RealMapGerm,
    milnor_data,
    pullback_numerator,
)
from germlab.mixed import MixedPolynomial, hermitian_pairing
from germlab.poly import Polynomial, PolyMatrix, VarContext


@dataclass(frozen=True)
class ConformalFrameResult:
    """Outcome of the J J^T = lambda I check.

    residuals holds the offending polynomials keyed by position; empty
    exactly when the frame condition holds.  On the real route
    conformal_factor is the shared squared gradient norm when the frame
    holds and pairing is None; the mixed route carries the Wirtinger pairing
    it decides on and no factor.
    """

    holds: bool
    conformal_factor: Polynomial | None
    residuals: dict[str, Polynomial]
    pairing: MixedPolynomial | None

    def residual_texts(self) -> dict[str, str]:
        return {k: v.text() for k, v in self.residuals.items()}


def _frame_residuals(gram: PolyMatrix, rows) -> dict[str, Polynomial]:
    """Nonzero Gram residuals on rows: grad_inner(i,j) for each pair, and
    norm_diff(f,j) against the first row f; labels count rows from 1."""
    first = rows[0]
    cands = [(f"grad_inner({i + 1},{j + 1})", gram[i, j])
             for i, j in combinations(rows, 2)]
    cands += [(f"norm_diff({first + 1},{j + 1})", gram[first, first] - gram[j, j])
              for j in rows[1:]]
    return {k: r for k, r in cands if not r.is_zero()}


def hwc_check(germ: RealMapGerm) -> ConformalFrameResult:
    """Exact check that the component gradients are orthogonal and equal."""
    jac = germ.jacobian()
    gram = jac.gram()
    residuals = _frame_residuals(gram, range(germ.target_arity))
    holds = not residuals
    return ConformalFrameResult(
        holds=holds,
        conformal_factor=gram[0, 0] if holds else None,
        residuals=residuals,
        pairing=None,
    )


def certify_frame(germ: RealMapGerm,
                  result: ConformalFrameResult) -> RegularityReport:
    """Report with the frame fact installed and its consequences derived."""
    report = RegularityReport(germ_name=germ.label())
    if result.holds:
        report.add_fact("hwc", "hwc-exact")
        report.derive()
    else:
        report.residuals.update(result.residual_texts())
        report.note("gradient frame residuals are nonzero; no facts installed")
    return report


# -- mixed route ---------------------------------------------------------


def hwc_check_mixed(f: MixedPolynomial) -> ConformalFrameResult:
    """Frame check for one mixed component via Wirtinger pairings.

    The pairing sum_j conj(df_j) * conj(dbar f_j) has real part
    (|grad u|^2 - |grad v|^2)/4 and imaginary part -<grad u, grad v>/2, so
    its vanishing is the frame condition for the realified pair.  The
    verdict is computed purely on this route and f is never realified, so
    conformal_factor is None: hwc_check on the realified germ gives it.
    """
    dzs, dzbars = f.wirtinger()
    pairing = hermitian_pairing([d.conj() for d in dzs], list(dzbars))
    holds = pairing.is_zero()
    residuals: dict[str, Polynomial] = {}
    if not holds:
        re, im = pairing.realify()
        if not re.is_zero():
            residuals["pairing_re"] = re
        if not im.is_zero():
            residuals["pairing_im"] = im
    return ConformalFrameResult(holds=holds, conformal_factor=None,
                                residuals=residuals, pairing=pairing)


# -- constructions -------------------------------------------------------


def separable_sum(left: RealMapGerm,
                  right: RealMapGerm) -> tuple[RealMapGerm, ConformalFrameResult]:
    """Sum of two germs in disjoint variables, re-verified exactly.

    Components add pairwise after lifting to the concatenated context.
    Shared variable names are a hard rejection: the construction is only
    meaningful when the summands see independent coordinates.
    """
    shared = set(left.ctx.names) & set(right.ctx.names)
    if shared:
        raise GermlabRejection(
            "separable_sum needs disjoint variables",
            shared=sorted(shared))
    if left.target_arity != right.target_arity:
        raise GermlabRejection(
            "separable_sum needs equal target arities",
            left=left.target_arity, right=right.target_arity)
    ctx = VarContext(left.ctx.names + right.ctx.names)
    comps = tuple(
        a.lift(ctx) + b.lift(ctx)
        for a, b in zip(left.components, right.components)
    )
    out = RealMapGerm(ctx=ctx, components=comps,
                      name=f"{left.label()}+{right.label()}")
    return out, hwc_check(out)


def separable_sum_report(out: RealMapGerm, frame: ConformalFrameResult,
                         declared_thom: bool) -> RegularityReport:
    """Facts for a separable sum.

    The frame fact is installed only when re-verified on the sum.  The
    Thom transfer needs hypotheses on the summands that the tool cannot
    check (fiber codimension, discriminants, Thom regularity of each
    part), so it fires only from declared_thom and is flagged as such.
    """
    report = RegularityReport(germ_name=out.label())
    if frame.holds:
        report.add_fact("hwc", "hwc-exact")
    else:
        report.residuals.update(frame.residual_texts())
    if declared_thom:
        report.declare("thom_regular",
                       "separable-thom: both summands declared Thom regular "
                       "with isolated critical values and matching fiber codimension",
                       rule="separable-thom")
    report.derive()
    return report


def product_pair(germ4: RealMapGerm) -> tuple[RealMapGerm, ConformalFrameResult]:
    """Complex-multiplication pairing of two frame pairs.

    Input: a four-component germ (G1, G2, G3, G4) over one context, read
    as the pairs (G1, G2) and (G3, G4).  Output components are the real
    and imaginary parts of (G1 + i G2)(G3 + i G4).  The construction
    preserves the frame property exactly when both pairs have it and the
    cross-pair bilinear identities hold; every precondition is checked
    exactly and failures carry the offending residual.
    """
    if germ4.target_arity != 4:
        raise GermlabRejection("product_pair needs exactly four components",
                               got=germ4.target_arity)
    g1, g2, g3, g4 = germ4.components
    jac = germ4.jacobian()
    gram = jac.gram()

    residuals = {**_frame_residuals(gram, (0, 1)),
                 **_frame_residuals(gram, (2, 3))}
    # Cross-pair bilinear identities behind the product rule.
    cross = {"cross(13-24)": gram[0, 2] - gram[1, 3],
             "cross(14+23)": gram[0, 3] + gram[1, 2]}
    residuals.update((k, r) for k, r in cross.items() if not r.is_zero())
    if residuals:
        raise GermlabRejection(
            "product_pair preconditions failed",
            residuals={k: v.text() for k, v in residuals.items()})

    h1 = g1 * g3 - g2 * g4
    h2 = g1 * g4 + g2 * g3
    out = RealMapGerm(ctx=germ4.ctx, components=(h1, h2),
                      name=f"{germ4.label()}~product")
    frame = hwc_check(out)
    assert frame.holds, "product of verified pairs lost the frame property"
    return out, frame


def mixed_algorithm_build(left_vars: list[str],
                          f_blocks: list[MixedPolynomial],
                          g_blocks: list[MixedPolynomial],
                          r_blocks: list[MixedPolynomial],
                          h_blocks: list[MixedPolynomial],
                          ctx: VarContext) -> tuple[MixedPolynomial, ConformalFrameResult]:
    """Assemble sum f_a * conj(g_a) + sum r_b + conj(sum h_c).

    left_vars fixes a variable split; f and r blocks must be holomorphic
    in the left variables only, g and h blocks holomorphic in the
    complement.  The assembled germ must vanish at the origin, and is
    re-verified, not trusted.
    """
    left = {ctx.position(v) for v in left_vars}
    right = set(range(ctx.arity)) - left

    def check_block(p: MixedPolynomial, allowed: set[int], tag: str):
        if not p.is_holomorphic():
            raise GermlabRejection(f"{tag} block must be holomorphic",
                                   block=p.text())
        bad = p.support() - allowed
        if bad:
            names = [ctx.names[i] for i in sorted(bad)]
            raise GermlabRejection(
                f"{tag} block uses variables outside its side of the split",
                block=p.text(), variables=names)

    if len(f_blocks) != len(g_blocks):
        raise GermlabRejection("paired f and g block counts differ",
                               f=len(f_blocks), g=len(g_blocks))
    for p in f_blocks:
        check_block(p, left, "f")
    for p in r_blocks:
        check_block(p, left, "r")
    for p in g_blocks:
        check_block(p, right, "g")
    for p in h_blocks:
        check_block(p, right, "h")

    zero = MixedPolynomial.const(ctx, 0)
    acc = sum(r_blocks, zero) + sum(h_blocks, zero).conj()
    if f_blocks:
        acc = acc + hermitian_pairing(f_blocks, g_blocks)
    if acc.has_constant_term():
        raise GermlabRejection("assembled germ does not vanish at the origin",
                               poly=acc.text())
    frame = hwc_check_mixed(acc)
    return acc, frame


# -- criteria running on declared components ------------------------------


@dataclass(frozen=True)
class EmptyInteriorVerdict:
    fires: bool
    detail: str
    checked_components: tuple[str, ...] = ()


def empty_interior_criterion(germ: RealMapGerm,
                             fiber_components: list[Parametrization],
                             milnor_components: list[Parametrization],
                             report: RegularityReport) -> EmptyInteriorVerdict:
    """Irregularity when the central fiber is thin inside the Milnor set.

    Declared data is verified before use: fiber components must annihilate
    every germ component, Milnor components must annihilate the Milnor
    polynomial, and the fiber must land inside the Milnor set (pullback of
    the Milnor polynomial through each fiber component).  The criterion
    then fires when every Milnor component of dimension at least the
    fiber's top dimension carries a nonvanishing germ pullback, i.e. the
    fiber cannot contain an open piece of any such component.  Positive
    fiber dimension is required.  Firing installs the negative facts in report.
    """
    if not fiber_components or not milnor_components:
        raise GermlabRejection(
            "empty_interior_criterion needs declared fiber and Milnor components")
    md = milnor_data(germ)
    for phi in fiber_components:
        bad = [g for g in germ.components
               if not pullback_numerator(g, phi).is_zero()]
        if bad:
            raise GermlabRejection(
                f"declared fiber component {phi.name} does not lie in the fiber",
                offending=bad[0].text())
        if not pullback_numerator(md.milnor_poly, phi).is_zero():
            raise GermlabRejection(
                f"declared fiber component {phi.name} leaves the Milnor set")
    for phi in milnor_components:
        if not pullback_numerator(md.milnor_poly, phi).is_zero():
            raise GermlabRejection(
                f"declared Milnor component {phi.name} does not annihilate "
                f"the Milnor polynomial")

    top_fiber_dim = max(phi.dim for phi in fiber_components)
    if top_fiber_dim < 1:
        return EmptyInteriorVerdict(
            fires=False,
            detail="fiber components are points; the criterion needs positive dimension")

    checked = []
    for phi in milnor_components:
        if phi.dim < top_fiber_dim:
            continue
        escapes = any(
            not pullback_numerator(g, phi).is_zero() for g in germ.components
        )
        checked.append(phi.name)
        if not escapes:
            return EmptyInteriorVerdict(
                fires=False, checked_components=tuple(checked),
                detail=f"component {phi.name} lies inside the fiber; "
                       "the fiber has interior there")
    verdict = EmptyInteriorVerdict(
        fires=True, checked_components=tuple(checked),
        detail="every Milnor component of top fiber dimension leaves the fiber")
    report.add_fact("not_condition_b", "empty-interior")
    report.derive()
    report.note(
        "empty interior of the fiber inside the Milnor set at dimension "
        f">= {top_fiber_dim}; components checked: {', '.join(checked)}")
    return verdict


@dataclass(frozen=True)
class IsolatedSingularityFinding:
    isolated: bool | None  # None: inconclusive (no witness at this scale)
    witness: tuple | None
    detail: str


def isolated_singularity_probe(germ: RealMapGerm,
                               report: RegularityReport) -> IsolatedSingularityFinding:
    """Search for singular fiber points away from the origin.

    A constant nonzero Jacobian minor settles the question: the singular
    set is empty and the fact is installed in report.  Otherwise the probe
    evaluates all minors and all components exactly on a deterministic
    sparse grid, looking for a common zero off the origin.  Finding one
    refutes isolation; finding none, as for the line y = 3x of (3x - y)^2,
    is inconclusive and installs nothing.
    """
    from germlab.sampling import common_zero, sparse_grid

    minors = germ.singular_minors()
    for m in minors:
        if m.is_constant() and m.constant_value() != 0:
            report.add_fact("isolated_singularity", "full-rank")
            report.derive()
            return IsolatedSingularityFinding(
                isolated=True, witness=None,
                detail=f"constant nonzero minor {m.text()}; the singular set is empty")

    pt = common_zero(minors + list(germ.components),
                     sparse_grid(germ.source_arity))
    if pt is not None:
        return IsolatedSingularityFinding(
            isolated=False, witness=pt,
            detail="singular fiber point away from the origin")
    return IsolatedSingularityFinding(
        isolated=None, witness=None,
        detail="no singular fiber point found at this scale; inconclusive")
