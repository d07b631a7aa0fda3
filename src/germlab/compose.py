"""Regularity of compositions H = G o F.

Two exact instruments and one numeric one:

* composition_milnor_check verifies declared Milnor-set components of H,
  classifies which of them sit inside Sing H, and checks a claimed closure
  equation for the F-image of the rest; a component whose F-image lies in
  Sing G without collapsing to the origin is an exact violation witness.
* image_in_milnor_check pulls G's Milnor polynomial through F along each
  declared component; if every component annihilates it, the image of
  H's Milnor set stays inside M(G).
* composition_sampled_probe hunts for Milnor-set points of H (off Sing H)
  whose F-images approach Sing G away from the origin.  Its findings are
  reported with distances and scales but never become certificate facts:
  near-tangency of a regular composition can look identical to a genuine
  violation at any finite sample resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from germlab.certify import RegularityReport
from germlab.germs import (
    GermlabRejection,
    Parametrization,
    RealMapGerm,
    milnor_data,
    pullback_numerator,
)
from germlab.poly import Polynomial, VarContext, substitute


def compose_exact(outer: RealMapGerm, inner: RealMapGerm) -> RealMapGerm:
    """H = outer o inner, expanded exactly over inner's source context."""
    if outer.source_arity != inner.target_arity:
        raise GermlabRejection(
            "arity mismatch in composition",
            outer_source=outer.source_arity, inner_target=inner.target_arity)
    comps = tuple(substitute(g, inner.components) for g in outer.components)
    return RealMapGerm(ctx=inner.ctx, components=comps,
                       name=f"{outer.label()}o{inner.label()}")


def compose_parametrization(inner: RealMapGerm, phi: Parametrization,
                            target: VarContext) -> Parametrization:
    """F o phi as a rational parametrization into the target coordinates.

    Component i clears to the common denominator prod_j d_j^{deg_j F_i};
    exactness of the cleared numerator is the pullback identity used
    everywhere else.
    """
    dens = tuple(
        Polynomial.sum_of_products(phi.params, [[
            d ** g.degree_in(n) for d, n in zip(phi.denominators, inner.ctx.names)]])
        for g in inner.components)
    return Parametrization(
        target=target, params=phi.params,
        numerators=tuple(pullback_numerator(g, phi) for g in inner.components),
        denominators=dens, name=f"F({phi.name})")


def _verified_images(outer: RealMapGerm, inner: RealMapGerm,
                     milnor_components: list[Parametrization]):
    """H = outer o inner and the F-image of each declared M(H) component.

    Each component must annihilate H's Milnor polynomial; the first that
    does not is a rejection.
    """
    h = compose_exact(outer, inner)
    mp_h = milnor_data(h).milnor_poly
    images = []
    for phi in milnor_components:
        num = pullback_numerator(mp_h, phi)
        if not num.is_zero():
            raise GermlabRejection(
                f"declared component {phi.name} does not annihilate the "
                "Milnor polynomial of the composition",
                component=phi.name, pullback=num.text())
        images.append(compose_parametrization(inner, phi, target=outer.ctx))
    return h, images


def _declared_report(outer: RealMapGerm, inner: RealMapGerm,
                     declared_inner: set[str],
                     declared_outer: set[str]) -> RegularityReport:
    """A report for outer o inner listing the declared facts as assumptions."""
    report = RegularityReport(germ_name=f"{outer.label()}o{inner.label()}")
    for side, germ, facts in (("inner", inner, declared_inner),
                              ("outer", outer, declared_outer)):
        report.assumptions += [f"{side} germ {germ.label()}: {fact} (declared)"
                               for fact in sorted(facts)]
    return report


@dataclass(frozen=True)
class ComponentFinding:
    name: str
    inside_sing_h: bool
    image_origin_only: bool
    image_in_sing_g: bool
    closure_verified: bool | None  # None: no claim to check


@dataclass(frozen=True)
class CompositionCheck:
    components: tuple[ComponentFinding, ...]
    violation: str | None  # off-Sing H component with image inside Sing G
    flagged: tuple[str, ...]  # Sing H components with image inside Sing G
    closure_meets_sing_g_only_at_0: bool | None
    detail: str


def composition_milnor_check(outer: RealMapGerm, inner: RealMapGerm,
                             milnor_components: list[Parametrization],
                             closure_claim: Polynomial | None,
                             config) -> CompositionCheck:
    """Exact componentwise analysis of M(H) under F.

    Every declared component is first verified against milnor_poly(H).
    Each F-image is then checked against Sing G.  By the chain rule a
    component whose image lands inside Sing G necessarily lies inside
    Sing H, so such a component is flagged as a violation candidate: it
    witnesses a genuine fiber-limit failure only when M(H) off Sing H
    accumulates on it, which this exact pass cannot decide (the sampled
    probe hunts for that).  A closure claim that is not None must
    annihilate every F-image of the components off Sing H; absent a
    violation, its intersection with Sing G is then probed at points drawn
    from config (read only then) - a sampled statement, flagged as such.
    """
    h, images = _verified_images(outer, inner, milnor_components)
    jac_minors_h = h.singular_minors()
    sing_minors_g = outer.singular_minors()

    findings = []
    violation = None
    flagged = []
    for phi, image_g in zip(milnor_components, images):
        inside_sing = all(
            pullback_numerator(m, phi).is_zero() for m in jac_minors_h)
        origin_only = all(n.is_zero() for n in image_g.numerators)
        in_sing_g = all(
            pullback_numerator(m, image_g).is_zero() for m in sing_minors_g)
        closure_ok = None
        if closure_claim is not None and not inside_sing:
            closure_ok = pullback_numerator(closure_claim, image_g).is_zero()
        findings.append(ComponentFinding(
            name=phi.name, inside_sing_h=inside_sing,
            image_origin_only=origin_only, image_in_sing_g=in_sing_g,
            closure_verified=closure_ok))
        if in_sing_g and not origin_only:
            if inside_sing:
                flagged.append(phi.name)
            else:
                violation = phi.name

    closure_sep = None
    if closure_claim is not None and violation is None:
        closure_sep = _closure_meets_sing_g_only_at_0(
            outer.source_arity, sing_minors_g, closure_claim, config)

    if violation is not None:
        detail = (f"component {violation} lies off Sing H yet its F-image "
                  "stays inside Sing G away from the origin")
    elif closure_claim is not None:
        active = [f.name for f in findings if not f.inside_sing_h]
        bad = [f.name for f in findings if f.closure_verified is False]
        if bad:
            detail = f"closure claim fails on {', '.join(bad)}"
        else:
            detail = ("closure claim verified exactly on " +
                      (", ".join(active) if active else "no active components"))
    elif flagged:
        detail = ("F-image of " + ", ".join(flagged) + " sits inside Sing G "
                  "away from the origin; a fiber-limit failure follows only "
                  "if M(H) off Sing H accumulates there")
    else:
        detail = "no exact violation among the declared components"
    return CompositionCheck(
        components=tuple(findings), violation=violation, flagged=tuple(flagged),
        closure_meets_sing_g_only_at_0=closure_sep, detail=detail)


def _closure_meets_sing_g_only_at_0(arity: int, minors: list[Polynomial],
                                    closure_claim: Polynomial,
                                    config) -> bool:
    """Sampled separation of the claimed closure from Sing G.

    No candidate off the origin where minors, G's maximal Jacobian minors,
    all vanish may satisfy the closure equation.  The candidates are
    config.samples * 5 rational points of the config.radius cube in
    R^arity from config.seed's stream "closure-sep", which rarely land on
    a proper subvariety, and then the sparse grid, which hits axis-aligned
    strata; they are drawn one at a time as the search reaches them.  With
    no such point found the separation holds at the sampled scale.  A
    radius below 1/64, where every drawn point is the origin, raises
    ValueError.
    """
    from germlab.sampling import (
        common_zero, derive_rng, iter_rational_points, sparse_grid,
    )

    rng = derive_rng(config.seed, "closure-sep")
    pts = islice(iter_rational_points(rng, arity, config.radius), config.samples * 5)
    return common_zero(minors + [closure_claim], chain(pts, sparse_grid(arity))) is None


def composition_report(outer: RealMapGerm, inner: RealMapGerm,
                       check: CompositionCheck,
                       declared_inner: set[str],
                       declared_outer: set[str]) -> RegularityReport:
    """Certificate for the composition from an exact component analysis.

    The fiber-limit fact for H transfers from declared facts about F and
    G when the exact analysis found no violation and, when a closure was
    claimed, the image closure stays clear of Sing G away from 0.  The
    declared inputs are recorded as assumptions; nothing here verifies
    them.
    """
    report = _declared_report(outer, inner, declared_inner, declared_outer)

    have = ({"condition_b", "disc_zero"} <= declared_inner
            and "disc_zero" in declared_outer)
    if check.violation is not None:
        report.note(check.detail)
        if have:
            report.add_fact("not_condition_b", "compose-closure")
            report.derive()
        else:
            report.note(
                "the fiber-limit failure for H follows only under declared "
                "facts for both germs; none installed")
        return report

    closure_ok = all(
        f.closure_verified is not False for f in check.components)
    separated = check.closure_meets_sing_g_only_at_0
    if have and closure_ok and separated:
        report.add_fact("condition_b", "compose-closure")
        report.derive()
        report.note(
            "image closure verified exactly on the declared components and "
            "separated from Sing G at sampled scale; fiber-limit regularity "
            "transfers under the declared hypotheses")
    else:
        if check.flagged:
            report.note(
                "flagged candidates " + ", ".join(check.flagged) + ": image "
                "inside Sing G but the component lies inside Sing H, so no "
                "exact conclusion; run the sampled probe for accumulation")
        missing = []
        if not have:
            missing.append("declared fiber-limit and critical-value facts")
        if not closure_ok:
            missing.append("closure verification")
        if separated is not True:
            missing.append("closure separation from Sing G")
        report.note("no transfer: missing " + ", ".join(missing))
    return report


@dataclass(frozen=True)
class InclusionCheck:
    verified: tuple[str, ...]
    failed: tuple[str, ...]
    no_data: bool

    @property
    def holds(self) -> bool:
        return not self.no_data and not self.failed


def image_in_milnor_check(outer: RealMapGerm, inner: RealMapGerm,
                          milnor_components: list[Parametrization]) -> InclusionCheck:
    """Does F map the declared M(H) components into M(G)?

    Pulls milnor_poly(G) back through F o phi for each declared component
    of H's Milnor set.  An empty component list yields no data rather
    than a vacuous success.
    """
    if not milnor_components:
        return InclusionCheck(verified=(), failed=(), no_data=True)
    _, images = _verified_images(outer, inner, milnor_components)
    mp_g = milnor_data(outer).milnor_poly
    ok, bad = [], []
    for phi, image in zip(milnor_components, images):
        if pullback_numerator(mp_g, image).is_zero():
            ok.append(phi.name)
        else:
            bad.append(phi.name)
    return InclusionCheck(verified=tuple(ok), failed=tuple(bad), no_data=False)


def inclusion_report(outer: RealMapGerm, inner: RealMapGerm,
                     check: InclusionCheck,
                     declared_inner: set[str],
                     declared_outer: set[str]) -> RegularityReport:
    """Fiber-limit transfer along a verified Milnor-set inclusion."""
    report = _declared_report(outer, inner, declared_inner, declared_outer)
    if check.no_data:
        report.note("no declared Milnor components; no data")
        return report
    if check.failed:
        report.note("inclusion fails on " + ", ".join(check.failed))
        return report
    needed = {"condition_b", "disc_zero"}
    if needed <= declared_inner and "condition_b" in declared_outer:
        report.add_fact("condition_b", "compose-inclusion")
        report.derive()
        report.note(
            "F-image of every declared Milnor component verified inside "
            "M(G): " + ", ".join(check.verified))
    else:
        report.note(
            "inclusion verified on " + ", ".join(check.verified) +
            ", but the transfer needs declared fiber-limit facts for both germs")
    return report


# -- sampled probe -------------------------------------------------------


@dataclass(frozen=True)
class SampledCompositionFinding:
    suspicious: bool
    detail: str
    record: dict | None
    samples: dict


def composition_sampled_probe(outer: RealMapGerm, inner: RealMapGerm,
                              config) -> SampledCompositionFinding:
    """Continuation search for M(H) points whose F-images near Sing G.

    Accumulation onto Sing G away from 0 means: points of M(H), genuinely
    off Sing H, whose images approach a Sing G point of fixed nonzero
    norm.  Each seed first lands on M(H) with the Sing H proxy sigma (sum
    of squared Jacobian minors of H) held at a moderate target, and the
    image is projected onto Sing G to fix a reference norm rho and
    direction.  Deeper rungs then shrink sigma while the refinement keeps
    the point exactly on M(H) and pins the image component along the
    reference direction, so the image cannot follow sigma down the cone
    to the origin; near mere tangency those constraints are inconsistent
    and the minor residuals stay large, which ends that seed's ladder.  A
    seed is suspicious when its deepest rung keeps the image within
    tolerance of a Sing G point of norm at least R_MIN.  The verdict is
    still sampled evidence, not a certificate: no fact is ever installed.

    All seeds run as one batch: one landing, one projection, and per rung
    one refinement and one projection of the seeds still on their
    ladders.  The samples record says where each seed left: off target
    at landing (sigma outside its window or the minors not small), near
    the origin (rho below R_MIN), at a rung, or completed.
    """
    import numpy as np

    from germlab.sampling import (
        R_MIN, TOL_ACCUM, compile_float, compile_jacobian,
        derive_rng, nearest_on_variety, refine_on_variety,
    )

    h = compose_exact(outer, inner)
    mil_polys, sigma_polys = h.milnor_minors(), h.singular_minors()
    f_polys, sing_g_polys = list(inner.components), outer.singular_minors()
    f_fn, f_jac = compile_float(f_polys), compile_jacobian(f_polys)
    sigma_fn, sigma_jac = compile_float(sigma_polys), compile_jacobian(sigma_polys)
    mil_fn, mil_jac = compile_float(mil_polys), compile_jacobian(mil_polys)
    sing_g_fn, sing_g_jac = compile_float(sing_g_polys), compile_jacobian(sing_g_polys)

    def sigma_of(X):
        s = sigma_fn(X)
        return np.sum(s * s, axis=-1)

    def residual(X):
        return np.max(np.abs(mil_fn(X)), axis=-1)

    # Relative gap: at the origin every polynomial residual dies, so an
    # absolute gap would read as converged and the continuation would
    # collapse down the trivial cone.  Its gradient is 2 s^T J_sigma / tgt.
    def gap(X, tgt):
        return (sigma_of(X) / tgt - 1.0)[:, None]

    def gap_jac(X, tgt):
        return (2.0 * np.einsum("nk,nkm->nm", sigma_fn(X), sigma_jac(X))
                / tgt)[:, None, :]

    rng = derive_rng(config.seed, f"compose:{h.label()}")
    m = inner.source_arity
    seeds = 8
    top = 1e-4
    targets = [1e-6, 1e-8, 1e-10, 1e-12]
    # Seeds at half radius leave room for the refinement to move without
    # the continuation escaping the sampling ball.
    X = np.reshape([rng.uniform(-config.radius / 2, config.radius / 2)
                    for _ in range(seeds * m)], (seeds, m))
    X = refine_on_variety(mil_fn, mil_jac, X,
                          extra=lambda X: gap(X, top),
                          extra_jac=lambda X: gap_jac(X, top))
    sigma = sigma_of(X)
    landed = (top / 4 <= sigma) & (sigma <= 4 * top) & ~(residual(X) > 1e-7)
    Q = nearest_on_variety(sing_g_fn, sing_g_jac, f_fn(X[landed]))
    rho = np.linalg.norm(Q, axis=-1)
    far = ~(rho < R_MIN)
    X, rho = X[landed][far], rho[far]
    U = Q[far] / rho[:, None]

    paths = [[] for _ in X]  # one list of rung records per seed on its ladder
    left = []
    for tgt in targets:
        # The pin holds the image component along the reference direction
        # u at rho: 10 (F(x) . u / rho - 1), with gradient 10 u^T J_F / rho.
        def pinned(X, tgt=tgt, U=U, rho=rho):
            pin = 10.0 * (np.sum(f_fn(X) * U, axis=-1) / rho - 1.0)
            return np.concatenate([gap(X, tgt), pin[:, None]], axis=-1)

        def pinned_jac(X, tgt=tgt, U=U, rho=rho):
            pin = 10.0 * np.einsum("nj,njm->nm", U, f_jac(X)) / rho[:, None]
            return np.concatenate([gap_jac(X, tgt), pin[:, None, :]], axis=-2)

        X = refine_on_variety(mil_fn, mil_jac, X, extra=pinned,
                              extra_jac=pinned_jac)
        sigma = sigma_of(X)
        img = f_fn(X)
        Q = nearest_on_variety(sing_g_fn, sing_g_jac, img)
        qn = np.linalg.norm(Q, axis=-1)
        dist = np.linalg.norm(Q - img, axis=-1)
        norm = np.linalg.norm(X, axis=-1)
        stay = ((tgt / 4 <= sigma) & (sigma <= 4 * tgt) & ~(residual(X) > 1e-7)
                & (0.75 <= qn / rho) & (qn / rho <= 1.25)
                & (R_MIN <= norm) & (norm <= config.radius))
        left.append(int((~stay).sum()))
        for j in np.flatnonzero(stay):
            paths[j].append({
                "sigma": float(sigma[j]), "preimage_norm": float(norm[j]),
                "image_distance_to_sing": float(dist[j]),
                "nearest_sing_norm": float(qn[j]),
                "point": X[j].tolist(), "image": img[j].tolist(),
            })
        paths = [path for path, s in zip(paths, stay) if s]
        X, rho = X[stay], rho[stay]
        U = Q[stay] / qn[stay][:, None]
    samples = {"seeds": seeds, "off_target": int((~landed).sum()),
               "near_origin": int((~far).sum()), "left_at_rung": left,
               "completed": len(paths), "seed": config.seed}

    best = None
    for path in paths:
        last = path[-1]
        if (last["image_distance_to_sing"] <= TOL_ACCUM
                and last["nearest_sing_norm"] >= R_MIN
                and (best is None or last["image_distance_to_sing"]
                     < best["image_distance_to_sing"])):
            best = dict(
                last,
                distance_trajectory=[
                    c["image_distance_to_sing"] for c in path],
                sing_norm_trajectory=[
                    c["nearest_sing_norm"] for c in path])
    if best is not None:
        return SampledCompositionFinding(
            suspicious=True,
            detail="Milnor-set points of the composition, held exactly on "
                   "M(H) and off Sing H, carry F-images within tolerance "
                   "of Sing G points away from 0; exact follow-up needed, "
                   "no fact installed",
            record={"seed": config.seed, **best}, samples=samples)
    return SampledCompositionFinding(
        suspicious=False,
        detail="no F-image approached Sing G at scale under pinned "
               "continuation",
        record=None, samples=samples)
