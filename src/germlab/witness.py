"""Thom irregularity witnesses and fiber-limit probes along curve families.

A witness is a curve family gamma(t; s) inside the complement of the
central fiber, limiting onto a declared stratum, together with coefficient
paths c(t; s).  The normal candidate n(t) = sum c_i grad G_i(gamma(t))
gets a direction limit as t -> 0; a nonzero inner product against a
stratum tangent vector certifies that limiting normals escape the
stratum's conormal, which is exactly the failure of the Thom condition
along that stratum.  Every step of a witness check is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from germlab.certify import RegularityReport
from germlab.curves import (
    CurveFamily,
    DirectionLimit,
    LaurentPoly,
    direction_limit,
)
from germlab.dsl import WitnessSpec
from germlab.germs import (
    GermlabRejection,
    Parametrization,
    RealMapGerm,
    milnor_data,
    pullback_numerator,
)
from germlab.poly import Polynomial, VarContext, substitute


def normal_vector_along_curve(germ: RealMapGerm, gamma: CurveFamily,
                              coeffs) -> list[LaurentPoly]:
    """n(t) = sum_i c_i(t) grad G_i(gamma(t)), one LaurentPoly per coordinate."""
    if gamma.target != germ.ctx:
        raise ValueError(f"curve targets {gamma.target!r}, germ lives in {germ.ctx!r}")
    coeffs = list(coeffs)
    if len(coeffs) != germ.target_arity:
        raise ValueError(f"{len(coeffs)} coefficients for {germ.target_arity} components")
    return [LaurentPoly.sum_of_products(gamma.params, [
        (c, gamma.pullback(g.diff(name))) for c, g in zip(coeffs, germ.components)])
        for name in germ.ctx.names]


@dataclass(frozen=True)
class WitnessOutcome:
    """Verified irregularity along a stratum, or the reason there is none."""

    is_witness: bool
    direction: DirectionLimit | None
    normal: tuple[LaurentPoly, ...] | None
    pairings: dict[str, Polynomial] | None  # tangent parameter -> inner product
    detail: str


def _limit_off_fiber(germ: RealMapGerm, curve: CurveFamily,
                     what: str) -> tuple[Polynomial, ...]:
    """curve(0), once curve is off germ's central fiber and has a finite
    limit; otherwise a rejection naming the curve `what`.  The fiber search
    stops at the first component that pulls back to a nonzero expansion."""
    if all(curve.pullback(g).is_zero() for g in germ.components):
        raise GermlabRejection(f"{what} lies inside the central fiber")
    at_zero = curve.limit_coords()
    if at_zero is None:
        raise GermlabRejection(f"{what} escapes to infinity as t -> 0")
    return at_zero


def thom_irregularity_witness(germ: RealMapGerm, spec: WitnessSpec) -> WitnessOutcome:
    """Check a declared witness exactly.

    Preconditions, all verified before any conclusion:
      * the stratum parametrization annihilates every component and every
        singular minor (it lies in the singular fiber);
      * the curve avoids the central fiber for small t (some component
        pulls back to a nonzero expansion);
      * gamma(0) exists and equals the stratum parametrization.

    The verdict then compares the direction limit of the normal candidate
    against the stratum tangents; any identically nonzero pairing makes
    the family a witness.
    """
    if spec.stratum is None:
        raise GermlabRejection(
            f"witness {spec.name!r} declares no stratum to test against")
    if spec.coeffs is None:
        raise GermlabRejection(
            f"witness {spec.name!r} declares no coefficient paths c")
    phi = spec.stratum
    gamma = spec.gamma

    fiber_polys = list(germ.components) + germ.singular_minors()
    escapes = [p for p in fiber_polys if not pullback_numerator(p, phi).is_zero()]
    if escapes:
        raise GermlabRejection(
            f"stratum {phi.name} is not inside the singular fiber",
            offending=escapes[0].text())

    at_zero = _limit_off_fiber(germ, gamma, "curve")
    for got, num, den in zip(at_zero, phi.numerators, phi.denominators):
        # gamma(0) must equal the stratum pointwise: cross-multiplied.
        if not (got * den - num).is_zero():
            raise GermlabRejection(
                "curve does not land on the stratum at t = 0",
                coordinate=got.text(), expected=phi.text())

    normal = normal_vector_along_curve(germ, gamma, spec.coeffs)
    if all(v.is_zero() for v in normal):
        return WitnessOutcome(
            is_witness=False, direction=None, normal=tuple(normal),
            pairings=None,
            detail="normal candidate vanishes identically along the curve")
    limit = direction_limit(normal)

    pairings: dict[str, Polynomial] = {}
    for pname in phi.params.names:
        tangent = phi.tangent_numerators(pname)
        pairings[pname] = Polynomial.sum_of_products(
            gamma.params, [(lead, tnum.lift(gamma.params))
                           for lead, tnum in zip(limit.leading, tangent)])

    nonzero = {k: v for k, v in pairings.items() if not v.is_zero()}
    if nonzero:
        k, v = next(iter(nonzero.items()))
        return WitnessOutcome(
            is_witness=True, direction=limit, normal=tuple(normal),
            pairings=pairings,
            detail=f"limit direction pairs with tangent d/d{k}: {v.text()}")
    return WitnessOutcome(
        is_witness=False, direction=limit, normal=tuple(normal),
        pairings=pairings,
        detail="limit direction is conormal to the stratum; no witness")


def witness_report(germ: RealMapGerm, spec: WitnessSpec,
                   outcome: WitnessOutcome) -> RegularityReport:
    """Install the irregularity fact when the witness checks out.

    The conclusion needs the declared stratum to be part of an invariant
    partition of the singular fiber; that is a statement about all of
    Sing G, not about the curve, so it enters as a named assumption from
    the witness block (assume wg_invariant) and the fact is withheld
    without it.
    """
    report = RegularityReport(germ_name=germ.label())
    if outcome.direction is not None:
        report.residuals["direction_limit"] = outcome.direction.text()
        for k, v in (outcome.pairings or {}).items():
            report.residuals[f"tangent_pairing({k})"] = v.text()
    if not outcome.is_witness:
        report.note(outcome.detail)
        return report
    if "wg_invariant" not in spec.assumptions:
        report.note(
            "witness verified, but the stratum was not declared invariant "
            "(assume wg_invariant); the irregularity fact is withheld")
        return report
    report.assumptions.append(
        "wg_invariant: the declared stratum belongs to an invariant "
        "partition of the singular fiber")
    report.add_fact("not_thom_regular", "limit-witness")
    report.derive()
    return report


def lift_witness_to_sum(f_germ: RealMapGerm, f_spec: WitnessSpec,
                        g_germ: RealMapGerm,
                        g_curve: CurveFamily) -> tuple[RealMapGerm, WitnessSpec]:
    """Transport a witness of f to the separable sum f + g.

    g_curve must avoid g's central fiber and land at a singular point of g
    at t = 0; the spec here fixes that point to the origin, which is
    singular for every germ vanishing there with the summand arities used
    by the construction.  The lifted curve is (gamma_f, gamma_g) over the
    joint parameters, the stratum becomes stratum x {gamma_g(0)}, and the
    coefficients transport unchanged.  The caller re-runs the exact
    witness check on the output; nothing about the lift is trusted.
    """
    from germlab.hwc import separable_sum

    if f_spec.stratum is None or f_spec.coeffs is None:
        raise GermlabRejection("lift needs a complete witness on the f side")
    summed, _frame = separable_sum(f_germ, g_germ)
    ctx = summed.ctx

    g_zero = _limit_off_fiber(g_germ, g_curve, "g-side curve")
    if any(not p.is_zero() for p in g_zero):
        raise GermlabRejection(
            "g-side curve must land at the origin of the g factor",
            landed=tuple(p.text() for p in g_zero))

    # Joint spectator context: f's parameters then any new from the g side.
    f_params = f_spec.gamma.params
    extra = [n for n in g_curve.params.names if n not in f_params.names]
    joint = VarContext(tuple(f_params.names) + tuple(extra))

    def lift_laurent(v: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(joint, {k: p.lift(joint) for k, p in v.parts.items()})

    coords = tuple(lift_laurent(c) for c in f_spec.gamma.coords) + tuple(
        lift_laurent(c) for c in g_curve.coords)
    gamma = CurveFamily(target=ctx, params=joint, coords=coords)

    phi = f_spec.stratum
    zeros = tuple(joint.zero() for _ in range(g_germ.source_arity))
    ones = tuple(joint.one() for _ in range(g_germ.source_arity))
    stratum = Parametrization(
        target=ctx, params=joint,
        numerators=tuple(p.lift(joint) for p in phi.numerators) + zeros,
        denominators=tuple(p.lift(joint) for p in phi.denominators) + ones,
        name=f"{phi.name}x0")

    coeffs = tuple(lift_laurent(c) for c in f_spec.coeffs)
    lifted = WitnessSpec(name=f"{f_spec.name}+lift", gamma=gamma,
                         coeffs=coeffs, stratum=stratum,
                         assumptions=f_spec.assumptions)
    return summed, lifted


# -- fiber-limit probe for condition (b) ---------------------------------


@dataclass(frozen=True)
class FiberLimitFinding:
    violates: bool | None  # None: nothing found at this scale
    detail: str
    family: str | None = None
    samples: dict | None = None


def condition_b_family_check(germ: RealMapGerm, family: CurveFamily,
                             report: RegularityReport) -> FiberLimitFinding:
    """Verify a declared violating family for the fiber-limit condition.

    The family must lie inside the Milnor set but outside the central
    fiber, and its t -> 0 limit must land on the fiber away from the
    origin for generic spectators.  All four requirements are exact; a
    family that passes them exhibits Milnor-set points accumulating on
    the fiber at positive distance from the origin, which is precisely
    what the fiber-limit condition forbids; that failure goes into report.
    """
    md = milnor_data(germ)
    inside = family.pullback(md.milnor_poly)
    if not inside.is_zero():
        raise GermlabRejection(
            "family leaves the Milnor set",
            residual=inside.text())
    at_zero = _limit_off_fiber(germ, family, "family")
    for g in germ.components:
        if not substitute(g, at_zero).is_zero():
            raise GermlabRejection(
                "family limit leaves the central fiber",
                component=g.text())
    if all(p.is_zero() for p in at_zero):
        raise GermlabRejection(
            "family limit is the origin for every spectator value; "
            "no accumulation away from 0")
    report.add_fact("not_condition_b", "b-violation-family")
    report.derive()
    report.residuals["family_limit"] = "(" + ", ".join(
        p.text() for p in at_zero) + ")"
    return FiberLimitFinding(
        violates=True, family=family.text(),
        detail="family in the Milnor set, off the fiber, limiting onto the "
               "fiber away from the origin")


# Relative distances a hit is pulled to, one rung each, in order.
APPROACH = (1e-1, 1e-2, 1e-3, 1e-4)


def condition_b_sampled_probe(germ: RealMapGerm,
                              fiber_components: list[Parametrization],
                              config) -> FiberLimitFinding:
    """Numeric search for Milnor-set points accumulating on the fiber.

    All seeds are drawn at once and refined together onto the Milnor set
    by a batched trust-region solve (sampling.refine_batch) on the maximal
    minors of the stacked matrix.  A refined point is a hit when it passes three
    filters: on the variety (minors small relative to their envelope),
    inside the ball (norm between R_MIN and the radius), and off the
    fiber (some component large relative to its envelope).  Each hit is
    then pulled toward its nearest fiber point through the relative
    distances in APPROACH, every rung projected onto the Milnor set by
    sampling.nearest_on_variety and sent through the same filters; a rung that fails a filter ends that
    hit's ladder.  The probe reports the smallest distance-to-norm ratio
    among hits and ladder points, and a violation when it drops below
    the accumulation tolerance.  Findings are reported, never promoted
    to facts: a finite sample cannot verify a limit statement.

    Seeds and fiber-distance candidates come from two derived streams,
    so neither depends on how the other is consumed.
    """
    import numpy as np

    from germlab.sampling import (
        R_MIN, TOL_ACCUM, TOL_VARIETY, compile_float, compile_jacobian,
        compile_scale, derive_rng, nearest_on_variety, refine_batch,
    )

    minors = germ.milnor_minors()
    comps = list(germ.components)
    comp_fn, comp_scale = compile_float(comps), compile_scale(comps)
    minor_fn, minor_jac = compile_float(minors), compile_jacobian(minors)
    minor_scale = compile_scale(minors)
    fibers = []
    for phi in fiber_components:
        polys = list(phi.numerators) + list(phi.denominators)
        fibers.append((phi.params.arity, compile_float(polys),
                       compile_jacobian(polys)))

    label = germ.label()
    seed_rng = derive_rng(config.seed, f"probe-b:{label}")
    dist_rng = derive_rng(config.seed, f"probe-b-distance:{label}")
    m = germ.source_arity

    def filters(X):
        on_variety = np.max(np.abs(minor_fn(X)) / minor_scale(X),
                            axis=-1) <= TOL_VARIETY
        norm = np.linalg.norm(X, axis=-1)
        in_ball = (norm >= R_MIN) & (norm <= config.radius)
        off_fiber = np.max(np.abs(comp_fn(X)) / comp_scale(X),
                           axis=-1) >= TOL_VARIETY * 10
        return on_variety, in_ball, off_fiber

    seeds = np.reshape([seed_rng.uniform(-config.radius, config.radius)
                        for _ in range(config.samples * m)],
                       (config.samples, m))
    X, _ = refine_batch(minor_fn, minor_jac, seeds)
    on_variety, in_ball, off_fiber = filters(X)
    hit = on_variety & in_ball & off_fiber
    counts = {"count": int(hit.sum()),
              "off_variety": int((~on_variety).sum()),
              "outside_ball": int((on_variety & ~in_ball).sum()),
              "on_fiber": int((on_variety & in_ball & ~off_fiber).sum()),
              "approach": 0}

    best = None

    def rank(P):
        """Distances of the points P to the fiber; keeps the best ratio."""
        nonlocal best
        dist, near = _distance_to_components(P, fibers, dist_rng)
        norm = np.linalg.norm(P, axis=-1)
        ratio = dist / norm
        if len(P):
            i = int(np.argmin(ratio))
            if best is None or ratio[i] < best[0]:
                best = (float(ratio[i]), float(norm[i]), float(dist[i]),
                        P[i].tolist())
        return near

    P = X[hit]
    Q = rank(P)
    for tau in APPROACH:
        if not len(P):
            break
        # Aim at the point tau * |Q| off the nearest fiber point Q, in
        # the direction of P, and settle on the Milnor set near it.
        off = P - Q
        T = Q + (tau * np.linalg.norm(Q, axis=-1)
                 / np.maximum(np.linalg.norm(off, axis=-1), 1e-300))[:, None] * off
        Y = nearest_on_variety(minor_fn, minor_jac, T, start=P)
        keep = np.logical_and.reduce(filters(Y))
        P = Y[keep]
        counts["approach"] += len(P)
        Q = rank(P)

    samples = {**counts, "seed": config.seed}
    if best is not None and best[0] < TOL_ACCUM:
        return FiberLimitFinding(
            violates=True,
            detail="sampled Milnor-set points off the fiber approach the "
                   f"fiber at relative distance {best[0]:.2e} while keeping "
                   f"norm {best[1]:.3f}",
            samples={"ratio": best[0], "norm": best[1], "distance": best[2],
                     "point": best[3], **samples})
    detail = "no accumulation onto the fiber found at this scale"
    if best is not None:
        detail += f" (closest relative distance {best[0]:.2e})"
    return FiberLimitFinding(violates=None, detail=detail, samples=samples)


def _distance_to_components(X, components, rng):
    """Distance from each row of X to the union of the fiber components.

    components holds one (parameter count, evaluator, Jacobian) triple per
    fiber parametrization; the evaluator returns the numerators followed
    by the denominators.  Each component scans the parameter origin and
    200 uniform draws from [-3, 3]^k, one set for all rows, skipping
    candidates where a denominator vanishes; the closest candidate of
    each row is then polished by refine_batch on the parameters, with
    the quotient-rule Jacobian of numerators over denominators.  A
    polish step into a vanishing denominator is refused, so every
    reported distance is measured to a real point of a component: an
    upper bound on the true distance, and never above the best scan
    candidate.  Returns the distances (H,) and those nearest points
    (H, n); rows with no usable candidate get inf and NaN.
    """
    import numpy as np

    from germlab.sampling import refine_batch

    X = np.atleast_2d(np.asarray(X, dtype=float))
    h, n = X.shape  # numerators, then as many denominators
    best = np.full(h, np.inf)
    nearest = np.full((h, n), np.nan)
    for k, fn, jac in components:
        cands = np.zeros((201, k))
        cands[1:] = np.reshape([rng.uniform(-3, 3) for _ in range(200 * k)],
                               (200, k))
        vals = fn(cands)
        ok = ~np.any(np.abs(vals[:, n:]) < 1e-12, axis=-1)
        if not ok.any() or not h:
            continue
        cands, pts = cands[ok], vals[ok, :n] / vals[ok, n:]
        scan = np.linalg.norm(pts[None] - X[:, None], axis=-1)
        first = np.argmin(scan, axis=-1)

        def point(S):
            v = fn(S)
            num, den = v[:, :n], v[:, n:]
            bad = np.any(np.abs(den) < 1e-12, axis=-1)
            return np.where(bad[:, None], np.nan, num / den), v

        def resid(S):
            return point(S)[0] - X

        def resid_jac(S):
            _, v = point(S)
            num, den = v[:, :n, None], v[:, n:, None]
            J = jac(S)
            return (J[:, :n] * den - num * J[:, n:]) / (den * den)

        S, _ = refine_batch(resid, resid_jac, cands[first])
        pt = point(S)[0]
        dist = np.linalg.norm(pt - X, axis=-1)
        # Keep the scan candidate where the polish did not beat it.
        scanned = ~(dist < scan[np.arange(h), first])
        dist[scanned] = scan[np.arange(h), first][scanned]
        pt[scanned] = pts[first][scanned]
        closer = dist < best
        best[closer], nearest[closer] = dist[closer], pt[closer]
    return best, nearest
