"""Thom irregularity witnesses and fiber-limit probes along curve families.

A witness is a curve family gamma(t; s) inside the complement of the
central fiber, limiting onto a declared stratum, together with coefficient
paths c(t; s).  The normal candidate n(t) = sum c_i grad G_i(gamma(t))
gets a direction limit as t -> 0; a nonzero inner product against a
stratum tangent vector certifies that limiting normals escape the
stratum's conormal, which is exactly the failure of the Thom condition
along that stratum.  Every step is exact; floats appear only in the
optional numeric replay used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from germlab.certify import RegularityReport
from germlab.curves import CurveFamily, DirectionLimit, LaurentPoly, direction_limit
from germlab.dsl import WitnessSpec
from germlab.germs import (
    GermlabRejection,
    Parametrization,
    RealMapGerm,
    milnor_data,
    pullback_numerator,
)
from germlab.poly import Polynomial, VarContext


def normal_vector_along_curve(germ: RealMapGerm, gamma: CurveFamily,
                              coeffs) -> list[LaurentPoly]:
    """n(t) = sum_i c_i(t) grad G_i(gamma(t)), one LaurentPoly per coordinate."""
    assert gamma.target == germ.ctx
    coeffs = list(coeffs)
    assert len(coeffs) == germ.target_arity, (
        f"{len(coeffs)} coefficients for {germ.target_arity} components"
    )
    out = []
    for j, name in enumerate(germ.ctx.names):
        acc = LaurentPoly.const(gamma.params, 0)
        for c, g in zip(coeffs, germ.components):
            part = gamma.pullback(g.diff(name))
            acc = acc + c * part
        out.append(acc)
    return out


@dataclass(frozen=True)
class WitnessOutcome:
    """Verified irregularity along a stratum, or the reason there is none."""

    is_witness: bool
    direction: DirectionLimit | None
    normal: tuple[LaurentPoly, ...] | None
    pairings: dict[str, Polynomial] | None  # tangent parameter -> inner product
    detail: str

    def nonzero_pairings(self) -> dict[str, Polynomial]:
        assert self.pairings is not None
        return {k: v for k, v in self.pairings.items() if not v.is_zero()}


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

    pulled = [gamma.pullback(g) for g in germ.components]
    if all(p.is_zero() for p in pulled):
        raise GermlabRejection(
            "curve lies inside the central fiber; it cannot probe the "
            "regularity of the stratum from outside")

    at_zero = gamma.limit_coords()
    if at_zero is None:
        raise GermlabRejection("curve escapes to infinity as t -> 0")
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
        acc = gamma.params.zero()
        for lead, tnum in zip(limit.leading, tangent):
            acc = acc + lead * tnum.lift(gamma.params)
        pairings[pname] = acc

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
                        g_germ: RealMapGerm, g_curve: CurveFamily,
                        name: str = "") -> tuple[RealMapGerm, WitnessSpec]:
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
    summed, _frame = separable_sum(f_germ, g_germ, name=name)
    ctx = summed.ctx

    g_pulled = [g_curve.pullback(g) for g in g_germ.components]
    if all(p.is_zero() for p in g_pulled):
        raise GermlabRejection(
            "g-side curve lies inside g's central fiber")
    g_zero = g_curve.limit_coords()
    if g_zero is None:
        raise GermlabRejection("g-side curve escapes to infinity as t -> 0")
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
                             report: RegularityReport | None = None) -> FiberLimitFinding:
    """Verify a declared violating family for the fiber-limit condition.

    The family must lie inside the Milnor set but outside the central
    fiber, and its t -> 0 limit must land on the fiber away from the
    origin for generic spectators.  All four requirements are exact; a
    family that passes them exhibits Milnor-set points accumulating on
    the fiber at positive distance from the origin, which is precisely
    what the fiber-limit condition forbids.
    """
    md = milnor_data(germ)
    inside = family.pullback(md.milnor_poly)
    if not inside.is_zero():
        raise GermlabRejection(
            "family leaves the Milnor set",
            residual=inside.text())
    pulled = [family.pullback(g) for g in germ.components]
    if all(p.is_zero() for p in pulled):
        raise GermlabRejection("family lies inside the central fiber")
    at_zero = family.limit_coords()
    if at_zero is None:
        raise GermlabRejection("family escapes to infinity as t -> 0")
    zero_pt = tuple(0 for _ in at_zero)
    for g in germ.components:
        val = g.evaluate(list(at_zero))
        if not (val.is_zero() if isinstance(val, Polynomial) else val == 0):
            raise GermlabRejection(
                "family limit leaves the central fiber",
                component=g.text())
    acc = at_zero[0].ctx.zero()
    for p in at_zero:
        acc = acc + p * p
    if acc.is_zero():
        raise GermlabRejection(
            "family limit is the origin for every spectator value; "
            "no accumulation away from 0")
    if report is not None:
        report.add_fact("not_condition_b", "b-violation-family")
        report.derive()
        report.residuals["family_limit"] = "(" + ", ".join(
            p.text() for p in at_zero) + ")"
    return FiberLimitFinding(
        violates=True, family=family.text(),
        detail="family in the Milnor set, off the fiber, limiting onto the "
               "fiber away from the origin")


def condition_b_sampled_probe(germ: RealMapGerm,
                              fiber_components: list[Parametrization],
                              config=None) -> FiberLimitFinding:
    """Numeric search for Milnor-set points accumulating on the fiber.

    Seeds are refined onto the Milnor set by least squares on the maximal
    minors of the stacked matrix; accepted points must sit off the fiber
    (some component large relative to scale) and the probe reports
    whether their distance to the declared fiber components drops below
    the accumulation tolerance while the norm stays at scale.  Findings
    are reported, never promoted to facts: a finite sample cannot verify
    a limit statement.
    """
    import numpy as np

    from germlab.sampling import (
        RunConfig, compile_float, compile_scale, derive_rng, refine_on_variety,
    )

    config = config or RunConfig()
    a = germ.stacked()
    minors = a.minors(a.rows)
    comp_fn = compile_float(list(germ.components))
    comp_scale = compile_scale(list(germ.components))
    minor_fn = compile_float(minors)
    minor_scale = compile_scale(minors)
    fibers = [(phi.params.arity,
               compile_float(list(phi.numerators) + list(phi.denominators)))
              for phi in fiber_components]

    rng = derive_rng(config.seed, f"probe-b:{germ.label()}")
    m = germ.source_arity
    best = None
    hits = []
    for k in range(config.samples):
        seed_pt = np.array([rng.uniform(-config.radius, config.radius)
                            for _ in range(m)])
        x = refine_on_variety(minor_fn, seed_pt)
        scale = minor_scale(x)
        if np.max(np.abs(minor_fn(x)) / scale) > config.tol_variety:
            continue
        norm = float(np.linalg.norm(x))
        if norm < config.r_min or norm > config.radius:
            continue
        gx = np.abs(comp_fn(x)) / comp_scale(x)
        if np.max(gx) < config.tol_variety * 10:
            continue  # on the fiber; not a probe point
        dist = _distance_to_components(x, fibers, rng)
        ratio = dist / norm
        hits.append((ratio, norm, dist))
        if best is None or ratio < best[0]:
            best = (ratio, norm, dist, x.tolist())
    if best is not None and best[0] < config.tol_accum:
        return FiberLimitFinding(
            violates=True,
            detail="sampled Milnor-set points off the fiber approach the "
                   f"fiber at relative distance {best[0]:.2e} while keeping "
                   f"norm {best[1]:.3f}",
            samples={"ratio": best[0], "norm": best[1], "distance": best[2],
                     "point": best[3], "seed": config.seed})
    detail = "no accumulation onto the fiber found at this scale"
    if best is not None:
        detail += f" (closest relative distance {best[0]:.2e})"
    return FiberLimitFinding(violates=None, detail=detail,
                             samples={"count": len(hits), "seed": config.seed})


def _distance_to_components(x, components, rng) -> float:
    """Crude but deterministic distance: dense parameter sampling plus polish.

    components holds one (parameter count, evaluator) pair per fiber
    parametrization; the evaluator returns the numerators followed by the
    denominators.  Each component scans the parameter origin and 200
    uniform draws from [-3, 3]^k as one batch, skips candidates where a
    denominator vanishes, and polishes the closest one by Nelder-Mead on
    the squared distance.  The evaluator gives the same floats for a
    batch as for its points one at a time, so the result is the one a
    point-by-point scan gives.
    """
    import numpy as np
    from scipy.optimize import minimize

    n = len(x)  # numerators, then as many denominators
    best = float("inf")
    for k, fn in components:
        cands = np.zeros((201, k))
        cands[1:] = np.reshape([rng.uniform(-3, 3) for _ in range(200 * k)],
                               (200, k))
        vals = fn(cands)
        nums, dens = vals[:, :n], vals[:, n:]
        ok = ~np.any(np.abs(dens) < 1e-12, axis=-1)
        if not ok.any():
            continue
        cands, offsets = cands[ok], nums[ok] / dens[ok] - x
        dist = np.linalg.norm(offsets, axis=-1)
        # The row-wise norm may round differently from a one-vector norm in
        # the last bit; rank the near-ties one vector at a time so the first
        # closest candidate is the one a point-by-point scan picks.
        near = np.flatnonzero(dist <= dist.min() * (1 + 1e-12))
        start = cands[min(near, key=lambda i: np.linalg.norm(offsets[i]))]

        def objective(s):
            v = fn(s)
            if np.any(np.abs(v[n:]) < 1e-12):
                return 1e9
            return float(np.sum((v[:n] / v[n:] - x) ** 2))

        sol = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-18, "maxiter": 400})
        best = min(best, float(np.sqrt(max(sol.fun, 0.0))))
    return best
