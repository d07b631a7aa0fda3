from fractions import Fraction

import pytest

from germlab.certify import RegularityReport
from germlab.curves import CurveFamily, LaurentPoly, direction_limit
from germlab.dsl import WitnessSpec, parse_text
from germlab.germs import GermlabRejection
from germlab.poly import VarContext
from germlab.sampling import TOL_ACCUM, RunConfig
from germlab.witness import (
    condition_b_family_check,
    condition_b_sampled_probe,
    lift_witness_to_sum,
    normal_vector_along_curve,
    thom_irregularity_witness,
    witness_report,
)

from oracles import from_polys

ENT1_SRC = """\
map ent1 : R^3 -> R^2
vars x, y, z
G1 = x
G2 = y*(x^2 + y^2) + x*z^2
assert_set axis {
  (0, 0, s)
}
witness w1 {
  stratum axis
  gamma (t, 0, s)
  c (-s^2 * t^-1, t^-1)
  assume wg_invariant
}
"""


def resolved(src=ENT1_SRC):
    return parse_text(src).single()


def test_worked_witness_normal_and_pairing():
    r = resolved()
    spec = r.witnesses["w1"]
    outcome = thom_irregularity_witness(r.germ, spec)
    assert outcome.is_witness
    # The singular parts of the coefficient paths cancel the x-row exactly.
    assert [n.is_zero() for n in outcome.normal] == [True, False, False]
    assert outcome.direction.valuation == 0
    assert outcome.direction.text() == "(0, 0, 2*s)"
    assert outcome.pairings["s"].text() == "2*s"
    assert "d/ds" in outcome.detail


def test_witness_report_needs_the_invariance_assumption():
    r = resolved()
    spec = r.witnesses["w1"]
    outcome = thom_irregularity_witness(r.germ, spec)
    rep = witness_report(r.germ, spec, outcome)
    assert rep.facts == {"not_thom_regular"}
    assert rep.provenance["not_thom_regular"]["rule"] == "limit-witness"
    assert rep.residuals["direction_limit"] == "(0, 0, 2*s)"
    assert rep.residuals["tangent_pairing(s)"] == "2*s"
    assert any("wg_invariant" in a for a in rep.assumptions)

    bare = resolved(ENT1_SRC.replace("  assume wg_invariant\n", ""))
    spec2 = bare.witnesses["w1"]
    rep2 = witness_report(bare.germ, spec2,
                          thom_irregularity_witness(bare.germ, spec2))
    assert not rep2.facts
    assert any("withheld" in n for n in rep2.notes)


def test_conormal_direction_is_not_a_witness():
    r = resolved()
    spec = r.witnesses["w1"]
    # Constant coefficients keep the normal at grad G1 = (1, 0, 0), which
    # pairs to zero with the stratum tangent (0, 0, 1).
    tweaked = WitnessSpec(name="w2", gamma=spec.gamma,
                          coeffs=(LaurentPoly.const(spec.gamma.params, 1),
                                  LaurentPoly.const(spec.gamma.params, 0)),
                          stratum=spec.stratum, assumptions=spec.assumptions)
    outcome = thom_irregularity_witness(r.germ, tweaked)
    assert not outcome.is_witness
    assert "conormal" in outcome.detail
    assert witness_report(r.germ, tweaked, outcome).facts == set()


def test_vanishing_normal_is_inconclusive():
    r = resolved()
    spec = r.witnesses["w1"]
    zero = LaurentPoly.const(spec.gamma.params, 0)
    null = WitnessSpec(name="w0", gamma=spec.gamma, coeffs=(zero, zero),
                       stratum=spec.stratum, assumptions=spec.assumptions)
    outcome = thom_irregularity_witness(r.germ, null)
    assert not outcome.is_witness
    assert "vanishes identically" in outcome.detail


def test_witness_preconditions_are_hard_rejections():
    r = resolved()
    spec = r.witnesses["w1"]

    incomplete = WitnessSpec(name="w", gamma=spec.gamma, coeffs=None,
                             stratum=spec.stratum, assumptions=frozenset())
    with pytest.raises(GermlabRejection, match="coefficient paths"):
        thom_irregularity_witness(r.germ, incomplete)

    nostratum = WitnessSpec(name="w", gamma=spec.gamma, coeffs=spec.coeffs,
                            stratum=None, assumptions=frozenset())
    with pytest.raises(GermlabRejection, match="no stratum"):
        thom_irregularity_witness(r.germ, nostratum)

    # Stratum off the singular fiber: the first coordinate axis carries G1 = x.
    pc = VarContext(["s"])
    s = pc.gens()[0]
    off = from_polys(r.ctx, pc, [s, pc.zero(), pc.zero()], name="xaxis")
    bad = WitnessSpec(name="w", gamma=spec.gamma, coeffs=spec.coeffs,
                      stratum=off, assumptions=spec.assumptions)
    with pytest.raises(GermlabRejection, match="not inside the singular fiber"):
        thom_irregularity_witness(r.germ, bad)


def test_witness_curve_preconditions():
    r = resolved()
    spec = r.witnesses["w1"]
    params = spec.gamma.params
    zero = LaurentPoly.const(params, 0)
    svar = LaurentPoly.from_poly(params.var("s"))
    t = LaurentPoly.t_power(params, 1)

    inside = CurveFamily(target=r.ctx, params=params,
                         coords=(zero, zero, svar))
    with pytest.raises(GermlabRejection) as exc:
        thom_irregularity_witness(r.germ, WitnessSpec(
            name="w", gamma=inside, coeffs=spec.coeffs,
            stratum=spec.stratum, assumptions=spec.assumptions))
    assert exc.value.reason == "curve lies inside the central fiber"

    escaping = CurveFamily(target=r.ctx, params=params,
                           coords=(LaurentPoly.t_power(params, -1), zero, svar))
    with pytest.raises(GermlabRejection) as exc:
        thom_irregularity_witness(r.germ, WitnessSpec(
            name="w", gamma=escaping, coeffs=spec.coeffs,
            stratum=spec.stratum, assumptions=spec.assumptions))
    assert exc.value.reason == "curve escapes to infinity as t -> 0"

    misses = CurveFamily(target=r.ctx, params=params,
                         coords=(t, svar, svar))
    with pytest.raises(GermlabRejection, match="does not land on the stratum"):
        thom_irregularity_witness(r.germ, WitnessSpec(
            name="w", gamma=misses, coeffs=spec.coeffs,
            stratum=spec.stratum, assumptions=spec.assumptions))


def test_lift_transports_the_witness_to_a_sum():
    r = resolved()
    spec = r.witnesses["w1"]
    g = parse_text(
        "map gpart : R^2 -> R^2\nvars u,v\n"
        "G1 = u*(u^2 + v^2)\nG2 = v*(u^2 + v^2)\n").single().germ
    params = spec.gamma.params
    g_curve = CurveFamily(target=g.ctx, params=params,
                          coords=(LaurentPoly.t_power(params, 1),
                                  LaurentPoly.const(params, 0)))
    summed, lifted = lift_witness_to_sum(r.germ, spec, g, g_curve)
    assert summed.source_arity == 5
    assert lifted.stratum.name == "axis[0]x0"
    normal = normal_vector_along_curve(summed, lifted.gamma, lifted.coeffs)
    assert [n.text() for n in normal] == ["0", "t", "2*s", "-3*s^2*t", "t"]
    outcome = thom_irregularity_witness(summed, lifted)
    assert outcome.is_witness
    assert outcome.direction.text() == "(0, 0, 2*s, 0, 0)"
    assert witness_report(summed, lifted, outcome).facts == {"not_thom_regular"}


def test_lift_rejects_bad_g_side_curves():
    r = resolved()
    spec = r.witnesses["w1"]
    g = parse_text(
        "map gpart : R^2 -> R^2\nvars u,v\n"
        "G1 = u*(u^2 + v^2)\nG2 = v*(u^2 + v^2)\n").single().germ
    params = spec.gamma.params
    zero = LaurentPoly.const(params, 0)
    with pytest.raises(GermlabRejection) as exc:
        lift_witness_to_sum(r.germ, spec, g,
                            CurveFamily(target=g.ctx, params=params,
                                        coords=(zero, zero)))
    assert exc.value.reason == "g-side curve lies inside the central fiber"
    with pytest.raises(GermlabRejection) as exc:
        lift_witness_to_sum(r.germ, spec, g,
                            CurveFamily(target=g.ctx, params=params,
                                        coords=(LaurentPoly.t_power(params, -1),
                                                zero)))
    assert exc.value.reason == "g-side curve escapes to infinity as t -> 0"
    svar = LaurentPoly.from_poly(params.var("s"))
    with pytest.raises(GermlabRejection, match="origin of the g factor"):
        lift_witness_to_sum(r.germ, spec, g,
                            CurveFamily(target=g.ctx, params=params,
                                        coords=(svar, zero)))


# -- fiber-limit families -------------------------------------------------


MHX1_SRC = "map mhx1 : R^3 -> R^2\nvars x,y,z\nG1 = x*y\nG2 = z^2\n"


def family(coords_builder):
    germ = parse_text(MHX1_SRC).single().germ
    params = VarContext(["t", "s"])
    coords = coords_builder(params)
    return germ, CurveFamily(target=germ.ctx, params=params, coords=coords)


def test_violating_family_verified_and_reported():
    germ, fam = family(lambda pc: (
        LaurentPoly.t_power(pc, 1),
        LaurentPoly.from_poly(pc.var("s")),
        LaurentPoly.const(pc, 0)))
    rep = RegularityReport(germ_name="mhx1")
    finding = condition_b_family_check(germ, fam, report=rep)
    assert finding.violates
    assert {"not_condition_b", "not_thom_regular"} <= rep.facts
    assert rep.provenance["not_condition_b"]["rule"] == "b-violation-family"
    assert rep.residuals["family_limit"] == "(0, s, 0)"
    assert rep.replay_sound()


def test_family_must_stay_in_the_milnor_set():
    germ, fam = family(lambda pc: (
        LaurentPoly.t_power(pc, 1),
        LaurentPoly.from_poly(pc.var("s")),
        LaurentPoly.t_power(pc, 1)))
    with pytest.raises(GermlabRejection, match="leaves the Milnor set") as exc:
        condition_b_family_check(germ, fam, report=RegularityReport("mhx1"))
    assert exc.value.details["residual"] != "0"


def test_family_must_leave_the_fiber_but_limit_into_it():
    germ, fam = family(lambda pc: (
        LaurentPoly.t_power(pc, 1),
        LaurentPoly.const(pc, 0),
        LaurentPoly.const(pc, 0)))
    rep = RegularityReport(germ_name="mhx1")
    with pytest.raises(GermlabRejection) as exc:
        condition_b_family_check(germ, fam, report=rep)
    assert exc.value.reason == "family lies inside the central fiber"

    germ2, fam2 = family(lambda pc: (
        LaurentPoly.t_power(pc, 1),
        LaurentPoly.from_poly(pc.var("s")) * LaurentPoly.t_power(pc, 1),
        LaurentPoly.const(pc, 0)))
    with pytest.raises(GermlabRejection, match="origin for every spectator"):
        condition_b_family_check(germ2, fam2, report=rep)
    assert not rep.facts


def test_sampled_probe_flags_plane_accumulation():
    germ = parse_text(MHX1_SRC).single().germ
    pc1 = VarContext(["s"])
    s = pc1.gens()[0]
    zero = pc1.zero()
    fiber = [
        from_polys(germ.ctx, pc1, [zero, s, zero], name="y-axis"),
        from_polys(germ.ctx, pc1, [s, zero, zero], name="x-axis"),
    ]
    finding = condition_b_sampled_probe(germ, fiber, RunConfig())
    assert finding.violates
    assert finding.samples["ratio"] < 1e-3
    assert finding.samples["seed"] == 0xC0FFEE


def test_sampled_probe_negative_on_transverse_cone():
    germ = parse_text("map mfx1 : R^3 -> R^2\nvars x,y,z\nG1 = x*y\nG2 = x*z\n"
                      ).single().germ
    pc2 = VarContext(["s1", "s2"])
    s1, s2 = pc2.gens()
    zero = pc2.zero()
    fiber = [
        from_polys(germ.ctx, pc2, [zero, s1, s2], name="x=0"),
        from_polys(germ.ctx, pc2, [s1, zero, zero], name="yz=0"),
    ]
    finding = condition_b_sampled_probe(germ, fiber, RunConfig())
    assert finding.violates is None
    assert "no accumulation" in finding.detail


def _cone_probe(name):
    germ = parse_text(f"map {name} : R^3 -> R^2\nvars x,y,z\n"
                      "G1 = x*y\nG2 = x*z\n").single().germ
    pc2 = VarContext(["s1", "s2"])
    s1, s2 = pc2.gens()
    zero = pc2.zero()
    return germ, [
        from_polys(germ.ctx, pc2, [zero, s1, s2], name="x=0"),
        from_polys(germ.ctx, pc2, [s1, zero, zero], name="yz=0"),
    ]


def _mhx1_probe():
    germ = parse_text(MHX1_SRC).single().germ
    pc1 = VarContext(["s"])
    s = pc1.gens()[0]
    zero = pc1.zero()
    return germ, [
        from_polys(germ.ctx, pc1, [zero, s, zero], name="y-axis"),
        from_polys(germ.ctx, pc1, [s, zero, zero], name="x-axis"),
    ]


@pytest.mark.parametrize("seed", [0xC0FFEE, 1, 2, 3, 4, 5, 6, 7, 8])
def test_sampled_verdicts_hold_on_held_out_seeds(seed):
    config = RunConfig(seed=seed)
    flagged = condition_b_sampled_probe(*_mhx1_probe(), config)
    assert flagged.violates is True
    assert flagged.samples["ratio"] < TOL_ACCUM
    for name in ("exaa", "mfx1"):
        quiet = condition_b_sampled_probe(*_cone_probe(name), config)
        assert quiet.violates is None
        # Points of the cone x^2 = y^2 + z^2 sit at distance |x| from both
        # fiber components and at norm sqrt(2) |x|.
        assert quiet.detail.endswith("(closest relative distance 7.07e-01)")


def test_sampled_probe_accounts_for_every_seed():
    config = RunConfig(samples=60)
    finding = condition_b_sampled_probe(*_cone_probe("exaa"), config)
    got = finding.samples
    assert (got["count"] + got["off_variety"] + got["outside_ball"]
            + got["on_fiber"]) == config.samples
    # Every rung toward exaa's fiber leaves the cone for the fiber.
    assert got["on_fiber"] > 0 and got["approach"] == 0
    assert condition_b_sampled_probe(*_cone_probe("exaa"), config) == finding
