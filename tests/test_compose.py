from fractions import Fraction

import pytest

from germlab.compose import (
    CompositionCheck,
    composition_milnor_check,
    composition_report,
    composition_sampled_probe,
    compose_exact,
    compose_parametrization,
    image_in_milnor_check,
    inclusion_report,
)
from germlab.germs import GermlabRejection, RealMapGerm, milnor_data
from germlab.poly import VarContext
from germlab.sampling import R_MIN, TOL_ACCUM, RunConfig, derive_rng, rational_points
from oracles import from_polys, germ_value, parametrization_value, scipy_composition_ladder


def _germ(names, build, name):
    ctx = VarContext(names)
    vs = [ctx.var(n) for n in ctx.names]
    return RealMapGerm(ctx, tuple(build(*vs)), name=name)


# F multiplies the third coordinate by a sphere-like factor; composing with
# the bilinear G gives the positive transfer example.  The contra pair swaps
# in asymmetric weights so the image of {y=0} creeps along Sing G.
F48 = _germ("xyzw", lambda x, y, z, w: (x, y, z * (x * x + y * y + z * z + w * w)), "F48")
G48 = _germ("uvt", lambda u, v, t: (u * t, v * t), "G48")
FCONTRA = _germ("xyzw", lambda x, y, z, w: (x, y, z * (x * x + y ** 4 + z ** 6)), "Fcontra")
GCONTRA = _germ("uvt", lambda u, v, t: (u * v, v * t), "Gcontra")
FINCL = _germ("xyzw", lambda x, y, z, w: (x * w, y * w, z * w), "Fincl")
GINCL = _germ("uvt", lambda u, v, t: (u, v * (u * u + v * v)), "Gincl")

PARAMS = VarContext(["s1", "s2", "s3"])
S1, S2, S3 = (PARAMS.var(n) for n in PARAMS.names)
ZERO = PARAMS.zero()


def plane48():
    return from_polys(F48.ctx, PARAMS, (S1, S2, ZERO, S3), name="z=0")


def cone48():
    # w=0, z^2=x^2+y^2 via the Pythagorean parametrization.
    return from_polys(
        F48.ctx, PARAMS,
        (S1 * S1 - S2 * S2, 2 * S1 * S2, S1 * S1 + S2 * S2, ZERO),
        name="w=0,z^2=x^2+y^2")


def closure48():
    u, v, t = (G48.ctx.var(n) for n in G48.ctx.names)
    return t * t - (u * u + v * v) ** 3 * 4


def test_compose_exact_matches_pointwise_evaluation():
    h = compose_exact(G48, F48)
    rng = derive_rng(0xC0FFEE, "compose:pointwise")
    for pt in rational_points(rng, 4, 100):
        image = germ_value(F48, pt)
        assert germ_value(h, pt) == germ_value(G48, image)


def test_compose_exact_components():
    h = compose_exact(G48, F48)
    assert [p.text() for p in h.components] == [
        "x^3*z + x*y^2*z + x*z^3 + x*z*w^2",
        "x^2*y*z + y^3*z + y*z^3 + y*z*w^2",
    ]
    assert h.name == "G48oF48"


def test_compose_arity_mismatch_rejected():
    bad = _germ("ab", lambda a, b: (a * b,), "bad")
    with pytest.raises(GermlabRejection, match="arity mismatch"):
        compose_exact(bad, F48)


def test_compose_parametrization_denominator_identity():
    # (F o phi)(s) must equal num/den at every sample where den != 0.
    phi = cone48()
    image = compose_parametrization(F48, phi, G48.ctx)
    rng = derive_rng(0xC0FFEE, "compose:paramdenom")
    for pt in rational_points(rng, 3, 50):
        xs = parametrization_value(phi, pt)
        want = germ_value(F48, xs)
        for num, den, target in zip(image.numerators, image.denominators, want):
            d = den.evaluate(pt)
            assert d != 0
            assert num.evaluate(pt) == target * d


def test_positive_transfer_classifies_components():
    chk = composition_milnor_check(G48, F48, [plane48(), cone48()],
                                   closure_claim=closure48(),
                                   config=RunConfig())
    by_name = {f.name: f for f in chk.components}
    plane = by_name["z=0"]
    assert plane.inside_sing_h and plane.image_in_sing_g
    assert plane.closure_verified is None
    cone = by_name["w=0,z^2=x^2+y^2"]
    assert not cone.inside_sing_h
    assert not cone.image_in_sing_g
    assert cone.closure_verified is True
    assert chk.violation is None
    assert chk.flagged == ("z=0",)
    assert chk.closure_meets_sing_g_only_at_0 is True


def test_positive_transfer_installs_fact_under_declarations():
    chk = composition_milnor_check(G48, F48, [plane48(), cone48()],
                                   closure_claim=closure48(),
                                   config=RunConfig())
    rep = composition_report(G48, F48, chk,
                             declared_inner={"condition_b", "disc_zero"},
                             declared_outer={"disc_zero"})
    assert "condition_b" in rep.facts
    assert rep.provenance["condition_b"]["rule"] == "compose-closure"
    assert rep.replay_sound()
    # Declared hypotheses are assumptions, not verified provenance inputs.
    assert any("F48: condition_b (declared)" in a for a in rep.assumptions)
    assert any("G48: disc_zero (declared)" in a for a in rep.assumptions)


def test_no_transfer_without_declarations():
    chk = composition_milnor_check(G48, F48, [plane48(), cone48()],
                                   closure_claim=closure48(),
                                   config=RunConfig())
    rep = composition_report(G48, F48, chk, declared_inner=set(),
                             declared_outer=set())
    assert not rep.facts
    assert any("no transfer" in n for n in rep.notes)


def test_undeclared_component_rejected():
    # A curve that is not inside M(H) must be refused, with the pullback shown.
    stray = from_polys(F48.ctx, PARAMS, (S1, S1, S1, S1), name="stray")
    with pytest.raises(GermlabRejection) as exc:
        composition_milnor_check(G48, F48, [stray], None, RunConfig())
    assert exc.value.details["component"] == "stray"
    assert exc.value.details["pullback"] != "0"


def test_contra_flags_candidate_without_installing_facts():
    sheet = from_polys(FCONTRA.ctx, PARAMS, (S1, ZERO, S2, S3), name="y=0")
    chk = composition_milnor_check(GCONTRA, FCONTRA, [sheet], None,
                                   RunConfig())
    assert chk.violation is None
    assert chk.flagged == ("y=0",)
    rep = composition_report(GCONTRA, FCONTRA, chk,
                             declared_inner={"condition_b", "disc_zero"},
                             declared_outer={"disc_zero"})
    assert not rep.facts
    assert any("flagged candidates y=0" in n for n in rep.notes)


def test_contra_sheet_image_rides_sing_g():
    # F(x,0,z,w) = (x, 0, z(...)) has second coordinate zero, which is all
    # of Sing G for the contra pair, and the image is not just the origin.
    sheet = from_polys(FCONTRA.ctx, PARAMS, (S1, ZERO, S2, S3), name="y=0")
    chk = composition_milnor_check(GCONTRA, FCONTRA, [sheet], None,
                                   RunConfig())
    f = chk.components[0]
    assert f.image_in_sing_g and not f.image_origin_only and f.inside_sing_h


def test_inclusion_route_verifies_and_transfers():
    c3 = PARAMS
    wzero = from_polys(FINCL.ctx, c3, (S1, S2, S3, ZERO), name="w=0")
    xyzero = from_polys(FINCL.ctx, c3, (ZERO, ZERO, S1, S2), name="x=y=0")
    cone = from_polys(
        FINCL.ctx, c3, (S1 * S1 - S2 * S2, 2 * S1 * S2, ZERO, S1 * S1 + S2 * S2),
        name="z=0,w^2=x^2+y^2")
    chk = image_in_milnor_check(GINCL, FINCL, [wzero, xyzero, cone])
    assert chk.verified == ("w=0", "x=y=0", "z=0,w^2=x^2+y^2")
    assert not chk.failed and chk.holds
    rep = inclusion_report(GINCL, FINCL, chk,
                           declared_inner={"condition_b", "disc_zero"},
                           declared_outer={"condition_b"})
    assert "condition_b" in rep.facts
    assert rep.provenance["condition_b"]["rule"] == "compose-inclusion"
    assert rep.replay_sound()


def test_inclusion_empty_components_is_no_data():
    chk = image_in_milnor_check(GINCL, FINCL, [])
    assert chk.no_data and not chk.holds
    rep = inclusion_report(GINCL, FINCL, chk,
                           declared_inner={"condition_b", "disc_zero"},
                           declared_outer={"condition_b"})
    assert not rep.facts


def test_inclusion_failure_reported_by_component():
    # Drop the cube from G: milnor_poly(Gflat) no longer dies on the image.
    gflat = _germ("uvt", lambda u, v, t: (u, v), "Gflat")
    f = _germ("xyz", lambda x, y, z: (x + z, y, x), "Fshear")
    line = from_polys(f.ctx, PARAMS, (S1, S2, S1), name="x=z")
    chk = image_in_milnor_check(gflat, f, [line])
    assert chk.failed == ("x=z",)
    assert not chk.holds
    rep = inclusion_report(gflat, f, chk,
                           declared_inner={"condition_b", "disc_zero"},
                           declared_outer={"condition_b"})
    assert not rep.facts


def test_inclusion_control_component_not_in_milnor_set():
    # For the flattened outer germ the axis {x=y=0} leaves M(H), so the
    # declaration itself is refused rather than scored as a failed pullback.
    gflat = _germ("uvt", lambda u, v, t: (u, v), "Gflat")
    axis = from_polys(FINCL.ctx, PARAMS, (ZERO, ZERO, S1, S2), name="x=y=0")
    with pytest.raises(GermlabRejection) as exc:
        image_in_milnor_check(gflat, FINCL, [axis])
    assert exc.value.details["component"] == "x=y=0"
    assert exc.value.details["pullback"] != "0"


def test_sampled_probe_detects_contra_accumulation():
    cfg = RunConfig(radius=0.5)
    finding = composition_sampled_probe(GCONTRA, FCONTRA, config=cfg)
    assert finding.suspicious
    rec = finding.record
    assert rec["image_distance_to_sing"] <= TOL_ACCUM
    assert rec["nearest_sing_norm"] >= R_MIN
    assert rec["preimage_norm"] <= cfg.radius
    # Sequence of deepening rungs should show the image distance collapsing.
    traj = rec["distance_trajectory"]
    assert traj[-1] < traj[0]


def test_sampled_probe_quiet_on_positive_example():
    cfg = RunConfig(radius=0.5)
    finding = composition_sampled_probe(G48, F48, config=cfg)
    assert not finding.suspicious
    assert finding.record is None


def assert_every_seed_accounted(samples, config):
    assert samples["seeds"] == 8 and samples["seed"] == config.seed
    assert len(samples["left_at_rung"]) == 4
    assert (samples["off_target"] + samples["near_origin"]
            + sum(samples["left_at_rung"]) + samples["completed"]) == 8


def test_sampled_probe_accounts_for_every_seed():
    cfg = RunConfig(radius=0.5)
    found = composition_sampled_probe(GCONTRA, FCONTRA, config=cfg)
    assert_every_seed_accounted(found.samples, cfg)
    assert found.samples["completed"] > 0
    quiet = composition_sampled_probe(G48, F48, config=cfg)
    assert_every_seed_accounted(quiet.samples, cfg)
    assert composition_sampled_probe(G48, F48, config=cfg) == quiet


@pytest.mark.parametrize("seed", [0xC0FFEE, 1, 2])
def test_sampled_probe_agrees_with_the_scipy_ladder(seed):
    # The ladder as it ran one seed at a time on scipy's trf, against the
    # batched trust-region ladder: the same verdict, and the best image
    # distance within 1%.
    cfg = RunConfig(seed=seed, radius=0.5)
    finding = composition_sampled_probe(GCONTRA, FCONTRA, config=cfg)
    want = scipy_composition_ladder(GCONTRA, FCONTRA, cfg)
    assert finding.suspicious and want is not None
    got = finding.record["image_distance_to_sing"]
    assert got == pytest.approx(want["image_distance_to_sing"], rel=1e-2)


def test_sampled_probe_installs_nothing():
    cfg = RunConfig(radius=0.5)
    finding = composition_sampled_probe(GCONTRA, FCONTRA, config=cfg)
    # The finding is a report, not a certificate; there is no facts field
    # and the detail says so explicitly.
    assert "no fact installed" in finding.detail


def test_check_shape_is_frozen():
    chk = composition_milnor_check(G48, F48, [plane48()], None, RunConfig())
    assert isinstance(chk, CompositionCheck)
    with pytest.raises(AttributeError):
        chk.violation = "nope"
