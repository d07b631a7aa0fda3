from fractions import Fraction

import pytest

from germlab.certify import RegularityReport
from germlab.corpus import DATA_DIR
from germlab.dsl import parse_path, parse_text
from germlab.germs import GermlabRejection, RealMapGerm, realify_mixed
from germlab.hwc import (
    certify_frame,
    empty_interior_criterion,
    hwc_check,
    hwc_check_mixed,
    isolated_singularity_probe,
    mixed_algorithm_build,
    product_pair,
    separable_sum,
    separable_sum_report,
)
from germlab.mixed import MixedPolynomial, hermitian_pairing
from germlab.poly import VarContext

from oracles import from_polys, sympy_expand_equal


def germ(src, name=None):
    return parse_text(src).single(name).germ


# Eight-variable pair whose component gradients form a conformal frame.
E21 = germ("""\
map e21 : R^8 -> R^2
vars x, y, z, w, a, b, c, d
G1 = -w^2*x^2 + w^2*y^2 + 4*w*x*y*z + x^2*z^2 - y^2*z^2 + a*c + b*d
G2 = -2*w^2*x*y - 2*w*x^2*z + 2*w*y^2*z + 2*x*y*z^2 - a*d + b*c
""")

E21_FACTOR = (
    "4*x^4*z^2 + 4*x^4*w^2 + 8*x^2*y^2*z^2 + 8*x^2*y^2*w^2 + 4*x^2*z^4"
    " + 8*x^2*z^2*w^2 + 4*x^2*w^4 + 4*y^4*z^2 + 4*y^4*w^2 + 4*y^2*z^4"
    " + 8*y^2*z^2*w^2 + 4*y^2*w^4 + a^2 + b^2 + c^2 + d^2"
)

MFX1 = germ("map mfx1 : R^3 -> R^2\nvars x,y,z\nG1 = x*y\nG2 = x*z\n")


def test_worked_eight_variable_frame():
    res = hwc_check(E21)
    assert res.holds
    assert res.conformal_factor.text() == E21_FACTOR
    assert res.residuals == {}


def test_frame_factor_is_the_shared_gradient_norm():
    # Independent route: expand |grad G1|^2 with sympy from the source text.
    import sympy

    names = list(E21.ctx.names)
    syms = {n: sympy.Symbol(n) for n in names}
    g1 = sympy.sympify(E21.components[0].text().replace("^", "**"), locals=syms)
    norm = sum(sympy.diff(g1, syms[n]) ** 2 for n in names)
    assert sympy_expand_equal(str(sympy.expand(norm)).replace("**", "^"),
                              E21_FACTOR, names)


def test_frame_certificate_derives_the_regularity_chain():
    rep = certify_frame(E21, hwc_check(E21))
    assert rep.facts == {
        "hwc", "disc_zero", "thom_regular", "condition_b",
        "tube_fibration_hypotheses_met",
    }
    assert rep.provenance["hwc"]["rule"] == "hwc-exact"
    assert rep.provenance["thom_regular"]["rule"] == "hwc-thom"
    assert rep.provenance["condition_b"]["rule"] == "thom-condb"
    assert rep.replay_sound()
    assert not rep.declared


def test_identity_frame_factor_is_one():
    res = hwc_check(germ("map id2 : R^2 -> R^2\nvars x,y\nG1 = x\nG2 = y\n"))
    assert res.holds
    assert res.conformal_factor.text() == "1"


def test_frame_failure_reports_residuals():
    res = hwc_check(MFX1)
    assert not res.holds
    assert res.residual_texts() == {
        "grad_inner(1,2)": "y*z",
        "norm_diff(1,2)": "y^2 - z^2",
    }
    rep = certify_frame(MFX1, res)
    assert not rep.facts
    assert rep.residuals["grad_inner(1,2)"] == "y*z"


# -- complex-multiplication pairing ---------------------------------------


GOOD4 = germ("""\
map pairs : R^6 -> R^4
vars x, y, z, w, a, b
G1 = x*z - y*w
G2 = x*w + y*z
G3 = a*x + b*y
G4 = a*y - b*x
""")


def test_product_pair_matches_hand_expansion():
    out, frame = product_pair(GOOD4)
    assert out.components[0].text() == (
        "x^2*z*a + x^2*w*b + 2*x*y*z*b - 2*x*y*w*a - y^2*z*a - y^2*w*b"
    )
    assert frame.holds


def test_product_pair_rejects_broken_cross_identities():
    bad = germ("""\
map pairs : R^6 -> R^4
vars x, y, z, w, a, b
G1 = x*z - y*w
G2 = x*w + y*z
G3 = a*x + b*y
G4 = -a*y + b*x
""")
    with pytest.raises(GermlabRejection) as exc:
        product_pair(bad)
    assert exc.value.details["residuals"] == {
        "cross(13-24)": "2*z*a - 2*w*b",
        "cross(14+23)": "2*z*b + 2*w*a",
    }


def test_product_pair_rejects_a_broken_second_pair():
    # (G1, G2) is a frame pair and the cross identities hold, so only the
    # second pair's residuals, labelled by its rows 3 and 4, remain.
    bad = germ("""\
map pairs : R^4 -> R^4
vars x, y, u, v
G1 = x
G2 = y
G3 = u*v
G4 = u
""")
    with pytest.raises(GermlabRejection) as exc:
        product_pair(bad)
    assert exc.value.details["residuals"] == {
        "grad_inner(3,4)": "v",
        "norm_diff(3,4)": "u^2 + v^2 - 1",
    }


def test_product_pair_needs_four_components():
    with pytest.raises(GermlabRejection, match="four components"):
        product_pair(MFX1)


# -- mixed route ----------------------------------------------------------


C2 = VarContext(["x", "y"])


def mvar(n, ctx=C2):
    return MixedPolynomial.var(ctx, n)


def mcvar(n, ctx=C2):
    return MixedPolynomial.conj_var(ctx, n)


def test_mixed_route_on_holomorphic_square():
    c1 = VarContext(["z"])
    f = MixedPolynomial.var(c1, "z") ** 2
    res = hwc_check_mixed(f)
    assert res.holds
    assert res.conformal_factor is None
    real = hwc_check(realify_mixed([f]))
    assert real.conformal_factor.text() == "4*z_re^2 + 4*z_im^2"


def test_mixed_route_does_not_realify_when_the_frame_holds(monkeypatch):
    def refuse(ctx):
        raise AssertionError("the mixed route realified f")

    f = mvar("x") ** 2 * mcvar("y") ** 3 + mvar("x") * mvar("x")
    monkeypatch.setattr("germlab.mixed.realified_context", refuse)
    res = hwc_check_mixed(f)
    assert res.holds and res.conformal_factor is None


def test_mixed_route_pairing_residual_on_worked_failure():
    T = mvar("x") * mvar("y") * mcvar("x")
    res = hwc_check_mixed(T)
    assert res.pairing.text() == "x*conj(x)*conj(y)^2"
    assert not res.holds
    assert set(res.residuals) <= {"pairing_re", "pairing_im"}
    assert res.residuals


@pytest.mark.parametrize("f_builder", [
    lambda: MixedPolynomial.var(VarContext(["z"]), "z") ** 2,
    lambda: mvar("x") * mvar("y") * mcvar("x"),
    lambda: mvar("x") * mcvar("y"),
    lambda: (mvar("u", CTX4) ** 2 * mcvar("v", CTX4) ** 2
             + mvar("p", CTX4) * mcvar("q", CTX4)),
], ids=["square", "tripled", "fgbar", "worked-sum"])
def test_mixed_and_realified_routes_agree(f_builder):
    f = f_builder()
    mixed = hwc_check_mixed(f)
    real = hwc_check(realify_mixed([f]))
    assert mixed.holds == real.holds
    if mixed.holds:
        assert_wirtinger_gram_entry(f, real.conformal_factor)


def assert_wirtinger_gram_entry(f, entry):
    # 2 d(Re f)/dz = conj(conj(df) + dbar f), so |grad Re f|^2, the realified
    # Gram entry [0, 0], is <P + Q, P + Q> with P = conj(df) and Q = dbar f.
    dzs, dzbars = f.wirtinger()
    sums = [p.conj() + q for p, q in zip(dzs, dzbars)]
    re, im = hermitian_pairing(sums, sums).realify()
    assert (re, im) == (entry, entry.ctx.zero())


CORPUS_MIXED = [("e1.germ", "e1a"), ("e1.germ", "e1b"), ("fgbar.germ", "fgA"),
                ("fgbar.germ", "fgB"), ("fgbar.germ", "fgF"),
                ("mixalg.germ", "mixalg"), ("t.germ", "t"),
                ("xyzbar.germ", "xyzbar"), ("z2.germ", "z2")]


@pytest.mark.parametrize("fname,name", CORPUS_MIXED,
                         ids=[n for _, n in CORPUS_MIXED])
def test_wirtinger_gram_entry_on_corpus_mixed_germs(fname, name):
    # The identity holds whether or not the frame does, so it is checked
    # against the realified Gram entry itself, not only against a factor.
    decl = parse_path(DATA_DIR / fname).single(name)
    assert_wirtinger_gram_entry(decl.poly, decl.realified.jacobian().gram()[0, 0])


CTX4 = VarContext(["u", "v", "p", "q"])


def test_fgbar_verdict_comes_from_the_derivative_pairing():
    # For holomorphic f and g the frame check of f * conj(g) holds exactly
    # when the pairing sum_j dg_j * conj(df_j) vanishes.
    x, y = mvar("x"), mvar("y")
    for f, g, pairing in [(x, y, "0"), (x * y, x, "conj(y)"), (x**2, y**3, "0"),
                          (x + y, x - y, "0"), (x, x + y, "1")]:
        assert f.is_holomorphic() and g.is_holomorphic()
        got = hermitian_pairing(g.wirtinger()[0], f.wirtinger()[0])
        assert got.text() == pairing
        assert hwc_check_mixed(f * g.conj()).holds == got.is_zero()


# -- separable sums -------------------------------------------------------


def test_separable_sum_of_identity_pairs():
    left = germ("map l : R^2 -> R^2\nvars x,y\nG1 = x\nG2 = y\n")
    right = germ("map r : R^2 -> R^2\nvars u,v\nG1 = u\nG2 = v\n")
    out, frame = separable_sum(left, right)
    assert [p.text() for p in out.components] == ["x + u", "y + v"]
    assert frame.holds
    assert frame.conformal_factor.text() == "2"


def test_separable_sum_reconstructs_the_worked_example():
    left = germ("""\
map quartic : R^4 -> R^2
vars x, y, z, w
G1 = -w^2*x^2 + w^2*y^2 + 4*w*x*y*z + x^2*z^2 - y^2*z^2
G2 = -2*w^2*x*y - 2*w*x^2*z + 2*w*y^2*z + 2*x*y*z^2
""")
    right = germ("""\
map bilinear : R^4 -> R^2
vars a, b, c, d
G1 = a*c + b*d
G2 = -a*d + b*c
""")
    out, frame = separable_sum(left, right)
    assert [p.text() for p in out.components] == [
        p.text() for p in E21.components
    ]
    assert frame.holds
    assert frame.conformal_factor.text() == E21_FACTOR


def test_separable_sum_rejects_shared_variables():
    left = germ("map l : R^2 -> R^1\nvars x,y\nG = x*y\n")
    right = germ("map r : R^2 -> R^1\nvars y,z\nG = y*z\n")
    with pytest.raises(GermlabRejection) as exc:
        separable_sum(left, right)
    assert exc.value.details["shared"] == ["y"]


def test_separable_sum_rejects_mismatched_targets():
    left = germ("map l : R^2 -> R^2\nvars x,y\nG1 = x\nG2 = y\n")
    right = germ("map r : R^2 -> R^1\nvars u,v\nG = u*v\n")
    with pytest.raises(GermlabRejection, match="target arities"):
        separable_sum(left, right)


def test_separable_sum_thom_transfer_only_from_declarations():
    left = germ("map l : R^2 -> R^2\nvars x,y\nG1 = x\nG2 = y\n")
    right = germ("map r : R^2 -> R^2\nvars u,v\nG1 = u\nG2 = v\n")
    out, frame = separable_sum(left, right)
    plain = separable_sum_report(out, frame, declared_thom=False)
    assert "thom_regular" in plain.facts  # via the re-verified frame
    assert "thom_regular" not in plain.declared
    declared = separable_sum_report(out, frame, declared_thom=True)
    assert declared.provenance["thom_regular"]["rule"] == "separable-thom"
    assert "thom_regular" in declared.declared
    assert any("separable-thom" in a for a in declared.assumptions)


# -- block algorithm ------------------------------------------------------


C5 = VarContext(["z1", "z2", "z3", "z4", "z5"])


def z(n):
    return MixedPolynomial.var(C5, n)


def test_mixed_algorithm_builds_the_worked_five_variable_sum():
    acc, frame = mixed_algorithm_build(
        ["z1", "z3", "z5"],
        f_blocks=[z("z1") ** 4 * z("z5") ** 3, z("z3") ** 2],
        g_blocks=[z("z2") ** 5, z("z4")],
        r_blocks=[z("z1") ** 4, -z("z3") ** 6],
        h_blocks=[-(z("z2") ** 7) * z("z4") ** 3],
        ctx=C5)
    want = (z("z1") ** 4 * z("z5") ** 3 * (z("z2") ** 5).conj()
            + z("z3") ** 2 * z("z4").conj()
            + z("z1") ** 4 - z("z3") ** 6
            - ((z("z2") ** 7) * z("z4") ** 3).conj())
    assert acc == want
    assert frame.holds


def test_mixed_algorithm_rejects_misplaced_variables():
    with pytest.raises(GermlabRejection) as exc:
        mixed_algorithm_build(
            ["z1", "z3", "z5"],
            f_blocks=[z("z2") ** 2], g_blocks=[z("z4")],
            r_blocks=[], h_blocks=[], ctx=C5)
    assert exc.value.details["variables"] == ["z2"]


def test_mixed_algorithm_rejects_nonholomorphic_blocks():
    with pytest.raises(GermlabRejection, match="holomorphic"):
        mixed_algorithm_build(
            ["z1", "z3", "z5"],
            f_blocks=[z("z1") * z("z1").conj()], g_blocks=[z("z2")],
            r_blocks=[], h_blocks=[], ctx=C5)


def test_mixed_algorithm_rejects_unpaired_blocks():
    with pytest.raises(GermlabRejection, match="counts differ"):
        mixed_algorithm_build(
            ["z1", "z3", "z5"],
            f_blocks=[z("z1")], g_blocks=[],
            r_blocks=[], h_blocks=[], ctx=C5)


# -- empty-interior criterion ---------------------------------------------


def _mixed_thin_pair():
    # (x^2 - y^2*z, y) over C^3, realified to R^6 -> R^4.
    c3 = VarContext(["x", "y", "z"])
    mx, my, mz = (MixedPolynomial.var(c3, n) for n in c3.names)
    return realify_mixed([mx * mx - my * my * mz, my], name="e1")


def test_empty_interior_fires_on_thin_central_fiber():
    g = _mixed_thin_pair()
    pc2 = VarContext(["s1", "s2"])
    fiber = from_polys(
        g.ctx, pc2,
        [pc2.zero()] * 4 + [pc2.var("s1"), pc2.var("s2")], name="x=y=0")
    pc4 = VarContext(["t1", "t2", "t3", "t4"])
    milnor = from_polys(
        g.ctx, pc4,
        [pc4.zero(), pc4.zero()] + [pc4.var(n) for n in pc4.names], name="x=0")
    rep = RegularityReport(germ_name=g.label())
    verdict = empty_interior_criterion(g, [fiber], [milnor], report=rep)
    assert verdict.fires
    assert verdict.checked_components == ("x=0",)
    assert {"not_condition_b", "not_thom_regular"} <= rep.facts
    assert rep.provenance["not_condition_b"]["rule"] == "empty-interior"
    assert rep.provenance["not_thom_regular"]["rule"] == "condb-contra"
    assert rep.replay_sound()


def test_empty_interior_inconclusive_when_fiber_has_interior():
    ent1 = germ(
        "map ent1 : R^3 -> R^2\nvars x,y,z\nG1 = x\nG2 = y*(x^2+y^2) + x*z^2\n")
    pc = VarContext(["s"])
    axis = from_polys(
        ent1.ctx, pc, [pc.zero(), pc.zero(), pc.var("s")], name="axis")
    rep = RegularityReport(germ_name="ent1")
    verdict = empty_interior_criterion(ent1, [axis], [axis], report=rep)
    assert not verdict.fires
    assert "interior" in verdict.detail
    assert not rep.facts


def test_empty_interior_rejects_bad_declared_data():
    ent1 = germ(
        "map ent1 : R^3 -> R^2\nvars x,y,z\nG1 = x\nG2 = y*(x^2+y^2) + x*z^2\n")
    pc = VarContext(["s"])
    off = from_polys(
        ent1.ctx, pc, [pc.var("s"), pc.zero(), pc.zero()], name="off")
    axis = from_polys(
        ent1.ctx, pc, [pc.zero(), pc.zero(), pc.var("s")], name="axis")
    rep = RegularityReport(germ_name="ent1")
    with pytest.raises(GermlabRejection, match="does not lie in the fiber"):
        empty_interior_criterion(ent1, [off], [axis], report=rep)
    with pytest.raises(GermlabRejection, match="needs declared"):
        empty_interior_criterion(ent1, [], [axis], report=rep)


# -- isolated-singularity probe -------------------------------------------


def test_isolated_probe_finds_the_coordinate_plane():
    rep = RegularityReport(germ_name="mfx1")
    finding = isolated_singularity_probe(MFX1, report=rep)
    assert finding.isolated is False
    assert finding.witness == (0, Fraction(1), 0)
    assert not rep.facts


def test_isolated_probe_inconclusive_on_isolated_example():
    ex2 = germ("""\
map ex2 : R^4 -> R^2
vars x1, x2, x3, x4
G1 = x1
G2 = 3*x1^2*x2 + x2^3 + x3^2 + x4^2
""")
    rep = RegularityReport(germ_name="ex2")
    finding = isolated_singularity_probe(ex2, report=rep)
    assert finding.isolated is None
    assert finding.witness is None
    assert not rep.facts


def test_isolated_probe_promotes_constant_minor():
    idg = germ("map id2 : R^2 -> R^2\nvars x,y\nG1 = x\nG2 = y\n")
    rep = RegularityReport(germ_name="id2")
    finding = isolated_singularity_probe(idg, report=rep)
    assert finding.isolated is True
    assert rep.facts == {"isolated_singularity", "thom_regular", "condition_b"}
    assert rep.provenance["thom_regular"]["rule"] == "isolated-thom"
