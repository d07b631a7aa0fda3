from fractions import Fraction

import pytest

from germlab.dsl import parse_text
from germlab.germs import (
    Parametrization,
    RealMapGerm,
    milnor_data,
    pullback_numerator,
    pullback_vanishes,
    realify_mixed,
)
from germlab.poly import Polynomial, VarContext
from germlab.sampling import derive_rng

from oracles import (cauchy_binet_sum, fraction_rank, from_polys, parametrization_value,
                     rational_points, transpose)

XYZ = VarContext(["x", "y", "z"])


def germ(src, name=None):
    return parse_text(src).single(name).germ


def cauchy_binet(g):
    rows = [[e.terms for e in row] for row in g.stacked().entries]
    return Polynomial(g.ctx, cauchy_binet_sum(rows))


MFX1 = germ("map mfx1 : R^3 -> R^2\nvars x,y,z\nG1 = x*y\nG2 = x*z\n")
ENT1 = germ(
    "map ent1 : R^3 -> R^2\nvars x,y,z\nG1 = x\nG2 = y*(x^2+y^2) + x*z^2\n"
)
MHX1 = germ("map mhx1 : R^3 -> R^2\nvars x,y,z\nG1 = x*y\nG2 = z^2\n")


def test_guiding_pair_milnor_polynomial():
    md = milnor_data(MFX1)
    assert md.square_det.text() == "x^3 - x*y^2 - x*z^2"
    # milnor_data squares det(A) in the square case; the Gram determinant
    # and the Cauchy-Binet sum reach the same polynomial another way.
    a = md.stacked
    assert md.milnor_poly == (a @ transpose(a)).det()
    assert md.milnor_poly == cauchy_binet(MFX1)


def test_worked_square_determinants():
    assert milnor_data(ENT1).square_det.text() == "x^2*z - 2*x*y*z + 3*y^2*z"
    assert milnor_data(MHX1).square_det.text() == "2*x^2*z - 2*y^2*z"


def test_singular_minor_enumeration():
    assert [m.text() for m in MFX1.singular_minors()] == ["-x*z", "x*y", "x^2"]
    assert [m.text() for m in ENT1.singular_minors()] == [
        "x^2 + 3*y^2", "2*x*z", "0"
    ]


@pytest.mark.parametrize("g", [MFX1, ENT1, MHX1], ids=lambda g: g.name)
def test_square_case_gram_is_det_squared(g):
    md = milnor_data(g)
    assert md.square_det is not None
    a = md.stacked
    assert (a @ transpose(a)).det() == md.square_det * md.square_det


@pytest.mark.parametrize("g", [MFX1, ENT1, MHX1], ids=lambda g: g.name)
def test_cauchy_binet_route_agrees(g):
    assert cauchy_binet(g) == milnor_data(g).milnor_poly


@pytest.mark.parametrize("g", [MFX1, ENT1, MHX1], ids=lambda g: g.name)
def test_milnor_vanishing_iff_rank_drop(g):
    # 200 seeded rational points per germ: the Gram determinant vanishes
    # exactly where the stacked matrix loses full rank.
    md = milnor_data(g)
    a = md.stacked
    rng = derive_rng(0xC0FFEE, f"rank:{g.name}")
    pts = rational_points(rng, g.source_arity, 200)
    full = a.rows
    for pt in pts:
        rows = [[a[i, j].evaluate(pt) for j in range(a.cols)] for i in range(a.rows)]
        drop = fraction_rank(rows) < full
        assert (md.milnor_poly.evaluate(pt) == 0) == drop


@pytest.mark.parametrize("g", [MFX1, ENT1, MHX1], ids=lambda g: g.name)
def test_singular_points_lie_in_milnor_set(g):
    # Sing G subset M(G): wherever all p x p Jacobian minors vanish, the
    # stacked matrix cannot have full rank either.
    md = milnor_data(g)
    minors = g.singular_minors()
    rng = derive_rng(0xC0FFEE, f"sing:{g.name}")
    # Random points rarely hit Sing, so scale some coordinates to zero.
    pts = []
    for pt in rational_points(rng, g.source_arity, 200):
        pts.append(pt)
        pts.append((Fraction(0),) + pt[1:])
    for pt in pts:
        if all(m.evaluate(pt) == 0 for m in minors):
            assert md.milnor_poly.evaluate(pt) == 0


def test_vanishing_enforced_at_origin():
    x, y, z = XYZ.gens()
    with pytest.raises(ValueError, match="does not vanish"):
        RealMapGerm(XYZ, (x * y + 1,))


# -- pullbacks -----------------------------------------------------------


def test_pullback_detects_nonmembership_with_witness():
    x, y, z = XYZ.gens()
    p = x**2 - y**2 - z**2
    pc = VarContext(["s"])
    s = pc.gens()[0]
    diag = from_polys(XYZ, pc, [s, s, s])
    res = pullback_vanishes(p, diag)
    assert not res.vanishes
    assert res.numerator.text() == "-s^2"
    assert res.witness_value == res.numerator.evaluate(res.witness) != 0


def test_pullback_clears_denominators_exactly():
    md = milnor_data(MFX1)
    cc = VarContext(["r", "s"])
    r, s = cc.gens()
    one = cc.one()
    cone = Parametrization(
        target=XYZ, params=cc,
        numerators=(r * (one + s * s), r * (one - s * s), 2 * r * s),
        denominators=(one + s * s, one + s * s, one + s * s),
    )
    assert pullback_vanishes(md.square_det, cone).vanishes
    # The cleared numerator of a nonvanishing pullback evaluates in agreement
    # with the rational value times the cleared denominator product.
    p = md.square_det
    num = pullback_numerator(p, cone)
    for svals in [(Fraction(1), Fraction(2)), (Fraction(-2), Fraction(1, 3))]:
        dens = Fraction(1)
        for d, deg in zip(cone.denominators, (p.degree_in(n) for n in XYZ.names)):
            dens *= d.evaluate(svals) ** deg
        assert num.evaluate(svals) == p.evaluate(parametrization_value(cone, svals)) * dens


def test_germ_pullback_on_fiber_component():
    pc = VarContext(["s"])
    s = pc.gens()[0]
    axis = from_polys(XYZ, pc, [pc.zero(), pc.zero(), s])
    assert all(pullback_vanishes(g, axis).vanishes for g in MFX1.components)


def test_parametrization_rejects_zero_denominator():
    pc = VarContext(["s"])
    s = pc.gens()[0]
    with pytest.raises(ValueError, match="identically zero"):
        Parametrization(
            target=XYZ, params=pc,
            numerators=(s, s, s),
            denominators=(pc.one(), pc.zero(), pc.one()),
        )


def test_tangent_numerators_quotient_rule():
    cc = VarContext(["s"])
    s = cc.gens()[0]
    one = cc.one()
    phi = Parametrization(
        target=VarContext(["x", "y"]), params=cc,
        numerators=(one - s * s, 2 * s),
        denominators=(one + s * s, one + s * s),
    )
    tx, ty = phi.tangent_numerators("s")
    # Quotient-rule numerators n'd - nd' against the shared denominator d^2.
    assert tx == -4 * s
    assert ty == 2 - 2 * s * s


def test_realify_mixed_concatenates_components():
    from germlab.mixed import MixedPolynomial

    ctx = VarContext(["x", "y"])
    f = MixedPolynomial.var(ctx, "x") * MixedPolynomial.var(ctx, "y")
    g = MixedPolynomial.conj_var(ctx, "x")
    G = realify_mixed([f, g])
    assert G.target_arity == 4
    assert G.ctx.names == ("x_re", "x_im", "y_re", "y_im")
    assert G.components[2].text() == "x_re"
    assert G.components[3].text() == "-x_im"
