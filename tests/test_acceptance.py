"""End-to-end checks, one per shipped guarantee.

Each test here re-derives its expected values through an independent
route (hand-factored products, permutation-expansion determinants, exact
rational rank, finite differences) rather than trusting the code under
test.  The conftest hook prints one ACCEPTANCE line per criterion at the
end of a run.
"""
import time
from fractions import Fraction

import numpy as np
import pytest

from germlab.compose import (
    composition_milnor_check,
    composition_report,
    composition_sampled_probe,
    image_in_milnor_check,
    inclusion_report,
)
from germlab.corpus import DATA_DIR, load_manifest
from germlab.dsl import parse_path
from germlab.germs import (
    GermlabRejection,
    milnor_data,
    pullback_numerator,
)
from germlab.hwc import certify_frame, hwc_check, hwc_check_mixed, product_pair
from germlab.poly import VarContext
from germlab.sampling import RunConfig, derive_rng
from germlab.witness import (
    condition_b_family_check,
    condition_b_sampled_probe,
    thom_irregularity_witness,
    witness_report,
)
from germlab.certify import RegularityReport

from oracles import (fd_gradient, fraction_rank, from_polys, leibniz_det, mixed_float_value,
                     rational_points, transpose)


def _decl(fname, name=None):
    return parse_path(DATA_DIR / fname).single(name)


def _expected(entry, check_name):
    row = load_manifest()["entries"][entry]
    return next(c["want"] for c in row["checks"] if c["name"] == check_name)


def test_criterion_01_ex1_determinant_factors():
    t0 = time.monotonic()
    germ = _decl("ex1.germ").germ
    md = milnor_data(germ)
    x, y, z, w, a, b = (germ.ctx.var(n) for n in germ.ctx.names)
    target = (x * x + y * y) ** 7 * \
        (2 * a * a + 2 * b * b + 2 * w * w - x * x - y * y + 2 * z * z) ** 2
    assert md.milnor_poly == target
    assert time.monotonic() - t0 < 60


def test_criterion_02_mfx1_determinant_and_components():
    germ = _decl("mfx1.germ").germ
    md = milnor_data(germ)
    assert md.square_det is not None
    assert md.square_det.text() == "x^3 - x*y^2 - x*z^2"
    params = VarContext(["s1", "s2"])
    s1, s2 = params.var("s1"), params.var("s2")
    zero = params.zero()
    plane = from_polys(germ.ctx, params, (zero, s1, s2), name="x=0")
    cone = from_polys(
        germ.ctx, params,
        (s1 * s1 + s2 * s2, s1 * s1 - s2 * s2, 2 * s1 * s2),
        name="x^2=y^2+z^2")
    for phi in (plane, cone):
        assert pullback_numerator(md.square_det, phi).is_zero(), phi.name
        assert pullback_numerator(md.milnor_poly, phi).is_zero(), phi.name


def test_criterion_03_e21_frame_and_certificate():
    germ = _decl("e21.germ").germ
    res = hwc_check(germ)
    assert res.holds
    assert res.conformal_factor.text() == _expected("e21", "conformal_factor")
    rep = certify_frame(germ, res)
    assert {"disc_zero", "thom_regular", "condition_b"} <= rep.facts
    assert rep.replay_sound()


def test_criterion_04_product_pair_success_and_rejection():
    out, frame = product_pair(_decl("prodpair.germ").germ)
    assert frame.holds
    assert hwc_check(out).holds
    with pytest.raises(GermlabRejection) as exc:
        product_pair(_decl("prodpair_bad.germ").germ)
    residuals = exc.value.details["residuals"]
    assert residuals and all(text != "0" for text in residuals.values())


def test_criterion_05_ent1_witness_direction_and_fact():
    decl = _decl("ent1.germ")
    spec = decl.witnesses["w1"]
    outcome = thom_irregularity_witness(decl.germ, spec)
    assert outcome.is_witness
    assert outcome.direction.text() == "(0, 0, 2*s)"
    # Pairing against the stratum tangent d/ds of (0, 0, s), exactly 2s.
    assert outcome.pairings["s"].text() == "2*s"
    rep = witness_report(decl.germ, spec, outcome)
    assert "not_thom_regular" in rep.facts


def test_criterion_06_condition_b_probes():
    fam_decl = _decl("mhx1.germ")
    rep = RegularityReport(germ_name="mhx1")
    finding = condition_b_family_check(fam_decl.germ,
                                       fam_decl.witnesses["fam"].gamma,
                                       report=rep)
    assert finding.violates is True
    assert "not_condition_b" in rep.facts

    probe_decl = _decl("exaa.germ")
    quiet = condition_b_sampled_probe(probe_decl.germ, probe_decl.sets["V"],
                                      RunConfig())
    assert quiet.violates is None


def test_criterion_07_composition_closure_transfer():
    inner = _decl("comp48.germ", "F48")
    outer = _decl("comp48.germ", "G48")
    cone = inner.sets["MH"][1]
    claim = outer.polys["closure"]
    # Hand route: push the cone through F componentwise (polynomial, so
    # the pullback numerators are the honest composite) and expand the
    # claim t^2 = 4(u^2+v^2)^3 in the parameter algebra.
    fu, fv, ft = (pullback_numerator(c, cone) for c in inner.germ.components)
    assert (ft * ft - (fu * fu + fv * fv) ** 3 * 4).is_zero()
    chk = composition_milnor_check(outer.germ, inner.germ, inner.sets["MH"],
                                   closure_claim=claim, config=RunConfig())
    assert chk.violation is None
    rep = composition_report(outer.germ, inner.germ, chk,
                             declared_inner={"condition_b", "disc_zero"},
                             declared_outer={"disc_zero"})
    assert rep.provenance["condition_b"]["rule"] == "compose-closure"
    assert rep.replay_sound()


def test_criterion_08_inclusion_transfer():
    inner = _decl("incl.germ", "FI")
    outer = _decl("incl.germ", "GI")
    mg = milnor_data(outer.germ).milnor_poly
    for phi in inner.sets["MH"]:
        lifted = from_polys(
            outer.germ.ctx, phi.params,
            tuple(pullback_numerator(c, phi) for c in inner.germ.components),
            name=f"F({phi.name})")
        assert pullback_numerator(mg, lifted).is_zero(), phi.name
    chk = image_in_milnor_check(outer.germ, inner.germ, inner.sets["MH"])
    assert len(chk.verified) == 3 and not chk.failed
    rep = inclusion_report(outer.germ, inner.germ, chk,
                           declared_inner={"condition_b", "disc_zero"},
                           declared_outer={"condition_b"})
    assert rep.provenance["condition_b"]["rule"] == "compose-inclusion"


def test_criterion_09_composition_sampled_violation():
    t0 = time.monotonic()
    inner = _decl("contra.germ", "FC")
    outer = _decl("contra.germ", "GC")
    finding = composition_sampled_probe(outer.germ, inner.germ,
                                        RunConfig(radius=0.5))
    assert finding.suspicious
    assert finding.record["image_distance_to_sing"] <= 1e-3
    assert finding.record["nearest_sing_norm"] >= 0.05
    assert finding.record["preimage_norm"] <= 0.5
    assert time.monotonic() - t0 < 30


MIXED_ENTRIES = [("z2.germ", "z2"), ("xyzbar.germ", "xyzbar"),
                 ("mixalg.germ", "mixalg"), ("t.germ", "t"),
                 ("e1.germ", "e1a"), ("e1.germ", "e1b")]


@pytest.mark.parametrize("fname,name", MIXED_ENTRIES,
                         ids=[n for _, n in MIXED_ENTRIES])
def test_criterion_10_route_agreement(fname, name):
    decl = _decl(fname, name)
    f = decl.poly
    mixed = hwc_check_mixed(f)
    real = hwc_check(decl.realified)
    assert mixed.holds == real.holds

    # 2 d/dz realifies to (u_x + v_y, v_x - u_y); the conjugate derivative
    # flips the inner signs.  Exact identities, every variable.
    rctx = decl.realified.ctx
    u, v = f.realify()
    for j, zname in enumerate(decl.ctx.names):
        xr, xi = rctx.names[2 * j], rctx.names[2 * j + 1]
        lre, lim = (2 * f.dz(zname)).realify()
        assert lre == u.diff(xr) + v.diff(xi)
        assert lim == v.diff(xr) - u.diff(xi)
        bre, bim = (2 * f.dzbar(zname)).realify()
        assert bre == u.diff(xr) - v.diff(xi)
        assert bim == v.diff(xr) + u.diff(xi)

    rng = derive_rng(RunConfig().seed, f"acceptance:routes:{name}")
    for _ in range(100):
        zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
              for _ in range(decl.ctx.arity)]
        reals = []
        for zval in zs:
            reals.extend([zval.real, zval.imag])
        got = mixed_float_value(f, zs)
        assert abs(got.real - u.evaluate(reals)) < 1e-9
        assert abs(got.imag - v.evaluate(reals)) < 1e-9


def _oracle_germs():
    """Every corpus map germ, plus the realifications of the mixed entries
    whose Milnor polynomial stays small.  The mixalg realification is
    excluded: its Gram determinant has ~5*10^5 terms, which makes 200
    exact evaluations impractical, and the entry is already exercised by
    the route-agreement suite and its corpus row."""
    out = []
    for path in sorted(DATA_DIR.glob("*.germ")):
        for decl in parse_path(path).decls:
            if decl.kind == "map":
                out.append((decl.name, decl.germ))
            elif decl.name != "mixalg":
                out.append((f"{decl.name}(realified)", decl.realified))
    return out


@pytest.mark.parametrize("label,germ", _oracle_germs(),
                         ids=[l for l, _ in _oracle_germs()])
def test_criterion_11a_milnor_rank_oracle(label, germ):
    md = milnor_data(germ)
    a = md.stacked
    rng = derive_rng(RunConfig().seed, f"acceptance:rank:{label}")
    for pt in rational_points(rng, germ.ctx.arity, 200):
        rows = [[a[i, j].evaluate(pt) for j in range(a.cols)]
                for i in range(a.rows)]
        deficient = fraction_rank(rows) < a.rows
        assert (md.milnor_poly.evaluate(pt) == 0) == deficient


def test_criterion_11b_gram_determinant_against_leibniz():
    rng = derive_rng(RunConfig().seed, "acceptance:det")
    for label, germ in _oracle_germs():
        a = germ.stacked()
        gram = a @ transpose(a)
        det = gram.det()
        for pt in rational_points(rng, germ.ctx.arity, 50):
            rows = [[gram[i, j].evaluate(pt) for j in range(gram.cols)]
                    for i in range(gram.rows)]
            exact = leibniz_det(rows)
            assert det.evaluate(pt) == exact
            numeric = float(np.linalg.det(np.array(rows, dtype=float)))
            scale = max(1.0, abs(float(exact)))
            assert abs(numeric - float(exact)) / scale < 1e-8


def _random_poly(ctx, rng):
    acc = ctx.zero()
    for _ in range(rng.randint(1, 5)):
        term = ctx.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for name in ctx.names:
            term = term * ctx.var(name) ** rng.randint(0, 3)
        acc = acc + term
    return acc


def test_criterion_11c_derivative_identities():
    ctx = VarContext(["x", "y", "z"])
    rng = derive_rng(RunConfig().seed, "acceptance:leibniz")
    for _ in range(100):
        p, q = _random_poly(ctx, rng), _random_poly(ctx, rng)
        for name in ctx.names:
            assert (p * q).diff(name) == p.diff(name) * q + p * q.diff(name)
            assert (p * 3 - q * 5).diff(name) == \
                p.diff(name) * 3 - q.diff(name) * 5


def test_criterion_11d_finite_difference_cross_check():
    rng = derive_rng(RunConfig().seed, "acceptance:fd")
    polys = [
        milnor_data(_decl("mfx1.germ").germ).square_det,
        _decl("e21.germ").germ.components[0],
        _decl("ex1.germ").germ.components[0],
    ]
    for p in polys:
        for _ in range(5):
            pt = [rng.uniform(-0.5, 0.5) for _ in p.ctx.names]
            approx = fd_gradient(p, pt)
            for name, got in zip(p.ctx.names, approx):
                exact = float(p.diff(name).evaluate(
                    [Fraction(v).limit_denominator(10 ** 9) for v in pt]))
                assert abs(got - exact) / max(1.0, abs(exact)) < 1e-4
