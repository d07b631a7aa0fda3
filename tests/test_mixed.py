import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import (chained_sum, mixed_conj, mixed_diff, mixed_float_value, mixed_mul,
                     mixed_realify, realify_chain_sums)

from germlab.mixed import (
    ComplexRational,
    I,
    MixedPolynomial,
    hermitian_pairing,
    realified_context,
)
from germlab.poly import Polynomial, VarContext

CTX = VarContext(["x", "y"])
RCTX = realified_context(CTX)


def var(n):
    return MixedPolynomial.var(CTX, n)


def cvar(n):
    return MixedPolynomial.conj_var(CTX, n)


# Random mixed polynomials in two complex variables.
cnum = st.builds(
    ComplexRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
expo = st.tuples(st.integers(0, 2), st.integers(0, 2))
mixed_polys = st.dictionaries(st.tuples(expo, expo), cnum, max_size=5).map(
    lambda d: MixedPolynomial(CTX, d)
)


def pairs(p):
    """The oracles' form of p: (nu, mu) -> (re, im)."""
    return {k: (c.re, c.im) for k, c in p.terms.items()}


@given(mixed_polys, mixed_polys)
def test_product_matches_term_dict_oracle(p, q):
    assert pairs(p * q) == mixed_mul(pairs(p), pairs(q))


@given(mixed_polys)
def test_conj_and_wirtinger_match_term_dict_oracles(p):
    assert pairs(p.conj()) == mixed_conj(pairs(p))
    dzs, dzbars = p.wirtinger()
    for i in range(CTX.arity):
        assert pairs(dzs[i]) == mixed_diff(pairs(p), i)
        assert pairs(dzbars[i]) == mixed_diff(pairs(p), i, conj=True)


@given(mixed_polys)
def test_realify_matches_step_by_step_oracle(p):
    want = mixed_realify(pairs(p), CTX.arity)
    for got, terms in zip(p.realify(), want):
        assert got.terms == terms
        assert got.text() == Polynomial(RCTX, terms).text()


def test_holomorphy_is_structural():
    x, y = var("x"), var("y")
    assert (x * x - y).is_holomorphic()
    assert not (x * cvar("y")).is_holomorphic()
    # Cancellation counts: x*conj(x) - conj(x)*x has no terms at all.
    assert (x * cvar("x") - cvar("x") * x).is_holomorphic()


def test_wirtinger_on_worked_mixed_example():
    x, y = var("x"), var("y")
    T = x * y * cvar("x")
    dzs, dzbars = T.wirtinger()
    assert dzs[0] == y * cvar("x")
    assert dzs[1] == x * cvar("x")
    assert dzbars[0] == x * y
    assert dzbars[1].is_zero()


def test_conjugation_is_an_involution_and_antihom():
    x, y = var("x"), var("y")
    p = (2 + I) * x * cvar("y") + y * y
    q = x + cvar("x") * y
    assert p.conj().conj() == p
    assert (p * q).conj() == p.conj() * q.conj()
    assert (p + q).conj() == p.conj() + q.conj()


@given(mixed_polys, mixed_polys)
def test_realify_is_additive_and_multiplicative(p, q):
    pre, pim = p.realify()
    qre, qim = q.realify()
    sre, sim = (p + q).realify()
    assert sre == pre + qre and sim == pim + qim
    mre, mim = (p * q).realify()
    assert mre == pre * qre - pim * qim
    assert mim == pre * qim + pim * qre


@given(mixed_polys)
def test_realify_conj_flips_imaginary_part(p):
    re, im = p.realify()
    cre, cim = p.conj().realify()
    assert cre == re and cim == -im


@given(mixed_polys, st.sampled_from(["x", "y"]))
def test_wirtinger_matches_real_derivatives(p, name):
    # 2 d/dz_j = (du/dx_j + dv/dy_j) + i (dv/dx_j - du/dy_j), and the
    # conjugate-variable derivative flips the inner signs.
    j = CTX.position(name)
    xr, xi = RCTX.names[2 * j], RCTX.names[2 * j + 1]
    u, v = p.realify()

    lre, lim = (2 * p.dz(name)).realify()
    assert lre == u.diff(xr) + v.diff(xi)
    assert lim == v.diff(xr) - u.diff(xi)

    bre, bim = (2 * p.dzbar(name)).realify()
    assert bre == u.diff(xr) - v.diff(xi)
    assert bim == v.diff(xr) + u.diff(xi)


@given(mixed_polys)
def test_holomorphic_iff_all_dzbar_vanish(p):
    _, dzbars = p.wirtinger()
    assert p.is_holomorphic() == all(d.is_zero() for d in dzbars)


def test_float_evaluation_agrees_with_realification():
    x, y = var("x"), var("y")
    p = (1 + I) * x * x * cvar("y") - 3 * y
    re, im = p.realify()
    rng = random.Random("mixed-eval")
    for _ in range(20):
        zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2)]
        reals = []
        for z in zs:
            reals.extend([z.real, z.imag])
        got = mixed_float_value(p, zs)
        assert abs(got.real - re.evaluate(reals)) < 1e-9
        assert abs(got.imag - im.evaluate(reals)) < 1e-9


# -- term order ------------------------------------------------------------
# Each part keeps the order of the chain loops, part by part: float
# compilation sums a realified germ's terms in that order.

MINUS = {(0,) * 2 * CTX.arity: Fraction(-1)}  # -1 over the doubled context


def ordered(p: Polynomial) -> list:
    return list(p.terms.items())


@given(mixed_polys, mixed_polys)
def test_product_parts_keep_the_chain_order(p, q):
    pq = p * q
    assert ordered(pq.re) == list(chained_sum(
        [[p.re.terms, q.re.terms], [MINUS, p.im.terms, q.im.terms]]).items())
    assert ordered(pq.im) == list(chained_sum(
        [[p.re.terms, q.im.terms], [p.im.terms, q.re.terms]]).items())


@given(st.lists(st.tuples(mixed_polys, mixed_polys), min_size=1, max_size=3))
def test_hermitian_pairing_keeps_the_chain_order(uvs):
    us, vs = zip(*uvs)
    got = hermitian_pairing(us, vs)
    ws = [v.conj() for v in vs]
    re = [c for u, w in zip(us, ws)
          for c in ([u.re.terms, w.re.terms], [MINUS, u.im.terms, w.im.terms])]
    im = [c for u, w in zip(us, ws)
          for c in ([u.re.terms, w.im.terms], [u.im.terms, w.re.terms])]
    assert ordered(got.re) == list(chained_sum(re).items())
    assert ordered(got.im) == list(chained_sum(im).items())


@given(mixed_polys)
def test_realify_parts_keep_the_chain_order(p):
    want = realify_chain_sums(p.re.terms, p.im.terms, CTX.arity)
    for got, terms in zip(p.realify(), want):
        assert ordered(got) == list(terms.items())


def test_a_context_mismatch_raises():
    other = VarContext(["x", "w"])
    x, w = var("x"), MixedPolynomial.var(other, "w")
    for op in (lambda: x + w, lambda: x - w, lambda: x * w,
               lambda: hermitian_pairing([x], [w])):
        with pytest.raises(ValueError, match="context mismatch"):
            op()


def test_hermitian_pairing_conjugates_second_slot():
    x, y = var("x"), var("y")
    assert hermitian_pairing([x], [y]) == x * cvar("y")
    # <u, u> for u = x is x*conj(x), the squared modulus.
    assert hermitian_pairing([x], [x]) == x * cvar("x")


def test_mixed_text_roundtrip_via_parser():
    from germlab.dsl import parse_text

    x, y = var("x"), var("y")
    p = x * y * cvar("x") - (2 + I) * cvar("y") ** 2
    src = f"mixed rt : C^2 -> C\nvars x, y\nf = {p.text()}\n"
    again = parse_text(src).by_name["rt"].poly
    assert again == p
