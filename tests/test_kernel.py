"""The packed-integer kernels against the schoolbook oracles.

The sum-of-products kernel (behind `Polynomial.__mul__`, `PolyMatrix.__matmul__`,
the minors and determinants of `PolyMatrix`, and `substitute`, which
`pullback_numerator` and `compose_exact` call) and `Polynomial.exact_div`
pack exponent vectors into ints and scale coefficients to integer
numerators.  Here they are checked against the plain loops over raw term
dicts in `oracles.py`: equal term dicts in equal insertion order (float
evaluation sums terms in that order, and the sampled composition probe
compiles H's minors in it), equal canonical text, and the same verdict on
inexact division.  The Laurent ring's operators are checked part by part
against loops over {power of t: term dict}, and `CurveFamily.pullback` by
value at rational (t, s) points against term-dict loops.
Sums, scalar multiples, derivatives, lifts and printing read and write the
packed form too, so each is checked against its term-dict loop, and a
result whose degree drops is checked against the same polynomial built
directly.  A product's result feeds the next product as it is, so chains
of products, `evaluate` at rational points, `PolyMatrix.gram` and
`substitute` are checked on products too.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from germlab.compose import compose_exact
from germlab.corpus import DATA_DIR
from germlab.curves import CurveFamily, LaurentPoly
from germlab.dsl import parse_path
from germlab.germs import Parametrization, RealMapGerm, pullback_numerator
from germlab.poly import (Polynomial, PolyMatrix, VarContext, _rekey, _sum_of_products,
                          substitute)

from oracles import (chained_sum, cleared_pullback, cofactor_det, evaluate, plus, scale,
                     schoolbook_div, schoolbook_mul, term_diff, term_lift, term_text,
                     transpose)

CONTEXTS = {n: VarContext([f"x{i}" for i in range(n)]) for n in range(1, 11)}

# Denominators: small, large, coprime to each other, and Mersenne/near-power
# values whose least common multiples grow fast.
denominators = st.one_of(
    st.integers(1, 12),
    st.sampled_from([97, 7919, 65537, 2**31 - 1, 2**61 - 1, 10**18 + 9, 3**40]),
)
coefficients = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30)).filter(bool),
    denominators,
)
# Few distinct exponents and unit coefficients, so products collide and cancel.
unit_coefficients = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])


@st.composite
def factor_pairs(draw, max_exp=40, max_terms=7):
    """(arity, a, b) raw term dicts; a and b nonzero."""
    n = draw(st.integers(1, 10))
    colliding = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 1 if colliding else max_exp)] * n)
    coeffs = unit_coefficients if colliding else coefficients
    terms = st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms)
    return n, draw(terms), draw(terms)


def poly(n, terms):
    return Polynomial(CONTEXTS[n], terms)


def assert_matches(got: Polynomial, want: dict):
    assert list(got.terms.items()) == list(want.items())
    assert got._degree() == max(map(sum, want), default=0)
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got.text() == term_text(want, got.ctx.names)
    assert got == Polynomial(got.ctx, want) and hash(got) == hash(Polynomial(got.ctx, want))


@settings(max_examples=150, deadline=None)
@given(factor_pairs(), st.one_of(st.just(Fraction(0)), coefficients))
def test_ring_operations_match_the_term_loops(case, c):
    n, a, b = case
    pa, pb = poly(n, a), poly(n, b)
    assert_matches(pa + pb, plus(a, b))
    assert_matches(pa - pb, plus(a, b, -1))
    assert_matches(pa + c, plus(a, {(0,) * n: c}))
    assert_matches(-pa, scale(a, -1))
    assert_matches(c * pa, scale(a, c))
    assert_matches(pa * c, scale(a, c))
    for i, name in enumerate(pa.ctx.names):
        assert_matches(pa.diff(name), term_diff(a, i))
        assert pa.degree_in(name) == max(e[i] for e in a)
    assert pa.is_constant() == (set(a) == {(0,) * n})
    # Into a context that reverses the names and adds one if there is room.
    big = VarContext([f"x{i}" for i in reversed(range(n))] + ["w"] * (n < 10))
    assert_matches(pa.lift(big), term_lift(a, range(n - 1, -1, -1), big.arity))
    assert pa.lift(pa.ctx) is pa


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
def test_mul_matches_schoolbook_in_order(case):
    n, a, b = case
    got = poly(n, a) * poly(n, b)
    assert_matches(got, schoolbook_mul(a, b))


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
def test_exact_div_inverts_mul(case):
    n, a, b = case
    pa, pb = poly(n, a), poly(n, b)
    prod = pa * pb
    q = prod.exact_div(pb)
    assert q == pa
    assert_matches(q, schoolbook_div(prod.terms, b))
    assert q.text() == pa.text()


@settings(max_examples=100, deadline=None)
@given(factor_pairs(), coefficients)
def test_inexact_division_raises_like_the_oracle(case, c):
    n, a, b = case
    pb = poly(n, b)
    if pb.is_constant():
        return
    # b | a*b + c would need b | c, impossible for a nonconstant b.
    dividend = poly(n, a) * pb + c
    with pytest.raises(ArithmeticError):
        dividend.exact_div(pb)
    with pytest.raises(ArithmeticError):
        schoolbook_div(dividend.terms, b)


def test_cancelled_monomial_that_reappears_goes_to_the_end():
    p = Polynomial(CONTEXTS[1], {(0,): 1, (1,): 1, (2,): -1})  # 1 + x - x^2
    # x^2: +1*(-x^2), then x*x cancels it, then (-x^2)*1 brings it back
    # after x^3 has been placed.
    assert list((p * p).terms) == [(0,), (1,), (3,), (2,), (4,)]
    assert (p * p).text() == "x0^4 - 2*x0^3 - x0^2 + 2*x0 + 1"


def test_cancellation_to_zero():
    x, y = CONTEXTS[2].gens()
    assert ((x + y) * (x - y) - (x**2 - y**2)).is_zero()
    assert ((x - y) * CONTEXTS[2].zero()).terms == {}
    assert CONTEXTS[2].zero().exact_div(x - y).terms == {}


@pytest.mark.parametrize("degree", [100, 300, 70_000, 2**40, 2**64, 2**70])
def test_wide_exponent_fields(degree):
    # Degree sums past one, two, four and eight bytes each pick a wider
    # field.
    x, y, z = CONTEXTS[3].gens()
    a = Polynomial(x.ctx, {(degree, 1, 0): Fraction(1, 3), (0, 0, 2): Fraction(-5)})
    b = x + Fraction(7, 2) * y * z
    prod = a * b
    assert list(prod.terms.items()) == list(schoolbook_mul(a.terms, b.terms).items())
    assert prod.exact_div(b) == a
    assert prod.exact_div(a) == b
    with pytest.raises(ArithmeticError):
        (prod + 1).exact_div(b)


def test_division_with_fractional_quotient():
    # The divisor's content is scaled away, so quotients need not be integral.
    x, y = CONTEXTS[2].gens()
    d = 6 * x + 4 * y
    q = Fraction(1, 3) * x - Fraction(5, 7)
    assert (q * d).exact_div(d) == q
    assert (q * d).exact_div(q) == d
    with pytest.raises(ArithmeticError):
        (x**2 + y).exact_div(2 * x + 1)
    # Every leading monomial divides, but x / (2x + 1) leaves -1/2.
    with pytest.raises(ArithmeticError):
        x.exact_div(2 * x + 1)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("c", [0, 1, -3, Fraction(5, 7)])
def test_const_is_the_constant_polynomial(n, c):
    ctx = CONTEXTS[n]
    got, want = ctx.const(c), Polynomial(ctx, {(0,) * n: c})
    assert got._pk is want._pk and got._den == want._den and got._nums == want._nums
    assert got == want and hash(got) == hash(want) and got.text() == want.text()
    assert_matches(got, dict(want.terms))


# -- sums of products --------------------------------------------------------


@st.composite
def term_dicts(draw, n, max_exp=3, max_terms=5, zero=True):
    """Raw term dicts over n variables; colliding ones cancel often."""
    colliding = draw(st.booleans())
    exps = st.tuples(*[st.integers(0, 1 if colliding else max_exp)] * n)
    coeffs = unit_coefficients if colliding else coefficients
    return draw(st.dictionaries(exps, coeffs, min_size=0 if zero else 1,
                                max_size=max_terms))


@st.composite
def chain_sums(draw):
    """(arity, factor pool, chains as pool indices); factors may repeat."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(term_dicts(n), min_size=1, max_size=5))
    index = st.integers(0, len(pool) - 1)
    chains = draw(st.lists(st.lists(index, min_size=1, max_size=3), max_size=5))
    return n, pool, chains


@settings(max_examples=150, deadline=None)
@given(chain_sums())
def test_sum_of_products_matches_chained_loop(case):
    n, pool, chains = case
    polys = [poly(n, f) for f in pool]
    got = _sum_of_products(CONTEXTS[n], [[polys[i] for i in c] for c in chains])
    assert_matches(got, chained_sum([[pool[i] for i in c] for c in chains]))


@st.composite
def matrix_pairs(draw):
    """(arity, a, b); b is None for the Gram product a @ a^T."""
    n = draw(st.integers(1, 3))
    rows, inner, cols = (draw(st.integers(1, 3)) for _ in range(3))
    a = [[draw(term_dicts(n)) for _ in range(inner)] for _ in range(rows)]
    if draw(st.booleans()):
        return n, a, None
    return n, a, [[draw(term_dicts(n)) for _ in range(cols)] for _ in range(inner)]


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_matmul_matches_chained_loop(case):
    n, a, b = case
    pa = PolyMatrix([[poly(n, e) for e in row] for row in a])
    if b is None:  # jac @ jac^T: both sides hold the same factor objects
        got, b = pa @ transpose(pa), [list(col) for col in zip(*a)]
    else:
        got = pa @ PolyMatrix([[poly(n, e) for e in row] for row in b])
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            assert_matches(got[i, j], chained_sum([[row[k], b[k][j]] for k in range(len(b))]))


@st.composite
def matrices(draw, max_rows, max_cols=None):
    """(arity, rows x cols term dicts), square when max_cols is None."""
    n, rows = draw(st.integers(1, 3)), draw(st.integers(1, max_rows))
    cols = rows if max_cols is None else draw(st.integers(rows, max_cols))
    return n, [[draw(term_dicts(n)) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=100, deadline=None)
@given(matrices(5))
def test_cofactor_det_matches_oracle(case):
    n, m = case
    got = PolyMatrix([[poly(n, e) for e in row] for row in m]).det()
    assert_matches(got, cofactor_det(m))


@settings(max_examples=100, deadline=None)
@given(matrices(4, 6))
def test_minors_match_the_oracle_on_each_column_subset(case):
    n, m = case
    got = PolyMatrix([[poly(n, e) for e in row] for row in m]).minors()
    subsets = list(combinations(range(len(m[0])), len(m)))
    assert len(got) == len(subsets)
    for minor, cols in zip(got, subsets):
        assert_matches(minor, cofactor_det([[row[j] for j in cols] for row in m]))


@st.composite
def pullbacks(draw):
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    p = draw(term_dicts(m, max_exp=2))
    nums = [draw(term_dicts(k, max_exp=2, max_terms=3)) for _ in range(m)]
    dens = [draw(term_dicts(k, max_exp=1, max_terms=2, zero=False)) for _ in range(m)]
    return m, k, p, nums, dens


@settings(max_examples=100, deadline=None)
@given(pullbacks())
# x then x^2 along (s^2 + 3)/(s + 1): x's chain c, n, d orders its terms
# s^3, s^2, 3s, 3, and c, d, n would order them s^3, 3s, s^2, 3.
@example((1, 1, {(1,): Fraction(1), (2,): Fraction(1)},
          [{(2,): Fraction(1), (0,): Fraction(3)}], [{(1,): Fraction(1), (0,): Fraction(1)}]))
def test_pullback_numerator_matches_oracle(case):
    m, k, p, nums, dens = case
    params = VarContext([f"s{i}" for i in range(k)])
    phi = Parametrization(target=CONTEXTS[m], params=params,
                          numerators=tuple(Polynomial(params, t) for t in nums),
                          denominators=tuple(Polynomial(params, t) for t in dens))
    got = pullback_numerator(poly(m, p), phi)
    assert_matches(got, cleared_pullback(p, nums, k, dens))


@st.composite
def compositions(draw):
    """(n, inner, outer): components of F: R^n -> R^k and G: R^k -> R^q."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    q = draw(st.integers(1, k))

    def germ_terms(arity, count):
        # A germ component vanishes at 0, so it has no constant term.
        return [{e: c for e, c in draw(term_dicts(arity, max_exp=2, max_terms=3)).items()
                 if any(e)} for _ in range(count)]

    return n, germ_terms(n, k), germ_terms(k, q)


@settings(max_examples=100, deadline=None)
@given(compositions())
def test_compose_exact_matches_the_uncleared_pullback(case):
    n, inner, outer = case
    f = RealMapGerm(CONTEXTS[n], tuple(poly(n, t) for t in inner))
    g = RealMapGerm(CONTEXTS[len(inner)], tuple(poly(len(inner), t) for t in outer))
    h = compose_exact(g, f)
    for got, comp in zip(h.components, outer):
        assert_matches(got, cleared_pullback(comp, inner, n))


@pytest.mark.parametrize("fname, inner, outer", [
    ("comp48.germ", "F48", "G48"), ("contra.germ", "FC", "GC"), ("incl.germ", "FI", "GI")])
def test_corpus_compositions_keep_their_term_order(fname, inner, outer):
    # The sampled composition probe compiles H's minors in H's term order,
    # so its floats depend on it.  The term-by-term loop of `evaluate` over
    # ring values is the order compose_exact has always had.
    decls = parse_path(DATA_DIR / fname)
    f, g = decls.single(inner).germ, decls.single(outer).germ
    h = compose_exact(g, f)
    values = list(f.components)
    for got, comp in zip(h.components, g.components):
        assert_matches(got, cleared_pullback(comp.terms, [v.terms for v in values],
                                             f.ctx.arity))
        assert list(got.terms.items()) == list(comp.evaluate(values).terms.items())


def laurent_value(parts: dict, t: Fraction, s) -> Fraction:
    return sum((evaluate(q, s) * t**k for k, q in parts.items()), Fraction(0))


@st.composite
def curve_pullbacks(draw):
    """(m, k, p, coords): p over m variables, coords as {power of t: term dict}."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    p = draw(term_dicts(m, max_exp=2, max_terms=4))
    parts = st.dictionaries(st.integers(-2, 2), term_dicts(k, max_exp=2, max_terms=3),
                            max_size=3)
    return m, k, p, [draw(parts) for _ in range(m)]


@settings(max_examples=100, deadline=None)
@given(curve_pullbacks())
@example((2, 1, {(1, 1): Fraction(3), (0, 2): Fraction(-1)},
          [{-1: {(1,): Fraction(1)}, 2: {(0,): Fraction(2)}}, {}]))  # a zero coordinate
@example((2, 1, {(0, 0): Fraction(5, 3)},
          [{-2: {(0,): Fraction(1)}}, {1: {(1,): Fraction(-1)}}]))  # a constant p
@example((1, 2, {(3,): Fraction(1), (1,): Fraction(-2)},
          [{-2: {(1, 0): Fraction(1)}, -1: {(0, 1): Fraction(-1, 2)}}]))  # negative powers
def test_curve_pullback_matches_the_value_at_rational_points(case):
    m, k, p, coords = case
    params = CONTEXTS[k]
    gamma = CurveFamily(target=CONTEXTS[m], params=params, coords=tuple(
        LaurentPoly(params, {j: Polynomial(params, q) for j, q in c.items()})
        for c in coords))
    got = gamma.pullback(poly(m, p))
    parts = {j: q.terms for j, q in got.parts.items()}
    spectators = [(Fraction(1, 3),) * k, (Fraction(-2),) * k, (Fraction(5, 4), Fraction(-1, 6))[:k]]
    for t in (Fraction(1, 2), Fraction(-3), Fraction(2, 7)):
        for s in spectators:
            want = evaluate(p, [laurent_value(c, t, s) for c in coords])
            assert laurent_value(parts, t, s) == want


# -- the Laurent ring ------------------------------------------------------------
# A LaurentPoly is {power of t: part}; its operators are checked part by part
# against loops over {power of t: term dict}, in term order.


def laurent_sum(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b, power by power, zero parts dropped."""
    out = {k: plus(a.get(k, {}), b.get(k, {}), sign) for k in {**a, **b}}
    return {k: q for k, q in out.items() if q}


def laurent_mul(a: dict, b: dict) -> dict:
    """Each pair of parts, in pair order, lands on the sum of its powers."""
    chains: dict = {}
    for j, p in a.items():
        for k, q in b.items():
            chains.setdefault(j + k, []).append([p, q])
    out = {k: chained_sum(c) for k, c in chains.items()}
    return {k: q for k, q in out.items() if q}


def laurent_pow(a: dict, e: int, arity: int) -> dict:
    """a**e by square-and-multiply from the constant 1, low bit first."""
    out = {0: {(0,) * arity: Fraction(1)}}
    while e:
        if e & 1:
            out = laurent_mul(out, a)
        a = laurent_mul(a, a) if e > 1 else a
        e >>= 1
    return out


def laurent(ctx: VarContext, parts: dict) -> LaurentPoly:
    return LaurentPoly(ctx, {k: Polynomial(ctx, q) for k, q in parts.items()})


def assert_laurent(got: LaurentPoly, want: dict):
    assert ({k: list(p.terms.items()) for k, p in got.parts.items()}
            == {k: list(q.items()) for k, q in want.items()})
    built = laurent(got.ctx, want)
    assert got == built and hash(got) == hash(built)


@st.composite
def laurent_pairs(draw):
    """(k, a, b): {power of t: term dict} over k spectators; a part may be zero."""
    k = draw(st.integers(1, 2))
    parts = st.dictionaries(st.integers(-2, 2), term_dicts(k, max_exp=2, max_terms=3),
                            max_size=3)
    return k, draw(parts), draw(parts)


@settings(max_examples=150, deadline=None)
@given(laurent_pairs(), st.integers(0, 3), coefficients)
def test_laurent_ring_matches_the_part_loops(case, e, c):
    k, a, b = case
    ctx = CONTEXTS[k]
    la, lb = laurent(ctx, a), laurent(ctx, b)
    a = {j: q for j, q in a.items() if q}
    b = {j: q for j, q in b.items() if q}
    assert list(la.parts) == list(a)  # zero parts are dropped
    assert_laurent(la + lb, laurent_sum(a, b))
    assert_laurent(la - lb, laurent_sum(a, b, -1))
    assert_laurent(-la, {j: scale(q, -1) for j, q in a.items()})
    assert_laurent(la * lb, laurent_mul(a, b))
    assert_laurent(la ** e, laurent_pow(a, e, k))
    assert_laurent(la + c, laurent_sum(a, {0: {(0,) * k: c}}))
    assert_laurent(c * la, {j: scale(q, c) for j, q in a.items()})
    assert (la == lb) == (not laurent_sum(a, b, -1))
    assert la.is_zero() == (not a)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2), st.integers(-2, 2), coefficients, st.integers(1, 3))
def test_laurent_inverts_a_constant_monomial_in_t(k, j, c, n):
    ctx = CONTEXTS[k]
    m = LaurentPoly(ctx, {j: ctx.const(c)})
    assert_laurent(m ** -n, {-n * j: {(0,) * k: 1 / c ** n}})
    assert m * m ** -1 == 1


def test_laurent_rejects_what_it_cannot_invert_and_a_context_mismatch():
    ctx = CONTEXTS[1]
    t, s = LaurentPoly.t_power(ctx, 1), LaurentPoly.from_poly(ctx.var("x0"))
    for bad in (t + 1, s * t, LaurentPoly(ctx, {})):
        with pytest.raises(ValueError):
            bad ** -1
    u = LaurentPoly.t_power(CONTEXTS[2], 1)
    for op in (lambda: t + u, lambda: t - u, lambda: t * u):
        with pytest.raises(ValueError, match="context mismatch"):
            op()


def test_chain_products_that_cancel_and_reappear():
    ctx = CONTEXTS[1]
    x, one = ctx.var("x0"), ctx.one()
    # x^2 + 1, then -x*x cancels x^2, then x^3 + x^2 puts it back after x^3.
    chains = [[x * x + 1], [ctx.const(-1), x, x], [x + 1, x * x]]
    got = _sum_of_products(ctx, chains)
    assert list(got.terms) == [(0,), (3,), (2,)]
    assert_matches(got, chained_sum([[f.terms for f in c] for c in chains]))
    # A sum that cancels to zero leaves an empty map.
    assert _sum_of_products(ctx, [[x, one], [ctx.const(-1), x]]).terms == {}


def test_zero_entries_and_factors():
    ctx = CONTEXTS[2]
    x, y = ctx.gens()
    zero = ctx.zero()
    # Every pair of the first entry has a zero factor; the second cancels.
    got = PolyMatrix([[x, zero], [x, y]]) @ PolyMatrix([[zero, y], [y, -x]])
    assert got[0, 0].terms == {}
    assert got[1, 1].terms == {}
    assert got[1, 0] == y * y
    assert _sum_of_products(ctx, [[x, zero, y], [y]]) == y
    assert _sum_of_products(ctx, [[zero]]).terms == {}
    assert _sum_of_products(ctx, []).terms == {}
    assert (x * zero).terms == {} and (zero * x).terms == {}
    assert PolyMatrix([[x, zero], [y, zero]]).det().terms == {}


def _x1_terms(n: int, k: int, c) -> dict:
    """The term dict of c * x1^k over n variables."""
    return {(0, k) + (0,) * (n - 2): Fraction(c)}


def _sum_cases():
    """(arity, chains of term dicts) where the set-up of a sum takes a branch.

    Narrow factors are re-keyed into the result's packing; a chain with a
    zero factor is dropped; the merge rescales a chain only when its
    denominator is not the common one.
    """
    a = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-3)}      # one byte, denominator 2
    b = {(2, 1): Fraction(2, 3), (0, 0): Fraction(1)}       # denominator 3
    big = {(300, 0): Fraction(1), (0, 2): Fraction(-1, 5)}  # two bytes
    u, v = {(1, 0): Fraction(2), (0, 1): Fraction(-1)}, {(1, 1): Fraction(3), (0, 0): Fraction(1)}
    return [
        pytest.param(2, [[a, big], [big, a], [b]], id="narrow-factor-in-two-chains"),
        # denominators 2, 6, 12 and 12: two chains are over the common one
        pytest.param(2, [[a], [b, a], [a, a, b], [{(0, 0): Fraction(1, 12)}]],
                     id="denominators-differ"),
        pytest.param(2, [[u, v], [v], [u, u]], id="denominators-all-one"),
        pytest.param(2, [[a, b], [b, {}, big], [a, a]], id="zero-factor"),
        pytest.param(3, [[_x1_terms(3, 200, 2), _x1_terms(3, 100, -1)],
                         [{(1, 0, 0): Fraction(1, 3)}]], id="widens-past-255"),
    ]


@pytest.mark.parametrize("n, chains", _sum_cases())
def test_sum_of_products_on_each_set_up_branch(n, chains):
    ctx = CONTEXTS[n]
    made = {}
    polys = [[made.setdefault(id(f), Polynomial(ctx, f)) for f in c] for c in chains]
    assert_matches(_sum_of_products(ctx, polys), chained_sum(chains))


def test_sum_of_products_re_keys_a_shared_narrow_factor_once(monkeypatch):
    import germlab.poly as kernel

    ctx = CONTEXTS[2]
    a, big = ctx.var("x0") - 3, ctx.var("x0") ** 300 + ctx.var("x1")
    calls = []
    monkeypatch.setattr(kernel, "_rekey", lambda *args: calls.append(args) or _rekey(*args))
    got = _sum_of_products(ctx, [[a, big], [big, a]])
    assert len(calls) == 1 and calls[0][0] is a._nums
    assert_matches(got, chained_sum([[a.terms, big.terms], [big.terms, a.terms]]))


def test_sum_of_products_reads_chains_from_a_generator():
    # A dropped chain's factor is freed once the chain after it is read, so
    # a later factor may take the identity of a freed one.  Its degree must
    # still be its own: x1^200 * x1^60 needs two-byte fields.
    ctx = CONTEXTS[2]
    x0, x1 = ctx.gens()
    zero = ctx.zero()
    big, x60 = [x1**200 + j for j in range(2)], x1**60

    def chains():
        for j in range(4):
            f = x0 * (j + 2)
            yield [f, zero]
            del f  # the chain now holds the only reference
        for j in range(2):
            yield [big[j], x60 * (j + 2)]

    want = chained_sum([[big[j].terms, _x1_terms(2, 60, j + 2)] for j in range(2)])
    assert_matches(_sum_of_products(ctx, chains()), want)
    assert_matches(_sum_of_products(ctx, iter([[x0, x0 - x0], [x1]])), _x1_terms(2, 1, 1))


# -- packed results ------------------------------------------------------------


@st.composite
def product_chains(draw):
    """(arity, first-stage pool and chains, second-stage chains over both pools)."""
    n = draw(st.integers(1, 4))
    pool = draw(st.lists(term_dicts(n), min_size=1, max_size=4))
    first = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3),
                          min_size=1, max_size=3))
    # Index -1 is the first stage's result, a packed polynomial.
    index = st.integers(-1, len(pool) - 1)
    second = draw(st.lists(st.lists(index, min_size=1, max_size=3), max_size=4))
    return n, pool, first, second


@settings(max_examples=150, deadline=None)
@given(product_chains())
def test_products_fed_into_products_match_the_chained_loop(case):
    n, pool, first, second = case
    polys = [poly(n, f) for f in pool]
    mid = _sum_of_products(CONTEXTS[n], [[polys[i] for i in c] for c in first])
    mid_terms = chained_sum([[pool[i] for i in c] for c in first])
    got = _sum_of_products(CONTEXTS[n], [[mid if i < 0 else polys[i] for i in c]
                                         for c in second])
    want = chained_sum([[mid_terms if i < 0 else pool[i] for i in c] for c in second])
    assert_matches(mid, mid_terms)
    assert_matches(got, want)
    point = [Fraction(-2, 3), Fraction(5), Fraction(0), Fraction(7, 4)][:n]
    assert got.evaluate(point) == evaluate(want, point)


def test_a_chain_widens_its_packing_past_degree_255():
    # Each product doubles the degree, so the fields widen from one byte to
    # two mid-chain and the narrower factor is re-keyed into the wider
    # packing.
    ctx = CONTEXTS[2]
    x1, x2 = ctx.gens()
    a = x1**300 * x2 + x2**2
    assert a.terms == {(300, 1): 1, (0, 2): 1}
    b = x1 * x2 - Fraction(1, 3)
    chain, want = b, b.terms
    for factor in (b, b, a, b, a):
        chain = chain * factor
        want = schoolbook_mul(want, factor.terms)
        assert list(chain.terms.items()) == list(want.items())
    assert chain.evaluate((Fraction(1, 2), Fraction(-3))) == evaluate(want, (Fraction(1, 2), -3))


def test_a_degree_that_drops_narrows_the_packing():
    # x0^256 needs two-byte fields; a result whose degree falls below 256
    # equals and hashes like the same polynomial built in one-byte fields.
    x, y = CONTEXTS[2].gens()
    big = x**256
    for got, want in [((big + y) - big, y), ((big * y).exact_div(big), y),
                      ((big + y).diff("x1"), CONTEXTS[2].one()),
                      (big.diff("x0"), 256 * x**255)]:
        assert got == want and hash(got) == hash(want)
        assert list(got.terms.items()) == list(want.terms.items())
        assert got.text() == want.text()


def test_queries_and_reuse_leave_products_unchanged():
    x, y = CONTEXTS[2].gens()
    p = (x + y) * (x - 2 * y)
    q = (x - y) * (x + y)
    p_terms, q_terms = dict(p.terms), dict(q.terms)
    assert not p.is_zero() and not p.has_constant_term() and not p.is_constant()
    assert ((x + 1) * (x - 1)).has_constant_term()
    assert (p - p).is_zero() and (p - p) == 0 and (p - p + 3).constant_value() == 3
    r = _sum_of_products(CONTEXTS[2], [[p, q], [q, q, p]])
    assert_matches(r, chained_sum([[p_terms, q_terms], [q_terms, q_terms, p_terms]]))
    assert dict(p.terms) == p_terms and dict(q.terms) == q_terms
    assert r.evaluate((Fraction(1, 2), 3)) == evaluate(r.terms, (Fraction(1, 2), 3))
    # Each read of terms is a fresh read-only view.
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = Fraction(1)
    assert dict(p.terms) == p_terms


@st.composite
def rational_points_for(draw, n):
    """Points of n rationals; zeros and negative numerators are common."""
    value = st.one_of(st.just(Fraction(0)), st.integers(-5, 5).map(Fraction),
                      st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)))
    return [draw(value) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), term_dicts(n, max_exp=4), rational_points_for(n))))
@example((2, {}, [Fraction(1), Fraction(2)]))                                    # zero
@example((2, {(0, 0): Fraction(-7, 3)}, [Fraction(0), Fraction(-1, 2)]))         # constant
@example((3, {(2, 0, 1): Fraction(5), (0, 3, 0): Fraction(-1, 9)},
          [Fraction(0), Fraction(-4, 7), Fraction(0)]))                           # zero coordinates
def test_evaluate_at_rational_points_matches_the_oracle(case):
    n, terms, point = case
    p = poly(n, terms)
    packed = p * CONTEXTS[n].one()
    for at in (point, [int(v) if v.denominator == 1 else v for v in point]):
        assert p.evaluate(at) == evaluate(terms, at)
        assert packed.evaluate(at) == evaluate(terms, at)
        assert type(p.evaluate(at)) is Fraction
    # Floats take the term loop and give a float, a constant's (zero
    # included) too.
    at = [float(v) for v in point]
    want = evaluate(terms, at)
    assert p.evaluate(at) == want and packed.evaluate(at) == want
    assert type(p.evaluate(at)) is float and type(packed.evaluate(at)) is float


@settings(max_examples=100, deadline=None)
@given(matrices(4, 4))
def test_gram_equals_the_matrix_product_entrywise(case):
    n, m = case
    a = PolyMatrix([[poly(n, e) for e in row] for row in m])
    got, want = a.gram(), a @ transpose(a)
    assert got.shape == want.shape
    for i in range(a.rows):
        for j in range(a.rows):
            assert got[i, j] == want[i, j]
            if i <= j:
                assert list(got[i, j].terms.items()) == list(want[i, j].terms.items())
            else:
                assert got[i, j] is got[j, i]


def test_substitute_equal_values_that_are_distinct_objects():
    # u + v and v + u are equal with their terms in opposite orders.  Each
    # power comes from its own value, as in the oracle: x1^2 is second^2,
    # not the first^2 that x0^2 has already built.
    s = VarContext(["s0", "s1"])
    u, v = s.gens()
    first, second = u + v, v + u
    assert first == second and list(first.terms) != list(second.terms)
    p = poly(2, {(2, 0): Fraction(1), (1, 2): Fraction(-3, 2)})
    got = substitute(p, [first, second])
    assert_matches(got, cleared_pullback(p.terms, [first.terms, second.terms], 2))
    assert got == substitute(p, [first, first])


def test_substitute_powers_no_zero_value_and_no_unit_denominator(monkeypatch):
    # The chains through a power of 0 add nothing and the powers of a
    # denominator 1 are factors 1, so none of them is built.
    s = VarContext(["s0"])
    (t,) = s.gens()
    zero, one, den = s.zero(), s.one(), t + 2
    p = poly(3, {(1, 0, 2): Fraction(2), (2, 1, 0): Fraction(-1), (0, 2, 1): Fraction(1, 3),
                 (0, 0, 1): Fraction(5)})
    nums, dens = [t - 1, zero, t**2 + 3], [one, den, one]
    powered = []
    real_pow = Polynomial.__pow__
    monkeypatch.setattr(Polynomial, "__pow__", lambda b, k: powered.append(b) or real_pow(b, k))
    phi = Parametrization(target=CONTEXTS[3], params=s, numerators=tuple(nums),
                          denominators=tuple(dens))
    got = pullback_numerator(p, phi)
    assert not any(b is zero or b is one for b in powered)
    assert_matches(got, cleared_pullback(p.terms, [v.terms for v in nums], 1,
                                         [d.terms for d in dens]))
    assert_matches(substitute(p, nums), cleared_pullback(p.terms, [v.terms for v in nums], 1))
