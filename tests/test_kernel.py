"""The packed-integer multiply and division loops against the schoolbook oracles.

`Polynomial.__mul__` and `Polynomial.exact_div` pack exponent vectors into
ints and scale coefficients to integer numerators.  Here they are checked
against the plain loops over raw term dicts in `oracles.py`: equal term
dicts in equal insertion order (float evaluation sums terms in that order),
equal canonical text, and the same verdict on inexact division.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab.poly import Polynomial, VarContext

from oracles import schoolbook_div, schoolbook_mul

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


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
def test_mul_matches_schoolbook_in_order(case):
    n, a, b = case
    got = poly(n, a) * poly(n, b)
    want = schoolbook_mul(a, b)
    assert list(got.terms.items()) == list(want.items())
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got.text() == Polynomial(CONTEXTS[n], want).text()


@settings(max_examples=150, deadline=None)
@given(factor_pairs())
def test_exact_div_inverts_mul(case):
    n, a, b = case
    pa, pb = poly(n, a), poly(n, b)
    prod = pa * pb
    q = prod.exact_div(pb)
    assert q == pa
    assert list(q.terms.items()) == list(schoolbook_div(prod.terms, b).items())
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
