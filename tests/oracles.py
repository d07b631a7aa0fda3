"""Independent reference implementations used only by the test suite.

Everything here is written against raw nested lists of Fractions or raw
term dicts (exponent tuple -> Fraction), with no imports from germlab
internals beyond evaluation, so that agreement between a germlab routine and
its oracle actually means two routes reached the same answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def leibniz_det(rows: list[list[Fraction]]) -> Fraction:
    """Sum over permutations; fine for n <= 6, used on evaluated matrices."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        # Count inversions for the signature.
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if seen[i] > seen[j])
        sign = -1 if inv % 2 else 1
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Exact Gaussian elimination over the rationals."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][col]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def numeric_rank(rows: list[list[float]], tol: float = 1e-8) -> int:
    import numpy as np

    a = np.asarray(rows, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    return int((s > tol * max(1.0, s[0])).sum())


def sympy_expand_equal(text_a: str, text_b: str, names: list[str]) -> bool:
    """Third-party expansion cross-check on canonical text."""
    import sympy

    syms = {n: sympy.Symbol(n) for n in names}
    ea = sympy.sympify(text_a.replace("^", "**"), locals=syms)
    eb = sympy.sympify(text_b.replace("^", "**"), locals=syms)
    return sympy.expand(ea - eb) == 0


def schoolbook_mul(a: dict, b: dict) -> dict:
    """Product of two term dicts by the double loop over Fraction terms.

    A sum that cancels leaves the dict, so a monomial that comes back is
    placed at the end: the insertion order is part of what is compared.
    """
    terms: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = terms.get(e, 0) + c1 * c2
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return terms


def schoolbook_div(a: dict, b: dict) -> dict:
    """Exact quotient a / b of term dicts by leading-term cancellation.

    Graded lex, with the leading term found by a full rescan of the
    remainder.  Raises ArithmeticError when a leading monomial of the
    remainder is not divisible, and ZeroDivisionError on b == {}.
    """
    def grlex(e):
        return (sum(e), e)

    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    ed = max(b, key=grlex)
    cd = b[ed]
    rem = dict(a)
    out: dict = {}
    while rem:
        er = max(rem, key=grlex)
        eq = tuple(x - y for x, y in zip(er, ed))
        if any(k < 0 for k in eq):
            raise ArithmeticError(f"inexact division at {er}")
        cq = rem[er] / cd
        out[eq] = cq
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(eq, e2))
            s = rem.get(e, 0) - cq * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return out
