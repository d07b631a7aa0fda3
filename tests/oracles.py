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



def _add_into(acc: dict, term: dict, sign: int = 1) -> None:
    # acc + sign * term, term by term in term's order; a sum that cancels
    # leaves acc, so a monomial that comes back is placed at the end.
    for e, c in term.items():
        s = acc.get(e, 0) + sign * c
        if s:
            acc[e] = s
        else:
            acc.pop(e, None)


def chained_sum(chains: list[list[dict]]) -> dict:
    """`acc = acc + f1 * f2 * ...` over term dicts, one chain per term.

    Each chain is multiplied left to right by `schoolbook_mul` and added in
    its own term order.
    """
    acc: dict = {}
    for chain in chains:
        term = chain[0]
        for f in chain[1:]:
            term = schoolbook_mul(term, f)
        _add_into(acc, term)
    return acc


def schoolbook_pow(a: dict, k: int, arity: int) -> dict:
    """a**k by square-and-multiply from the constant 1, low bit first."""
    out = {(0,) * arity: Fraction(1)}
    while k:
        if k & 1:
            out = schoolbook_mul(out, a)
        a = schoolbook_mul(a, a) if k > 1 else a
        k >>= 1
    return out


def cofactor_det(m: list[list[dict]]) -> dict:
    """First-row cofactor expansion over term dicts, minors recursively."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc: dict = {}
    for j in range(n):
        sub = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        _add_into(acc, schoolbook_mul(m[0][j], cofactor_det(sub)), -1 if j % 2 else 1)
    return acc


def cleared_pullback(p: dict, nums: list[dict], dens: list[dict], arity: int) -> dict:
    """Numerator of p(n_1/d_1, ..., n_m/d_m), each x_i cleared to its degree in p.

    The monomial c * prod x_i^e_i contributes the chain
    c, n_i^e_i, d_i^(deg_i - e_i), ... over the variables in order.
    """
    degs = [max((e[i] for e in p), default=0) for i in range(len(nums))]
    chains = []
    for e, c in p.items():
        chain = [{(0,) * arity: c}]
        for i, k in enumerate(e):
            if k:
                chain.append(schoolbook_pow(nums[i], k, arity))
            if degs[i] - k:
                chain.append(schoolbook_pow(dens[i], degs[i] - k, arity))
        chains.append(chain)
    return chained_sum(chains)
