"""Independent reference implementations used only by the test suite.

Everything here is written against raw nested lists of Fractions or raw
term dicts (exponent tuple -> Fraction), with no imports from germlab
internals, so that agreement between a germlab routine and its oracle
actually means two routes reached the same answer.  The float, germ and
finite-difference evaluators are cross-checks that only tests need; they
call `Polynomial.evaluate`, and `from_polys` and `transpose` build the
polynomial parametrizations and transposed matrices that only tests use.
`rational_points` lists the first points of germlab's seeded rational
stream, which only tests need as a list.
The scipy composition ladder also takes the exact composition, the
compiled float evaluators, the tolerances and the seed stream from
germlab: it is an oracle for the solver and the batching, not for those.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, islice, permutations
from math import comb


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


def evaluate(terms: dict, point) -> Fraction:
    """The value of a term dict at a point, one Fraction product per term."""
    total = Fraction(0)
    for e, c in terms.items():
        for v, k in zip(point, e):
            c *= v**k
        total += c
    return total


def germ_value(germ, point) -> list:
    """The components of a germ at a point, each by `Polynomial.evaluate`."""
    return [g.evaluate(point) for g in germ.components]


def parametrization_value(phi, svals) -> list:
    """The coordinates n_i / d_i of a parametrization at parameter values."""
    out = []
    for n, d in zip(phi.numerators, phi.denominators):
        dv = d.evaluate(svals)
        if dv == 0:
            raise ValueError(f"denominator {d.text()} vanishes at {svals}")
        out.append(n.evaluate(svals) / dv)
    return out


def rational_points(rng, arity: int, count: int, radius=2) -> list:
    """The first count points of `iter_rational_points(rng, arity, radius)`."""
    from germlab.sampling import iter_rational_points
    return list(islice(iter_rational_points(rng, arity, radius), count))


def from_polys(target, params, values, name: str = ""):
    """The Parametrization with polynomial coordinates: every denominator 1."""
    from germlab.germs import Parametrization
    one = params.one()
    return Parametrization(target=target, params=params, numerators=tuple(values),
                           denominators=tuple(one for _ in values), name=name)


def transpose(m):
    """The transpose of a PolyMatrix."""
    return type(m)([list(col) for col in zip(*m.entries)])


def mixed_float_value(p, zs) -> complex:
    """A mixed polynomial at complex points, from its re and im parts."""
    if len(zs) != p.ctx.arity:
        raise ValueError(f"expected {p.ctx.arity} values, got {len(zs)}")
    both = list(zs) + [z.conjugate() for z in zs]
    return complex(p.re.evaluate(both)) + 1j * complex(p.im.evaluate(both))


def fd_gradient(p, point, h: float = 1e-6) -> list[float]:
    """Central finite differences of a polynomial at a float point."""
    pt = [float(v) for v in point]
    out = []
    for i in range(len(pt)):
        hi = pt.copy()
        lo = pt.copy()
        hi[i] += h
        lo[i] -= h
        out.append((p.evaluate(hi) - p.evaluate(lo)) / (2 * h))
    return out


def term_text(terms: dict, names) -> str:
    """Canonical text of a term dict: graded lex descending, explicit * and ^."""
    out = []
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out) or "0"


def scale(a: dict, c) -> dict:
    """c times a term dict, in a's order."""
    return {e: c * v for e, v in a.items()} if c else {}


def term_diff(a: dict, i: int) -> dict:
    """d/dx_i of a term dict, in a's order."""
    out = {}
    for e, c in a.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def term_lift(a: dict, positions, arity: int) -> dict:
    """a over `arity` variables, with exponent i moved to positions[i]."""
    out = {}
    for e, c in a.items():
        big = [0] * arity
        for p, k in zip(positions, e):
            big[p] = k
        out[tuple(big)] = c
    return out


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


def plus(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b over term dicts: a's order, then b's new monomials."""
    acc = dict(a)
    _add_into(acc, b, sign)
    return acc


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


def cauchy_binet_sum(rows: list[list[dict]]) -> dict:
    """Sum of the squared maximal minors of a p x m term-dict matrix, p <= m.

    By the Cauchy-Binet formula this is det(A A^T), the Gram determinant;
    each minor comes from `cofactor_det`, column subsets in lexicographic
    order.
    """
    acc: dict = {}
    for cols in combinations(range(len(rows[0])), len(rows)):
        minor = cofactor_det([[row[j] for j in cols] for row in rows])
        _add_into(acc, schoolbook_mul(minor, minor))
    return acc


def cleared_pullback(p: dict, nums: list[dict], arity: int,
                     dens: list[dict] | None = None) -> dict:
    """Numerator of p(n_1/d_1, ..., n_m/d_m), each x_i cleared to its degree in p.

    The monomial c * prod x_i^e_i contributes the chain
    c, n_i^e_i, d_i^(deg_i - e_i), ... over the variables in order.  With no
    denominators the chain is c, n_i^e_i, ...: p(n_1, ..., n_m) summed term
    by term, the order of a composition.
    """
    degs = [max((e[i] for e in p), default=0) for i in range(len(nums))]
    chains = []
    for e, c in p.items():
        chain = [{(0,) * arity: c}]
        for i, k in enumerate(e):
            if k:
                chain.append(schoolbook_pow(nums[i], k, arity))
            if dens and degs[i] - k:
                chain.append(schoolbook_pow(dens[i], degs[i] - k, arity))
        chains.append(chain)
    return chained_sum(chains)


# -- mixed polynomials --------------------------------------------------
#
# A mixed term dict maps (nu, mu) exponent pairs to (re, im) Fraction pairs,
# standing for sum (re + i*im) * z^nu * conj(z)^mu.  These are the term-dict
# loops germlab used before it stored a mixed polynomial as two Polynomials.


def mixed_mul(a: dict, b: dict) -> dict:
    """Product of two mixed term dicts by the double loop over terms."""
    terms: dict = {}
    for (n1, m1), (r1, i1) in a.items():
        for (n2, m2), (r2, i2) in b.items():
            k = (tuple(x + y for x, y in zip(n1, n2)),
                 tuple(x + y for x, y in zip(m1, m2)))
            re, im = terms.get(k, (0, 0))
            s = (re + r1 * r2 - i1 * i2, im + r1 * i2 + i1 * r2)
            if any(s):
                terms[k] = s
            else:
                terms.pop(k, None)
    return terms


def mixed_conj(a: dict) -> dict:
    """Swap nu and mu and conjugate each coefficient."""
    return {(mu, nu): (re, -im) for (nu, mu), (re, im) in a.items()}


def mixed_diff(a: dict, i: int, conj: bool = False) -> dict:
    """d/dz_i of a mixed term dict, or d/dconj(z_i) when conj is set."""
    terms = {}
    for (nu, mu), (re, im) in a.items():
        e = mu if conj else nu
        if e[i]:
            d = list(e)
            d[i] -= 1
            k = (nu, tuple(d)) if conj else (tuple(d), mu)
            terms[k] = (re * e[i], im * e[i])
    return terms


def mixed_realify(a: dict, arity: int) -> tuple[dict, dict]:
    """Real and imaginary term dicts over (x_1, y_1, x_2, y_2, ...).

    Each term starts as its coefficient and is multiplied step by step by
    x_j + i*y_j once per power of z_j and by x_j - i*y_j once per power of
    conj(z_j); the terms are then summed in order.
    """
    zero = (0,) * (2 * arity)

    def unit(k):
        e = [0] * (2 * arity)
        e[k] = 1
        return {tuple(e): Fraction(1)}

    total_re: dict = {}
    total_im: dict = {}
    for (nu, mu), (cre, cim) in a.items():
        tre = {zero: cre} if cre else {}
        tim = {zero: cim} if cim else {}
        for j in range(arity):
            x, y = unit(2 * j), unit(2 * j + 1)
            for _ in range(nu[j]):
                tre, tim = (plus(schoolbook_mul(tre, x), schoolbook_mul(tim, y), -1),
                            plus(schoolbook_mul(tre, y), schoolbook_mul(tim, x)))
            for _ in range(mu[j]):
                tre, tim = (plus(schoolbook_mul(tre, x), schoolbook_mul(tim, y)),
                            plus(schoolbook_mul(tim, x), schoolbook_mul(tre, y), -1))
        _add_into(total_re, tre)
        _add_into(total_im, tim)
    return total_re, total_im


def realify_chain_sums(re: dict, im: dict, arity: int) -> tuple[dict, dict]:
    """Real and imaginary term dicts of re + i*im, summed chain by chain.

    re and im are term dicts over the doubled exponents (nu, mu).  Each term
    of re, then of im, expands to chains: its signed coefficient, then per
    variable |z_j|^(2 min(a, b)) when a and b are both nonzero and the real
    or the imaginary part of z_j^d or conj(z_j)^d, d = |a - b|, when they
    differ, real part first.  The chains are summed by `chained_sum`, one
    sum per part, in that order.
    """
    zero = (0,) * (2 * arity)

    def mono(j, a, b):
        e = [0] * (2 * arity)
        e[2 * j], e[2 * j + 1] = a, b
        return tuple(e)

    chains: tuple[list, list] = ([], [])
    for k0, part in ((0, re), (1, im)):
        for e, c in part.items():
            picks = [(k0, c, [])]  # (power of i, coefficient, factors)
            for j in range(arity):
                a, b = e[j], e[arity + j]
                if a and b:
                    m = schoolbook_pow({mono(j, 2, 0): Fraction(1), mono(j, 0, 2): Fraction(1)},
                                       min(a, b), 2 * arity)
                    picks = [(k, s, f + [m]) for k, s, f in picks]
                if a != b:
                    d = abs(a - b)
                    parts: tuple[dict, dict] = ({}, {})
                    for r in range(d + 1):  # (x + i*y)^d, i^r = -1 for r % 4 in (2, 3)
                        parts[r % 2][mono(j, d - r, r)] = Fraction(
                            -comb(d, r) if r % 4 > 1 else comb(d, r))
                    flip = 1 if a > b else -1  # conj(z)^d has imaginary part -im
                    picks = [(k + t, s * flip if t else s, f + [g])
                             for k, s, f in picks for t, g in enumerate(parts)]
            for k, s, f in picks:
                chains[k % 2].append([{zero: -s if k % 4 > 1 else s}, *f])
    return chained_sum(chains[0]), chained_sum(chains[1])


# -- the scipy composition ladder ------------------------------------------


def scipy_composition_ladder(outer, inner, config) -> dict | None:
    """The sampled composition probe, one seed and one rung at a time.

    Each refinement is scipy's trf least_squares with finite-difference
    Jacobians, the Sing G projection weights the minors by 1e4 against
    the pull to the target, and the seeds, windows and filters are those
    of germlab.compose.composition_sampled_probe, which must reach the
    same verdict on its own batched solver.  Returns the record of the
    closest completed ladder within tolerance of Sing G, or None.
    """
    import numpy as np
    from scipy.optimize import least_squares

    from germlab.compose import compose_exact
    from germlab.sampling import R_MIN, TOL_ACCUM, compile_float, derive_rng

    def refine(fn, x0, extra=None):
        def resid(x):
            r = fn(x)
            return r if extra is None else np.concatenate([r, np.atleast_1d(extra(x))])

        return least_squares(resid, np.asarray(x0, dtype=float), method="trf",
                             xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=400).x

    def nearest(fn, t, weight=1e4):
        t = np.asarray(t, dtype=float)
        return refine(lambda x: weight * fn(x), t, extra=lambda x: x - t)

    h = compose_exact(outer, inner)
    f_fn = compile_float(list(inner.components))
    sigma_fn = compile_float(h.singular_minors())
    mil_fn = compile_float(h.milnor_minors())
    sing_g_fn = compile_float(outer.singular_minors())

    rng = derive_rng(config.seed, f"compose:{h.label()}")
    m = inner.source_arity
    top = 1e-4
    best = None
    for _ in range(8):
        x = np.array([rng.uniform(-config.radius / 2, config.radius / 2)
                      for _ in range(m)])

        def top_gap(pt):
            s = sigma_fn(pt)
            return float(np.sum(s * s) / top - 1.0)

        x = refine(mil_fn, x, extra=top_gap)
        s = sigma_fn(x)
        sigma = float(np.sum(s * s))
        if not (top / 4 <= sigma <= 4 * top) or np.max(np.abs(mil_fn(x))) > 1e-7:
            continue
        q = nearest(sing_g_fn, f_fn(x))
        rho = float(np.linalg.norm(q))
        if rho < R_MIN:
            continue
        uhat = q / rho
        traj = []
        for tgt in (1e-6, 1e-8, 1e-10, 1e-12):
            def pinned(pt, tgt=tgt, uhat=uhat):
                s = sigma_fn(pt)
                gap = float(np.sum(s * s) / tgt - 1.0)
                pin = 10.0 * (float(np.dot(f_fn(pt), uhat)) / rho - 1.0)
                return np.array([gap, pin])

            x = refine(mil_fn, x, extra=pinned)
            s = sigma_fn(x)
            sigma = float(np.sum(s * s))
            res = np.max(np.abs(mil_fn(x)))
            img = f_fn(x)
            q = nearest(sing_g_fn, img)
            qn = float(np.linalg.norm(q))
            dist = float(np.linalg.norm(q - img))
            norm = float(np.linalg.norm(x))
            if (not (tgt / 4 <= sigma <= 4 * tgt) or res > 1e-7
                    or not (0.75 <= qn / rho <= 1.25)
                    or not (R_MIN <= norm <= config.radius)):
                break
            uhat = q / qn
            traj.append({"image_distance_to_sing": dist, "nearest_sing_norm": qn,
                         "preimage_norm": norm})
        if len(traj) < 4:
            continue
        last = traj[-1]
        if (last["image_distance_to_sing"] <= TOL_ACCUM
                and last["nearest_sing_norm"] >= R_MIN
                and (best is None or last["image_distance_to_sing"]
                     < best["image_distance_to_sing"])):
            best = last
    return best
