"""Independent exact routes the checkers compare germlab's outputs against.

Nothing here imports germlab.  Polynomials are plain dicts mapping
exponent tuples to Fractions over an explicit list of variable names;
printed germlab output is read back through `parse_text`, so a check
compares what the program prints, not its internal objects.
"""

from __future__ import annotations

from fractions import Fraction


def parse_text(text: str, names) -> dict:
    """Read germlab's canonical polynomial text into a term dict.

    The canonical form is `[-]body (+|- body)*` with bodies `c`, `mono`
    or `c*mono`, where c is a Fraction literal and mono a `*`-joined list
    of `name` or `name^k` factors.
    """
    pos = {n: i for i, n in enumerate(names)}
    zero = (0,) * len(names)
    if text.strip() == "0":
        return {}
    tokens = text.split(" ")
    pairs = []
    first = tokens[0]
    if first.startswith("-"):
        pairs.append((-1, first[1:]))
    else:
        pairs.append((1, first))
    rest = tokens[1:]
    if len(rest) % 2:
        raise ValueError(f"malformed polynomial text: {text!r}")
    for sign, body in zip(rest[0::2], rest[1::2]):
        if sign not in "+-":
            raise ValueError(f"malformed sign {sign!r} in {text!r}")
        pairs.append((1 if sign == "+" else -1, body))
    out: dict = {}
    for sign, body in pairs:
        coeff = Fraction(1)
        exps = list(zero)
        for k, factor in enumerate(body.split("*")):
            if k == 0 and (factor[0].isdigit()):
                coeff = Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exps[pos[name]] += int(power) if power else 1
        key = tuple(exps)
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = sign * coeff
    return out


def evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exps, c in terms.items():
        term = c
        for v, k in zip(point, exps):
            if k:
                term *= v ** k
        total += term
    return total


def diff(terms: dict, i: int) -> dict:
    out = {}
    for exps, c in terms.items():
        if exps[i]:
            d = list(exps)
            d[i] -= 1
            out[tuple(d)] = c * exps[i]
    return out


def degree_in(terms: dict, i: int) -> int:
    return max((e[i] for e in terms), default=0)


def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    sign = 1
    acc = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        acc *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return sign * acc


def gram(rows):
    return [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]


def jacobian_at(components, point):
    """Rows of partial derivatives, taken here, evaluated at point."""
    m = len(point)
    return [[evaluate(diff(c, j), point) for j in range(m)] for c in components]


# -- exact complex rationals as (re, im) pairs -----------------------------


def cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def cpow(a, k: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = cmul(out, a)
    return out


def mixed_value(terms: dict, z) -> tuple[Fraction, Fraction]:
    """Sum of c * z^nu * conj(z)^mu for terms {(nu, mu): (re, im)}."""
    re = im = Fraction(0)
    for (nu, mu), c in terms.items():
        t = c
        for zj, a, b in zip(z, nu, mu):
            if a:
                t = cmul(t, cpow(zj, a))
            if b:
                t = cmul(t, cpow((zj[0], -zj[1]), b))
        re += t[0]
        im += t[1]
    return re, im
