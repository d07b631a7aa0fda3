"""Seeded input family for the exact-pullback workload.

Cost of an exact pullback or composition depends far more on which
monomials appear than on the coefficients, so every item's monomial
support is fixed by the benchmark (drawn from a generator keyed by the
item's label alone) and the workload seed draws the nonzero coefficients.
Two seeds therefore pose different inputs of the same structure and
comparable cost, which keeps run-to-run spread down to the machine's.

Each item carries its timed call, a function that turns the result into
the texts germlab prints, and a checker that re-derives those texts'
values at seeded rational points through `oracle` alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import oracle
from germlab.compose import compose_exact
from germlab.curves import CurveFamily, LaurentPoly
from germlab.germs import Parametrization, RealMapGerm, pullback_vanishes
from germlab.hwc import hwc_check, hwc_check_mixed
from germlab.mixed import ComplexRational, MixedPolynomial
from germlab.poly import Polynomial, VarContext

# A wide range makes accidental cancellation rare, so a germ's term counts,
# and with them its cost, hardly depend on the seed.
COEFFS = tuple(c for c in range(-97, 98) if c)


@dataclass(frozen=True)
class Item:
    label: str
    kind: str
    call: Callable[[], Any]
    printed: Callable[[Any], Any]
    check: Callable[[Any], str | None]


def _support(label: str, m: int, degrees, terms: int) -> list[tuple[int, ...]]:
    rng = random.Random(f"support:{label}")
    out: set = set()
    while len(out) < terms:
        e = [0] * m
        for _ in range(rng.choice(degrees)):
            e[rng.randrange(m)] += 1
        out.add(tuple(e))
    return sorted(out)


def _poly(ctx: VarContext, support, rng) -> Polynomial:
    return Polynomial(ctx, {e: Fraction(rng.choice(COEFFS)) for e in support})


def _rational_point(rng, arity: int, radius: int = 2):
    return tuple(Fraction(rng.randint(-radius * 16, radius * 16), rng.randint(1, 16))
                 for _ in range(arity))


# -- exact-pullback ----------------------------------------------------------

PULLBACK_PAIRS = 8  # of each verdict
COMPOSE_COUNT = 12
CURVE_COUNT = 11
MIXED_KINDS = (("holomorphic", 4), ("split", 4), ("generic", 3))


def _pullback_item(label: str, seed: int, vanishing: bool) -> Item:
    """p vanishes on a graph parametrization by construction, or misses it.

    phi(u) = (g1(u), g2(u), N3/D3 (g1, g2), N4/D4 (g1, g2)); the relations
    x_k * D_k(x1, x2) - N_k(x1, x2) vanish on phi, so a combination of them
    does too.  The non-vanishing twin adds c * x1^2, whose pullback
    c * g1(u)^2 is a nonzero polynomial.
    """
    rng = random.Random(f"{seed}:pullback:{label}")
    xs = VarContext(["x1", "x2", "x3", "x4"])
    us = VarContext(["u1", "u2"])
    x1, x2, x3, x4 = xs.gens()
    planar = VarContext(["x1", "x2"])
    g = [_poly(us, _support(f"{label}/g{i}", 2, (1, 2), 2), rng) for i in range(2)]
    num = [_poly(planar, _support(f"{label}/N{i}", 2, (1, 2), 2), rng) for i in range(2)]
    den = [planar.one() + _poly(planar, _support(f"{label}/D{i}", 2, (2,), 1), rng)
           for i in range(2)]
    h = [_poly(xs, _support(f"{label}/h{i}", 4, (1, 2), 2), rng) for i in range(2)]
    rel = [xk * d.lift(xs) - n.lift(xs) for xk, n, d in zip((x3, x4), num, den)]
    p = h[0] * rel[0] + h[1] * rel[1]
    if not vanishing:
        p = p + rng.choice(COEFFS) * x1 * x1
    phi = Parametrization(
        target=xs, params=us,
        numerators=(g[0], g[1]) + tuple(n.evaluate(list(g)) for n in num),
        denominators=(us.one(), us.one()) + tuple(d.evaluate(list(g)) for d in den),
        name=label)
    p_terms = dict(p.terms)
    nums = [dict(n.terms) for n in phi.numerators]
    dens = [dict(d.terms) for d in phi.denominators]
    degs = [oracle.degree_in(p_terms, i) for i in range(4)]
    crng = random.Random(f"{seed}:check:{label}")
    points = [_rational_point(crng, 2) for _ in range(2)]

    def printed(res):
        wit = [str(v) for v in res.witness] if res.witness is not None else None
        return res.vanishes, res.numerator.text(), wit

    def pulled(s):
        dv = [oracle.evaluate(d, s) for d in dens]
        if any(v == 0 for v in dv):
            return None, dv
        xv = [oracle.evaluate(n, s) / d for n, d in zip(nums, dv)]
        return oracle.evaluate(p_terms, xv), dv

    def check(out):
        vanishes, num_text, wit = out
        if vanishes != vanishing:
            return f"{label}: vanishes={vanishes}, built {vanishing}"
        numerator = oracle.parse_text(num_text, us.names)
        for s in points:
            value, dv = pulled(s)
            if value is None:
                continue
            cleared = value
            for d, k in zip(dv, degs):
                cleared *= d ** k
            if oracle.evaluate(numerator, s) != cleared:
                return f"{label}: numerator{s} != p(phi(s)) * prod d^deg"
        if vanishing:
            return None if wit is None else f"{label}: witness on a vanishing pair"
        value, _ = pulled([Fraction(v) for v in wit])
        if not value:
            return f"{label}: witness {wit} does not evaluate to a nonzero value"
        return None

    return Item(label, "pullback-" + ("vanishing" if vanishing else "nonvanishing"),
                lambda: pullback_vanishes(p, phi), printed, check)


def _compose_item(label: str, seed: int) -> Item:
    rng = random.Random(f"{seed}:compose:{label}")
    src = VarContext(["s1", "s2", "s3", "s4"])
    mid = VarContext(["y1", "y2", "y3"])
    inner = RealMapGerm(src, tuple(
        _poly(src, _support(f"{label}/F{i}", 4, (1, 2), 3), rng) for i in range(3)))
    outer = RealMapGerm(mid, tuple(
        _poly(mid, _support(f"{label}/G{i}", 3, (2, 3), 3), rng) for i in range(2)))
    f_terms = [dict(c.terms) for c in inner.components]
    g_terms = [dict(c.terms) for c in outer.components]
    crng = random.Random(f"{seed}:check:{label}")
    points = [_rational_point(crng, 4) for _ in range(2)]

    def printed(h):
        return [c.text() for c in h.components]

    def check(out):
        comps = [oracle.parse_text(t, src.names) for t in out]
        for pt in points:
            mid_pt = [oracle.evaluate(f, pt) for f in f_terms]
            want = [oracle.evaluate(g, mid_pt) for g in g_terms]
            got = [oracle.evaluate(c, pt) for c in comps]
            if got != want:
                return f"{label}: compose_exact{pt} != outer(inner(pt))"
        return None

    return Item(label, "compose", lambda: compose_exact(outer, inner), printed, check)


def _curve_item(label: str, seed: int) -> Item:
    rng = random.Random(f"{seed}:curve:{label}")
    xs = VarContext(["x1", "x2", "x3"])
    ss = VarContext(["s"])
    p = _poly(xs, _support(f"{label}/p", 3, (2, 3, 4), 5), rng)
    srng = random.Random(f"support:{label}/gamma")
    coords = []
    for j in range(3):
        powers = sorted(srng.sample(range(-1, 4), 2))
        parts = {k: _poly(ss, _support(f"{label}/c{j}{k}", 1, (0, 1, 2), 2), rng)
                 for k in powers}
        coords.append(LaurentPoly(ss, parts))
    gamma = CurveFamily(target=xs, params=ss, coords=tuple(coords))
    p_terms = dict(p.terms)
    c_terms = [{k: dict(q.terms) for k, q in c.parts.items()} for c in coords]
    crng = random.Random(f"{seed}:check:{label}")
    points = []
    while len(points) < 2:
        t, s = _rational_point(crng, 2)
        if t:
            points.append((t, s))

    def printed(lp):
        return {k: q.text() for k, q in lp.parts.items()}

    def check(out):
        parts = {k: oracle.parse_text(v, ss.names) for k, v in out.items()}
        for t, s in points:
            xv = [sum((oracle.evaluate(q, (s,)) * t ** k for k, q in c.items()),
                      Fraction(0)) for c in c_terms]
            want = oracle.evaluate(p_terms, xv)
            got = sum((oracle.evaluate(q, (s,)) * t ** k for k, q in parts.items()),
                      Fraction(0))
            if got != want:
                return f"{label}: pullback at t={t}, s={s} != p(gamma(t, s))"
        return None

    return Item(label, "curve", lambda: gamma.pullback(p), printed, check)


def _mixed_poly(label: str, rng, kind: str) -> MixedPolynomial:
    ctx = VarContext(["z1", "z2", "z3", "z4"])
    z = [MixedPolynomial.var(ctx, n) for n in ctx.names]

    def hol(tag, idx, degrees, terms):
        acc = MixedPolynomial.const(ctx, 0)
        for e in _support(f"{label}/{tag}", len(idx), degrees, terms):
            mono = MixedPolynomial.const(
                ctx, ComplexRational(rng.choice(COEFFS), rng.choice(COEFFS)))
            for i, k in zip(idx, e):
                mono = mono * z[i] ** k
            acc = acc + mono
        return acc

    if kind == "holomorphic":
        return hol("f", range(4), (2, 3), 4)
    if kind == "split":
        # f * conj(g) + r + conj(h) with f, r in (z1, z2) and g, h in (z3, z4):
        # the frame condition holds by the mixed-algorithm construction.
        left, right = (0, 1), (2, 3)
        return (hol("f", left, (1, 2), 2) * hol("g", right, (1, 2), 2).conj()
                + hol("r", left, (2,), 2) + hol("h", right, (2,), 2).conj())
    return hol("a", range(4), (1, 2), 3) * hol("b", range(4), (1,), 2).conj()


def _mixed_item(label: str, seed: int, kind: str) -> Item:
    rng = random.Random(f"{seed}:mixed:{label}")
    f = _mixed_poly(label, rng, kind)
    f_terms = {k: (c.re, c.im) for k, c in f.terms.items()}
    crng = random.Random(f"{seed}:check:{label}")
    points = [_rational_point(crng, 8) for _ in range(3)]

    def call():
        re, im = f.realify()
        mixed = hwc_check_mixed(f)
        real = hwc_check(RealMapGerm(re.ctx, (re, im), label))
        return re, im, mixed.holds, real.holds

    def printed(out):
        re, im, mixed, real = out
        return list(re.ctx.names), re.text(), im.text(), mixed, real

    def check(out):
        names, re_text, im_text, mixed, real = out
        if mixed != real:
            return f"{label}: mixed route holds={mixed}, realified route {real}"
        if kind != "generic" and not mixed:
            return f"{label}: {kind} germ must keep the conformal frame"
        u = oracle.parse_text(re_text, names)
        v = oracle.parse_text(im_text, names)
        du = [oracle.diff(u, j) for j in range(len(names))]
        dv = [oracle.diff(v, j) for j in range(len(names))]
        frame_ok = True
        for pt in points:
            z = [(pt[2 * j], pt[2 * j + 1]) for j in range(len(pt) // 2)]
            if oracle.mixed_value(f_terms, z) != (oracle.evaluate(u, pt),
                                                  oracle.evaluate(v, pt)):
                return f"{label}: realified parts at {pt} != Re, Im of f(z)"
            gu = [oracle.evaluate(d, pt) for d in du]
            gv = [oracle.evaluate(d, pt) for d in dv]
            inner = sum(a * b for a, b in zip(gu, gv))
            norms = sum(a * a for a in gu) - sum(b * b for b in gv)
            frame_ok = frame_ok and not inner and not norms
        if frame_ok != mixed:
            return f"{label}: frame residuals at sample points disagree with holds={mixed}"
        return None

    return Item(label, f"mixed-{kind}", call, printed, check)


def pullback_items(seed: int) -> list[Item]:
    items = []
    for j in range(PULLBACK_PAIRS):
        items.append(_pullback_item(f"pb{j}-v", seed, True))
        items.append(_pullback_item(f"pb{j}-n", seed, False))
    items += [_compose_item(f"cmp{j}", seed) for j in range(COMPOSE_COUNT)]
    items += [_curve_item(f"crv{j}", seed) for j in range(CURVE_COUNT)]
    for kind, count in MIXED_KINDS:
        items += [_mixed_item(f"mix-{kind}{j}", seed, kind) for j in range(count)]
    return items
