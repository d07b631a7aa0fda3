"""Seeded sampling, float compilation, and numeric refinement helpers.

Exact identities never depend on anything here; these utilities exist for
cross-checks (finite differences, rank comparisons) and for the sampled
probes, all of which must be reproducible bit-for-bit.  Every random draw
goes through a Random instance derived from one master seed plus a task
label, so a probe's stream never depends on what ran before it.

The seeds, configuration and rational point helpers are pure Python, so
the exact analyses import this module without numpy; numpy loads on the
first float call (compile_float and the refinement helpers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from germlab.poly import Polynomial

DEFAULT_SEED = 0xC0FFEE
TOL_VARIETY = 1e-9  # point-on-variety acceptance, relative to the envelope
TOL_ACCUM = 1e-3    # accumulation detection, relative
R_MIN = 0.05        # witnesses must keep this norm


@dataclass(frozen=True)
class RunConfig:
    """The settings a sampled probe reads: its seed, sample count and radius."""

    seed: int = DEFAULT_SEED
    samples: int = 200
    radius: float = 2.0


def derive_rng(seed: int, label: str) -> random.Random:
    # String seeding hashes with sha512 internally, stable across platforms.
    return random.Random(f"{seed}:{label}")


def iter_rational_points(rng: random.Random, arity: int,
                         radius=2) -> Iterator[tuple[Fraction, ...]]:
    """Endless rational points in [-radius, radius]^arity, denominators 1..64."""
    bound = Fraction(radius).limit_denominator(10**6)
    bn, bd = bound.numerator, bound.denominator
    while True:
        out = []
        for _ in range(arity):
            den = rng.randint(1, 64)
            hi = bn * den // bd
            out.append(Fraction(rng.randint(-hi, hi), den))
        yield tuple(out)


def rational_points(rng: random.Random, arity: int, count: int,
                    radius=2) -> list[tuple[Fraction, ...]]:
    return list(islice(iter_rational_points(rng, arity, radius), count))


def sparse_grid(arity: int) -> list[tuple[Fraction, ...]]:
    """Deterministic grid of points supported on one or two coordinates.

    Each nonzero coordinate takes a value in +-1, +-2, +-1/2.  Vanishing
    loci of interest (axes, coordinate planes) are invisible to generic
    random points; this grid hits them.  The origin is excluded.
    """
    from itertools import combinations, product

    values = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]
    out = []
    zero = tuple([Fraction(0)] * arity)
    for k in range(1, min(2, arity) + 1):
        for support in combinations(range(arity), k):
            for vals in product(values, repeat=k):
                pt = list(zero)
                for i, v in zip(support, vals):
                    pt[i] = v
                out.append(tuple(pt))
    return out


# -- float evaluation -----------------------------------------------------

def compile_float(polys: Sequence[Polynomial]):
    """Vectorized float evaluator for a list of polynomials.

    Returns f with f(X) of shape (..., len(polys)) for X of shape (..., m).
    All terms of all polynomials share one exponent table, so a call makes
    one pass over the monomials, and each polynomial sums its own slice of
    the term values in its term order (a zero polynomial's slice is empty
    and sums to 0.0).  Each term value and each sum depends on its own
    point only, so f(X)[i] equals f(X[i]) bit for bit: a batch gives the
    same floats as its points evaluated one at a time.
    """
    import numpy as np

    exps, coeffs, slices = [], [], []
    for p in polys:
        start, terms = len(exps), p.terms
        exps.extend(terms.keys())
        coeffs.extend(float(c) for c in terms.values())
        slices.append((start, len(exps)))
    m = polys[0].ctx.arity
    E = np.array(exps, dtype=np.int64).reshape(len(exps), m)
    C = np.array(coeffs, dtype=float)

    def f(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        V = C * np.prod(X[..., None, :] ** E, axis=-1)
        out = np.empty(X.shape[:-1] + (len(slices),))
        for i, (a, b) in enumerate(slices):
            out[..., i] = V[..., a:b].sum(axis=-1)
        return out

    return f


def compile_jacobian(polys: Sequence[Polynomial]):
    """Vectorized evaluator for the Jacobian matrix of a list of polynomials.

    Returns J with J(X) of shape (..., len(polys), m) for X of shape
    (..., m): entry [i, j] is the exact partial derivative of polys[i] in
    the j-th variable, compiled once by compile_float.
    """
    names = polys[0].ctx.names
    f = compile_float([p.diff(v) for p in polys for v in names])
    shape = (len(polys), len(names))

    def jac(X: np.ndarray) -> np.ndarray:
        V = f(X)
        return V.reshape(V.shape[:-1] + shape)

    return jac


def compile_scale(polys: Sequence[Polynomial]):
    """Evaluator for the absolute-value envelope 1 + sum |c| |x|^e.

    Residual tolerances are taken relative to this envelope so that the
    acceptance threshold means the same thing at every sampled point.
    """
    import numpy as np

    absd = [Polynomial(p.ctx, {e: abs(c) for e, c in p.terms.items()}) for p in polys]
    g = compile_float(absd)

    def f(X: np.ndarray) -> np.ndarray:
        return 1.0 + g(np.abs(np.asarray(X, dtype=float)))

    return f


def refine_on_variety(fn, jac, X0, extra, extra_jac):
    """Rows of X0 refined by refine_batch onto the common zero set of fn.

    fn and jac are compiled evaluators (see compile_float and
    compile_jacobian).  extra appends per-row residuals (N, e) to fn's,
    with Jacobians (N, e, m) from extra_jac; the ladders use it to hold a
    gap or pin a continuation target, and nearest_on_variety to pull
    toward its targets.  Returns the refined rows.
    """
    import numpy as np

    def resid(X):
        return np.concatenate([fn(X), extra(X)], axis=-1)

    def resid_jac(X):
        return np.concatenate([jac(X), extra_jac(X)], axis=-2)

    return refine_batch(resid, resid_jac, X0)[0]


def nearest_on_variety(fn, jac, T, start=None):
    """Approximate metric projection of each row of T onto the zero set of fn.

    The variety residuals are weighted 1e4 above the distance pull Y - T
    so the constraint binds first and the leftover degrees of freedom
    minimize the distance to the target; a weak pull would let the solver
    trade constraint satisfaction against drifting toward small-residual
    regions such as the origin.  The refinement starts from start, or
    from T itself.
    """
    import numpy as np

    T = np.asarray(T, dtype=float)
    m = T.shape[-1]
    return refine_on_variety(
        lambda Y: 1e4 * fn(Y), lambda Y: 1e4 * jac(Y),
        T if start is None else start,
        extra=lambda Y: Y - T,
        extra_jac=lambda Y: np.broadcast_to(np.eye(m), Y.shape[:-1] + (m, m)))


def refine_batch(fn, jac, X0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trust-region Levenberg-Marquardt on every row of X0 at once.

    fn maps an (N, m) array to residuals (N, k) and jac to their Jacobians
    (N, k, m); both are called on the whole batch, so a residual may
    depend on the row (a per-row target).  Each row keeps its own trust
    radius D, which bounds the step length in x (More, "The
    Levenberg-Marquardt algorithm: implementation and theory", 1978,
    sections 3-4), starting at |x0|, or 1 at the origin.  A step reads
    the SVD J = U S V^T of the row's Jacobian.  The Gauss-Newton step
    -V S^+ U^T r, with singular values below 1e-15 s_max max(k, m)
    dropped, is tried when it fits inside D.  Otherwise the step is
    -V S (S^2 + lam)^-1 U^T r, with lam > 0 from Newton iterations on the
    secular equation |p(lam)| = D, scaled onto the boundary.  The step is
    taken only if it lowers that row's sum of squares; a non-finite
    residual counts as a refused step.  D then follows the ratio of the
    actual to the predicted reduction: it becomes |p|/4 when the ratio is
    under 1/4, and doubles when the ratio is over 3/4 with the step on
    the boundary.  Because D controls the step length directly, a
    residual row weighted far above the others does not stall the solve,
    as a damping floor taken relative to the largest entry of J^T J
    would.

    A row stops, converged, once its step is below 1e-14 relative to |x|
    (taken or not: no step can move it further), or a taken step lowers
    its cost by less than 1e-14 relative to it or to 0.  A row stops
    unconverged when its step is not finite or after 200 steps.
    Returns the refined rows and the per-row convergence flags.
    """
    import numpy as np

    tol = 1e-14
    X = np.array(X0, dtype=float)
    if not len(X):
        return X, np.zeros(0, dtype=bool)
    R, J = fn(X), jac(X)
    cost = np.sum(R * R, axis=-1)
    norm = np.linalg.norm(X, axis=-1)
    radius = np.where(norm > 0, norm, 1.0)
    converged = cost == 0
    active = np.isfinite(cost) & ~converged
    for _ in range(200):
        if not active.any():
            break
        D = np.zeros_like(X)
        pred = np.zeros(len(X))
        edge = np.zeros(len(X), dtype=bool)
        D[active], pred[active], edge[active] = _trust_region_step(
            J[active], R[active], radius[active])
        Xn = X + D
        Rn = fn(Xn)
        cn = np.sum(Rn * Rn, axis=-1)
        take = active & (cn < cost)  # False for NaN
        step = np.linalg.norm(D, axis=-1)
        tiny = step <= tol * (tol + np.linalg.norm(X, axis=-1))
        done = active & (tiny | take & ((cost - cn <= tol * cost) | (cn == 0)))
        stuck = ~take & ~np.all(np.isfinite(D), axis=-1)
        converged |= done
        active &= ~done & ~stuck
        ratio = np.zeros(len(X))
        good = active & take & (pred > 0)
        ratio[good] = (cost[good] - cn[good]) / pred[good]
        shrink = active & (ratio < 0.25)
        radius[shrink] = 0.25 * step[shrink]
        radius[active & (ratio > 0.75) & edge] *= 2.0
        if take.any():
            X[take], R[take], cost[take] = Xn[take], Rn[take], cn[take]
            J = np.where(take[:, None, None], jac(X), J)
    return X, converged


def _trust_region_step(J, R, radius):
    """Steps p with |p| <= radius that minimize |r + J p|, one per row.

    Returns the steps (N, m), the predicted reductions |r|^2 - |r + J p|^2
    and whether each step lies on the boundary.  A row whose Jacobian is
    not finite gets a NaN step.
    """
    import numpy as np

    k, m = J.shape[-2:]
    finite = np.all(np.isfinite(J), axis=(-2, -1))
    U, S, Vt = np.linalg.svd(np.where(finite[:, None, None], J, 0.0),
                             full_matrices=False)
    uf = np.einsum("nkq,nk->nq", U, R)
    keep = S > 1e-15 * max(k, m) * S[:, :1]
    # The step is -V c; V has orthonormal columns, so |p| = |c|.
    c = np.divide(uf, S, out=np.zeros_like(uf), where=keep)
    edge = np.linalg.norm(c, axis=-1) > radius
    if edge.any():
        c[edge] = _secular_coefficients(S[edge], uf[edge], radius[edge],
                                        keep[edge].all(axis=-1) & (k >= m))
    Sc = S * c
    pred = np.sum(Sc * (2 * uf - Sc), axis=-1)
    p = -np.einsum("nqm,nq->nm", Vt, c)
    p[~finite] = np.nan
    return p, pred, edge


def _secular_coefficients(S, uf, radius, full):
    """c = S uf / (S^2 + lam) with |c| = radius, per row.

    lam comes from at most 10 Newton iterations on phi(lam) = |c(lam)| -
    radius in More's form, safeguarded by the bracket [lower, upper] and
    stopped once |phi| < radius / 100; c is then scaled onto the sphere.
    On a full-rank row phi(0) > 0 gives More's lower bound, elsewhere the
    bracket starts at 0.  Each row reaching this point has a Gauss-Newton
    step longer than its radius, so S uf is not zero.
    """
    import numpy as np

    suf = S * uf
    S2 = S * S
    upper = np.linalg.norm(suf, axis=-1) / radius
    lower = np.zeros_like(upper)
    if full.any():
        q = uf[full] / S[full]
        qn = np.linalg.norm(q, axis=-1)
        lower[full] = (qn - radius[full]) * qn / np.sum(q * q / S2[full], axis=-1)

    def inside(lam):
        # The bracket, and lam > 0 so that S^2 + lam never vanishes.
        out = (lam <= 0) | (lam < lower) | (lam > upper)
        return np.where(out, np.maximum(1e-3 * upper, np.sqrt(lower * upper)), lam)

    lam = inside(np.zeros_like(upper))
    todo = np.ones(len(S), dtype=bool)
    for _ in range(10):
        lam = inside(lam)
        den = S2 + lam[:, None]
        q = suf / den
        qn = np.linalg.norm(q, axis=-1)
        phi = qn - radius
        ratio = phi * qn / -np.sum(q * q / den, axis=-1)  # phi / phi'
        upper = np.where(todo & (phi < 0), lam, upper)
        lower = np.where(todo, np.maximum(lower, lam - ratio), lower)
        lam = np.where(todo, lam - (phi + radius) * ratio / radius, lam)
        todo &= np.abs(phi) >= 1e-2 * radius
        if not todo.any():
            break
    c = suf / (S2 + inside(lam)[:, None])
    return c * (radius / np.linalg.norm(c, axis=-1))[:, None]
