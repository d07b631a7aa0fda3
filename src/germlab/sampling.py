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

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from germlab.poly import Polynomial

DEFAULT_SEED = 0xC0FFEE


def default_seed() -> int:
    env = os.environ.get("GERMLAB_SEED")
    return int(env, 0) if env else DEFAULT_SEED


@dataclass(frozen=True)
class RunConfig:
    """Frozen defaults shared by every probe and report."""

    seed: int = field(default_factory=default_seed)
    samples: int = 200
    radius: float = 2.0
    tol_variety: float = 1e-9     # point-on-variety acceptance, scaled
    tol_accum: float = 1e-3       # accumulation detection, relative
    r_min: float = 0.05           # witnesses must keep this norm


def derive_rng(seed: int, label: str) -> random.Random:
    # String seeding hashes with sha512 internally, stable across platforms.
    return random.Random(f"{seed}:{label}")


def rational_point(rng: random.Random, arity: int, radius=2,
                   max_den: int = 64) -> tuple[Fraction, ...]:
    """One rational point in the closed cube [-radius, radius]^arity."""
    out = []
    bound = Fraction(radius).limit_denominator(10**6)
    for _ in range(arity):
        den = rng.randint(1, max_den)
        hi = int(bound * den)
        out.append(Fraction(rng.randint(-hi, hi), den))
    return tuple(out)


def rational_points(rng: random.Random, arity: int, count: int, radius=2,
                    max_den: int = 64) -> list[tuple[Fraction, ...]]:
    return [rational_point(rng, arity, radius, max_den) for _ in range(count)]


def sparse_grid(arity: int, values: Sequence[Fraction] | None = None,
                max_support: int = 2) -> list[tuple[Fraction, ...]]:
    """Deterministic grid of points supported on few coordinates.

    Vanishing loci of interest (axes, coordinate planes) are invisible to
    generic random points; this grid hits them.  The origin is excluded.
    """
    from itertools import combinations, product

    if values is None:
        values = [Fraction(v) for v in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]
    out = []
    zero = tuple([Fraction(0)] * arity)
    for k in range(1, min(max_support, arity) + 1):
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
        start = len(exps)
        exps.extend(p.terms.keys())
        coeffs.extend(float(c) for c in p.terms.values())
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


def refine_on_variety(fn, x0: np.ndarray, extra_residual=None):
    """Least-squares refinement of x0 onto the common zero set of fn.

    fn is a compiled evaluator (see compile_float).  extra_residual, when
    given, is a callable appended to the residual vector (used to pin
    continuation targets).  Deterministic: scipy's trf with fixed start,
    no stochastic restarts.
    """
    import numpy as np
    from scipy.optimize import least_squares

    def resid(x):
        r = fn(x)
        if extra_residual is not None:
            r = np.concatenate([r, np.atleast_1d(extra_residual(x))])
        return r

    sol = least_squares(resid, np.asarray(x0, dtype=float), method="trf",
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=400)
    return sol.x


def nearest_on_variety(fn, target: np.ndarray,
                       weight: float = 1e4) -> np.ndarray:
    """Approximate metric projection of `target` onto the zero set of fn.

    The variety residuals are weighted far above the distance pull so the
    constraint binds first and the leftover degrees of freedom minimize
    the distance to target; a weak pull would let the solver trade
    constraint satisfaction against drifting toward small-residual
    regions such as the origin.
    """
    import numpy as np

    t = np.asarray(target, dtype=float)
    return refine_on_variety(lambda x: weight * fn(x), t,
                             extra_residual=lambda x: x - t)


def refine_batch(fn, jac, X0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt on every row of X0 at once.

    fn maps an (N, m) array to residuals (N, k) and jac to their Jacobians
    (N, k, m); both are called on the whole batch, so a residual may
    depend on the row (a per-row target).  Each row keeps its own damping
    lam (More, "The Levenberg-Marquardt algorithm: implementation and
    theory", 1978): the step d solves (J^T J + lam I) d = -J^T r, through
    d = -J^T (J J^T + lam I)^-1 r when k < m, and is taken only if it
    lowers that row's sum of squares.  A taken step divides lam by 3, a
    refused one multiplies it by 4, and lam never drops below 1e-12 of
    the largest diagonal entry of the matrix it damps, which keeps
    rank-deficient systems solvable.  A non-finite residual counts as a
    refused step.

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
    k, m = J.shape[-2:]
    small = k < m
    eye = np.eye(k if small else m)

    def scale_of(J):
        JJ = J @ J.swapaxes(-1, -2) if small else J.swapaxes(-1, -2) @ J
        return JJ, np.maximum(np.max(np.diagonal(JJ, axis1=-2, axis2=-1),
                                     axis=-1, initial=0.0), 1e-300)

    JJ, top = scale_of(J)
    lam = 1e-3 * top
    converged = cost == 0
    active = np.isfinite(cost) & ~converged
    for _ in range(200):
        if not active.any():
            break
        A = JJ + lam[:, None, None] * eye
        A[~active] = eye
        if small:
            D = -(J.swapaxes(-1, -2) @ np.linalg.solve(A, R[..., None]))[..., 0]
        else:
            D = -np.linalg.solve(A, J.swapaxes(-1, -2) @ R[..., None])[..., 0]
        D[~active] = 0.0
        Xn = X + D
        Rn = fn(Xn)
        cn = np.sum(Rn * Rn, axis=-1)
        take = active & (cn < cost)  # False for NaN
        tiny = (np.linalg.norm(D, axis=-1)
                <= tol * (tol + np.linalg.norm(X, axis=-1)))
        done = active & (tiny | take & ((cost - cn <= tol * cost) | (cn == 0)))
        stuck = ~take & ~np.all(np.isfinite(D), axis=-1)
        converged |= done
        active &= ~done & ~stuck
        if take.any():
            X[take], R[take], cost[take] = Xn[take], Rn[take], cn[take]
            J = np.where(take[:, None, None], jac(X), J)
            JJ, top = scale_of(J)
        lam = np.maximum(np.where(take, lam / 3, lam * 4), 1e-12 * top)
    return X, converged


def fd_gradient(p: Polynomial, point: Sequence[float], h: float = 1e-6) -> list[float]:
    """Central finite differences; cross-check only, never an oracle for truth."""
    pt = [float(v) for v in point]
    out = []
    for i in range(len(pt)):
        hi = pt.copy()
        lo = pt.copy()
        hi[i] += h
        lo[i] -= h
        out.append((p.evaluate(hi) - p.evaluate(lo)) / (2 * h))
    return out
