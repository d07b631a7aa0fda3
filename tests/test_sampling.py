"""compile_float, refine_batch and the fiber distance against references.

The sampled probes print full-precision floats, so the vectorized
evaluator must give the same bits as evaluating one polynomial at a time,
and a batch of points the same bits as its points one by one.  The
batched solver and the fiber distance are checked against oracles:
scipy's least_squares from the same seeds, and closed-form distances.
The seeded rational points are pinned at a fixed seed.
"""

import warnings
from fractions import Fraction
from itertools import islice
from math import prod
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

import germlab
from germlab.compose import compose_exact, composition_sampled_probe
from germlab.dsl import parse_path, parse_text
from germlab.germs import Parametrization, _nonzero_point
from germlab.poly import Polynomial, VarContext
from germlab.sampling import (
    DEFAULT_SEED, TOL_VARIETY, RunConfig, compile_float, compile_jacobian, compile_scale,
    derive_rng, iter_rational_points, rational_points, refine_batch,
)
from germlab.witness import _distance_to_components, condition_b_sampled_probe

from oracles import from_polys

CORPUS = Path(germlab.__file__).parent / "corpus"


def probe_lists() -> dict[str, list[Polynomial]]:
    """The polynomial lists the two sampled probes compile."""
    exaa = parse_path(CORPUS / "exaa.germ").single("exaa")
    g = exaa.germ
    lists = {"exaa-minors": g.milnor_minors(),
             "exaa-components": list(g.components)}
    for i, phi in enumerate(exaa.sets["V"]):
        lists[f"exaa-fiber{i}"] = list(phi.numerators) + list(phi.denominators)
    contra = parse_path(CORPUS / "contra.germ")
    inner, outer = contra.single("FC").germ, contra.single("GC").germ
    h = compose_exact(outer, inner)
    lists.update({
        "contra-inner": list(inner.components),
        "contra-sigma": h.singular_minors(),
        "contra-milnor": h.milnor_minors(),
        "contra-sing-outer": outer.singular_minors(),
    })
    return lists


LISTS = probe_lists()


def test_rational_points_are_pinned_at_a_fixed_seed():
    # The radius bound is computed once per call that draws points; the
    # draws are those of one bound per point.
    rng = derive_rng(DEFAULT_SEED, "closure-sep")
    assert rational_points(rng, 3, 2, radius=Fraction(1, 2)) == [
        (Fraction(-9, 38), Fraction(-1, 18), Fraction(7, 64)),
        (Fraction(-7, 26), Fraction(-1, 6), Fraction(-15, 59))]
    first = [(Fraction(9, 25), Fraction(68, 43)), (Fraction(-3, 19), Fraction(-27, 16)),
             (Fraction(16, 23), Fraction(-2, 9))]
    rng = derive_rng(DEFAULT_SEED, "pullback-witness")
    assert list(islice(iter_rational_points(rng, 2), 3)) == first
    # The pullback witness search draws from that stream one point at a
    # time: y - 68/43 vanishes at the first point, so the second is taken,
    # with the value found there.
    y = VarContext(["x", "y"]).var("y")
    value = first[1][1] - Fraction(68, 43)
    assert _nonzero_point(y - Fraction(68, 43), avoid=[]) == (first[1], value)
    assert _nonzero_point(y, avoid=[y - Fraction(68, 43)]) == (first[1], first[1][1])


def loop_evaluator(polys):
    """The per-polynomial formula: one power, product and sum each."""
    compiled = [None if p.is_zero() else
                (np.array([float(c) for c in p.terms.values()]),
                 np.array(list(p.terms), dtype=np.int64))
                for p in polys]

    def f(X):
        X = np.asarray(X, dtype=float)
        cols = [np.zeros(X.shape[:-1]) if item is None else
                (item[0] * np.prod(X[..., None, :] ** item[1], axis=-1)).sum(axis=-1)
                for item in compiled]
        return np.stack(cols, axis=-1)

    return f


def points(name: str, shape: tuple) -> np.ndarray:
    m = LISTS[name][0].ctx.arity
    return np.random.default_rng(sum(map(ord, name))).uniform(-2, 2, shape + (m,))


def test_lists_cover_zero_polynomials():
    assert any(p.is_zero() for p in LISTS["contra-sigma"])
    assert any(p.is_zero() for p in LISTS["exaa-fiber1"])


@pytest.mark.parametrize("name", sorted(LISTS))
def test_matches_loop_reference_at_points(name):
    f, ref = compile_float(LISTS[name]), loop_evaluator(LISTS[name])
    for x in points(name, (8,)):
        assert np.array_equal(f(x), ref(x))


@pytest.mark.parametrize("name", sorted(LISTS))
def test_matches_loop_reference_on_a_batch(name):
    f, ref = compile_float(LISTS[name]), loop_evaluator(LISTS[name])
    X = points(name, (201,))
    assert f(X).shape == (201, len(LISTS[name]))
    assert np.array_equal(f(X), ref(X))


@pytest.mark.parametrize("name", sorted(LISTS))
def test_batch_rows_equal_single_points(name):
    f = compile_float(LISTS[name])
    X = points(name, (201,))
    batch = f(X)
    for i, x in enumerate(X):
        assert np.array_equal(batch[i], f(x)), i


@pytest.mark.parametrize("name", sorted(LISTS))
def test_agrees_with_exact_evaluation(name):
    polys = LISTS[name]
    f = compile_float(polys)
    for x in points(name, (6,)):
        exact_x = [Fraction(v) for v in x]  # floats convert exactly
        got = f(x)
        for p, value in zip(polys, got):
            exact = p.evaluate(exact_x)
            # Relative to the absolute-value envelope, so cancellation in a
            # many-term polynomial is not mistaken for an evaluation error.
            envelope = sum(abs(c) * prod(abs(v) ** k for v, k in zip(exact_x, e))
                           for e, c in p.terms.items())
            assert abs(Fraction(value) - exact) <= Fraction(1, 10**12) * envelope


@pytest.mark.parametrize("name", ["exaa-minors", "contra-milnor", "contra-inner"])
def test_jacobian_matches_finite_differences(name):
    polys = LISTS[name]
    f, jac = compile_float(polys), compile_jacobian(polys)
    X = points(name, (5,))
    J = jac(X)
    assert J.shape == (5, len(polys), X.shape[-1])
    h = 1e-6
    for j in range(X.shape[-1]):
        e = np.zeros(X.shape[-1])
        e[j] = h
        fd = (f(X + e) - f(X - e)) / (2 * h)
        assert np.allclose(J[..., j], fd, rtol=1e-6, atol=1e-6)


MHX1 = parse_text("map mhx1 : R^3 -> R^2\nvars x,y,z\nG1 = x*y\nG2 = z^2\n"
                  ).single().germ


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, minors", [
    ("exaa", LISTS["exaa-minors"]),
    ("mhx1", MHX1.milnor_minors()),
    ("contra", LISTS["contra-milnor"]),
])
def test_refine_batch_accepts_where_scipy_does(seed, name, minors):
    # The probe's first seeds, refined by the batched solver and, one at a
    # time, by scipy's trf: every seed whose scipy solve passes the probe's
    # variety check passes it after the batched solve too.
    f, jac, scale = compile_float(minors), compile_jacobian(minors), compile_scale(minors)
    m = minors[0].ctx.arity
    rng = derive_rng(seed, f"probe-b:{name}")
    seeds = np.reshape([rng.uniform(-2, 2) for _ in range(20 * m)], (20, m))
    X, _ = refine_batch(f, jac, seeds)
    scipy_x = np.array([
        least_squares(f, s, method="trf", xtol=1e-14, ftol=1e-14, gtol=1e-14,
                      max_nfev=400).x for s in seeds])

    def on_variety(Z):
        return np.max(np.abs(f(Z)) / scale(Z), axis=-1) <= TOL_VARIETY

    assert on_variety(scipy_x).any()
    assert np.all(on_variety(X) | ~on_variety(scipy_x))


def test_refine_batch_keeps_rows_apart():
    # Per-row targets, one row starting where its residual is NaN: the
    # other rows solve exactly and the NaN row stays put, unconverged.
    T = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
    X0 = np.array([[0.0, 0.0], [1.0, 1.0], [np.nan, 1.0]])

    def fn(X):
        return X - T

    def jac(X):
        return np.broadcast_to(np.eye(2), X.shape[:-1] + (2, 2))

    X, converged = refine_batch(fn, jac, X0)
    assert np.allclose(X[:2], T[:2], atol=1e-12)
    assert converged.tolist() == [True, True, False]
    assert np.isnan(X[2, 0]) and X[2, 1] == 1.0
    assert refine_batch(fn, jac, np.zeros((0, 2)))[0].shape == (0, 2)


def test_refine_batch_stops_a_solved_row_at_once():
    # A row that starts on its target (zero cost) beside rows that need
    # many trust-region steps: Rosenbrock's valley from far away, with
    # one residual weighted 10 times the other.
    X0 = np.array([[1.0, 1.0], [-1.2, 1.0], [3.0, -4.0], [0.0, 0.0]])

    def fn(X):
        x, y = X.T
        return np.stack([10.0 * (y - x * x), 1.0 - x], axis=-1)

    def jac(X):
        x = X[:, 0]
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0], J[:, 0, 1], J[:, 1, 0] = -20.0 * x, 10.0, -1.0
        return J

    calls = []

    def counted(X):
        calls.append(X.copy())
        return fn(X)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        X, converged = refine_batch(counted, jac, X0)
    assert converged.all()
    assert np.allclose(X, 1.0, atol=1e-10)
    assert len(calls) > 10  # the far rows did take many steps
    # The solved row was never moved: every trial left it in place.
    assert all(np.array_equal(c[0], [1.0, 1.0]) for c in calls)


def test_sampled_probes_raise_no_numpy_warnings():
    contra = parse_path(CORPUS / "contra.germ")
    comp48 = parse_path(CORPUS / "comp48.germ")
    exaa = parse_path(CORPUS / "exaa.germ").single("exaa")
    config = RunConfig(radius=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert composition_sampled_probe(
            contra.single("GC").germ, contra.single("FC").germ, config).suspicious
        assert not composition_sampled_probe(
            comp48.single("G48").germ, comp48.single("F48").germ, config).suspicious
        assert condition_b_sampled_probe(MHX1, mhx1_axes(), RunConfig()).violates
        assert condition_b_sampled_probe(
            exaa.germ, exaa.sets["V"], RunConfig()).violates is None


def mhx1_axes() -> list[Parametrization]:
    pc = VarContext(["s"])
    s, zero = pc.gens()[0], pc.zero()
    return [from_polys(MHX1.ctx, pc, [zero, s, zero], name="y-axis"),
            from_polys(MHX1.ctx, pc, [s, zero, zero], name="x-axis")]


def fibers_of(comps):
    out = []
    for phi in comps:
        polys = list(phi.numerators) + list(phi.denominators)
        out.append((phi.params.arity, compile_float(polys), compile_jacobian(polys)))
    return out


EXAA_V = list(parse_path(CORPUS / "exaa.germ").single("exaa").sets["V"])
HITS = np.random.default_rng(5).uniform(-2, 2, (8, 3))


def test_fiber_distance_matches_closed_forms():
    # exaa's fiber: the plane x = 0 at distance |x|, the x axis at
    # distance sqrt(y^2 + z^2), and their union at the smaller of the two.
    plane, axis = (fibers_of([phi]) for phi in EXAA_V)
    x, y, z = HITS.T
    for fibers, want in [(plane, np.abs(x)), (axis, np.hypot(y, z)),
                         (plane + axis, np.minimum(np.abs(x), np.hypot(y, z)))]:
        got, near = _distance_to_components(HITS, fibers, derive_rng(7, "distance"))
        assert np.allclose(got, want, rtol=0, atol=1e-9)
        assert np.allclose(np.linalg.norm(near - HITS, axis=-1), got, atol=1e-12)
    _, near = _distance_to_components(HITS, plane, derive_rng(7, "distance"))
    assert np.allclose(near[:, 0], 0, atol=1e-12)
    assert np.allclose(near[:, 1:], HITS[:, 1:], atol=1e-9)


def axis_with_pole() -> Parametrization:
    # (0/s, s, 0): the scan's first candidate s = 0 gives 0/0, a NaN the
    # scan must skip rather than rank.
    pc = VarContext(["s"])
    s = pc.gens()[0]
    return Parametrization(VarContext(["x", "y", "z"]), pc,
                           (pc.zero(), s, pc.zero()), (s, pc.one(), pc.one()))


def test_fiber_distance_skips_the_pole_candidate():
    fibers = fibers_of([axis_with_pole()])
    got, near = _distance_to_components(HITS, fibers, derive_rng(7, "distance"))
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(near))
    assert np.allclose(got, np.hypot(HITS[:, 0], HITS[:, 2]), rtol=0, atol=1e-9)
    # Only the pole candidate: nothing usable, so no distance at all.
    got, near = _distance_to_components(HITS, fibers, Draws([0.0] * 200))
    assert np.all(got == np.inf) and np.all(np.isnan(near))


def unit_circle() -> Parametrization:
    # ((1 - s^2), 2 s, 0) / (1 + s^2): the quotient rule matters here.
    pc = VarContext(["s"])
    s = pc.gens()[0]
    den = 1 + s * s
    return Parametrization(VarContext(["x", "y", "z"]), pc,
                           (1 - s * s, 2 * s, pc.zero()), (den, den, pc.one()))


def scan_distance(x, comps, rng) -> float:
    """The closest scan candidate, found one candidate at a time."""
    best = float("inf")
    for phi in comps:
        nums, dens = loop_evaluator(phi.numerators), loop_evaluator(phi.denominators)
        k = phi.params.arity
        cands = [np.zeros(k)] + [np.array([rng.uniform(-3, 3) for _ in range(k)])
                                 for _ in range(200)]
        for s in cands:
            d = dens(s)
            if not np.any(np.abs(d) < 1e-12):
                best = min(best, float(np.linalg.norm(nums(s) / d - x)))
    return best


def test_fiber_distance_is_bracketed_by_truth_and_the_scan():
    # The polish reports the distance to a real point of a component, so
    # it is at least the true distance; it starts from the closest scan
    # candidate and only takes steps that lower the distance, so it is
    # at most that candidate's distance.  A one-vector norm may round
    # differently from the batch's row norm, hence the last-bit slack.
    comps = EXAA_V + [axis_with_pole(), unit_circle()]
    X = np.abs(HITS) * [1, 1, 0.25]  # x > 0: the circle's nearest point is in reach
    got, near = _distance_to_components(X, fibers_of(comps), derive_rng(7, "distance"))
    x, y, z = X.T
    true = np.min([np.abs(x), np.hypot(y, z), np.hypot(x, z),
                   np.hypot(np.hypot(x, y) - 1, z)], axis=0)
    assert np.all(got >= true - 1e-12)
    assert np.allclose(got, true, rtol=0, atol=1e-9)
    rng = derive_rng(7, "distance")
    scans = [scan_distance(row, comps, rng) for row in X[:1]]
    assert got[0] <= scans[0] * (1 + 1e-12)
    assert scans[0] > got[0] + 1e-6  # the polish did improve on the scan


def test_fiber_distance_polish_never_worsens_the_scan():
    # Every row against the circle alone, with the scan replayed per row.
    comps = [unit_circle()]
    X = HITS * [1, 1, 0.25]
    got, _ = _distance_to_components(X, fibers_of(comps), derive_rng(11, "distance"))
    for row, d in zip(X, got):
        assert d <= scan_distance(row, comps, derive_rng(11, "distance")) * (1 + 1e-12)
        assert d >= abs(np.hypot(row[0], row[1]) - 1) - 1e-12


class Draws:
    """Stands in for random.Random: uniform() returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, lo, hi):
        return next(self.values)
