"""compile_float and the batched fiber-distance scan against loop references.

The sampled probes print full-precision floats, so the vectorized
evaluator must give the same bits as evaluating one polynomial at a time,
and a batch of points the same bits as its points one by one.
"""

from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

import germlab
from germlab.compose import compose_exact
from germlab.dsl import parse_path
from germlab.germs import Parametrization
from germlab.poly import Polynomial, VarContext
from germlab.sampling import compile_float, derive_rng
from germlab.witness import _distance_to_components

CORPUS = Path(germlab.__file__).parent / "corpus"


def probe_lists() -> dict[str, list[Polynomial]]:
    """The polynomial lists the two sampled probes compile."""
    exaa = parse_path(CORPUS / "exaa.germ").single("exaa")
    g = exaa.germ
    a = g.stacked()
    lists = {"exaa-minors": a.minors(a.rows),
             "exaa-components": list(g.components)}
    for i, phi in enumerate(exaa.sets["V"]):
        lists[f"exaa-fiber{i}"] = list(phi.numerators) + list(phi.denominators)
    contra = parse_path(CORPUS / "contra.germ")
    inner, outer = contra.single("FC").germ, contra.single("GC").germ
    h = compose_exact(outer, inner)
    ah = h.stacked()
    lists.update({
        "contra-inner": list(inner.components),
        "contra-sigma": h.singular_minors(),
        "contra-milnor": ah.minors(ah.rows),
        "contra-sing-outer": outer.singular_minors(),
    })
    return lists


LISTS = probe_lists()


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


def loop_distance(x, fibers, rng) -> float:
    """The fiber distance scanned and polished one candidate at a time."""
    best = float("inf")
    for k, nums, dens in fibers:

        def point_of(s):
            d = dens(s)
            if np.any(np.abs(d) < 1e-12):
                return None
            return nums(s) / d

        candidates = [np.zeros(k)] + [
            np.array([rng.uniform(-3, 3) for _ in range(k)]) for _ in range(200)]
        local_best = None
        for s in candidates:
            pt = point_of(s)
            if pt is None:
                continue
            d = float(np.linalg.norm(pt - x))
            if local_best is None or d < local_best[0]:
                local_best = (d, s)
        if local_best is None:
            continue

        def objective(s):
            pt = point_of(s)
            if pt is None:
                return 1e9
            return float(np.sum((pt - x) ** 2))

        sol = minimize(objective, local_best[1], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-18, "maxiter": 400})
        best = min(best, float(np.sqrt(max(sol.fun, 0.0))))
    return best


def axis_with_pole() -> Parametrization:
    # (0/s, s, 0): the scan's first candidate s = 0 gives 0/0, a NaN the
    # scan must skip rather than rank.
    pc = VarContext(["s"])
    s = pc.gens()[0]
    return Parametrization(VarContext(["x", "y", "z"]), pc,
                           (pc.zero(), s, pc.zero()), (s, pc.one(), pc.one()))


@pytest.mark.parametrize("with_pole", [False, True], ids=["exaa", "exaa+pole"])
def test_fiber_distance_matches_point_by_point_scan(with_pole):
    comps = list(parse_path(CORPUS / "exaa.germ").single("exaa").sets["V"])
    if with_pole:
        comps.append(axis_with_pole())
    fibers = [(phi.params.arity,
               compile_float(list(phi.numerators) + list(phi.denominators)))
              for phi in comps]
    loops = [(phi.params.arity, loop_evaluator(phi.numerators),
              loop_evaluator(phi.denominators)) for phi in comps]
    for x in np.random.default_rng(5).uniform(-2, 2, (4, 3)):
        got = _distance_to_components(x, fibers, derive_rng(7, "distance"))
        want = loop_distance(x, loops, derive_rng(7, "distance"))
        assert got == want


class Draws:
    """Stands in for random.Random: uniform() returns the given values."""

    def __init__(self, values):
        self.values = iter(values)

    def uniform(self, lo, hi):
        return next(self.values)


def test_fiber_distance_breaks_last_bit_ties_like_the_scan():
    # Two candidates a, b whose offsets from x swap two coordinates: the
    # one-vector norm puts b strictly closer, the row-wise norm of the
    # batch rounds both to the same float.  The scan starts from b, and
    # the polish from a would end elsewhere.
    x = np.array([0.5, -1.0, 0.25])
    a, b = x + [-1.621, -1.98, -0.708], x + [-1.98, -1.621, -0.708]
    assert np.linalg.norm(b - x) < np.linalg.norm(a - x)
    assert np.ptp(np.linalg.norm([a - x, b - x], axis=-1)) == 0
    pc = VarContext(["s1", "s2", "s3", "s4"])
    s1, s2, s3, s4 = pc.gens()
    # (s1, 2 s2, s3) / s4: s4 = 0 skips the first candidate, and the
    # factor 2 makes the objective asymmetric in the swapped coordinates.
    phi = Parametrization(VarContext(["x", "y", "z"]), pc,
                          (s1, 2 * s2, s3), (s4, s4, s4))
    values = ([a[0], a[1] / 2, a[2], 1.0, b[0], b[1] / 2, b[2], 1.0]
              + [50.0, 50.0, 50.0, 1.0] * 198)
    fibers = [(4, compile_float(list(phi.numerators) + list(phi.denominators)))]
    loops = [(4, loop_evaluator(phi.numerators), loop_evaluator(phi.denominators))]
    assert (_distance_to_components(x, fibers, Draws(values))
            == loop_distance(x, loops, Draws(values)))
