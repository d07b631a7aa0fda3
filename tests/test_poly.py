import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import germlab
from germlab.curves import LaurentPoly
from germlab.mixed import MixedPolynomial
from germlab.poly import Polynomial, PolyMatrix, VarContext

from oracles import fd_gradient, fraction_rank, leibniz_det, sympy_expand_equal, transpose

XYZ = VarContext(["x", "y", "z"])


def poly_from(terms):
    return Polynomial(XYZ, {e: Fraction(c) for e, c in terms.items()})


# Strategy: small random polynomials in three variables with rational
# coefficients.  Degrees stay low so products remain cheap.
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=8)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda d: Polynomial(XYZ, d)
)
rational_values = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=16)] * 3)


# -- canonical text ------------------------------------------------------

def test_canonical_text_goldens():
    x, y, z = XYZ.gens()
    assert (x**3 - x * y**2 - x * z**2).text() == "x^3 - x*y^2 - x*z^2"
    assert ((x + y) * (x - y)).text() == "x^2 - y^2"
    assert (XYZ.const(Fraction(3, 4))).text() == "3/4"
    assert (Fraction(-1, 2) * x + 1).text() == "-1/2*x + 1"
    assert XYZ.zero().text() == "0"
    assert (2 * x * y - z**2).text() == "2*x*y - z^2"  # same degree: lex on exponents


def test_text_orders_by_graded_lex():
    x, y, z = XYZ.gens()
    p = z + y + x + z**2
    assert p.text() == "z^2 + x + y + z"


@given(polys, polys)
def test_canonical_uniqueness(p, q):
    # p == q exactly when the difference has no terms; text agrees with that.
    if (p - q).is_zero():
        assert p == q and p.text() == q.text()
    else:
        assert p != q and p.text() != q.text()


# -- ring laws, derivation, evaluation ----------------------------------

@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p + XYZ.zero() == p
    assert p * XYZ.one() == p


@settings(max_examples=100)
@given(polys, polys, st.sampled_from(["x", "y", "z"]))
def test_leibniz_rule(p, q, name):
    assert (p * q).diff(name) == p.diff(name) * q + p * q.diff(name)


@given(polys, polys, st.sampled_from(["x", "y", "z"]))
def test_derivation_is_linear(p, q, name):
    assert (p + q).diff(name) == p.diff(name) + q.diff(name)


@settings(max_examples=100)
@given(polys, polys, rational_values)
def test_evaluate_is_ring_hom(p, q, point):
    assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_evaluate_composes_polynomials():
    x, y, z = XYZ.gens()
    st_ctx = VarContext(["s", "t"])
    s, t = st_ctx.gens()
    p = x**2 + y * z
    assert p.evaluate([s + t, s, t]) == (s + t) ** 2 + s * t


@given(polys, polys)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


def test_exact_div_rejects_inexact():
    x, y, _ = XYZ.gens()
    with pytest.raises(ArithmeticError):
        (x**2 + y).exact_div(x + 1)
    with pytest.raises(ArithmeticError):
        (x**2 + y).exact_div(x)
    with pytest.raises(ArithmeticError):
        x.exact_div(XYZ.zero())


@pytest.mark.parametrize("code", [
    "x, y, _ = VarContext(['x', 'y', 'z']).gens()\n"
    "for d in (x + 1, x):\n"
    "    try:\n"
    "        q = (x**2 + y).exact_div(d)\n"
    "    except ArithmeticError:\n"
    "        continue\n"
    "    raise SystemExit(f'returned {q.text()}')\n",
    "try:\n"
    "    p = VarContext(['x', 'y']).var('x') + VarContext(['u', 'v']).var('v')\n"
    "except ValueError:\n"
    "    raise SystemExit(0)\n"
    "raise SystemExit(f'returned {p.text()}')\n",
    "try:\n"
    "    VarContext(['x', 'x'])\n"
    "except ValueError:\n"
    "    raise SystemExit(0)\n"
    "raise SystemExit('accepted a repeated name')\n",
    "x, y = VarContext(['x', 'y']).gens()\n"
    "try:\n"
    "    RealMapGerm(x.ctx, (x*y + 1,))\n"
    "except ValueError:\n"
    "    raise SystemExit(0)\n"
    "raise SystemExit('accepted a germ that does not vanish at 0')\n",
    "s, = VarContext(['s']).gens()\n"
    "try:\n"
    "    Parametrization(VarContext(['x', 'y']), s.ctx, (s, s),\n"
    "                    (s.ctx.one(), s.ctx.zero()))\n"
    "except ValueError:\n"
    "    raise SystemExit(0)\n"
    "raise SystemExit('accepted a zero denominator')\n",
    "x, y, z = VarContext(['x', 'y', 'z']).gens()\n"
    "for values in ([2], [2, 3, 4, 5]):\n"
    "    try:\n"
    "        v = (x*y + z).evaluate(values)\n"
    "    except ValueError:\n"
    "        continue\n"
    "    raise SystemExit(f'evaluate({values}) returned {v}')\n",
    "must_raise(TypeError, lambda: VarContext(['x']).const(0.1))\n"
    "must_raise(TypeError, lambda: VarContext(['x']).var('x') * 0.5)\n",
    "xy = VarContext(['x', 'y'])\n"
    "must_raise(ValueError, lambda: Polynomial(xy, {(1,): 1}))\n"
    "must_raise(ValueError, lambda: Polynomial(xy, {(1, 0, 0): 1}))\n"
    "must_raise(ValueError, lambda: Polynomial(xy, {(1, -1): 1}))\n",
    # Unchecked, a negative power loops forever; the subprocess timeout
    # turns that into a failure.
    "x, = VarContext(['x']).gens()\n"
    "must_raise(ValueError, lambda: (x + 1) ** -1)\n"
    "must_raise(ValueError, lambda: (x + 1) ** 1.5)\n",
    "x, = VarContext(['x']).gens()\n"
    "must_raise(ValueError, lambda: (x + 1).constant_value())\n",
    "x, y = VarContext(['x', 'y']).gens()\n"
    "u, = VarContext(['u']).gens()\n"
    "must_raise(ValueError, lambda: PolyMatrix([]))\n"
    "must_raise(ValueError, lambda: PolyMatrix([[]]))\n"
    "must_raise(ValueError, lambda: PolyMatrix([[x, y], [x]]))\n"
    "must_raise(ValueError, lambda: PolyMatrix([[x, u]]))\n"
    "must_raise(ValueError, lambda: PolyMatrix([[x, y]]) @ PolyMatrix([[x, y]]))\n"
    "must_raise(ValueError, lambda: PolyMatrix([[x], [y]]).minors(), 'no 2 x 2 minors')\n"
    "must_raise(ValueError, lambda: PolyMatrix([[x, y]]).det())\n",
    # phi lands on y = x^2 in (u, v); read as (x, y) the pullback is 0.
    "from germlab.germs import pullback_numerator\n"
    "from oracles import from_polys\n"
    "x, y = VarContext(['x', 'y']).gens()\n"
    "s = VarContext(['s'])\n"
    "t = s.var('s')\n"
    "phi = from_polys(VarContext(['u', 'v']), s, [t, t**2])\n"
    "must_raise(ValueError, lambda: pullback_numerator(x**2 - y, phi))\n",
    # w1 over (w1, w2) must not be read as z1 over (z1, z2).
    "from germlab.germs import realify_mixed\n"
    "from germlab.mixed import MixedPolynomial\n"
    "zs, ws = VarContext(['z1', 'z2']), VarContext(['w1', 'w2'])\n"
    "z1, z2 = (MixedPolynomial.var(zs, n) for n in zs.names)\n"
    "w1 = MixedPolynomial.var(ws, 'w1')\n"
    "must_raise(ValueError, lambda: realify_mixed([z1 * z2, w1 * w1]))\n"
    "must_raise(ValueError, lambda: realify_mixed([]))\n",
    "from germlab.mixed import MixedPolynomial, hermitian_pairing\n"
    "x = MixedPolynomial.var(VarContext(['x', 'y']), 'x')\n"
    "v = MixedPolynomial.var(VarContext(['u', 'v']), 'v')\n"
    "must_raise(ValueError, lambda: x + v)\n"
    "must_raise(ValueError, lambda: x * v)\n"
    "must_raise(ValueError, lambda: hermitian_pairing([x], [v]))\n"
    "must_raise(ValueError, lambda: hermitian_pairing([x], [x, x]))\n"
    "must_raise(ValueError, lambda: MixedPolynomial(VarContext(['x', 'y']), {((1,), (0, 0)): 1}))\n",
    "from germlab.mixed import ComplexRational, MixedPolynomial\n"
    "must_raise(TypeError, lambda: ComplexRational(0.1))\n"
    "must_raise(TypeError, lambda: ComplexRational(1, 0.5))\n"
    "must_raise(TypeError, lambda: MixedPolynomial.const(VarContext(['x']), 0.1))\n",
    "from germlab.mixed import MixedPolynomial\n"
    "x = MixedPolynomial.var(VarContext(['x']), 'x')\n"
    "must_raise(ValueError, lambda: x ** -1)\n"
    "must_raise(ValueError, lambda: x ** 1.5)\n",
    "from germlab.curves import LaurentPoly\n"
    "s = VarContext(['s'])\n"
    "t = LaurentPoly.t_power(s, 1)\n"
    "must_raise(ValueError, lambda: t ** 1.5)\n"
    "must_raise(ValueError, lambda: (t + 1) ** -1)\n"
    "must_raise(ValueError, lambda: (s.var('s') * t) ** -1)\n"
    "must_raise(ValueError, lambda: LaurentPoly(s, {0.5: s.one()}))\n"
    "must_raise(ValueError, lambda: t * LaurentPoly.t_power(VarContext(['u']), 1))\n",
    # Unchecked, min() of nothing raises a ValueError of its own, so the
    # message tells the guard from the accident.
    "from germlab.curves import LaurentPoly\n"
    "must_raise(ValueError, lambda: LaurentPoly(VarContext(['s']), {}).valuation(),\n"
    "           'no valuation')\n",
    "from germlab.curves import CurveFamily, LaurentPoly\n"
    "s = VarContext(['s'])\n"
    "t = LaurentPoly.t_power(s, 1)\n"
    "must_raise(ValueError, lambda: CurveFamily(VarContext(['x', 'y']), s, (t,)))\n",
    "from germlab.curves import CurveFamily, LaurentPoly\n"
    "s = VarContext(['s'])\n"
    "t, u = LaurentPoly.t_power(s, 1), LaurentPoly.t_power(VarContext(['u']), 1)\n"
    "must_raise(ValueError, lambda: CurveFamily(VarContext(['x', 'y']), s, (t, u)))\n",
    # Unchecked, u is read as x: the pullback of u along (t, t^2) is t.
    "from germlab.curves import CurveFamily, LaurentPoly\n"
    "s = VarContext(['s'])\n"
    "t = LaurentPoly.t_power(s, 1)\n"
    "gamma = CurveFamily(VarContext(['x', 'y']), s, (t, t * t))\n"
    "must_raise(ValueError, lambda: gamma.pullback(VarContext(['u', 'v']).var('u')))\n",
    "from germlab.curves import LaurentPoly, direction_limit\n"
    "zero = LaurentPoly(VarContext(['s']), {})\n"
    "must_raise(ValueError, lambda: direction_limit([zero, zero]), 'zero vector')\n",
    "s = VarContext(['s'])\n"
    "phi = Parametrization(VarContext(['x']), s, (s.var('s'),), (s.var('s') - 1,))\n"
    "from oracles import parametrization_value\n"
    "must_raise(ValueError, lambda: parametrization_value(phi, [1]),\n"
    "           'denominator s - 1 vanishes')\n",
    # Unchecked, zip drops the coefficients past the component count.
    "from germlab.dsl import parse_text\n"
    "from germlab.witness import normal_vector_along_curve\n"
    "r = parse_text('map g : R^2 -> R^1\\nG = x1*x2\\n'\n"
    "               'witness w {\\n  gamma (t, s)\\n  c (t^-1)\\n}\\n').single()\n"
    "w = r.witnesses['w']\n"
    "must_raise(ValueError, lambda: normal_vector_along_curve(r.germ, w.gamma, w.coeffs * 2),\n"
    "           '2 coefficients for 1 components')\n"
    "h = parse_text('map h : R^2 -> R^1\\nvars u, v\\nG = u*v\\n').single().germ\n"
    "must_raise(ValueError, lambda: normal_vector_along_curve(h, w.gamma, w.coeffs),\n"
    "           'curve targets')\n",
], ids=["inexact-division", "context-mismatch", "repeated-name",
        "nonvanishing-germ", "zero-denominator", "evaluate-arity",
        "float-coefficient", "exponent-vector", "negative-power",
        "constant-value", "matrix-shape", "pullback-context",
        "realify-context", "mixed-context", "complex-float",
        "mixed-negative-power", "laurent-power", "laurent-valuation",
        "curve-arity", "curve-params", "curve-pullback", "direction-zero",
        "parametrization-evaluate", "normal-vector"])
def test_exact_div_rejects_inexact_under_optimize(code):
    # Checks that correctness depends on must not be asserts that -O strips.
    code = ("from germlab.germs import Parametrization, RealMapGerm\n"
            "from germlab.poly import Polynomial, PolyMatrix, VarContext\n"
            "def must_raise(exc, make, match=''):\n"
            "    try:\n"
            "        got = make()\n"
            "    except exc as e:\n"
            "        if match in str(e):\n"
            "            return\n"
            "        raise SystemExit(f'raised {e!r}, not about {match!r}')\n"
            "    raise SystemExit(f'accepted, returned {got!r}')\n" + code)
    src = str(Path(germlab.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])})
    assert proc.returncode == 0, proc.stderr


def test_fast_modules_pass_under_optimize():
    # The validation those modules test must not be asserts that -O strips.
    # This module is not in the list, so the run does not recurse.
    root = Path(__file__).resolve().parents[1]
    src = str(Path(germlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_germs.py", "tests/test_certify.py", "tests/test_dsl.py",
         "tests/test_sampling.py", "tests/test_witness.py", "tests/test_kernel.py"],
        cwd=root, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("make, needle", [
    (lambda: VarContext([]), "at least one"),
    (lambda: VarContext(["x", "x"]), "duplicate"),
    (lambda: VarContext([f"x{i}" for i in range(11)]), "arity 11"),
    (lambda: XYZ.var("w"), "unknown variable 'w'"),
    (lambda: XYZ.var("x") + VarContext(["x", "y"]).var("x"), "mismatch"),
    pytest.param(lambda: (LaurentPoly.t_power(XYZ, 1)
                          * LaurentPoly.t_power(VarContext(["x"]), 2)),
                 "mismatch", id="laurent-mismatch"),
    pytest.param(lambda: (MixedPolynomial.var(XYZ, "x")
                          - MixedPolynomial.var(VarContext(["x"]), "x")),
                 "mismatch", id="mixed-mismatch"),
])
def test_context_misuse_raises_value_error(make, needle):
    with pytest.raises(ValueError, match=needle):
        make()


def _laurent_pair(ctx):
    x, y = (LaurentPoly.from_poly(g) for g in ctx.gens())
    return x * LaurentPoly.t_power(ctx, -1), LaurentPoly.t_power(ctx, 2) + y


def _mixed_pair(ctx):
    x, y = (MixedPolynomial.var(ctx, n) for n in ctx.names)
    return x * MixedPolynomial.conj_var(ctx, ctx.names[1]), y + MixedPolynomial.const(ctx, 3)


# Two elements of each ring over a context of two variables.
RINGS = {
    Polynomial: lambda ctx: (ctx.gens()[0] * ctx.gens()[1] + 1, ctx.gens()[1] - 2),
    LaurentPoly: _laurent_pair,
    MixedPolynomial: _mixed_pair,
}


@pytest.mark.parametrize("ring", list(RINGS), ids=lambda r: r.__name__)
def test_every_ring_has_the_one_operator_set(ring):
    ctx = VarContext(["x", "y"])
    a, b = RINGS[ring](ctx)
    for k in (3, Fraction(-2, 5)):
        c = ring.const(ctx, k)
        for got, want in ((a + k, a + c), (k + a, c + a), (a - k, a + (-c)),
                          (k - a, c + (-a)), (a * k, a * c), (k * a, c * a)):
            assert type(got) is ring and got == want
    assert a - b == a + (-b) and b - a == -(a - b)
    assert a ** 0 == ring.const(ctx, 1) and (a ** 0).text() == "1"
    assert a ** 3 == a * a * a
    for op in (lambda: a + 0.5, lambda: 0.5 + a, lambda: a - 0.5, lambda: 0.5 - a,
               lambda: a * 0.5, lambda: 0.5 * a):
        with pytest.raises(TypeError):
            op()
    foreign, _ = RINGS[ring](VarContext(["y", "x"]))
    for op in (lambda: a + foreign, lambda: a - foreign, lambda: a * foreign):
        with pytest.raises(ValueError, match="context mismatch"):
            op()
    assert repr(a) == f"{ring.__name__}({a.text()})" and str(a) == a.text()


def test_traced_names_resolve_where_the_tracer_looks():
    # perfbench's Tracer.install wraps a module attribute, or a method it
    # finds in its class's own __dict__: a traced method that only a base
    # class defines would fail there, at run time, and not here otherwise.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr, _ in spans.TRACED:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), attr
        else:
            assert hasattr(mod, attr), attr


def test_power_matches_repeated_product():
    x, y, _ = XYZ.gens()
    p = x + 2 * y - 1
    assert p**0 == XYZ.one()
    assert p**5 == p * p * p * p * p


# -- finite difference cross-check --------------------------------------

def test_gradient_matches_finite_differences():
    x, y, z = XYZ.gens()
    p = x**3 * y - 2 * y**2 * z + Fraction(1, 2) * z**3 + x * y * z
    rng = random.Random("fd-check")
    for _ in range(10):
        pt = [rng.uniform(-1.5, 1.5) for _ in range(3)]
        exact = [g.evaluate(pt) for g in p.gradient()]
        approx = fd_gradient(p, pt, h=1e-6)
        for a, b in zip(exact, approx):
            scale = max(1.0, abs(a))
            assert abs(a - b) / scale < 1e-4


# -- determinants --------------------------------------------------------

def random_matrix(rng, n, max_terms=3):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, max_terms)):
                e = tuple(rng.randint(0, 2) for _ in range(3))
                terms[e] = terms.get(e, Fraction(0)) + Fraction(
                    rng.randint(-4, 4), rng.randint(1, 4)
                )
            row.append(Polynomial(XYZ, terms))
        rows.append(row)
    return PolyMatrix(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_det_agrees_with_leibniz_oracle_at_points(n):
    # 50 rational points per matrix: the symbolic determinant evaluated at a
    # point must equal the Leibniz determinant of the evaluated matrix.
    rng = random.Random(f"det-{n}")
    mat = random_matrix(rng, n)
    d = mat.det()
    for _ in range(50):
        pt = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(3)]
        evaluated = [[mat[i, j].evaluate(pt) for j in range(n)] for i in range(n)]
        assert d.evaluate(pt) == leibniz_det(evaluated)


def test_det_handles_zero_pivot():
    x, y, z = XYZ.gens()
    zero = XYZ.zero()
    mat = PolyMatrix([
        [zero, x, y, z],
        [x, zero, zero, y],
        [y, zero, zero, x],
        [z, y, x, zero],
    ])
    d = mat.det()
    rng = random.Random("pivot")
    for _ in range(20):
        pt = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        rows = [[mat[i, j].evaluate(pt) for j in range(4)] for i in range(4)]
        assert d.evaluate(pt) == leibniz_det(rows)


def test_singular_matrix_det_is_zero():
    x, y, z = XYZ.gens()
    row = [x + y, y * z, z**2 - x]
    mat = PolyMatrix([row, [2 * p for p in row], [x, y, z]])
    assert mat.det().is_zero()


def test_minor_enumeration_order():
    x, y, z = XYZ.gens()
    jac = PolyMatrix([[y, x, XYZ.zero()], [z, XYZ.zero(), x]])
    minors = jac.minors()
    assert [m.text() for m in minors] == ["-x*z", "x*y", "x^2"]


def test_matmul_transpose_shapes():
    x, y, z = XYZ.gens()
    a = PolyMatrix([[x, y, z], [y, z, x]])
    g = a @ transpose(a)
    assert g.shape == (2, 2)
    assert g[0, 1] == x * y + y * z + z * x


# -- rank oracle sanity ---------------------------------------------------

def test_fraction_rank_known_cases():
    one = Fraction(1)
    zero = Fraction(0)
    assert fraction_rank([[one, zero], [zero, one]]) == 2
    assert fraction_rank([[one, Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert fraction_rank([[zero, zero], [zero, zero]]) == 0


def test_sympy_agrees_on_product_expansion():
    x, y, z = XYZ.gens()
    p = (x + y + z) ** 3
    assert sympy_expand_equal(p.text(), "(x + y + z)^3", ["x", "y", "z"])
