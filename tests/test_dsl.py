import pytest
from hypothesis import example, given, settings, strategies as st

from germlab.dsl import GermParseError, parse_mixed_expr, parse_text
from germlab.poly import VarContext


def parse_one(src, name=None):
    return parse_text(src).single(name)


MFX1 = """\
map mfx1 : R^3 -> R^2
vars x, y, z
G1 = x*y
G2 = x*z
"""


def test_map_declaration_resolves():
    r = parse_one(MFX1)
    assert r.germ.source_arity == 3 and r.germ.target_arity == 2
    assert [c.text() for c in r.germ.components] == ["x*y", "x*z"]


def test_canonical_text_roundtrips():
    r = parse_one(MFX1)
    again = parse_one(r.canonical_text())
    assert again.germ.components == r.germ.components
    assert again.ctx.names == r.ctx.names


def test_rational_coefficients_roundtrip():
    src = "map h : R^2 -> R^1\nvars x, y\nG = 1/2*x + 3/4*y^2\n"
    r = parse_one(src)
    assert r.germ.components[0].text() == "3/4*y^2 + 1/2*x"
    assert parse_one(r.canonical_text()).germ.components == r.germ.components


def test_default_variable_names():
    src = "map g : R^2 -> R^1\nG = x1*x2\n"
    r = parse_one(src)
    assert r.ctx.names == ("x1", "x2")


def test_a_name_may_start_with_any_letter():
    r = parse_one("map g : R^2 -> R^1\nvars é, y\nG = é*y\n")
    assert r.ctx.names == ("é", "y")
    assert r.germ.components[0].text() == "é*y"


def test_comments_and_blank_lines_are_ignored():
    src = "# header\n\nmap g : R^2 -> R^1  # inline\nvars x, y\n\nG = x*y\n"
    assert parse_one(src).germ.components[0].text() == "x*y"


def test_assert_set_with_rational_entries():
    src = MFX1 + """\
assert_set M {
  (0, s1, s2)
  (r, r*(1-s^2)/(1+s^2), 2*r*s/(1+s^2))
}
"""
    r = parse_one(src)
    comps = r.sets["M"]
    assert len(comps) == 2
    assert comps[0].params.names == ("s1", "s2")
    assert comps[1].params.names == ("r", "s")
    assert not all(d.is_constant() for d in comps[1].denominators)


def test_witness_block_resolves_laurent_curves():
    src = """\
map ent1 : R^3 -> R^2
vars x, y, z
G1 = x
G2 = y*(x^2 + y^2) + x*z^2
assert_set axis {
  (0, 0, s)
}
witness w1 {
  stratum axis
  gamma (t, 0, s)
  c (-s^2 * t^-1, t^-1)
  assume wg_invariant
}
"""
    w = parse_one(src).witnesses["w1"]
    assert w.gamma.coords[0].valuation() == 1
    assert w.coeffs[0].valuation() == -1
    assert w.coeffs[0].leading().text() == "-s^2"
    assert w.stratum.params.names == ("s",)
    assert "wg_invariant" in w.assumptions


def test_mixed_declaration_and_realification():
    src = "mixed sq : C^1 -> C\nvars z\nf = z^2\n"
    r = parse_one(src)
    assert r.poly.is_holomorphic()
    re, im = [c.text() for c in r.realified.components]
    assert re == "z_re^2 - z_im^2"
    assert im == "2*z_re*z_im"


def test_mixed_i_and_conj():
    src = "mixed f : C^1 -> C\nvars z\nf = i*z*conj(z)\n"
    r = parse_one(src)
    assert not r.poly.is_holomorphic()
    re, im = [c.text() for c in r.realified.components]
    assert re == "0"
    assert im == "z_re^2 + z_im^2"


# -- errors ---------------------------------------------------------------


def error_of(src):
    with pytest.raises(GermParseError) as exc:
        parse_text(src)
    return exc.value


def test_syntax_error_reports_position_and_expected():
    e = error_of("map g : R^2 -> R^1\nvars x, y\nG = x +\n")
    assert e.line == 3
    assert e.col == 8
    assert any("variable" in x for x in e.expected)


def test_undeclared_variable_is_an_error():
    e = error_of("map g : R^2 -> R^1\nvars x, y\nG = x*w\n")
    assert "undeclared" in e.message and "w" in e.message
    assert (e.line, e.col) == (3, 7)


def test_component_must_vanish_at_origin():
    e = error_of("map g : R^2 -> R^1\nvars x, y\nG = x*y + 1\n")
    assert "vanish" in e.message


def test_component_count_must_match_target_arity():
    e = error_of("map g : R^3 -> R^2\nvars x, y, z\nG1 = x*y\n")
    assert "components" in e.message


def test_arity_bounds_are_checked():
    assert "arity" in error_of("map g : R^11 -> R^2\nG = x1\n").message
    assert "arity" in error_of("map g : R^2 -> R^3\nG = x1\n").message


def test_conj_rejected_in_map_declaration():
    e = error_of("map g : R^2 -> R^1\nvars x, y\nG = conj(x)*y\n")
    assert "mixed" in e.message


def test_i_reserved_in_mixed_vars():
    e = error_of("mixed g : C^2 -> C\nvars i, z\nf = i*z\n")
    assert "imaginary" in e.message


def test_negative_power_only_on_t():
    e = error_of("map g : R^2 -> R^1\nvars x, y\nG = x^-1 * y\n")
    assert "negative powers" in e.message


def test_duplicate_names_rejected():
    assert "duplicate" in error_of(MFX1 + MFX1).message
    assert "duplicate" in error_of(
        "map g : R^2 -> R^1\nvars x, x\nG = x1\n").message


def test_division_by_zero_rational_entry():
    e = error_of(MFX1 + "assert_set V {\n  (s, s/(s-s), 0)\n}\n")
    assert "zero" in e.message


def test_set_arity_must_match_source():
    e = error_of(MFX1 + "assert_set V {\n  (s, 0)\n}\n")
    assert "entries" in e.message


def test_witness_requires_known_stratum():
    e = error_of(MFX1 + "witness w {\n  stratum nope\n  gamma (t, 0, s)\n}\n")
    assert "unknown set" in e.message


def test_mixed_sets_live_in_realified_coordinates():
    src = """\
mixed e : C^2 -> C
vars x, y
f = x*conj(y)
assert_set V {
  (0, 0, s1, s2)
}
"""
    r = parse_one(src)
    comp = r.sets["V"][0]
    assert comp.target == VarContext(["x_re", "x_im", "y_re", "y_im"])


# -- exact rejection texts -------------------------------------------------
# Every rejection the expression evaluator makes, in each kind of expression
# (map component, mixed component, assert_poly, set line, witness gamma/c),
# with the full message and position.

MAP2 = "map g : R^2 -> R^1\nvars x, y\n"
MIXED1 = "mixed f : C^1 -> C\nvars z\n"
MAP3 = "map g : R^3 -> R^2\nvars x, y, z\nG1 = x*y\nG2 = x*z\n"

ERROR_TEXTS = [
    ("map-undeclared", MAP2 + "G = x*w\n",
     "line 3, col 7: undeclared variable 'w'"),
    ("mixed-undeclared", MIXED1 + "f = z*w\n",
     "line 3, col 7: undeclared variable 'w'"),
    ("mixed-conj-undeclared", MIXED1 + "f = z*conj(w)\n",
     "line 3, col 12: undeclared variable 'w'"),
    ("mixed-conj-i", MIXED1 + "f = z*conj(i)\n",
     "line 3, col 12: undeclared variable 'i'"),
    ("poly-undeclared", MAP3 + "assert_poly P {\n  x*w\n}\n",
     "line 6, col 5: undeclared variable 'w'"),
    ("mixed-poly-undeclared", MIXED1 + "f = z^2\nassert_poly P {\n  z*x\n}\n",
     "line 5, col 3: undeclared variable 'z'"),
    ("first-error-wins", MAP2 + "G = w/y\n",
     "line 3, col 5: undeclared variable 'w'"),
    ("map-conj", MAP2 + "G = conj(x)*y\n",
     "line 3, col 10: conj() is only available in mixed declarations"),
    ("poly-conj", MAP3 + "assert_poly P {\n  conj(x)\n}\n",
     "line 6, col 8: conj() is only available in mixed declarations"),
    ("set-conj", MAP3 + "assert_set V {\n  (s, conj(s), 0)\n}\n",
     "line 6, col 12: conj() is only available in mixed declarations"),
    ("witness-conj", MAP3 + "witness w {\n  gamma (t, conj(s), 0)\n}\n",
     "line 6, col 18: conj() is only available in mixed declarations"),
    ("map-div-nonconst", MAP2 + "G = x/y\n",
     "line 3, col 6: division is only defined by nonzero constants here"),
    ("mixed-div-nonconst", MIXED1 + "f = z/z\n",
     "line 3, col 6: division is only defined by nonzero constants here"),
    ("witness-div-t", MAP3 + "witness w {\n  gamma (t, s/t, 0)\n}\n",
     "line 6, col 14: division is only defined by nonzero constants here"),
    ("witness-div-param", MAP3 + "witness w {\n  gamma (t, t/s, 0)\n}\n",
     "line 6, col 14: division is only defined by nonzero constants here"),
    ("map-div-zero", MAP2 + "G = x/0\n",
     "line 3, col 6: division by zero"),
    ("map-div-zero-expr", MAP2 + "G = x/(y-y)\n",
     "line 3, col 6: division by zero"),
    ("mixed-div-zero", MIXED1 + "f = z/0\n",
     "line 3, col 6: division is only defined by nonzero constants here"),
    ("mixed-div-zero-expr", MIXED1 + "f = z/(i - i)\n",
     "line 3, col 6: division is only defined by nonzero constants here"),
    ("mixed-imaginary-constant", MIXED1 + "f = z + i\n",
     "line 3, col 1: component 'f' does not vanish at the origin"),
    ("set-div-zero", MAP3 + "assert_set V {\n  (s, s/(s-s), 0)\n}\n",
     "line 6, col 8: division by an identically zero expression"),
    ("map-negpow", MAP2 + "G = x^-1 * y\n",
     "line 3, col 6: negative powers are only allowed on the tube variable t"),
    ("map-negpow-const", MAP2 + "G = x*2^-1\n",
     "line 3, col 8: negative powers are only allowed on the tube variable t"),
    ("mixed-negpow", MIXED1 + "f = z^-2\n",
     "line 3, col 6: negative powers are only allowed on the tube variable t"),
    ("poly-negpow", MAP3 + "assert_poly P {\n  x^-1\n}\n",
     "line 6, col 4: negative powers are only allowed on the tube variable t"),
    ("set-negpow", MAP3 + "assert_set V {\n  (s^-1, 0, 0)\n}\n",
     "line 6, col 5: negative powers are only allowed on the tube variable t"),
    ("witness-negpow-sum", MAP3 + "witness w {\n  gamma (t, (t + s)^-1, 0)\n}\n",
     "line 6, col 20: negative powers require a constant multiple of a power of t"),
    ("witness-negpow-param", MAP3 + "witness w {\n  gamma (t, s^-1, 0)\n}\n",
     "line 6, col 14: negative powers require a constant multiple of a power of t"),
    ("witness-c-negpow", MAP3 + "witness w {\n  gamma (t, 0, s)\n  c ((t + 1)^-2, t)\n}\n",
     "line 7, col 13: negative powers require a constant multiple of a power of t"),
    ("mixed-witness-bad-set",
     MIXED1 + "f = z^2\nassert_set V {\n  (s, conj(s))\n}\nwitness w {\n  gamma (t, 0)\n}\n",
     "line 5, col 12: conj() is only available in mixed declarations"),
    ("mixed-witness-bad-poly",
     MIXED1 + "f = z^2\nassert_poly P {\n  q\n}\nwitness w {\n  gamma (t, 0)\n}\n",
     "line 5, col 3: undeclared variable 'q'"),
    ("mixed-witness",
     MIXED1 + "f = z^2\nassert_set V {\n  (s, 0)\n}\nwitness w {\n  gamma (t, 0)\n}\n",
     "line 7, col 1: witness blocks attach to map declarations; realify first"),
    ("set-eleven-params",
     MAP3 + "assert_set V {\n  (0, 0, 0)\n  (a*b*c*d*e*f*g*h*j*k*l, 0, 0)\n}\n",
     "line 5, col 1: set 'V' line 2 has 11 parameters; a context holds at most 10"),
    ("witness-eleven-params",
     MAP3 + "witness w {\n  gamma (t, a*b*c*d*e*f*g*h*j*k*l, 0)\n}\n",
     "line 5, col 1: witness 'w' has 11 parameters; a context holds at most 10"),
    ("witness-repeated-gamma",
     MAP3 + "witness w {\n  gamma (t, 0, 0)\n  gamma (0, t, 0)\n}\n",
     "line 7, col 3: duplicate gamma line in witness 'w'"),
    ("witness-repeated-c",
     MAP3 + "witness w {\n  c (1, 0)\n  gamma (t, 0, s)\n  c (0, 1)\n}\n",
     "line 8, col 3: duplicate c line in witness 'w'"),
    ("witness-repeated-stratum",
     MAP3 + "assert_set V {\n  (0, 0, s)\n}\n"
     "witness w {\n  stratum V\n  stratum V\n  gamma (t, 0, s)\n}\n",
     "line 10, col 3: duplicate stratum line in witness 'w'"),
    ("witness-stratum-param-t",
     MAP3 + "assert_set V {\n  (0, t, 0)\n}\n"
     "witness w {\n  stratum V\n  gamma (t, s, 0)\n}\n",
     "line 8, col 1: stratum set 'V' has a parameter 't', the tube variable "
     "of witness 'w'"),
    ("map-vars-conj", MAP2.replace("y", "conj") + "G = x\n",
     "line 2, col 9: 'conj' is the conjugation conj(...), not a variable name"),
    ("mixed-vars-conj", "mixed f : C^2 -> C\nvars conj, z\nf = z^2\n",
     "line 2, col 6: 'conj' is the conjugation conj(...), not a variable name"),
    # A comment takes no columns: the newline after it is reported where
    # the '#' starts.
    ("comment-takes-no-columns", MAP2 + "G1 = x + # dangling\n",
     "line 3, col 10: found '\\\\n' (expected number or variable or '(' or 'conj')"),
    # '²' is alphanumeric but no letter, so it cannot start a name.
    ("superscript-digit", MAP2 + "G1 = ²x\n",
     "line 3, col 6: unexpected character '²'"),
]


@pytest.mark.parametrize("src, text", [
    pytest.param(src, text, id=case) for case, src, text in ERROR_TEXTS])
def test_rejection_texts_are_exact(src, text):
    assert str(error_of(src)) == text


@pytest.mark.parametrize("src, text", [
    ("z1*w", "line 1, col 4: undeclared variable 'w'"),
    ("z1/z2", "line 1, col 3: division is only defined by nonzero constants here"),
    ("conj(z1)^-1", "line 1, col 9: negative powers are only allowed on the tube variable t"),
])
def test_mixed_expression_rejection_texts_are_exact(src, text):
    with pytest.raises(GermParseError) as exc:
        parse_mixed_expr(src, VarContext(["z1", "z2"]))
    assert str(exc.value) == text


# -- error order -----------------------------------------------------------
# Each declaration resolves as it is read, so errors come in source order.


def test_an_undeclared_variable_is_reported_before_a_later_syntax_error():
    e = error_of("map g : R^3 -> R^2\nvars x, y, z\nG1 = x*w\nG2 = x*z +\n")
    assert str(e) == "line 3, col 8: undeclared variable 'w'"


def test_a_duplicate_germ_name_is_reported_at_the_second_header():
    e = error_of(MFX1 + "map mfx1 : R^3 -> R^2\nvars x, y, z\nG1 = x*\nG2 = x*z\n")
    assert str(e) == "line 5, col 1: duplicate germ name 'mfx1'"


def test_a_duplicate_component_is_reported_before_its_expression():
    e = error_of(MAP2 + "G = x\nG = x +\n")
    assert str(e) == "line 4, col 1: duplicate component 'G'"


def test_a_witness_may_name_a_set_declared_after_it():
    head = "map ent1 : R^3 -> R^2\nvars x, y, z\nG1 = x\nG2 = y*(x^2 + y^2) + x*z^2\n"
    axis = "assert_set axis {\n  (0, 0, s)\n}\n"
    w1 = "witness w1 {\n  stratum axis\n  gamma (t, 0, s)\n  c (-s^2 * t^-1, t^-1)\n}\n"
    forward = parse_one(head + w1 + axis)
    w = forward.witnesses["w1"]
    assert w.stratum == forward.sets["axis"][0]
    assert w.gamma.params.names == ("s",)
    assert forward.witnesses == parse_one(head + axis + w1).witnesses


# -- generated inputs ------------------------------------------------------

_HEADERS = [
    "map g : R^2 -> R^1\nvars x, y\n",
    "map g : R^3 -> R^2\n",
    "mixed f : C^2 -> C\nvars z, w\n",
]
# Words of the DSL plus a few non-ASCII digits and letters.
_WORDS = ["x", "y", "z", "w", "x1", "x2", "s", "t", "i", "conj", "G", "G1",
          "0", "1", "2", "12", "²", "٣", "é", "α",
          "+", "-", "*", "/", "^", "(", ")", ",", "=", "{", "}",
          "\n", "assert_set", "assert_poly", "witness", "gamma", "c"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(alphabet="".join(_WORDS + [" ", ":", ">", "#"]), max_size=40),
    st.builds(lambda head, body: head + "G = " + " ".join(body),
              st.sampled_from(_HEADERS),
              st.lists(st.sampled_from(_WORDS), max_size=14))))
def test_parser_raises_only_parse_errors(src):
    try:
        parse_text(src)
    except GermParseError:
        pass


def _expr(var, unit):
    """Expression text that vanishes at the origin, over the names in var."""
    const = st.one_of(st.integers(1, 9).map(str),
                      st.builds("({}/{})".format,
                                st.integers(-9, 9).filter(bool),
                                st.integers(1, 9)),
                      *([st.just(unit)] if unit else []))
    return st.recursive(
        var,
        lambda e: st.one_of(
            st.builds("{} + {}".format, e, e),
            st.builds("{} - {}".format, e, e),
            st.builds("(-({}))".format, e),
            st.builds("{}*{}".format, const, e),
            st.builds("({})*({})".format, e, st.one_of(e, const)),
            st.builds("({})^{}".format, e, st.integers(1, 3)),
            st.builds("({})/{}".format, e, const)),
        max_leaves=6)


@st.composite
def _map_decls(draw):
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, m))
    names = ["x", "y", "z"][:m]
    comp = _expr(st.sampled_from(names), None)
    lines = [f"map g : R^{m} -> R^{p}", "vars " + ", ".join(names)]
    lines += [f"G{k + 1} = {draw(comp)}" for k in range(p)]
    return "\n".join(lines) + "\n"


@st.composite
def _mixed_decls(draw):
    n = draw(st.integers(1, 2))
    names = ["z", "w"][:n]
    var = st.one_of(st.sampled_from(names),
                    st.sampled_from(names).map("conj({})".format))
    return (f"mixed f : C^{n} -> C\nvars {', '.join(names)}\n"
            f"f = {draw(_expr(var, 'i'))}\n")


@settings(max_examples=60, deadline=None)
@given(st.one_of(_map_decls(), _mixed_decls()))
# A negative imaginary coefficient after the first term.
@example("mixed f : C^1 -> C\nvars z\nf = z - i*conj(z)\n")
def test_canonical_text_roundtrips_generated_declarations(src):
    d = parse_one(src)
    again = parse_one(d.canonical_text())
    assert again == d
    assert again.canonical_text() == d.canonical_text()
