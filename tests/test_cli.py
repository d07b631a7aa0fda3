import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import germlab
import germlab.analyses
import germlab.sampling
from germlab.cli import _jsonable, build_parser, main
from germlab.dsl import GermParseError, parse_text

CORPUS = "src/germlab/corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err or out
    return json.loads(out)


def test_milnor_mfx1_prints_the_determinant(capsys):
    code, out, _ = run_cli(capsys, "milnor", f"{CORPUS}/mfx1.germ")
    assert code == 0
    assert "x^3 - x*y^2 - x*z^2" in out
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["square_det"] == "x^3 - x*y^2 - x*z^2"
    assert doc["milnor_poly"] == \
        "x^6 - 2*x^4*y^2 - 2*x^4*z^2 + x^2*y^4 + 2*x^2*y^2*z^2 + x^2*z^4"


def test_hwc_e21_holds_with_factor(capsys):
    doc = run_json(capsys, "hwc", f"{CORPUS}/e21.germ")
    assert doc["holds"] is True
    assert doc["conformal_factor"].startswith("4*x^4*z^2 + 4*x^4*w^2")
    assert doc["conformal_factor"].endswith("a^2 + b^2 + c^2 + d^2")
    assert doc["report"]["facts"] == [
        "condition_b", "disc_zero", "hwc", "thom_regular",
        "tube_fibration_hypotheses_met"]
    assert doc["replay_sound"] is True


def test_hwc_mixed_reports_route_agreement(capsys):
    doc = run_json(capsys, "hwc", f"{CORPUS}/t.germ")
    assert doc["mixed"] is True
    assert doc["holds"] is False
    assert doc["routes_agree"] is True
    assert doc["pairing"] == "x*conj(x)*conj(y)^2"


def test_parse_missing_file_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "parse", "does_not_exist.germ")
    assert code == 2
    assert out == ""
    assert "does_not_exist.germ" in err


def test_console_script_exit_code_for_missing_file():
    # The child imports the germlab under test, installed or not.
    src = str(Path(germlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "germlab.cli", "parse", "does_not_exist.germ"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2


def test_malformed_dsl_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.germ"
    bad.write_text("map broken : R^2 -> R^1\nvars x, y\nG1 = x +\n")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 2
    assert "germlab:" in err


def test_non_ascii_digit_is_a_parse_error(tmp_path, capsys):
    src = "map g : R^1 -> R^1\nG = x1*\u00b2\n"
    with pytest.raises(GermParseError) as exc:
        parse_text(src)
    assert str(exc.value) == "line 2, col 8: unexpected character '\u00b2'"
    bad = tmp_path / "digit.germ"
    bad.write_text(src, encoding="utf-8")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"germlab: {exc.value}\n"


def test_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.germ"
    bad.write_bytes(b"map g : R^1 -> R^1\nG = x1*\xff\n")
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert err == (f"germlab: {bad}: not UTF-8 text "
                   "(invalid start byte at byte 26)\n")


def test_multi_decl_file_needs_germ_name(capsys):
    code, _, err = run_cli(capsys, "milnor", f"{CORPUS}/comp48.germ")
    assert code == 2
    assert "F48" in err and "G48" in err
    doc = run_json(capsys, "milnor", f"{CORPUS}/comp48.germ", "--germ", "F48")
    assert doc["germ"] == "F48"


def test_parse_lists_declared_blocks(capsys):
    doc = run_json(capsys, "parse", f"{CORPUS}/ent1.germ")
    germ = doc["germs"][0]
    assert germ["kind"] == "map"
    assert germ["sets"] == {"axis": 1}
    assert germ["witnesses"] == ["w1"]
    assert "G2 = " in germ["canonical"]


def test_parse_mixed_includes_realification(capsys):
    doc = run_json(capsys, "parse", f"{CORPUS}/z2.germ")
    germ = doc["germs"][0]
    assert germ["kind"] == "mixed"
    assert germ["realified"] == ["z_re^2 - z_im^2", "2*z_re*z_im"]


def test_rejection_is_structured_exit_1(capsys):
    code, out, _ = run_cli(capsys, "construct", "product",
                           f"{CORPUS}/prodpair_bad.germ")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["reason"] == "product_pair preconditions failed"
    assert doc["error"]["details"]["residuals"]["cross(13-24)"] == \
        "2*z*a - 2*w*b"


def test_json_flag_diverts_report_and_prints_summary(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "hwc", f"{CORPUS}/e21.germ",
                           "--json", str(out_path))
    assert code == 0
    assert out.strip() == "hwc holds for e21"
    assert json.loads(out_path.read_text())["holds"] is True


def test_identical_invocations_are_byte_identical(capsys):
    _, one, _ = run_cli(capsys, "probe-b", f"{CORPUS}/exaa.germ",
                        "--set", "V", "--declare", "condition_b")
    _, two, _ = run_cli(capsys, "probe-b", f"{CORPUS}/exaa.germ",
                        "--set", "V", "--declare", "condition_b")
    assert one == two
    doc = json.loads(one)
    assert doc["violates"] is None
    assert doc["samples"]["seed"] == 0xC0FFEE
    assert doc["report"]["declared"] == ["condition_b"]


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_SEED", "99")
    doc = run_json(capsys, "probe-b", f"{CORPUS}/exaa.germ", "--set", "V")
    assert doc["samples"]["seed"] == 99
    monkeypatch.delenv("GERMLAB_SEED")
    doc = run_json(capsys, "probe-b", f"{CORPUS}/exaa.germ", "--set", "V",
                   "--seed", "0x5")
    assert doc["samples"]["seed"] == 5


def _options(parser, path=()):
    """(command, option) for every option but --help, walking subcommands."""
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out += _options(sub, path + (name,))
        elif action.option_strings and action.dest != "help":
            out.append((" ".join(path), action.dest))
    return out


def test_sampling_flags_only_where_something_samples():
    options = _options(build_parser())
    assert len(options) == 52
    sampling = {}
    for command, dest in options:
        if dest in ("seed", "samples", "radius"):
            sampling.setdefault(command, []).append(dest)
    assert sampling == {command: ["seed", "samples", "radius"] for command
                        in ("probe-b", "compose-check", "corpus run")}
    fields = [f.name for f in dataclasses.fields(germlab.sampling.RunConfig)]
    assert fields == ["seed", "samples", "radius"]


def test_bad_seed_variable_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GERMLAB_SEED", "abc")
    code, out, err = run_cli(capsys, "probe-b", f"{CORPUS}/mhx1.germ",
                             "--witness", "fam")
    assert (code, out) == (2, "")
    assert "GERMLAB_SEED" in err and "'abc'" in err
    # Exact commands never read the variable.
    assert run_json(capsys, "milnor", f"{CORPUS}/mfx1.germ")["germ"] == "mfx1"


COMPOSE_EXACT = ["compose-check", f"{CORPUS}/comp48.germ", "--inner", "F48",
                 "--outer", "G48", "--mode", "exact", "--set", "MH",
                 "--claim", "closure"]
PROBE_SAMPLED = ["probe-b", f"{CORPUS}/exaa.germ", "--set", "V"]
COMPOSE_SAMPLED = ["compose-check", f"{CORPUS}/contra.germ", "--inner", "FC",
                   "--outer", "GC", "--mode", "sampled", "--radius", "0.5"]
COMPOSE_INCLUSION = ["compose-check", f"{CORPUS}/incl.germ", "--inner", "FI",
                     "--outer", "GI", "--mode", "inclusion", "--set", "MH"]


@pytest.mark.parametrize("argv", [
    [*COMPOSE_EXACT, "--radius", "nan"],
    [*COMPOSE_EXACT, "--radius", "inf"],
    [*COMPOSE_EXACT, "--radius", "-1"],
    [*PROBE_SAMPLED, "--radius", "nan"],
    [*PROBE_SAMPLED, "--radius", "0"],
    [*PROBE_SAMPLED, "--samples", "-5"],
    [*PROBE_SAMPLED, "--samples", "1.5"],
    ["corpus", "run", "--filter", "e21", "--samples", "0"],
])
def test_samples_and_radius_must_be_finite_and_positive(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: expected a finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, mode", [
    (["probe-b", f"{CORPUS}/mhx1.germ", "--witness", "fam", "--set", "V"],
     "--set", "--witness"),
    (["compose-check", f"{CORPUS}/incl.germ", "--inner", "FI", "--outer",
      "GI", "--mode", "inclusion", "--set", "MH", "--claim", "closure"],
     "--claim", "--mode inclusion"),
    (["compose-check", f"{CORPUS}/contra.germ", "--inner", "FC", "--outer",
      "GC", "--mode", "sampled", "--claim", "closure"],
     "--claim", "--mode sampled"),
    *[(["probe-b", f"{CORPUS}/mhx1.germ", "--witness", "fam", flag, value],
       flag, "--witness")
      for flag, value in [("--seed", "5"), ("--samples", "3"),
                          ("--radius", "0.5")]],
    *[([*COMPOSE_SAMPLED, flag, value], flag, "--mode sampled")
      for flag, value in [("--set", "MH"), ("--declare-inner", "condition_b"),
                          ("--declare-outer", "disc_zero"), ("--samples", "3")]],
    *[([*COMPOSE_INCLUSION, flag, value], flag, "--mode inclusion")
      for flag, value in [("--seed", "5"), ("--samples", "3"),
                          ("--radius", "0.5")]],
    *[([*COMPOSE_EXACT[:-2], flag, value], flag, "--mode exact without --claim")
      for flag, value in [("--seed", "5"), ("--samples", "3"),
                          ("--radius", "0.5")]],
])
def test_an_option_the_mode_never_reads_is_a_usage_error(
        capsys, argv, flag, mode):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"germlab: {flag} has no effect with {mode}\n"


EQUIDIMENSIONAL = """\
map sq : R^2 -> R^2
vars x, y
G1 = x^2 - y^2
G2 = x*y
assert_set V {
  (s1, s1)
}

map id2 : R^2 -> R^2
vars x, y
G1 = x
G2 = y
"""


@pytest.mark.parametrize("argv", [
    ["probe-b", "--germ", "sq", "--set", "V"],
    ["compose-check", "--inner", "id2", "--outer", "sq", "--mode", "sampled"],
])
def test_sampled_probes_reject_an_equidimensional_germ(tmp_path, capsys, argv):
    # For m = p the stacked matrix is (p + 1) x p and has no maximal minor.
    path = tmp_path / "sq.germ"
    path.write_text(EQUIDIMENSIONAL)
    code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["reason"].endswith(
        "is 3 x 2: no maximal minors cut out its Milnor set")
    assert error["details"] == {"stacked_shape": [3, 2]}


def test_exact_commands_refuse_sampling_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["milnor", f"{CORPUS}/mfx1.germ", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("env, flags", [
    (None, ["--seed", "0x5"]),
    ("0x5", []),
    ("99", ["--seed", "0x5"]),
])
def test_compose_exact_closure_separation_reads_the_seed(
        capsys, monkeypatch, env, flags):
    seeds = []
    derive_rng = germlab.sampling.derive_rng

    def spy(seed, label):
        if label == "closure-sep":
            seeds.append(seed)
        return derive_rng(seed, label)

    monkeypatch.setattr(germlab.sampling, "derive_rng", spy)
    if env is None:
        monkeypatch.delenv("GERMLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("GERMLAB_SEED", env)
    doc = run_json(capsys, "compose-check", f"{CORPUS}/comp48.germ",
                   "--inner", "F48", "--outer", "G48", "--mode", "exact",
                   "--set", "MH", "--claim", "closure", *flags)
    assert seeds == [5]
    assert doc["closure_meets_sing_g_only_at_0"] is True
    assert doc["seed"] == 5


def test_compose_exact_prints_the_seed_only_with_a_claim(capsys, monkeypatch):
    monkeypatch.delenv("GERMLAB_SEED", raising=False)
    assert run_json(capsys, *COMPOSE_EXACT, "--seed", "5")["seed"] == 5
    # Without --claim nothing samples, so there is no seed to replay.
    unclaimed = run_json(capsys, *COMPOSE_EXACT[:-2])
    assert "seed" not in unclaimed


def test_only_the_cli_reads_the_environment():
    root = Path(germlab.__file__).resolve().parent
    readers = [path.relative_to(root).as_posix()
               for path in sorted(root.rglob("*.py"))
               if "environ" in path.read_text() or "getenv" in path.read_text()]
    assert readers == ["cli.py"]


def test_probe_b_family_mode(capsys):
    doc = run_json(capsys, "probe-b", f"{CORPUS}/mhx1.germ",
                   "--witness", "fam")
    assert doc["mode"] == "family"
    assert doc["violates"] is True
    assert doc["report"]["residuals"]["family_limit"] == "(0, s, 0)"
    assert "not_condition_b" in doc["report"]["facts"]


def test_probe_b_needs_a_mode(capsys):
    code, _, err = run_cli(capsys, "probe-b", f"{CORPUS}/mhx1.germ")
    assert code == 2
    assert "--witness" in err or "--set" in err


def test_witness_command(capsys):
    doc = run_json(capsys, "witness", f"{CORPUS}/ent1.germ")
    res = doc["results"]["w1"]
    assert res["is_witness"] is True
    assert res["direction"] == "(0, 0, 2*s)"
    assert res["report"]["facts"] == ["not_thom_regular"]


def test_compose_exact_transfers_under_declarations(capsys):
    doc = run_json(capsys, "compose-check", f"{CORPUS}/comp48.germ",
                   "--inner", "F48", "--outer", "G48",
                   "--set", "MH", "--claim", "closure",
                   "--declare-inner", "condition_b",
                   "--declare-inner", "disc_zero",
                   "--declare-outer", "disc_zero")
    assert doc["violation"] is None
    assert doc["flagged"] == ["MH[0]"]
    assert doc["closure_meets_sing_g_only_at_0"] is True
    assert doc["report"]["facts"] == ["condition_b"]
    assert doc["report"]["provenance"]["condition_b"]["rule"] == \
        "compose-closure"
    assert doc["replay_sound"] is True


def test_compose_inclusion_mode(capsys):
    doc = run_json(capsys, "compose-check", f"{CORPUS}/incl.germ",
                   "--inner", "FI", "--outer", "GI",
                   "--set", "MH", "--mode", "inclusion",
                   "--declare-inner", "condition_b",
                   "--declare-inner", "disc_zero",
                   "--declare-outer", "condition_b")
    assert doc["verified"] == ["MH[0]", "MH[1]", "MH[2]"]
    assert doc["failed"] == []
    assert doc["report"]["provenance"]["condition_b"]["rule"] == \
        "compose-inclusion"


def test_compose_sampled_mode(capsys):
    doc = run_json(capsys, "compose-check", f"{CORPUS}/contra.germ",
                   "--inner", "FC", "--outer", "GC",
                   "--mode", "sampled", "--radius", "0.5")
    assert doc["suspicious"] is True
    assert doc["record"]["image_distance_to_sing"] <= 1e-3
    assert doc["record"]["nearest_sing_norm"] >= 0.05
    assert doc["seed"] == 0xC0FFEE
    got = doc["samples"]
    assert got["seed"] == 0xC0FFEE and got["seeds"] == 8
    assert (got["off_target"] + got["near_origin"] + sum(got["left_at_rung"])
            + got["completed"]) == 8


def test_compose_exact_needs_a_set(capsys):
    code, _, err = run_cli(capsys, "compose-check", f"{CORPUS}/contra.germ",
                           "--inner", "FC", "--outer", "GC")
    assert code == 2
    assert "--set" in err


def test_certify_with_declared_facts(capsys):
    doc = run_json(capsys, "certify", f"{CORPUS}/mfx1.germ",
                   "--declare", "isolated_singularity")
    assert doc["hwc"] is False
    assert doc["report"]["facts"] == [
        "condition_b", "isolated_singularity", "thom_regular"]
    assert doc["report"]["declared"] == ["isolated_singularity"]
    assert doc["replay_sound"] is True


def test_certify_contradiction_is_exit_1(capsys):
    code, out, _ = run_cli(capsys, "certify", f"{CORPUS}/e21.germ",
                           "--declare", "not_condition_b")
    assert code == 1
    assert "error" in json.loads(out)


def test_construct_sum_reassembles_the_frame_pair(capsys):
    doc = run_json(capsys, "construct", "sum", f"{CORPUS}/esum.germ")
    assert doc["holds"] is True
    assert doc["left"] == "quart" and doc["right"] == "bilin"
    assert doc["components"][0].endswith("a*c + b*d")


def test_construct_sum_declared_transfer(capsys):
    doc = run_json(capsys, "construct", "sum", f"{CORPUS}/esum.germ",
                   "--declare-thom-summands", "--declare-codim-matches")
    rep = doc["report"]
    assert "thom_regular" in rep["facts"]
    assert rep["provenance"]["thom_regular"]["rule"] == "separable-thom"
    assert "thom_regular" in rep["declared"]


@pytest.mark.parametrize("flag, other", [
    ("--declare-thom-summands", "--declare-codim-matches"),
    ("--declare-codim-matches", "--declare-thom-summands"),
])
def test_construct_sum_one_declared_transfer_flag_is_a_usage_error(
        capsys, flag, other):
    # The transfer needs both declarations; one alone would be dropped.
    code, out, err = run_cli(capsys, "construct", "sum", f"{CORPUS}/esum.germ",
                             "--left", "quart", "--right", "bilin", flag)
    assert (code, out) == (2, "")
    assert err == f"germlab: {flag} has no effect without {other}\n"


def test_construct_mixed_algo_matches_corpus_decl(capsys):
    doc = run_json(
        capsys, "construct", "mixed-algo",
        "--vars", "z1,z2,z3,z4,z5", "--left", "z1,z3,z5",
        "--f", "z1^4*z5^3", "--f", "z3^2",
        "--g", "z2^5", "--g", "z4",
        "--r", "z1^4", "--r=-z3^6", "--h=-z2^7*z4^3")
    assert doc["holds"] is True
    from germlab.dsl import parse_path
    decl = parse_path(f"{CORPUS}/mixalg.germ").single()
    assert doc["poly"] == decl.poly.text()


def test_construct_mixed_algo_rejects_misplaced_variable(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "mixed-algo",
        "--vars", "z1,z2", "--left", "z1", "--f", "z2", "--g", "z2")
    assert code == 1
    assert json.loads(out)["error"]["details"]["variables"] == ["z2"]


@pytest.mark.parametrize("vars_, left, needle", [
    (",", "z1", "--vars"),
    ("z1,z1", "z1", "z1"),
    ("z1,z2", "z1,w", "w"),
    ("z1,z2,z3,z4,z5,z6", "z1", "at most 5"),
    ("i,w", "i", "imaginary"),
    ("conj,z2", "z2", "'conj', the conjugation"),
])
def test_construct_mixed_algo_bad_variable_lists_are_usage_errors(
        capsys, vars_, left, needle):
    code, out, err = run_cli(
        capsys, "construct", "mixed-algo",
        "--vars", vars_, "--left", left, "--f", "z1", "--g", "z2")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("germlab:")
    assert needle in lines[0]


@pytest.mark.parametrize("argv", [
    ["certify", f"{CORPUS}/e21.germ", "--declare", "bogus"],
    ["probe-b", f"{CORPUS}/mhx1.germ", "--witness", "fam", "--declare", "nope"],
    ["compose-check", f"{CORPUS}/comp48.germ", "--inner", "F48",
     "--outer", "G48", "--set", "MH", "--declare-inner", "bogus"],
    ["compose-check", f"{CORPUS}/comp48.germ", "--inner", "F48",
     "--outer", "G48", "--set", "MH", "--declare-outer", "bogus"],
], ids=["declare", "probe-b-declare", "declare-inner", "declare-outer"])
def test_unknown_fact_names_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err


def test_sing_command_lists_minors(capsys):
    doc = run_json(capsys, "sing", f"{CORPUS}/ex2.germ")
    assert doc["singular_set_empty"] is False
    assert "3*x1^2 + 3*x2^2" in doc["minors"]


def test_corpus_run_green_and_filter(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "--filter", "mfx1")
    assert code == 0
    assert "mfx1" in out and "1/1 entries passed" in out
    code, _, err = run_cli(capsys, "corpus", "run", "--filter", "nope")
    assert code == 2
    assert "nope" in err


def test_corpus_run_json_report(tmp_path, capsys):
    out_path = tmp_path / "corpus.json"
    code, out, _ = run_cli(capsys, "corpus", "run", "--filter", "z2",
                           "--json", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == 1
    assert doc["results"][0]["entry"] == "z2"
    assert all(c["passed"] for c in doc["results"][0]["checks"])


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# The quick exact commands a user waits on, as perfbench's cli-cold runs them.
EXACT_COMMANDS = (
    ["parse", f"{CORPUS}/e21.germ"],
    ["milnor", f"{CORPUS}/mfx1.germ"],
    ["sing", f"{CORPUS}/ent1.germ"],
    ["hwc", f"{CORPUS}/e21.germ"],
    ["witness", f"{CORPUS}/ent1.germ"],
    ["probe-b", f"{CORPUS}/mhx1.germ", "--witness", "fam"],
    ["compose-check", f"{CORPUS}/comp48.germ", "--inner", "F48", "--outer",
     "G48", "--mode", "exact", "--set", "MH", "--claim", "closure"],
    ["construct", "sum", f"{CORPUS}/esum.germ", "--left", "quart",
     "--right", "bilin"],
)


def test_exact_commands_load_neither_numpy_nor_the_corpus_runner():
    code = ("import sys\n"
            "from germlab.cli import main\n"
            f"for argv in {EXACT_COMMANDS!r}:\n"
            "    if main(argv):\n"
            "        raise SystemExit(f'{argv} failed')\n"
            "loaded = [m for m in ('numpy', 'scipy', 'germlab.corpus')\n"
            "          if m in sys.modules]\n"
            "raise SystemExit(f'loaded {loaded}' if loaded else 0)\n")
    src = str(Path(germlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, cwd=Path(src).parent,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


SAMPLED_COMMANDS = (
    ["corpus", "run"],
    ["compose-check", f"{CORPUS}/contra.germ", "--inner", "FC", "--outer",
     "GC", "--mode", "sampled", "--radius", "0.5"],
    ["probe-b", f"{CORPUS}/exaa.germ", "--set", "V"],
)


def test_sampled_commands_do_not_load_scipy():
    code = ("import sys\n"
            "from germlab.cli import main\n"
            f"for argv in {SAMPLED_COMMANDS!r}:\n"
            "    if main(argv):\n"
            "        raise SystemExit(f'{argv} failed')\n"
            "if 'numpy' not in sys.modules:\n"
            "    raise SystemExit('no sampled probe ran')\n"
            "raise SystemExit('loaded scipy' if 'scipy' in sys.modules else 0)\n")
    src = str(Path(germlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300, cwd=Path(src).parent,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def _isinstance_jsonable(value):
    # The conversion _jsonable replaced, checking numpy types by name.
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _isinstance_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_isinstance_jsonable(v) for v in value]
    return value


@pytest.mark.parametrize("value", [
    np.float64(0.1),
    np.int64(-7),
    {"point": np.array([[0.5, -1.25], [1e-300, 2.0]]), "norm": np.float64(3.5)},
    [np.array([1, 2, 3]), (np.int64(4), np.float64(1 / 3))],
    Fraction(-3, 7),
    {"nested": [{"x": Fraction(1, 2), "y": np.float64(np.inf)}]},
])
def test_jsonable_converts_numpy_values_as_before(value):
    want = json.dumps(_isinstance_jsonable(value), sort_keys=True)
    assert json.dumps(_jsonable(value), sort_keys=True) == want


def test_internal_error_is_exit_3_with_a_json_document(capsys, monkeypatch):
    def broken(gf, opts, config=None):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(germlab.analyses.COMMANDS, "milnor", broken)
    code, out, err = run_cli(capsys, "milnor", f"{CORPUS}/mfx1.germ")
    assert code == 3
    assert json.loads(out) == {"schema_version": 1, "error": {
        "reason": "internal", "type": "ZeroDivisionError", "message": "boom"}}
    assert "ZeroDivisionError: boom" in err
