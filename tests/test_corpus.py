import argparse
import copy
import dataclasses
import json

import pytest

from germlab import analyses, corpus
from germlab.cli import build_parser
from germlab.corpus import (
    DATA_DIR,
    check_value,
    corpus_report,
    load_manifest,
    run_corpus,
    run_entry,
)
from germlab.germs import GermlabRejection, milnor_data
from germlab.sampling import RunConfig


@pytest.fixture(scope="module")
def manifest():
    return load_manifest()


@pytest.fixture(scope="module")
def full_run(manifest):
    return run_corpus(manifest=manifest)


def test_manifest_lists_every_shipped_germ_file(manifest):
    on_disk = {p.name for p in DATA_DIR.glob("*.germ")}
    referenced = {row["file"] for row in manifest["entries"].values()}
    assert referenced == on_disk


def test_full_run_is_green(full_run):
    assert [r.entry for r in full_run] == sorted(r.entry for r in full_run)
    bad = [(r.entry, r.detail or [c.name for c in r.checks if not c.passed])
           for r in full_run if not r.passed]
    assert bad == []
    assert len(full_run) == 19


def test_literature_rows_carry_anchors(manifest):
    for entry_id, row in manifest["entries"].items():
        for chk in row["checks"]:
            if chk["provenance"] == "literature":
                assert chk.get("anchor", "").startswith("worked-example:"), \
                    (entry_id, chk["name"])
            else:
                assert "anchor" not in chk, (entry_id, chk["name"])


def test_anchors_survive_into_the_report(full_run, manifest):
    rep = corpus_report(full_run, RunConfig().seed)
    anchors = {
        c["anchor"]
        for r in rep["results"] for c in r["checks"] if "anchor" in c
    }
    wanted = {
        chk["anchor"]
        for row in manifest["entries"].values()
        for chk in row["checks"] if "anchor" in chk
    }
    assert anchors == wanted
    assert rep["schema_version"] == 1
    assert rep["passed"] == rep["total"] == 19


def test_filter_selects_substring_matches(manifest):
    results = run_corpus("prodpair", manifest=manifest)
    assert [r.entry for r in results] == ["prodpair", "prodpair_bad"]
    assert all(r.passed for r in results)


def test_report_is_deterministic(manifest):
    one = corpus_report(run_corpus("mfx1", manifest=manifest), 7)
    two = corpus_report(run_corpus("mfx1", manifest=manifest), 7)
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_mismatch_is_reported_with_both_values(manifest):
    doctored = copy.deepcopy(manifest["entries"]["mfx1"])
    doctored["checks"][0]["want"] = "x^3"
    out = run_entry("mfx1", doctored, RunConfig())
    assert out.status == "mismatch"
    failed = [c for c in out.checks if not c.passed]
    assert failed[0].want == "x^3"
    assert failed[0].got == "x^3 - x*y^2 - x*z^2"


def test_corrupted_entry_names_itself_missing_key(manifest):
    doctored = copy.deepcopy(manifest["entries"]["e21"])
    del doctored["file"]
    out = run_entry("e21", doctored, RunConfig())
    assert out.status == "error"
    assert "e21" in out.detail and "file" in out.detail


def test_a_key_error_inside_the_analysis_is_a_failed_run(manifest, monkeypatch):
    def broken(gf, row, config):
        raise KeyError("boom")

    monkeypatch.setitem(corpus._ANALYSES, "hwc", broken)
    out = run_entry("e21", manifest["entries"]["e21"], RunConfig())
    assert out.status == "error"
    assert out.detail == "entry 'e21' failed to run: KeyError: 'boom'"


def test_corrupted_entry_names_itself_bad_check_row(manifest):
    doctored = copy.deepcopy(manifest["entries"]["e21"])
    doctored["checks"] = [{"name": "holds"}]  # no want
    out = run_entry("e21", doctored, RunConfig())
    assert out.status == "error"
    assert "e21" in out.detail


def test_unreadable_manifest_is_a_structured_rejection(tmp_path):
    p = tmp_path / "expectations.json"
    p.write_text("{not json")
    with pytest.raises(GermlabRejection, match="expectations"):
        load_manifest(p)
    p.write_text(json.dumps({"schema_version": 99, "entries": {}}))
    with pytest.raises(GermlabRejection, match="schema"):
        load_manifest(p)


def test_missing_germ_file_is_an_error_entry(manifest):
    doctored = copy.deepcopy(manifest["entries"]["mfx1"])
    doctored["file"] = "missing.germ"
    out = run_entry("mfx1", doctored, RunConfig())
    assert out.status == "error"


def test_milnor_row_on_a_mixed_declaration(capsys):
    from germlab.cli import main

    assert main(["milnor", str(DATA_DIR / "fgbar.germ"), "--germ", "fgF"]) == 0
    printed = json.loads(capsys.readouterr().out)["milnor_poly"]
    row = {"analysis": "milnor", "file": "fgbar.germ", "germ": "fgF",
           "checks": [{"name": "milnor_poly", "want": printed}]}
    out = run_entry("fgF-milnor", row, RunConfig())
    assert out.status == "ok", out.detail or out.checks


def test_raising_entry_becomes_an_error_and_the_run_goes_on(manifest):
    rows = {
        # Mixed declarations carry no witness blocks: a usage error.
        "bad": {"analysis": "witness", "file": "fgbar.germ", "germ": "fgF",
                "witness": "w", "checks": []},
        "ex2": manifest["entries"]["ex2"],
    }
    results = run_corpus(manifest={"schema_version": 1, "entries": rows})
    assert [(r.entry, r.status) for r in results] == [
        ("bad", "error"), ("ex2", "ok")]
    assert results[0].detail.endswith(
        "GermlabUsage: witness blocks only exist on map germs")


FAST_ROWS = ("e21", "ent1", "mhx1", "comp48", "incl", "esum", "mfx1",
             "prodpair", "z2")


def _cli_json(capsys, *argv):
    from germlab.cli import main

    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def _command_parsers(parser=None, prefix=()):
    """{analysis name: (argv prefix, subparser)} for each analysis command."""
    out = {}
    for action in (parser or build_parser())._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub.get_default("analysis"):
                    out[sub.get_default("analysis")] = (prefix + (name,), sub)
                out.update(_command_parsers(sub, prefix + (name,)))
    return out


COMMAND_PARSERS = _command_parsers()
ROW_ONLY_KEYS = {"analysis", "file", "checks"}


def test_every_analysis_command_is_a_cli_subcommand():
    assert sorted(COMMAND_PARSERS) == sorted(analyses.COMMANDS)
    for name, (prefix, _) in COMMAND_PARSERS.items():
        assert "-".join(prefix) == name


def test_command_rows_use_only_their_commands_option_names(manifest):
    rows = {entry_id: row for entry_id, row in manifest["entries"].items()
            if row["analysis"] in analyses.COMMANDS}
    assert sorted(rows) == ["comp48", "e21", "ent1", "esum", "ex1", "exaa",
                            "incl", "mfx1", "mhx1"]
    for entry_id, row in rows.items():
        _, parser = COMMAND_PARSERS[row["analysis"]]
        dests = {action.dest for action in parser._actions}
        assert set(row) - dests - ROW_ONLY_KEYS == set(), entry_id


def _row_argv(row):
    """The germlab argv for a row naming a command, its keys as options."""
    prefix, parser = COMMAND_PARSERS[row["analysis"]]
    flags = {action.dest: action.option_strings[0]
             for action in parser._actions if action.option_strings}
    argv = [*prefix, str(DATA_DIR / row["file"])]
    for key, value in row.items():
        if key in ROW_ONLY_KEYS:
            continue
        for item in value if isinstance(value, list) else [value]:
            argv += [flags[key]] if item is True else [flags[key], str(item)]
    return argv


def _cli_view(capsys, row):
    """What the CLI prints for a corpus row, with the row's options."""
    path = str(DATA_DIR / row["file"])
    kind = row["analysis"]
    if kind == "hwc-mixed":
        return {g["name"]: {**g, **_cli_json(capsys, "hwc", path,
                                             "--germ", g["name"])}
                for g in _cli_json(capsys, "parse", path)["germs"]}
    if kind == "product":
        return _cli_json(capsys, "construct", "product", path)
    doc = _cli_json(capsys, *_row_argv(row))
    return doc["results"][row["witness"]] if kind == "witness" else doc


@pytest.mark.parametrize("entry", FAST_ROWS)
def test_corpus_checks_what_the_cli_prints(capsys, manifest, entry):
    row = manifest["entries"][entry]
    view = _cli_view(capsys, row)
    out = run_entry(entry, row, RunConfig())
    assert out.status == "ok", out.detail or out.checks
    compared = 0
    for c in out.checks:
        if c.name == "gram_is_square":  # no command prints it
            continue
        assert json.loads(json.dumps(c.got)) == check_value(view, c.name), \
            c.name
        compared += 1
    assert compared


def test_gram_is_square_checks_the_square_route_independently(manifest, monkeypatch):
    # A square route that returned 2 det(A) would still square to its own
    # milnor_poly; only the Gram route det(A A^T) tells the two apart.
    import germlab.corpus as corpus

    def doubled(germ):
        md = milnor_data(germ)
        wrong = md.square_det * 2
        return dataclasses.replace(md, square_det=wrong, milnor_poly=wrong * wrong)

    assert run_entry("mfx1", manifest["entries"]["mfx1"], RunConfig()).passed
    monkeypatch.setattr(corpus, "milnor_data", doubled)
    result = run_entry("mfx1", manifest["entries"]["mfx1"], RunConfig())
    failed = {c.name for c in result.checks if not c.passed}
    assert "gram_is_square" in failed
