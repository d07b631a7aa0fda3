"""Worked-example corpus: germ files with frozen expected outputs.

Each entry in expectations.json names a .germ file, the analysis to run
on it, and a list of checks comparing computed values to frozen ones.
Every check carries a provenance tag (literature, derived, trivial);
literature rows restate a published worked example and point at it
through an anchor string.

A row names the CLI command it runs as its `analysis` and carries that
command's options under their argparse names (`germ`, `set`, `mode`,
`declare_inner`, ...), so it runs the `germlab.analyses.COMMANDS` entry
the CLI runs and each check reads a value out of the report that command
prints.  A check name is a dotted path into that report; `LEGACY_PATHS`
keeps six older names (`facts`, `exact_facts`, `declared`, `limit`,
`rule`, `separated`) pointing at their place in it.  The other views in
`_ANALYSES` read what no command prints: milnor's `gram_is_square`, one
witness block, a rejected product, `hwc-mixed`, `compose-probe`,
`isolated` and `empty-interior`.

Entries are independent: the runner executes them one after another and
sorts the results by entry id, and an entry that raises becomes an error
outcome instead of ending the run.  All expected values are exact texts
or verdicts, which is what makes byte-stable comparison possible in the
first place.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from germlab import analyses
from germlab.certify import RegularityReport
from germlab.dsl import parse_path
from germlab.germs import GermlabRejection, milnor_data, realify_mixed
from germlab.hwc import empty_interior_criterion, isolated_singularity_probe
from germlab.sampling import RunConfig

DATA_DIR = Path(__file__).resolve().parent


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    want: object
    got: object
    provenance: str
    anchor: str | None = None


@dataclass(frozen=True)
class EntryOutcome:
    entry: str
    status: str  # ok | mismatch | error
    checks: tuple[CheckOutcome, ...]
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "ok"


def load_manifest(path: Path | None = None) -> dict:
    path = path or (DATA_DIR / "expectations.json")
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GermlabRejection(
            f"cannot read expectations manifest {path.name}: {exc}") from exc
    if raw.get("schema_version") != 1:
        raise GermlabRejection(
            "unsupported expectations schema",
            schema_version=raw.get("schema_version"))
    return raw


# Check names older than the report paths, and where each now reads.
LEGACY_PATHS = {
    "facts": "report.facts",
    "exact_facts": "report.facts",
    "declared": "report.declared",
    "limit": "report.residuals.family_limit",
    "rule": "report.provenance.condition_b.rule",
    "separated": "closure_meets_sing_g_only_at_0",
}


def check_value(report: dict, name: str):
    """The value a check called `name` reads out of a row's report."""
    value = report
    for key in LEGACY_PATHS.get(name, name).split("."):
        if not isinstance(value, dict) or key not in value:
            return "<missing>"
        value = value[key]
    return value


def _milnor(gf, row, config):
    md = milnor_data(gf.single(row.get("germ")).germ)
    out = {"command": "milnor", **md.to_json_dict()}
    if md.square_det is not None:
        # For a square A, milnor_poly is det(A)^2; compare it with the Gram
        # route det(A A^T) rather than with itself.
        out["gram_is_square"] = md.stacked.gram().det() == md.milnor_poly
    return out


def _witness(gf, row, config):
    return analyses.witness(gf, row)["results"][row["witness"]]


def _product(gf, row, config):
    try:
        return analyses.construct_product(gf, row)
    except GermlabRejection as exc:
        # The CLI prints a rejection as an error document and exits 1.
        return {
            "holds": False,
            "reason": exc.reason,
            "residuals": exc.details.get("residuals", {}),
        }


def _hwc_mixed(gf, row, config):
    return {d.name: {**analyses.parse_row(d),
                     **analyses.hwc(gf, {"germ": d.name})}
            for d in gf.decls}


def _compose_probe(gf, row, config):
    # Each run gets only the options its mode reads.
    exact = analyses.compose_check(gf, {**row, "mode": "exact", "radius": None}, config)
    if "radius" in row:
        config = dataclasses.replace(config, radius=row["radius"])
    sampled = analyses.compose_check(
        gf, {"inner": row["inner"], "outer": row["outer"], "mode": "sampled"}, config)
    # The exact run's flags and report, the sampled run's verdict.
    return {**exact, **sampled}


def _isolated(gf, row, config):
    decl = gf.single(row.get("germ"))
    rep = RegularityReport(germ_name=decl.germ.label())
    finding = isolated_singularity_probe(decl.germ, report=rep)
    analyses._declare_and_derive(rep, row.get("declare", ()))
    return {"found": finding.isolated, "report": rep.to_json_dict()}


def _empty_interior(gf, row, config):
    first = gf.decls[0]
    germ = realify_mixed([d.poly for d in gf.decls],
                         name=row.get("name", first.name))
    rep = RegularityReport(germ_name=germ.label())
    verdict = empty_interior_criterion(
        germ, first.sets[row["fiber_set"]], first.sets[row["milnor_set"]],
        report=rep)
    return {"fires": verdict.fires,
            "checked": list(verdict.checked_components),
            "report": rep.to_json_dict()}


_ANALYSES = {
    **analyses.COMMANDS,
    "milnor": _milnor,
    "witness": _witness,
    "product": _product,
    "hwc-mixed": _hwc_mixed,
    "compose-probe": _compose_probe,
    "isolated": _isolated,
    "empty-interior": _empty_interior,
}


def run_entry(entry_id: str, row: dict, config: RunConfig) -> EntryOutcome:
    try:
        runner = _ANALYSES[row["analysis"]]
        path = DATA_DIR / row["file"]
        wanted = row["checks"]
    except KeyError as exc:
        return EntryOutcome(
            entry_id, "error", (),
            detail=f"corrupted expectation entry {entry_id!r}: missing {exc}")
    try:
        actual = runner(parse_path(path), row, config)
    except Exception as exc:
        return EntryOutcome(
            entry_id, "error", (),
            detail=f"entry {entry_id!r} failed to run: "
                   f"{type(exc).__name__}: {exc}")
    checks = []
    for chk in wanted:
        name = chk.get("name")
        if name is None or "want" not in chk:
            return EntryOutcome(
                entry_id, "error", (),
                detail=f"corrupted expectation entry {entry_id!r}: "
                       "check rows need name and want")
        got = check_value(actual, name)
        checks.append(CheckOutcome(
            name=name, passed=got == chk["want"],
            want=chk["want"], got=got,
            provenance=chk.get("provenance", "derived"),
            anchor=chk.get("anchor")))
    status = "ok" if all(c.passed for c in checks) else "mismatch"
    return EntryOutcome(entry_id, status, tuple(checks))


def run_corpus(filter_substr: str = "",
               config: RunConfig | None = None,
               manifest: dict | None = None) -> list[EntryOutcome]:
    config = config or RunConfig()
    manifest = manifest or load_manifest()
    return sorted((run_entry(k, v, config)
                   for k, v in manifest["entries"].items()
                   if filter_substr in k),
                  key=lambda r: r.entry)


def corpus_report(results: list[EntryOutcome], seed: int) -> dict:
    return {
        "schema_version": 1,
        "seed": seed,
        "total": len(results),
        "passed": sum(1 for r in results if r.passed),
        "results": [
            {
                "entry": r.entry,
                "status": r.status,
                **({"detail": r.detail} if r.detail else {}),
                "checks": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "want": c.want,
                        "got": c.got,
                        "provenance": c.provenance,
                        **({"anchor": c.anchor} if c.anchor else {}),
                    }
                    for c in r.checks
                ],
            }
            for r in results
        ],
    }
