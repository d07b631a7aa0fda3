"""Worked-example corpus: germ files with frozen expected outputs.

Each entry in expectations.json names a .germ file, the analysis to run
on it, and a list of checks comparing computed values to frozen ones.
Every check carries a provenance tag (literature, derived, trivial);
literature rows restate a published worked example and point at it
through an anchor string.

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

from germlab.certify import RegularityReport
from germlab.compose import (
    composition_milnor_check,
    composition_report,
    composition_sampled_probe,
    image_in_milnor_check,
    inclusion_report,
)
from germlab.dsl import parse_path
from germlab.germs import GermlabRejection, milnor_data, realify_mixed
from germlab.hwc import (
    certify_frame,
    empty_interior_criterion,
    hwc_check,
    hwc_check_mixed,
    isolated_singularity_probe,
    mixed_pairing_text,
    product_pair,
    separable_sum,
    separable_sum_report,
)
from germlab.sampling import RunConfig
from germlab.witness import (
    condition_b_family_check,
    condition_b_sampled_probe,
    thom_irregularity_witness,
    witness_report,
)

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


def _facts(report: RegularityReport) -> list[str]:
    return sorted(report.facts)


def _declare_all(report: RegularityReport, facts, reason: str) -> None:
    for f in facts or ():
        report.declare(f, reason)
    report.derive()


def _run_milnor(gf, row, config):
    decl = gf.single(row.get("germ"))
    md = milnor_data(decl.germ)
    out = {"milnor_poly": md.milnor_poly.text()}
    if md.square_det is not None:
        out["square_det"] = md.square_det.text()
        out["gram_is_square"] = md.milnor_poly == md.square_det * md.square_det
    return out


def _run_hwc(gf, row, config):
    decl = gf.single(row.get("germ"))
    res = hwc_check(decl.germ)
    rep = certify_frame(decl.germ, res)
    return {
        "holds": res.holds,
        "conformal_factor":
            res.conformal_factor.text() if res.conformal_factor else None,
        "facts": _facts(rep),
        "residuals": res.residual_texts(),
    }


def _run_product(gf, row, config):
    decl = gf.single(row.get("germ"))
    try:
        out, frame = product_pair(decl.germ)
    except GermlabRejection as exc:
        return {
            "holds": False,
            "reason": exc.reason,
            "residuals": exc.details.get("residuals", {}),
        }
    return {
        "holds": frame.holds,
        "components": [c.text() for c in out.components],
        "conformal_factor":
            frame.conformal_factor.text() if frame.conformal_factor else None,
    }


def _run_witness(gf, row, config):
    decl = gf.single(row.get("germ"))
    spec = decl.witnesses[row["witness"]]
    outcome = thom_irregularity_witness(decl.germ, spec)
    rep = witness_report(decl.germ, spec, outcome)
    return {
        "is_witness": outcome.is_witness,
        "direction": outcome.direction.text() if outcome.direction else None,
        "facts": _facts(rep),
        "residuals": dict(rep.residuals),
    }


def _run_family(gf, row, config):
    decl = gf.single(row.get("germ"))
    spec = decl.witnesses[row["witness"]]
    rep = RegularityReport(germ_name=decl.germ.label())
    finding = condition_b_family_check(decl.germ, spec.gamma, report=rep)
    return {
        "violates": finding.violates,
        "limit": rep.residuals.get("family_limit"),
        "facts": _facts(rep),
    }


def _run_probe_b(gf, row, config):
    decl = gf.single(row.get("germ"))
    fibers = decl.sets[row["set"]]
    finding = condition_b_sampled_probe(decl.germ, fibers, config)
    rep = RegularityReport(germ_name=decl.germ.label())
    _declare_all(rep, row.get("declare"), "corpus entry declaration")
    return {
        "violates": finding.violates,
        "facts": _facts(rep),
        "declared": sorted(rep.declared),
    }


def _run_isolated(gf, row, config):
    decl = gf.single(row.get("germ"))
    rep = RegularityReport(germ_name=decl.germ.label())
    finding = isolated_singularity_probe(decl.germ, report=rep)
    _declare_all(rep, row.get("declare"), "corpus entry declaration")
    return {
        "found": finding.isolated,
        "facts": _facts(rep),
        "declared": sorted(rep.declared),
    }


def _compose_decls(gf, row):
    inner = gf.single(row["inner"])
    outer = gf.single(row["outer"])
    comps = inner.sets[row["set"]]
    return inner, outer, comps


def _run_compose_closure(gf, row, config):
    inner, outer, comps = _compose_decls(gf, row)
    claim = outer.polys[row["claim"]] if row.get("claim") else None
    chk = composition_milnor_check(outer.germ, inner.germ, comps,
                                   closure_claim=claim)
    rep = composition_report(outer.germ, inner.germ, chk,
                             declared_inner=set(row.get("declare_inner", ())),
                             declared_outer=set(row.get("declare_outer", ())))
    rule = rep.provenance.get("condition_b", {}).get("rule")
    return {
        "violation": chk.violation,
        "flagged": list(chk.flagged),
        "separated": chk.closure_meets_sing_g_only_at_0,
        "facts": _facts(rep),
        "rule": rule,
    }


def _run_compose_inclusion(gf, row, config):
    inner, outer, comps = _compose_decls(gf, row)
    chk = image_in_milnor_check(outer.germ, inner.germ, comps)
    rep = inclusion_report(outer.germ, inner.germ, chk,
                           declared_inner=set(row.get("declare_inner", ())),
                           declared_outer=set(row.get("declare_outer", ())))
    rule = rep.provenance.get("condition_b", {}).get("rule")
    return {
        "verified": list(chk.verified),
        "failed": list(chk.failed),
        "facts": _facts(rep),
        "rule": rule,
    }


def _run_compose_probe(gf, row, config):
    inner, outer, comps = _compose_decls(gf, row)
    chk = composition_milnor_check(outer.germ, inner.germ, comps)
    rep = composition_report(outer.germ, inner.germ, chk)
    probe_config = config
    if "radius" in row:
        probe_config = dataclasses.replace(config, radius=row["radius"])
    finding = composition_sampled_probe(outer.germ, inner.germ, probe_config)
    return {
        "flagged": list(chk.flagged),
        "exact_facts": _facts(rep),
        "suspicious": finding.suspicious,
    }


def _run_hwc_mixed(gf, row, config):
    out = {}
    for decl in gf.decls:
        res = hwc_check_mixed(decl.poly)
        real_res = hwc_check(decl.realified)
        out[f"{decl.name}.holds"] = res.holds
        out[f"{decl.name}.routes_agree"] = res.holds == real_res.holds
        out[f"{decl.name}.pairing"] = mixed_pairing_text(decl.poly)
        out[f"{decl.name}.conformal_factor"] = (
            res.conformal_factor.text() if res.conformal_factor else None)
        out[f"{decl.name}.realified"] = [
            c.text() for c in decl.realified.components]
    return out


def _run_empty_interior(gf, row, config):
    first = gf.decls[0]
    germ = realify_mixed([d.poly for d in gf.decls],
                         name=row.get("name", first.name))
    rep = RegularityReport(germ_name=germ.label())
    verdict = empty_interior_criterion(
        germ, first.sets[row["fiber_set"]], first.sets[row["milnor_set"]],
        report=rep)
    return {
        "fires": verdict.fires,
        "checked": list(verdict.checked_components),
        "facts": _facts(rep),
    }


def _run_sum(gf, row, config):
    left = gf.single(row["left"])
    right = gf.single(row["right"])
    out, frame = separable_sum(left.germ, right.germ)
    rep = separable_sum_report(left.germ, right.germ, out, frame)
    return {
        "holds": frame.holds,
        "components": [c.text() for c in out.components],
        "conformal_factor":
            frame.conformal_factor.text() if frame.conformal_factor else None,
        "facts": _facts(rep),
    }


_ANALYSES = {
    "milnor": _run_milnor,
    "hwc": _run_hwc,
    "product": _run_product,
    "witness": _run_witness,
    "family": _run_family,
    "probe-b": _run_probe_b,
    "isolated": _run_isolated,
    "compose-closure": _run_compose_closure,
    "compose-inclusion": _run_compose_inclusion,
    "compose-probe": _run_compose_probe,
    "hwc-mixed": _run_hwc_mixed,
    "empty-interior": _run_empty_interior,
    "sum": _run_sum,
}


def run_entry(entry_id: str, row: dict, config: RunConfig) -> EntryOutcome:
    try:
        analysis = row["analysis"]
        runner = _ANALYSES[analysis]
        gf = parse_path(DATA_DIR / row["file"])
        actual = runner(gf, row, config)
        wanted = row["checks"]
    except KeyError as exc:
        return EntryOutcome(
            entry_id, "error", (),
            detail=f"corrupted expectation entry {entry_id!r}: missing {exc}")
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
        got = actual.get(name, "<missing>")
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
