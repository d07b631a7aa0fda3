"""One function per CLI analysis, shared by the CLI and the corpus runner.

Each function takes resolved declarations (see `germlab.dsl`) and plain
options, and returns the JSON-ready dict that the matching `germlab`
subcommand prints, without `schema_version`.  A request the inputs
cannot serve raises `GermlabUsage` with the text the CLI shows; failed
analysis preconditions raise `GermlabRejection`.  The corpus reads its
checks out of these same dicts, so a green corpus vouches for the CLI.
"""
from __future__ import annotations

import dataclasses

from germlab.certify import RegularityReport
from germlab.compose import (
    composition_milnor_check,
    composition_report,
    composition_sampled_probe,
    image_in_milnor_check,
    inclusion_report,
)
from germlab.dsl import GermlabUsage
from germlab.germs import MilnorData, milnor_data
from germlab.hwc import (
    certify_frame,
    hwc_check,
    hwc_check_mixed,
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


def _factor(frame) -> str | None:
    return frame.conformal_factor.text() if frame.conformal_factor else None


def _certificate(rep: RegularityReport) -> dict:
    return {"report": rep.to_json_dict(), "replay_sound": rep.replay_sound()}


def _declare_and_derive(rep: RegularityReport, facts) -> None:
    for fact in facts:
        rep.declare(fact, "declared on the command line")
    rep.derive()


def parse_row(decl) -> dict:
    """One declaration as `germlab parse` lists it."""
    row = {"name": decl.name, "kind": decl.kind,
           "variables": list(decl.ctx.names),
           "canonical": decl.canonical_text()}
    if decl.kind == "map":
        row["components"] = {cn: c.text() for cn, c in
                             zip(decl.component_names, decl.germ.components)}
        row["sets"] = {n: len(ps) for n, ps in sorted(decl.sets.items())}
        row["witnesses"] = sorted(decl.witnesses)
    else:
        row["poly"] = decl.poly.text()
        row["realified"] = [c.text() for c in decl.realified.components]
    return row


def milnor(decl, data: MilnorData | None = None) -> dict:
    """`germlab milnor`; pass `data` when milnor_data(decl.germ) is at hand."""
    if data is None:
        data = milnor_data(decl.germ)
    return {"command": "milnor", **data.to_json_dict()}


def sing(decl) -> dict:
    """`germlab sing`: the maximal Jacobian minors cutting out Sing G."""
    germ = decl.germ
    minors = germ.singular_minors()
    empty = any(m.is_constant() and m.constant_value() != 0 for m in minors)
    return {"command": "sing", "germ": germ.label(),
            "variables": list(germ.ctx.names),
            "minors": [m.text() for m in minors],
            "singular_set_empty": empty}


def hwc(decl) -> dict:
    """`germlab hwc`: the exact frame check; mixed germs run both routes."""
    if decl.kind == "map":
        res = hwc_check(decl.germ)
        return {"command": "hwc", "germ": decl.germ.label(),
                "holds": res.holds, "conformal_factor": _factor(res),
                "residuals": res.residual_texts(),
                **_certificate(certify_frame(decl.germ, res))}
    res = hwc_check_mixed(decl.poly)
    real_res = hwc_check(decl.realified)
    return {"command": "hwc", "germ": decl.name, "mixed": True,
            "holds": res.holds, "pairing": mixed_pairing_text(decl.poly),
            "conformal_factor": _factor(res),
            "residuals": res.residual_texts(),
            "routes_agree": res.holds == real_res.holds}


def certify(decl, declared=()) -> dict:
    """`germlab certify`: the frame certificate plus declared facts, closed."""
    germ = decl.germ
    res = hwc_check(germ)
    rep = certify_frame(germ, res)
    _declare_and_derive(rep, declared)
    return {"command": "certify", "germ": germ.label(), "hwc": res.holds,
            **_certificate(rep)}


def construct_sum(left, right, declare_thom_summands: bool = False,
                  declare_codim_matches: bool = False) -> dict:
    """`germlab construct sum` of two map declarations."""
    out, frame = separable_sum(left.germ, right.germ)
    rep = separable_sum_report(
        out, frame, declared_thom_summands=declare_thom_summands,
        declared_codim_matches=declare_codim_matches)
    return {"command": "construct-sum", "left": left.name,
            "right": right.name, "germ": out.label(),
            "components": [c.text() for c in out.components],
            "holds": frame.holds, "conformal_factor": _factor(frame),
            "report": rep.to_json_dict()}


def construct_product(decl) -> dict:
    """`germlab construct product` of a four-component declaration."""
    out, frame = product_pair(decl.germ)
    return {"command": "construct-product", "germ": decl.name,
            "components": [c.text() for c in out.components],
            "holds": frame.holds, "conformal_factor": _factor(frame)}


def witness(decl, name: str | None = None) -> dict:
    """`germlab witness`: every declared witness block, or the named one."""
    if decl.kind != "map":
        raise GermlabUsage("witness blocks only exist on map germs")
    if name:
        if name not in decl.witnesses:
            known = ", ".join(sorted(decl.witnesses)) or "none"
            raise GermlabUsage(
                f"no witness named {name!r} (file has: {known})")
        specs = {name: decl.witnesses[name]}
    else:
        specs = decl.witnesses
    if not specs:
        raise GermlabUsage(f"germ {decl.name!r} declares no witness blocks")
    results = {}
    for key, spec in sorted(specs.items()):
        outcome = thom_irregularity_witness(decl.germ, spec)
        rep = witness_report(decl.germ, spec, outcome)
        results[key] = {
            "is_witness": outcome.is_witness,
            "direction":
                outcome.direction.text() if outcome.direction else None,
            "detail": outcome.detail,
            "report": rep.to_json_dict(),
        }
    return {"command": "witness", "germ": decl.germ.label(),
            "results": results}


def probe_b(decl, witness_name: str | None = None,
            set_name: str | None = None, declared=(),
            config: RunConfig | None = None) -> dict:
    """`germlab probe-b`: an exact declared family, or a sampled probe."""
    germ = decl.germ
    rep = RegularityReport(germ_name=germ.label())
    if witness_name:
        if decl.kind != "map" or witness_name not in decl.witnesses:
            raise GermlabUsage(f"no witness named {witness_name!r}")
        spec = decl.witnesses[witness_name]
        finding = condition_b_family_check(germ, spec.gamma, report=rep)
        out = {"mode": "family", "family": finding.family}
    elif set_name:
        if set_name not in decl.sets:
            known = ", ".join(sorted(decl.sets)) or "none"
            raise GermlabUsage(
                f"no set named {set_name!r} (file has: {known})")
        finding = condition_b_sampled_probe(germ, decl.sets[set_name], config)
        out = {"mode": "sampled", "samples": finding.samples}
    else:
        raise GermlabUsage("probe-b needs --witness NAME or --set NAME")
    _declare_and_derive(rep, declared)
    return {**out, "command": "probe-b", "germ": germ.label(),
            "violates": finding.violates, "detail": finding.detail,
            **_certificate(rep)}


def compose_check(inner, outer, mode: str = "exact",
                  set_name: str | None = None, claim: str | None = None,
                  declare_inner=(), declare_outer=(),
                  config: RunConfig | None = None) -> dict:
    """`germlab compose-check` of outer o inner: exact, inclusion or sampled.

    config seeds the sampled probe and the exact mode's closure separation.
    """
    config = config or RunConfig()
    head = {"command": "compose-check", "mode": mode,
            "inner": inner.name, "outer": outer.name}
    if mode == "sampled":
        finding = composition_sampled_probe(outer.germ, inner.germ, config)
        return {**head, "suspicious": finding.suspicious,
                "detail": finding.detail, "record": finding.record,
                "samples": finding.samples, "seed": config.seed}
    if not set_name or set_name not in inner.sets:
        known = ", ".join(sorted(inner.sets)) or "none"
        raise GermlabUsage(
            f"compose-check {mode} needs --set naming a component "
            f"set on the inner germ (file has: {known})")
    comps = inner.sets[set_name]
    declared = {"declared_inner": set(declare_inner),
                "declared_outer": set(declare_outer)}
    if mode == "inclusion":
        chk = image_in_milnor_check(outer.germ, inner.germ, comps)
        rep = inclusion_report(outer.germ, inner.germ, chk, **declared)
        body = {"verified": list(chk.verified), "failed": list(chk.failed),
                "no_data": chk.no_data}
    else:
        poly = None
        if claim:
            if claim not in outer.polys:
                known = ", ".join(sorted(outer.polys)) or "none"
                raise GermlabUsage(
                    f"no assert_poly named {claim!r} on the outer germ "
                    f"(file has: {known})")
            poly = outer.polys[claim]
        chk = composition_milnor_check(outer.germ, inner.germ, comps,
                                       closure_claim=poly, config=config)
        rep = composition_report(outer.germ, inner.germ, chk, **declared)
        body = {"components": [dataclasses.asdict(f) for f in chk.components],
                "violation": chk.violation, "flagged": list(chk.flagged),
                "closure_meets_sing_g_only_at_0":
                    chk.closure_meets_sing_g_only_at_0,
                "detail": chk.detail}
    return {**head, **body, **_certificate(rep)}
