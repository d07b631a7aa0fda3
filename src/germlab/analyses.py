"""One function per CLI analysis, shared by the CLI and the corpus runner.

Each function in `COMMANDS`, keyed by its subcommand name, takes the
parsed germ file (None for `construct-mixed-algo`, which reads none),
the request under the CLI's option names (`germ`, `set`, `claim`,
`declare_inner`, ...; absent ones read as None) and the sampling config;
it picks its own declarations and returns the plain-JSON dict the
subcommand prints, without `schema_version`.  The CLI passes its
parsed arguments and the corpus a manifest row, so a green corpus vouches
for the CLI.  A request the inputs cannot serve, or an option the chosen
mode would drop, raises `GermlabUsage` with the text the CLI shows;
failed analysis preconditions raise `GermlabRejection`.
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
from germlab.dsl import GermlabUsage, parse_mixed_expr, pick
from germlab.germs import milnor_data, realify_mixed
from germlab.hwc import (
    certify_frame,
    hwc_check,
    hwc_check_mixed,
    mixed_algorithm_build,
    product_pair,
    separable_sum,
    separable_sum_report,
)
from germlab.poly import MAX_ARITY, VarContext
from germlab.sampling import MIN_RATIONAL_RADIUS
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


SAMPLING = ("seed", "samples", "radius")


def _refuse(opts, names, where: str) -> None:
    """A usage error for the first option in names given in opts."""
    given = [name for name in names if opts.get(name) is not None]
    if given:
        raise GermlabUsage(f"--{given[0].replace('_', '-')} has no effect with {where}")


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


def parse(gf, opts, config=None) -> dict:
    """`germlab parse`: every declaration, or the one named by --germ."""
    decls = [gf.single(opts["germ"])] if opts.get("germ") else gf.decls
    return {"command": "parse", "file": str(opts["file"]),
            "germs": [parse_row(d) for d in decls]}


def milnor(gf, opts, config=None) -> dict:
    """`germlab milnor`: the Milnor set polynomial and its routes."""
    data = milnor_data(gf.single(opts.get("germ")).germ)
    return {"command": "milnor", **data.to_json_dict()}


def sing(gf, opts, config=None) -> dict:
    """`germlab sing`: the maximal Jacobian minors cutting out Sing G."""
    germ = gf.single(opts.get("germ")).germ
    minors = germ.singular_minors()
    empty = any(m.is_constant() and m.constant_value() != 0 for m in minors)
    return {"command": "sing", "germ": germ.label(),
            "variables": list(germ.ctx.names),
            "minors": [m.text() for m in minors],
            "singular_set_empty": empty}


def hwc(gf, opts, config=None) -> dict:
    """`germlab hwc`: the exact frame check; mixed germs run both routes."""
    decl = gf.single(opts.get("germ"))
    if decl.kind == "map":
        res = hwc_check(decl.germ)
        return {"command": "hwc", "germ": decl.germ.label(),
                "holds": res.holds, "conformal_factor": _factor(res),
                "residuals": res.residual_texts(),
                **_certificate(certify_frame(decl.germ, res))}
    res = hwc_check_mixed(decl.poly)
    real_res = hwc_check(decl.realified)
    return {"command": "hwc", "germ": decl.name, "mixed": True,
            "holds": res.holds, "pairing": res.pairing.text(),
            "conformal_factor": _factor(real_res) if res.holds else None,
            "residuals": res.residual_texts(),
            "routes_agree": res.holds == real_res.holds}


def certify(gf, opts, config=None) -> dict:
    """`germlab certify`: the frame certificate plus declared facts, closed."""
    germ = gf.single(opts.get("germ")).germ
    res = hwc_check(germ)
    rep = certify_frame(germ, res)
    _declare_and_derive(rep, opts.get("declare") or ())
    return {"command": "certify", "germ": germ.label(), "hwc": res.holds,
            **_certificate(rep)}


def construct_sum(gf, opts, config=None) -> dict:
    """`germlab construct sum` of --left and --right, or of a two-germ file."""
    thom = bool(opts.get("declare_thom_summands"))
    codim = bool(opts.get("declare_codim_matches"))
    if thom != codim:
        # The separable-thom transfer reads the two declarations together.
        flags = ("--declare-thom-summands", "--declare-codim-matches")
        given, missing = flags if thom else flags[::-1]
        raise GermlabUsage(f"{given} has no effect without {missing}")
    names = opts.get("left"), opts.get("right")
    if any(names):
        if not all(names):
            raise GermlabUsage("construct sum needs both --left and --right")
        left, right = map(gf.single, names)
    elif len(gf.decls) == 2:
        left, right = gf.decls
    else:
        raise GermlabUsage(
            "construct sum needs a two-germ file or --left/--right names")
    out, frame = separable_sum(left.germ, right.germ)
    rep = separable_sum_report(out, frame, declared_thom=thom)
    return {"command": "construct-sum", "left": left.name,
            "right": right.name, "germ": out.label(),
            "components": [c.text() for c in out.components],
            "holds": frame.holds, "conformal_factor": _factor(frame),
            "report": rep.to_json_dict()}


def construct_product(gf, opts, config=None) -> dict:
    """`germlab construct product` of a four-component declaration."""
    decl = gf.single(opts.get("germ"))
    out, frame = product_pair(decl.germ)
    return {"command": "construct-product", "germ": decl.name,
            "components": [c.text() for c in out.components],
            "holds": frame.holds, "conformal_factor": _factor(frame)}


# As for `mixed ... : C^n` in the DSL: the realified context has 2n variables.
MAX_MIXED_VARS = MAX_ARITY // 2


def _split_names(raw: str) -> list[str]:
    return [n.strip() for n in raw.split(",") if n.strip()]


def construct_mixed_algo(gf, opts, config=None) -> dict:
    """`germlab construct mixed-algo` of the option blocks; gf is unused."""
    names = _split_names(opts["vars"])
    left = _split_names(opts["left"])
    if not names:
        raise GermlabUsage("--vars needs at least one name")
    if len(names) > MAX_MIXED_VARS:
        raise GermlabUsage(f"--vars takes at most {MAX_MIXED_VARS} names, "
                           f"got {len(names)}")
    if "i" in names:
        raise GermlabUsage("--vars cannot name 'i', the imaginary unit")
    if "conj" in names:
        raise GermlabUsage("--vars cannot name 'conj', the conjugation conj(...)")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise GermlabUsage(f"--vars repeats {', '.join(repeated)}")
    missing = [n for n in left if n not in names]
    if missing:
        raise GermlabUsage(f"--left names {', '.join(missing)} not in --vars")
    ctx = VarContext(names)
    blocks = {key: [parse_mixed_expr(src, ctx) for src in opts.get(key) or []]
              for key in ("f", "g", "r", "h")}
    poly, frame = mixed_algorithm_build(
        left, blocks["f"], blocks["g"], blocks["r"], blocks["h"], ctx)
    # The mixed verdict is the pairing's; the factor is the realified germ's.
    factor = (_factor(hwc_check(realify_mixed([poly]))) if frame.holds
              else None)
    return {"command": "construct-mixed-algo", "variables": names,
            "left": left, "poly": poly.text(), "holds": frame.holds,
            "conformal_factor": factor}


def witness(gf, opts, config=None) -> dict:
    """`germlab witness`: every declared witness block, or the named one."""
    decl = gf.single(opts.get("germ"))
    if decl.kind != "map":
        raise GermlabUsage("witness blocks only exist on map germs")
    name = opts.get("witness")
    specs = ({name: pick(decl.witnesses, name, "witness")} if name
             else decl.witnesses)
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


def probe_b(gf, opts, config=None) -> dict:
    """`germlab probe-b`: an exact declared family, or a sampled probe."""
    decl = gf.single(opts.get("germ"))
    germ = decl.germ
    rep = RegularityReport(germ_name=germ.label())
    witness_name, set_name = opts.get("witness"), opts.get("set")
    if witness_name:
        _refuse(opts, ("set", *SAMPLING), "--witness")
        spec = pick(getattr(decl, "witnesses", {}), witness_name, "witness")
        finding = condition_b_family_check(germ, spec.gamma, report=rep)
        out = {"mode": "family", "family": finding.family}
    elif set_name:
        finding = condition_b_sampled_probe(
            germ, pick(decl.sets, set_name, "set"), config)
        out = {"mode": "sampled", "samples": finding.samples}
    else:
        raise GermlabUsage("probe-b needs --witness NAME or --set NAME")
    _declare_and_derive(rep, opts.get("declare") or ())
    return {**out, "command": "probe-b", "germ": germ.label(),
            "violates": finding.violates, "detail": finding.detail,
            **_certificate(rep)}


def compose_check(gf, opts, config=None) -> dict:
    """`germlab compose-check` of outer o inner: exact, inclusion or sampled.

    config seeds the sampled probe and the exact mode's closure separation.
    """
    mode = opts["mode"]
    inner, outer = gf.single(opts["inner"]), gf.single(opts["outer"])
    head = {"command": "compose-check", "mode": mode,
            "inner": inner.name, "outer": outer.name}
    if mode == "sampled":
        # The probe draws a fixed number of seeds, so --samples sizes nothing.
        _refuse(opts, ("claim", "set", "declare_inner", "declare_outer",
                       "samples"), "--mode sampled")
        finding = composition_sampled_probe(outer.germ, inner.germ, config)
        return {**head, "suspicious": finding.suspicious,
                "detail": finding.detail, "record": finding.record,
                "samples": finding.samples, "seed": config.seed}
    if mode == "inclusion":
        _refuse(opts, ("claim", *SAMPLING), "--mode inclusion")
    elif not opts.get("claim"):
        # In exact mode only the closure separation of --claim samples.
        _refuse(opts, SAMPLING, "--mode exact without --claim")
    elif config.radius < MIN_RATIONAL_RADIUS:
        raise GermlabUsage(
            f"--radius {config.radius} is below 1/64: every rational point "
            "the closure separation draws would be the origin")
    set_name = opts.get("set")
    if not set_name or set_name not in inner.sets:
        known = ", ".join(sorted(inner.sets)) or "none"
        raise GermlabUsage(
            f"compose-check {mode} needs --set naming a component "
            f"set on the inner germ (file has: {known})")
    comps = inner.sets[set_name]
    declared = {"declared_inner": set(opts.get("declare_inner") or ()),
                "declared_outer": set(opts.get("declare_outer") or ())}
    if mode == "inclusion":
        chk = image_in_milnor_check(outer.germ, inner.germ, comps)
        rep = inclusion_report(outer.germ, inner.germ, chk, **declared)
        body = {"verified": list(chk.verified), "failed": list(chk.failed),
                "no_data": chk.no_data}
    else:
        claim = opts.get("claim")
        poly = (pick(outer.polys, claim, "assert_poly", " on the outer germ")
                if claim else None)
        chk = composition_milnor_check(outer.germ, inner.germ, comps,
                                       closure_claim=poly, config=config)
        rep = composition_report(outer.germ, inner.germ, chk, **declared)
        body = {"components": [dataclasses.asdict(f) for f in chk.components],
                "violation": chk.violation, "flagged": list(chk.flagged),
                "closure_meets_sing_g_only_at_0":
                    chk.closure_meets_sing_g_only_at_0,
                "detail": chk.detail}
        if claim:
            body["seed"] = config.seed
    return {**head, **body, **_certificate(rep)}


# Every analysis subcommand, by its name on the CLI.
COMMANDS = {"parse": parse, "milnor": milnor, "sing": sing, "hwc": hwc,
            "certify": certify, "construct-sum": construct_sum,
            "construct-product": construct_product,
            "construct-mixed-algo": construct_mixed_algo, "witness": witness,
            "probe-b": probe_b, "compose-check": compose_check}
