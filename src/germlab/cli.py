"""Command line front end.

Subcommands parse germ files, run one analysis each, and print a JSON
report to stdout.  With --json PATH the report goes to the file instead
and stdout gets a one-line summary; `corpus run` always prints its
pass/fail table and writes JSON only on request.

Exit codes: 0 success, 1 analysis rejection (structured reason in the
JSON error document), 2 usage error (bad flags, unreadable file,
malformed DSL).  Reports carry no timestamps, so identical invocations
produce byte-identical output; sampled modes embed their seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from germlab.certify import ContradictionError, RegularityReport
from germlab.compose import (
    composition_milnor_check,
    composition_report,
    composition_sampled_probe,
    image_in_milnor_check,
    inclusion_report,
)
from germlab.corpus import corpus_report, run_corpus
from germlab.dsl import (
    GermlabUsage,
    GermParseError,
    parse_mixed_expr,
    parse_path,
)
from germlab.germs import GermlabRejection, milnor_data
from germlab.hwc import (
    certify_frame,
    hwc_check,
    hwc_check_mixed,
    mixed_algorithm_build,
    mixed_pairing_text,
    product_pair,
    separable_sum,
    separable_sum_report,
)
from germlab.poly import VarContext
from germlab.sampling import RunConfig
from germlab.witness import (
    condition_b_family_check,
    condition_b_sampled_probe,
    thom_irregularity_witness,
    witness_report,
)

SCHEMA_VERSION = 1


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _config(args) -> RunConfig:
    kw = {}
    for name in ("seed", "samples", "radius"):
        v = getattr(args, name, None)
        if v is not None:
            kw[name] = v
    return RunConfig(**kw)


def _emit(payload: dict, args, summary: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    doc = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    path = getattr(args, "json_path", None)
    if path:
        Path(path).write_text(doc)
        print(summary)
    else:
        sys.stdout.write(doc)


def _decl(args):
    gf = parse_path(args.file)
    return gf.single(getattr(args, "germ", None))


def cmd_parse(args) -> int:
    gf = parse_path(args.file)
    decls = [gf.single(args.germ)] if args.germ else list(gf.decls)
    out = []
    for d in decls:
        row = {"name": d.name, "kind": d.kind,
               "variables": list(d.ctx.names),
               "canonical": d.canonical_text()}
        if d.kind == "map":
            row["components"] = {cn: c.text() for cn, c in
                                 zip(d.component_names, d.germ.components)}
            row["sets"] = {n: len(ps) for n, ps in sorted(d.sets.items())}
            row["witnesses"] = sorted(d.witnesses)
        else:
            row["poly"] = d.poly.text()
            row["realified"] = [c.text() for c in d.realified.components]
        out.append(row)
    _emit({"command": "parse", "file": str(args.file), "germs": out},
          args, f"parsed {len(out)} germ(s) from {args.file}")
    return 0


def cmd_milnor(args) -> int:
    decl = _decl(args)
    md = milnor_data(decl.germ)
    _emit({"command": "milnor", **md.to_json_dict()},
          args, f"milnor_poly({decl.name}) = {md.milnor_poly.text()}")
    return 0


def cmd_sing(args) -> int:
    decl = _decl(args)
    germ = decl.germ
    minors = germ.singular_minors()
    empty = any(m.is_constant() and m.constant_value() != 0 for m in minors)
    _emit({"command": "sing", "germ": germ.label(),
           "variables": list(germ.ctx.names),
           "minors": [m.text() for m in minors],
           "singular_set_empty": empty},
          args, f"{len(minors)} maximal minor(s) for {decl.name}")
    return 0


def cmd_hwc(args) -> int:
    decl = _decl(args)
    if decl.kind == "map":
        res = hwc_check(decl.germ)
        rep = certify_frame(decl.germ, res)
        payload = {
            "command": "hwc", "germ": decl.germ.label(),
            "holds": res.holds,
            "conformal_factor":
                res.conformal_factor.text() if res.conformal_factor else None,
            "residuals": res.residual_texts(),
            "report": rep.to_json_dict(),
            "replay_sound": rep.replay_sound(),
        }
    else:
        res = hwc_check_mixed(decl.poly)
        real_res = hwc_check(decl.realified)
        payload = {
            "command": "hwc", "germ": decl.name, "mixed": True,
            "holds": res.holds,
            "pairing": mixed_pairing_text(decl.poly),
            "conformal_factor":
                res.conformal_factor.text() if res.conformal_factor else None,
            "residuals": res.residual_texts(),
            "routes_agree": res.holds == real_res.holds,
        }
    verdict = "holds" if payload["holds"] else "fails"
    _emit(payload, args, f"hwc {verdict} for {decl.name}")
    return 0


def cmd_construct_sum(args) -> int:
    gf = parse_path(args.file)
    if args.left or args.right:
        if not (args.left and args.right):
            raise GermlabUsage("construct sum needs both --left and --right")
        left, right = gf.single(args.left), gf.single(args.right)
    elif len(gf.decls) == 2:
        left, right = gf.decls
    else:
        raise GermlabUsage(
            "construct sum needs a two-germ file or --left/--right names")
    out, frame = separable_sum(left.germ, right.germ)
    rep = separable_sum_report(
        left.germ, right.germ, out, frame,
        declared_thom_summands=args.declare_thom_summands,
        declared_codim_matches=args.declare_codim_matches)
    _emit({"command": "construct-sum", "left": left.name, "right": right.name,
           "germ": out.label(),
           "components": [c.text() for c in out.components],
           "holds": frame.holds,
           "conformal_factor":
               frame.conformal_factor.text() if frame.conformal_factor else None,
           "report": rep.to_json_dict()},
          args, f"sum {out.label()}: hwc {'holds' if frame.holds else 'fails'}")
    return 0


def cmd_construct_product(args) -> int:
    decl = _decl(args)
    out, frame = product_pair(decl.germ)
    _emit({"command": "construct-product", "germ": decl.name,
           "components": [c.text() for c in out.components],
           "holds": frame.holds,
           "conformal_factor":
               frame.conformal_factor.text() if frame.conformal_factor else None},
          args, f"product pair from {decl.name}: "
                f"hwc {'holds' if frame.holds else 'fails'}")
    return 0


def _split_names(raw: str) -> list[str]:
    return [n.strip() for n in raw.split(",") if n.strip()]


def cmd_construct_mixed_algo(args) -> int:
    names = _split_names(args.vars)
    left = _split_names(args.left)
    if not names:
        raise GermlabUsage("--vars needs at least one name")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise GermlabUsage(f"--vars repeats {', '.join(repeated)}")
    missing = [n for n in left if n not in names]
    if missing:
        raise GermlabUsage(f"--left names {', '.join(missing)} not in --vars")
    ctx = VarContext(names)
    blocks = {
        key: [parse_mixed_expr(src, ctx) for src in getattr(args, key) or []]
        for key in ("f", "g", "r", "h")
    }
    poly, frame = mixed_algorithm_build(
        len(names), left, blocks["f"], blocks["g"], blocks["r"], blocks["h"],
        ctx)
    _emit({"command": "construct-mixed-algo",
           "variables": names, "left": left,
           "poly": poly.text(), "holds": frame.holds,
           "conformal_factor":
               frame.conformal_factor.text() if frame.conformal_factor else None},
          args, f"mixed build: hwc {'holds' if frame.holds else 'fails'}")
    return 0


def cmd_witness(args) -> int:
    decl = _decl(args)
    if decl.kind != "map":
        raise GermlabUsage("witness blocks only exist on map germs")
    if args.witness:
        if args.witness not in decl.witnesses:
            known = ", ".join(sorted(decl.witnesses)) or "none"
            raise GermlabUsage(
                f"no witness named {args.witness!r} (file has: {known})")
        specs = {args.witness: decl.witnesses[args.witness]}
    else:
        specs = decl.witnesses
    if not specs:
        raise GermlabUsage(f"germ {decl.name!r} declares no witness blocks")
    results = {}
    for name, spec in sorted(specs.items()):
        outcome = thom_irregularity_witness(decl.germ, spec)
        rep = witness_report(decl.germ, spec, outcome)
        results[name] = {
            "is_witness": outcome.is_witness,
            "direction":
                outcome.direction.text() if outcome.direction else None,
            "detail": outcome.detail,
            "report": rep.to_json_dict(),
        }
    fired = sum(1 for r in results.values() if r["is_witness"])
    _emit({"command": "witness", "germ": decl.germ.label(),
           "results": results},
          args, f"{fired}/{len(results)} witness(es) verified for {decl.name}")
    return 0


def cmd_probe_b(args) -> int:
    decl = _decl(args)
    germ = decl.germ
    rep = RegularityReport(germ_name=germ.label())
    if args.witness:
        if decl.kind != "map" or args.witness not in decl.witnesses:
            raise GermlabUsage(f"no witness named {args.witness!r}")
        spec = decl.witnesses[args.witness]
        finding = condition_b_family_check(germ, spec.gamma, report=rep)
        payload = {"mode": "family", "family": finding.family}
    elif args.set:
        if args.set not in decl.sets:
            known = ", ".join(sorted(decl.sets)) or "none"
            raise GermlabUsage(f"no set named {args.set!r} (file has: {known})")
        finding = condition_b_sampled_probe(germ, decl.sets[args.set],
                                            _config(args))
        payload = {"mode": "sampled", "samples": finding.samples}
    else:
        raise GermlabUsage("probe-b needs --witness NAME or --set NAME")
    for fact in args.declare or []:
        rep.declare(fact, "declared on the command line")
    rep.derive()
    payload.update({
        "command": "probe-b", "germ": germ.label(),
        "violates": finding.violates, "detail": finding.detail,
        "report": rep.to_json_dict(), "replay_sound": rep.replay_sound(),
    })
    verdict = {True: "violation", False: "no violation", None: "inconclusive"}
    _emit(payload, args,
          f"condition (b) probe on {decl.name}: {verdict[finding.violates]}")
    return 0


def cmd_compose_check(args) -> int:
    gf = parse_path(args.file)
    inner = gf.single(args.inner)
    outer = gf.single(args.outer)
    declared_inner = set(args.declare_inner or [])
    declared_outer = set(args.declare_outer or [])
    if args.mode == "sampled":
        finding = composition_sampled_probe(outer.germ, inner.germ,
                                            _config(args))
        _emit({"command": "compose-check", "mode": "sampled",
               "inner": inner.name, "outer": outer.name,
               "suspicious": finding.suspicious, "detail": finding.detail,
               "record": finding.record, "seed": _config(args).seed},
              args, f"sampled composition probe: "
                    f"{'suspicious' if finding.suspicious else 'quiet'}")
        return 0
    if not args.set or args.set not in inner.sets:
        known = ", ".join(sorted(inner.sets)) or "none"
        raise GermlabUsage(
            f"compose-check {args.mode} needs --set naming a component "
            f"set on the inner germ (file has: {known})")
    comps = inner.sets[args.set]
    if args.mode == "inclusion":
        chk = image_in_milnor_check(outer.germ, inner.germ, comps)
        rep = inclusion_report(outer.germ, inner.germ, chk,
                               declared_inner=declared_inner,
                               declared_outer=declared_outer)
        body = {"verified": list(chk.verified), "failed": list(chk.failed),
                "no_data": chk.no_data}
        summary = (f"inclusion: {len(chk.verified)} verified, "
                   f"{len(chk.failed)} failed")
    else:
        claim = None
        if args.claim:
            if args.claim not in outer.polys:
                known = ", ".join(sorted(outer.polys)) or "none"
                raise GermlabUsage(
                    f"no assert_poly named {args.claim!r} on the outer germ "
                    f"(file has: {known})")
            claim = outer.polys[args.claim]
        chk = composition_milnor_check(outer.germ, inner.germ, comps,
                                       closure_claim=claim)
        rep = composition_report(outer.germ, inner.germ, chk,
                                 declared_inner=declared_inner,
                                 declared_outer=declared_outer)
        body = {"components": [dataclasses.asdict(f) for f in chk.components],
                "violation": chk.violation, "flagged": list(chk.flagged),
                "closure_meets_sing_g_only_at_0":
                    chk.closure_meets_sing_g_only_at_0,
                "detail": chk.detail}
        summary = ("exact composition check: "
                   + (f"violation on {chk.violation}" if chk.violation
                      else f"{len(chk.flagged)} flagged, no violation"))
    _emit({"command": "compose-check", "mode": args.mode,
           "inner": inner.name, "outer": outer.name, **body,
           "report": rep.to_json_dict(), "replay_sound": rep.replay_sound()},
          args, summary)
    return 0


def cmd_certify(args) -> int:
    decl = _decl(args)
    germ = decl.germ
    res = hwc_check(germ)
    rep = certify_frame(germ, res)
    for fact in args.declare or []:
        rep.declare(fact, "declared on the command line")
    rep.derive()
    _emit({"command": "certify", "germ": germ.label(), "hwc": res.holds,
           "report": rep.to_json_dict(), "replay_sound": rep.replay_sound()},
          args, f"certified {decl.name}: facts {sorted(rep.facts) or 'none'}")
    return 0


def cmd_corpus_run(args) -> int:
    config = _config(args)
    results = run_corpus(args.filter or "", config)
    if not results:
        raise GermlabUsage(f"no corpus entry matches {args.filter!r}")
    for r in results:
        line = f"{r.entry:14s} {r.status}"
        if not r.passed:
            bad = r.detail or "; ".join(
                f"{c.name}: want {c.want!r}, got {c.got!r}"
                for c in r.checks if not c.passed)
            line += f"  [{bad}]"
        print(line)
    passed = sum(1 for r in results if r.passed)
    print(f"corpus: {passed}/{len(results)} entries passed (seed {config.seed})")
    if getattr(args, "json_path", None):
        doc = json.dumps(_jsonable(corpus_report(results, config.seed)),
                         indent=2, sort_keys=True) + "\n"
        Path(args.json_path).write_text(doc)
    return 0 if passed == len(results) else 1


def _add_common(p, germ=True):
    if germ:
        p.add_argument("--germ", help="germ name when the file has several")
    p.add_argument("--seed", type=lambda s: int(s, 0),
                   help="sampling seed (default GERMLAB_SEED or 0xC0FFEE)")
    p.add_argument("--samples", type=int, help="sample count for probes")
    p.add_argument("--radius", type=float, help="sampling cube radius")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the JSON report here; print a summary instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Exact regularity analysis for polynomial map germs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, file=True, germ=True):
        p = sub.add_parser(name)
        if file:
            p.add_argument("file", help="germ file in the declaration DSL")
        _add_common(p, germ=germ)
        p.set_defaults(fn=fn)
        return p

    add("parse", cmd_parse)
    add("milnor", cmd_milnor)
    add("sing", cmd_sing)
    add("hwc", cmd_hwc)

    construct = sub.add_parser("construct")
    csub = construct.add_subparsers(dest="construction", required=True)
    p = csub.add_parser("sum")
    p.add_argument("file")
    p.add_argument("--left", help="name of the first summand")
    p.add_argument("--right", help="name of the second summand")
    p.add_argument("--declare-thom-summands", action="store_true",
                   help="both summands are declared Thom regular")
    p.add_argument("--declare-codim-matches", action="store_true",
                   help="declared matching fiber codimensions")
    _add_common(p, germ=False)
    p.set_defaults(fn=cmd_construct_sum)
    p = csub.add_parser("product")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_construct_product)
    p = csub.add_parser("mixed-algo")
    p.add_argument("--vars", required=True,
                   help="comma-separated complex variable names")
    p.add_argument("--left", required=True,
                   help="comma-separated left-side variables")
    for key, txt in (("f", "left-side factor"), ("g", "right-side factor"),
                     ("r", "left-side free term"), ("h", "conjugated term")):
        p.add_argument(f"--{key}", action="append", metavar="EXPR",
                       help=f"{txt} block (repeatable)")
    _add_common(p, germ=False)
    p.set_defaults(fn=cmd_construct_mixed_algo)

    p = add("witness", cmd_witness)
    p.add_argument("--witness", help="run one named witness block")

    p = add("probe-b", cmd_probe_b)
    p.add_argument("--witness", help="verify this declared family exactly")
    p.add_argument("--set", help="sample against this declared fiber set")
    p.add_argument("--declare", action="append", metavar="FACT",
                   help="install a declared fact (repeatable)")

    p = add("compose-check", cmd_compose_check, germ=False)
    p.add_argument("--inner", required=True, help="inner germ name")
    p.add_argument("--outer", required=True, help="outer germ name")
    p.add_argument("--mode", choices=("exact", "inclusion", "sampled"),
                   default="exact")
    p.add_argument("--set", help="declared Milnor-set components of the "
                                 "composition, on the inner germ")
    p.add_argument("--claim", help="assert_poly naming the image closure")
    p.add_argument("--declare-inner", action="append", metavar="FACT")
    p.add_argument("--declare-outer", action="append", metavar="FACT")

    p = add("certify", cmd_certify)
    p.add_argument("--declare", action="append", metavar="FACT",
                   help="install a declared fact (repeatable)")

    corpus = sub.add_parser("corpus")
    osub = corpus.add_subparsers(dest="corpus_command", required=True)
    p = osub.add_parser("run")
    p.add_argument("--filter", default="",
                   help="run only entries whose id contains this substring")
    _add_common(p, germ=False)
    p.set_defaults(fn=cmd_corpus_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GermlabRejection as exc:
        err = {"schema_version": SCHEMA_VERSION,
               "error": {"reason": exc.reason,
                         "details": _jsonable(exc.details)}}
        sys.stdout.write(json.dumps(err, indent=2, sort_keys=True) + "\n")
        return 1
    except ContradictionError as exc:
        err = {"schema_version": SCHEMA_VERSION,
               "error": {"reason": str(exc)}}
        sys.stdout.write(json.dumps(err, indent=2, sort_keys=True) + "\n")
        return 1
    except (GermlabUsage, GermParseError) as exc:
        print(f"germlab: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"germlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
