"""Command line front end.

Subcommands parse germ files, run one analysis each from
`germlab.analyses`, and print its JSON report to stdout.  With --json
PATH the report goes to the file instead and stdout gets a one-line
summary; `corpus run` always prints its pass/fail table and writes JSON
only on request.

Only `probe-b`, `compose-check` and `corpus run` sample, so only they
take --seed, --samples and --radius (defaults 0xC0FFEE, 200, 2.0); the
seed is --seed, else GERMLAB_SEED, read here alone.  `compose-check
--mode exact --claim` samples too: the closure must miss Sing G off 0 at
--samples x 5 rational points of the --radius cube, drawn from the
seed's stream "closure-sep", and then on a sparse grid.

Exit codes: 0 success, 1 analysis rejection (structured reason in the
JSON error document), 2 usage error (bad flags, unknown fact names,
unreadable file, malformed DSL), 3 internal error (any other exception,
as a JSON error document with reason "internal"; the traceback goes to
stderr).  Reports carry no timestamps, so identical invocations produce
byte-identical output; sampled modes embed their seed.

Only the sampled modes and `corpus run` load numpy, and no command loads
scipy: this module imports neither numpy nor the corpus runner, so an
exact command starts without them.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from germlab import analyses
from germlab.certify import FACTS, ContradictionError
from germlab.dsl import (
    GermlabUsage,
    GermParseError,
    parse_mixed_expr,
    parse_path,
)
from germlab.germs import GermlabRejection
from germlab.hwc import mixed_algorithm_build
from germlab.poly import MAX_ARITY, VarContext
from germlab.sampling import RunConfig

SCHEMA_VERSION = 1
FACT_NAMES = sorted(FACTS)
# As for `mixed ... : C^n` in the DSL: the realified context has 2n variables.
MAX_MIXED_VARS = MAX_ARITY // 2


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _config(args) -> RunConfig:
    """The sampling flags given, GERMLAB_SEED, then RunConfig's defaults."""
    env = os.environ.get("GERMLAB_SEED")
    kw = {"seed": int(env, 0)} if env else {}
    flags = {name: getattr(args, name) for name in ("seed", "samples", "radius")}
    kw.update((name, v) for name, v in flags.items() if v is not None)
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
    out = [analyses.parse_row(d) for d in decls]
    _emit({"command": "parse", "file": str(args.file), "germs": out},
          args, f"parsed {len(out)} germ(s) from {args.file}")
    return 0


def cmd_milnor(args) -> int:
    decl = _decl(args)
    out = analyses.milnor(decl)
    _emit(out, args, f"milnor_poly({decl.name}) = {out['milnor_poly']}")
    return 0


def cmd_sing(args) -> int:
    decl = _decl(args)
    out = analyses.sing(decl)
    _emit(out, args, f"{len(out['minors'])} maximal minor(s) for {decl.name}")
    return 0


def _verdict(out: dict) -> str:
    return "holds" if out["holds"] else "fails"


def cmd_hwc(args) -> int:
    decl = _decl(args)
    out = analyses.hwc(decl)
    _emit(out, args, f"hwc {_verdict(out)} for {decl.name}")
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
    out = analyses.construct_sum(left, right, args.declare_thom_summands,
                                 args.declare_codim_matches)
    _emit(out, args, f"sum {out['germ']}: hwc {_verdict(out)}")
    return 0


def cmd_construct_product(args) -> int:
    decl = _decl(args)
    out = analyses.construct_product(decl)
    _emit(out, args, f"product pair from {decl.name}: hwc {_verdict(out)}")
    return 0


def _split_names(raw: str) -> list[str]:
    return [n.strip() for n in raw.split(",") if n.strip()]


def cmd_construct_mixed_algo(args) -> int:
    names = _split_names(args.vars)
    left = _split_names(args.left)
    if not names:
        raise GermlabUsage("--vars needs at least one name")
    if len(names) > MAX_MIXED_VARS:
        raise GermlabUsage(f"--vars takes at most {MAX_MIXED_VARS} names, "
                           f"got {len(names)}")
    if "i" in names:
        raise GermlabUsage("--vars cannot name 'i', the imaginary unit")
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
        left, blocks["f"], blocks["g"], blocks["r"], blocks["h"], ctx)
    _emit({"command": "construct-mixed-algo",
           "variables": names, "left": left,
           "poly": poly.text(), "holds": frame.holds,
           "conformal_factor":
               frame.conformal_factor.text() if frame.conformal_factor else None},
          args, f"mixed build: hwc {'holds' if frame.holds else 'fails'}")
    return 0


def cmd_witness(args) -> int:
    decl = _decl(args)
    out = analyses.witness(decl, args.witness)
    fired = sum(1 for r in out["results"].values() if r["is_witness"])
    _emit(out, args,
          f"{fired}/{len(out['results'])} witness(es) verified for {decl.name}")
    return 0


def cmd_probe_b(args) -> int:
    decl = _decl(args)
    out = analyses.probe_b(decl, args.witness, args.set, args.declare or (),
                           _config(args))
    verdict = {True: "violation", False: "no violation", None: "inconclusive"}
    _emit(out, args,
          f"condition (b) probe on {decl.name}: {verdict[out['violates']]}")
    return 0


def cmd_compose_check(args) -> int:
    gf = parse_path(args.file)
    out = analyses.compose_check(
        gf.single(args.inner), gf.single(args.outer), args.mode, args.set,
        args.claim, args.declare_inner or (), args.declare_outer or (),
        _config(args))
    if args.mode == "sampled":
        summary = ("sampled composition probe: "
                   f"{'suspicious' if out['suspicious'] else 'quiet'}")
    elif args.mode == "inclusion":
        summary = (f"inclusion: {len(out['verified'])} verified, "
                   f"{len(out['failed'])} failed")
    else:
        summary = "exact composition check: " + (
            f"violation on {out['violation']}" if out["violation"]
            else f"{len(out['flagged'])} flagged, no violation")
    _emit(out, args, summary)
    return 0


def cmd_certify(args) -> int:
    decl = _decl(args)
    out = analyses.certify(decl, args.declare or ())
    _emit(out, args,
          f"certified {decl.name}: facts {out['report']['facts'] or 'none'}")
    return 0


def cmd_corpus_run(args) -> int:
    from germlab.corpus import corpus_report, run_corpus

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


def _command(group, name, fn, file=True, germ=True, sampling=False):
    """Subcommand `name` running fn, with the options it shares with others."""
    p = group.add_parser(name)
    p.set_defaults(fn=fn)
    if file:
        p.add_argument("file", help="germ file in the declaration DSL")
    if germ:
        p.add_argument("--germ", help="germ name when the file has several")
    if sampling:
        p.add_argument("--seed", type=lambda s: int(s, 0),
                       help="sampling seed (default GERMLAB_SEED or 0xC0FFEE)")
        p.add_argument("--samples", type=int, help="sample count (default 200)")
        p.add_argument("--radius", type=float, help="cube radius (default 2.0)")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the JSON report here; print a summary instead")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Exact regularity analysis for polynomial map germs.")
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "parse", cmd_parse)
    _command(sub, "milnor", cmd_milnor)
    _command(sub, "sing", cmd_sing)
    _command(sub, "hwc", cmd_hwc)

    construct = sub.add_parser("construct")
    csub = construct.add_subparsers(dest="construction", required=True)
    p = _command(csub, "sum", cmd_construct_sum, germ=False)
    p.add_argument("--left", help="name of the first summand")
    p.add_argument("--right", help="name of the second summand")
    p.add_argument("--declare-thom-summands", action="store_true",
                   help="both summands are declared Thom regular")
    p.add_argument("--declare-codim-matches", action="store_true",
                   help="declared matching fiber codimensions")
    _command(csub, "product", cmd_construct_product)
    p = _command(csub, "mixed-algo", cmd_construct_mixed_algo, file=False,
                 germ=False)
    p.add_argument("--vars", required=True,
                   help="comma-separated complex variable names")
    p.add_argument("--left", required=True,
                   help="comma-separated left-side variables")
    for key, txt in (("f", "left-side factor"), ("g", "right-side factor"),
                     ("r", "left-side free term"), ("h", "conjugated term")):
        p.add_argument(f"--{key}", action="append", metavar="EXPR",
                       help=f"{txt} block (repeatable)")

    p = _command(sub, "witness", cmd_witness)
    p.add_argument("--witness", help="run one named witness block")

    p = _command(sub, "probe-b", cmd_probe_b, sampling=True)
    p.add_argument("--witness", help="verify this declared family exactly")
    p.add_argument("--set", help="sample against this declared fiber set")
    p.add_argument("--declare", action="append", metavar="FACT",
                   choices=FACT_NAMES,
                   help="install a declared fact (repeatable)")

    p = _command(sub, "compose-check", cmd_compose_check, germ=False,
                 sampling=True)
    p.add_argument("--inner", required=True, help="inner germ name")
    p.add_argument("--outer", required=True, help="outer germ name")
    p.add_argument("--mode", choices=("exact", "inclusion", "sampled"),
                   default="exact")
    p.add_argument("--set", help="declared Milnor-set components of the "
                                 "composition, on the inner germ")
    p.add_argument("--claim", help="assert_poly naming the image closure")
    p.add_argument("--declare-inner", action="append", metavar="FACT",
                   choices=FACT_NAMES)
    p.add_argument("--declare-outer", action="append", metavar="FACT",
                   choices=FACT_NAMES)

    p = _command(sub, "certify", cmd_certify)
    p.add_argument("--declare", action="append", metavar="FACT",
                   choices=FACT_NAMES,
                   help="install a declared fact (repeatable)")

    corpus = sub.add_parser("corpus")
    osub = corpus.add_subparsers(dest="corpus_command", required=True)
    p = _command(osub, "run", cmd_corpus_run, file=False, germ=False,
                 sampling=True)
    p.add_argument("--filter", default="",
                   help="run only entries whose id contains this substring")

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
    except Exception as exc:
        import traceback

        traceback.print_exc()
        err = {"schema_version": SCHEMA_VERSION,
               "error": {"reason": "internal", "type": type(exc).__name__,
                         "message": str(exc)}}
        sys.stdout.write(json.dumps(err, indent=2, sort_keys=True) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
