"""Command line front end.

Each subcommand that reads a germ file parses it, calls the
`germlab.analyses.COMMANDS` entry of its name with the parsed options,
and prints the JSON report to stdout.  With --json PATH the report goes
to the file instead and stdout gets a one-line summary read off the
report; `corpus run` always prints its pass/fail table and writes JSON
only on request.

Only `probe-b`, `compose-check` and `corpus run` sample, so only they
take --seed, --samples and --radius (defaults 0xC0FFEE, 200, 2.0;
--samples and --radius must be finite and above zero); the seed is
--seed, else GERMLAB_SEED, read here alone and only by those three.
`compose-check --mode exact --claim` samples too: the closure must miss
Sing G off 0 at --samples x 5 rational points of the --radius cube,
drawn from the seed's stream "closure-sep", and then on a sparse grid.
A mode that samples nothing (`probe-b --witness`, `compose-check --mode
inclusion`, `--mode exact` without --claim) refuses the three flags, and
`--mode sampled`, which draws a fixed 8 seeds, refuses --samples.

Exit codes: 0 success, 1 analysis rejection (structured reason in the
JSON error document), 2 usage error (bad flags or GERMLAB_SEED, an
option the chosen mode never reads, unknown fact names, unreadable file,
malformed DSL), 3 internal error (any other exception, as a JSON error
document with reason "internal"; the traceback goes to stderr).  Reports
carry no timestamps, so identical invocations produce byte-identical
output; sampled modes embed their seed.

Only the sampled modes and `corpus run` load numpy, and no command loads
scipy: this module imports neither numpy nor the corpus runner, so an
exact command starts without them.
"""
from __future__ import annotations

import argparse
import json
import math
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
from germlab.germs import GermlabRejection, realify_mixed
from germlab.hwc import hwc_check, mixed_algorithm_build
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
    try:
        kw = {"seed": int(env, 0)} if env else {}
    except ValueError:
        raise GermlabUsage(f"GERMLAB_SEED must be an integer, got {env!r}") from None
    flags = {name: getattr(args, name) for name in ("seed", "samples", "radius")}
    kw.update((name, v) for name, v in flags.items() if v is not None)
    return RunConfig(**kw)


def _above_zero(kind):
    """An argparse type: a finite `kind` greater than zero."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {kind.__name__} > 0, got {text!r}")
        return value
    return convert


def _emit(payload: dict, args, summary: str) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    doc = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    path = getattr(args, "json_path", None)
    if path:
        Path(path).write_text(doc)
        print(summary)
    else:
        sys.stdout.write(doc)


def _fail(code: int, **error) -> int:
    """Print a JSON error document; return the exit code."""
    doc = {"schema_version": SCHEMA_VERSION, "error": _jsonable(error)}
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return code


def _verdict(out: dict) -> str:
    return "holds" if out["holds"] else "fails"


def _compose_summary(out: dict) -> str:
    if out["mode"] == "sampled":
        return ("sampled composition probe: "
                f"{'suspicious' if out['suspicious'] else 'quiet'}")
    if out["mode"] == "inclusion":
        return (f"inclusion: {len(out['verified'])} verified, "
                f"{len(out['failed'])} failed")
    return "exact composition check: " + (
        f"violation on {out['violation']}" if out["violation"]
        else f"{len(out['flagged'])} flagged, no violation")


# The line --json PATH prints instead of the report, read off the report.
SUMMARIES = {
    "parse": lambda r: f"parsed {len(r['germs'])} germ(s) from {r['file']}",
    "milnor": lambda r: f"milnor_poly({r['germ']}) = {r['milnor_poly']}",
    "sing": lambda r: f"{len(r['minors'])} maximal minor(s) for {r['germ']}",
    "hwc": lambda r: f"hwc {_verdict(r)} for {r['germ']}",
    "certify": lambda r:
        f"certified {r['germ']}: facts {r['report']['facts'] or 'none'}",
    "construct-sum": lambda r: f"sum {r['germ']}: hwc {_verdict(r)}",
    "construct-product": lambda r:
        f"product pair from {r['germ']}: hwc {_verdict(r)}",
    "witness": lambda r:
        f"{sum(w['is_witness'] for w in r['results'].values())}"
        f"/{len(r['results'])} witness(es) verified for {r['germ']}",
    "probe-b": lambda r: f"condition (b) probe on {r['germ']}: " + (
        "inconclusive" if r["violates"] is None
        else "violation" if r["violates"] else "no violation"),
    "compose-check": _compose_summary,
}


def cmd_analysis(args) -> int:
    """Run the `analyses.COMMANDS` entry the subcommand names."""
    gf = parse_path(args.file)
    config = _config(args) if "seed" in vars(args) else None
    out = analyses.COMMANDS[args.analysis](gf, vars(args), config)
    _emit(out, args, SUMMARIES[args.analysis](out))
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
    if "conj" in names:
        raise GermlabUsage("--vars cannot name 'conj', the conjugation conj(...)")
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
    # The mixed verdict is the pairing's; the factor is the realified germ's.
    factor = (analyses._factor(hwc_check(realify_mixed([poly])))
              if frame.holds else None)
    out = {"command": "construct-mixed-algo", "variables": names,
           "left": left, "poly": poly.text(), "holds": frame.holds,
           "conformal_factor": factor}
    _emit(out, args, f"mixed build: hwc {_verdict(out)}")
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


def _command(group, name, fn=None, file=True, germ=True, sampling=False,
             analysis=None):
    """Subcommand `name` running fn, else `analyses.COMMANDS[analysis or name]`."""
    p = group.add_parser(name)
    if fn:
        p.set_defaults(fn=fn)
    else:
        p.set_defaults(fn=cmd_analysis, analysis=analysis or name)
    if file:
        p.add_argument("file", help="germ file in the declaration DSL")
    if germ:
        p.add_argument("--germ", help="germ name when the file has several")
    if sampling:
        p.add_argument("--seed", type=lambda s: int(s, 0),
                       help="sampling seed (default GERMLAB_SEED or 0xC0FFEE)")
        p.add_argument("--samples", type=_above_zero(int),
                       help="sample count (default 200)")
        p.add_argument("--radius", type=_above_zero(float),
                       help="cube radius (default 2.0)")
    p.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the JSON report here; print a summary instead")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="germlab",
        description="Exact regularity analysis for polynomial map germs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("parse", "milnor", "sing", "hwc"):
        _command(sub, name)

    construct = sub.add_parser("construct")
    csub = construct.add_subparsers(dest="construction", required=True)
    p = _command(csub, "sum", germ=False, analysis="construct-sum")
    p.add_argument("--left", help="name of the first summand")
    p.add_argument("--right", help="name of the second summand")
    p.add_argument("--declare-thom-summands", action="store_true",
                   help="both summands are declared Thom regular")
    p.add_argument("--declare-codim-matches", action="store_true",
                   help="declared matching fiber codimensions")
    _command(csub, "product", analysis="construct-product")
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

    p = _command(sub, "witness")
    p.add_argument("--witness", help="run one named witness block")

    p = _command(sub, "probe-b", sampling=True)
    p.add_argument("--witness", help="verify this declared family exactly")
    p.add_argument("--set", help="sample against this declared fiber set")
    p.add_argument("--declare", action="append", metavar="FACT",
                   choices=FACT_NAMES,
                   help="install a declared fact (repeatable)")

    p = _command(sub, "compose-check", germ=False, sampling=True)
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

    p = _command(sub, "certify")
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
        return _fail(1, reason=exc.reason, details=exc.details)
    except ContradictionError as exc:
        return _fail(1, reason=str(exc))
    except (GermlabUsage, GermParseError, OSError) as exc:
        print(f"germlab: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback

        traceback.print_exc()
        return _fail(3, reason="internal", type=type(exc).__name__,
                     message=str(exc))


if __name__ == "__main__":
    sys.exit(main())
