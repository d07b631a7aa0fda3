"""Fast self-test: every workload's checker accepts germlab's answer and
rejects a wrong one.

    python3 perfbench/selftest.py

Exits 0 when each case behaves, 1 otherwise.  Takes a few seconds: it runs
one item of each kind and a single cheap corpus entry, not the workloads.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import families  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def render(terms: dict, names) -> str:
    """Canonical-style text for a term dict (order is irrelevant to the parser)."""
    out = []
    for exps, c in terms.items():
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k)
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out) or "0"


def bump_one_coefficient(text: str, names) -> str:
    terms = oracle.parse_text(text, names)
    key = next(iter(terms))
    terms[key] += 1
    if not terms[key]:
        terms[key] += 1
    return render(terms, names)


def first(items, kind):
    it = next(i for i in items if i.kind == kind)
    return it, it.printed(it.call())


def main() -> int:
    cases = []

    def expect(name, err, should_fail):
        ok = bool(err) == should_fail
        cases.append(ok)
        verdict = "rejected" if err else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")

    pullback = families.pullback_items(seed=7)
    for kind in ("pullback-vanishing", "pullback-nonvanishing"):
        it, (vanishes, num, wit) = first(pullback, kind)
        expect(f"{kind}: germlab's answer", it.check((vanishes, num, wit)), False)
        expect(f"{kind}: verdict flipped", it.check((not vanishes, num, wit)), True)

    it, comps = first(pullback, "compose")
    expect("compose: germlab's answer", it.check(comps), False)
    wrong = [bump_one_coefficient(comps[0], ["s1", "s2", "s3", "s4"])] + comps[1:]
    expect("compose: one component evaluated wrongly", it.check(wrong), True)

    it, (names, re, im, mixed, real) = first(pullback, "mixed-split")
    expect("mixed: germlab's answer", it.check((names, re, im, mixed, real)), False)
    expect("mixed: real and imaginary parts swapped",
           it.check((names, im, re, mixed, real)), True)

    corpus = workloads.CorpusWorkload()
    runners = corpus.corpus._ANALYSES

    def corpus_errors(entry, analysis, tamper=None):
        """Checker verdict on one corpus entry, its analysis optionally tampered."""
        corpus.entries = [entry]
        corpus.manifest = {"schema_version": 1,
                           "entries": {entry: manifest[entry]}}
        honest = runners[analysis]
        if tamper is not None:
            runners[analysis] = lambda gf, row, config: tamper(honest(gf, row, config))
        try:
            p = corpus.run_pass(False)
        finally:
            runners[analysis] = honest
        return corpus.check([p, p])

    manifest = corpus.manifest["entries"]
    ex1 = ["x", "y", "z", "w", "a", "b"]
    expect("corpus: germlab's ex1 Milnor polynomial",
           corpus_errors("ex1", "milnor"), False)
    expect("corpus: one ex1 Milnor coefficient changed",
           corpus_errors("ex1", "milnor", lambda out: {
               **out, "milnor_poly": bump_one_coefficient(out["milnor_poly"], ex1)}),
           True)
    expect("corpus: germlab's ent1 verdict", corpus_errors("ent1", "witness"), False)
    expect("corpus: ent1 witness verdict flipped",
           corpus_errors("ent1", "witness", lambda out: {**out, "is_witness": False}),
           True)

    cli = workloads.CliWorkload()
    _, cmd = workloads.CLI_COMMANDS[1]
    argv = cli._argv(cmd, traced=False)
    out = subprocess.run(argv, capture_output=True, env=cli.env, check=True).stdout
    n = len(workloads.CLI_COMMANDS)
    good = workloads.Pass(0.0, [], [out if k == 1 else None for k in range(n)])
    expect("cli milnor: germlab's output", cli.check([good]), False)
    doc = json.loads(out)
    doc["square_det"] = bump_one_coefficient(doc["square_det"], doc["variables"])
    bad = workloads.Pass(0.0, [], [json.dumps(doc).encode() if k == 1 else None
                                   for k in range(n)])
    expect("cli milnor: square_det changed", cli.check([bad]), True)

    print(f"{sum(cases)}/{len(cases)} self-test cases behave")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
