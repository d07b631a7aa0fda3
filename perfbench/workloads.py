"""The workloads: set-up, one timed pass, and the correctness checks.

A pass is one sweep over a workload's items.  `run_pass` returns the
timed calls only; turning results into printed texts and checking them
happens outside the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = SRC / "germlab" / "corpus"


@dataclass
class Pass:
    wall: float  # seconds of timed calls in this pass
    item_times: list[float]
    outputs: list  # printed form of each item's result, None where it failed
    failed: int = 0
    layers: dict = field(default_factory=dict)  # traced cli children only
    peak_kb: int = 0  # cli children only; in-process workloads read their own
    child_spans: list = field(default_factory=list)  # traced cli children only
    ops: int = 0  # operations attempted, where they are not the timed items


class ItemsWorkload:
    """A list of independent in-process calls (exact-pullback)."""

    min_passes = 1

    def __init__(self, items, tail_pct: int):
        self.items = items
        self.tail_pct = tail_pct

    def run_pass(self, traced: bool) -> Pass:
        times, outs, failed = [], [], 0
        for it in self.items:
            t0 = perf_counter()
            try:
                res = it.call()
            except Exception:
                res = None
                failed += 1
                traceback.print_exc()
            times.append(perf_counter() - t0)
            outs.append(None if res is None else it.printed(res))
        return Pass(sum(times), times, outs, failed)

    def check(self, passes: list[Pass]) -> list[str]:
        errors = []
        first = passes[0].outputs
        for it, out in zip(self.items, first):
            if out is not None:
                err = it.check(out)
                if err:
                    errors.append(err)
        for p in passes[1:]:
            for it, a, b in zip(self.items, first, p.outputs):
                if a is not None and b is not None and a != b:
                    errors.append(f"{it.label}: output differs between passes")
        return errors


def exact_pullback(seed: int) -> ItemsWorkload:
    import families

    return ItemsWorkload(families.pullback_items(seed), tail_pct=80)


# -- corpus --------------------------------------------------------------------


class CorpusWorkload:
    """All worked examples through germlab.corpus.run_corpus at the default seed.

    A pass is one run_corpus call, the path `germlab corpus run` takes, and
    it is also the workload's one item: the entries run concurrently on the
    runner's own pool of eight threads, so no entry has a wall time of its
    own (the traced run gives each entry's self time).
    """

    min_passes = 2  # two reports are compared byte for byte
    tail_pct = 90

    def __init__(self):
        import germlab.corpus as corpus
        from germlab.sampling import DEFAULT_SEED, RunConfig

        self.corpus = corpus
        self.seed = DEFAULT_SEED
        self.config = RunConfig(seed=DEFAULT_SEED)
        self.manifest = corpus.load_manifest()
        self.entries = sorted(self.manifest["entries"])

    def run_pass(self, traced: bool) -> Pass:
        t0 = perf_counter()
        results = self.corpus.run_corpus(config=self.config, manifest=self.manifest)
        wall = perf_counter() - t0
        report = json.dumps(self.corpus.corpus_report(results, self.seed),
                            sort_keys=True, default=str)
        failed = sum(1 for r in results if r.status == "error")
        mismatched = [r.entry for r in results if r.status == "mismatch"]
        return Pass(wall, [wall], [report, mismatched], failed, ops=len(results))

    def check(self, passes: list[Pass]) -> list[str]:
        errors = []
        report, mismatched = passes[0].outputs
        doc = json.loads(report)
        if doc["total"] != len(self.entries):
            errors.append(f"corpus ran {doc['total']} of {len(self.entries)} entries")
        for e in mismatched:
            errors.append(f"corpus entry {e} fails its expectations")
        for p in passes[1:]:
            if p.outputs[0] != report:
                errors.append("corpus_report differs between two passes at one seed")
        return errors


# -- cli-cold --------------------------------------------------------------------

# Quick commands on corpus files; the sampled commands take seconds of probe
# time and are left out.
CLI_COMMANDS = (
    ("parse", ["parse", "e21.germ"]),
    ("milnor", ["milnor", "mfx1.germ"]),
    ("sing", ["sing", "ent1.germ"]),
    ("hwc", ["hwc", "e21.germ"]),
    ("witness", ["witness", "ent1.germ"]),
    ("probe-b", ["probe-b", "mhx1.germ", "--witness", "fam"]),
    ("compose-check", ["compose-check", "comp48.germ", "--inner", "F48", "--outer",
                       "G48", "--mode", "exact", "--set", "MH", "--claim", "closure"]),
    ("construct-sum", ["construct", "sum", "esum.germ", "--left", "quart",
                       "--right", "bilin"]),
)

# (command, JSON path in its output, manifest entry, manifest check name)
CLI_EXPECT = (
    ("milnor", ("square_det",), "mfx1", "square_det"),
    ("milnor", ("milnor_poly",), "mfx1", "milnor_poly"),
    ("hwc", ("holds",), "e21", "holds"),
    ("hwc", ("conformal_factor",), "e21", "conformal_factor"),
    ("witness", ("results", "w1", "is_witness"), "ent1", "is_witness"),
    ("witness", ("results", "w1", "direction"), "ent1", "direction"),
    ("probe-b", ("violates",), "mhx1", "violates"),
    ("compose-check", ("violation",), "comp48", "violation"),
    ("compose-check", ("flagged",), "comp48", "flagged"),
    ("compose-check", ("closure_meets_sing_g_only_at_0",), "comp48", "separated"),
    ("construct-sum", ("holds",), "esum", "holds"),
    ("construct-sum", ("components",), "esum", "components"),
    ("construct-sum", ("conformal_factor",), "esum", "conformal_factor"),
)


class CliWorkload:
    """Each command in a fresh interpreter, as an interactive user waits for it.

    A pass is one round of the commands, run one at a time.  The peak
    resident memory is the largest any command process reports for itself.
    """

    min_passes = 5  # 40 invocations at least, so the 75th percentile has 10 beyond it
    tail_pct = 75

    def __init__(self):
        from germlab.corpus import load_manifest

        self.manifest = load_manifest()["entries"]
        # Commands run at germlab's default seed, as on the corpus.
        self.env = {k: v for k, v in os.environ.items() if k != "GERMLAB_SEED"}

    def _argv(self, cmd, traced: bool) -> list[str]:
        args = [str(CORPUS / a) if a.endswith(".germ") else a for a in cmd]
        return [sys.executable, str(HERE / "clichild.py"), str(int(traced))] + args

    def run_pass(self, traced: bool) -> Pass:
        times, outs, failed, peak = [], [], 0, 0
        layers: dict = {}
        exports = []
        for _, cmd in CLI_COMMANDS:
            argv = self._argv(cmd, traced)
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=self.env,
                                    cwd=str(ROOT))
            out, err = proc.communicate()
            times.append(perf_counter() - t0)
            if proc.returncode != 0:
                failed += 1
                sys.stderr.write(err.decode(errors="replace"))
                outs.append(None)
                continue
            outs.append(out)
            rep = json.loads(err.decode().strip().splitlines()[-1].split(" ", 1)[1])
            peak = max(peak, rep["peak_kb"])
            if traced:
                _merge_child_trace(layers, t0, rep)
                exports.append(rep["export"])
        return Pass(sum(times), times, outs, failed, layers, peak, exports)

    def check(self, passes: list[Pass]) -> list[str]:
        errors = []
        first = {}
        for p in passes:
            for (label, _), out in zip(CLI_COMMANDS, p.outputs):
                if out is None:
                    continue
                if label not in first:
                    first[label] = out
                elif out != first[label]:
                    errors.append(f"cli {label}: stdout differs between invocations")
        docs = {label: json.loads(out) for label, out in first.items()}
        for label, path, entry, check_name in CLI_EXPECT:
            if label not in docs:
                continue
            got = docs[label]
            for key in path:
                got = got.get(key, "<missing>") if isinstance(got, dict) else "<missing>"
            want = next(c["want"] for c in self.manifest[entry]["checks"]
                        if c["name"] == check_name)
            if got != want:
                errors.append(f"cli {label}: {'.'.join(path)} = {got!r}, "
                              f"manifest {entry}.{check_name} = {want!r}")
        if "sing" in docs:
            err = _check_sing(docs["sing"])
            if err:
                errors.append(err)
        return errors


def _check_sing(doc: dict) -> str | None:
    """ent1's 2x2 Jacobian minor, differentiated and expanded here."""
    names = doc["variables"]
    g1 = {(1, 0, 0): Fraction(1)}  # x
    g2 = {(2, 1, 0): Fraction(1), (0, 3, 0): Fraction(1), (1, 0, 2): Fraction(1)}
    d = [[oracle.diff(g, j) for j in range(3)] for g in (g1, g2)]
    minors = [oracle.parse_text(t, names) for t in doc["minors"]]
    for pt in [(Fraction(1, 3), Fraction(-2), Fraction(5, 7)),
               (Fraction(-3, 2), Fraction(1, 5), Fraction(2))]:
        a = [[oracle.evaluate(q, pt) for q in row] for row in d]
        want = [a[0][i] * a[1][j] - a[0][j] * a[1][i]
                for i in range(3) for j in range(i + 1, 3)]
        got = [oracle.evaluate(m, pt) for m in minors]
        if got != want:
            return f"cli sing: minors at {pt} = {got}, expected {want}"
    return None


def _merge_child_trace(layers: dict, t_spawn: float, rep: dict) -> None:
    """Fold one traced command's report into the pass totals."""
    rows = {
        "cli.python_start": [1, rep["t_begin"] - t_spawn],
        "cli.import": [1, rep["t_imported"] - rep["t_begin"]],
        **rep["spans"],
    }
    for name, (calls, secs) in rows.items():
        row = layers.setdefault(name, [0, 0.0])
        row[0] += calls
        row[1] += secs
    for name, n in rep["counts"].items():
        layers.setdefault(name, [0, 0.0])[0] += n


def make(name: str, seed: int):
    """The workload called `name`, one of run.WORKLOADS."""
    if name == "corpus":
        return CorpusWorkload()
    if name == "exact-pullback":
        return exact_pullback(seed)
    return CliWorkload()

