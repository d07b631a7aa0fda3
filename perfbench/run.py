"""germlab benchmark: one workload per invocation, one JSON result line last.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

Runs whole passes of the workload until the next pass would end past
--seconds (at least the workload's minimum number of passes), checks every
output against routes computed apart from germlab, then times SETUP_SAMPLES
fresh interpreters that import germlab with numpy and scipy and build the
workload's inputs.  With --trace 0 the result carries the end-to-end
metrics; with --trace 1 the passes run under span tracing and the result
carries the per-layer metrics.  Full records, machine facts and spans go
to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 3
WORKLOADS = ("corpus", "exact-pullback", "cli-cold")

CLI_LABELS = ("parse", "milnor", "sing", "hwc", "witness", "probe-b",
              "compose-check", "construct-sum")
CORPUS_ENTRIES = ("comp48", "contra", "e1", "e21", "ent1", "esum", "ex1", "ex2",
                  "exaa", "fgbar", "incl", "mfx1", "mhx1", "mixalg", "prodpair",
                  "prodpair_bad", "t", "xyzbar", "z2")
TIMED_AND_COUNTED = (
    "poly.exact_div", "poly.det", "poly.matmul", "germs.milnor_data",
    "poly.mul", "poly.pow", "poly.evaluate", "germs.pullback_numerator",
    "compose.compose_exact", "curves.pullback", "mixed.realify", "mixed.wirtinger",
    "sampling.compile_float", "sampling.refine_on_variety",
    "sampling.nearest_on_variety", "poly.minors", "certify.derive", "dsl.parse",
    "scipy.least_squares", "scipy.minimize",
)
TIMED_ONLY = (
    "hwc.hwc_check", "hwc.hwc_check_mixed",
    "witness.condition_b_sampled_probe", "compose.composition_sampled_probe",
    "hwc.empty_interior_criterion", "hwc.isolated_singularity_probe",
    "compose.composition_milnor_check", "compose.image_in_milnor_check",
    "witness.thom_irregularity_witness", "witness.condition_b_family_check",
    "cli.python_start", "cli.import",
) + tuple(f"cli.{c}" for c in CLI_LABELS) + tuple(f"corpus.entry.{e}" for e in CORPUS_ENTRIES)
COUNTERS = (
    "sampling.float_evals", "scipy.least_squares.nfev", "scipy.least_squares.njev",
    "scipy.least_squares.converged", "scipy.minimize.nfev",
)


def per_layer_names() -> list[tuple[str, str]]:
    out = []
    for n in TIMED_AND_COUNTED:
        out += [(f"{n}.calls", "count"), (f"{n}.s", "s")]
    out += [(f"{n}.s", "s") for n in TIMED_ONLY]
    out += [(n, "count") for n in COUNTERS]
    return out


# -- machine facts (reference only, never metrics) ------------------------------


def _cpu_ticks():
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except OSError:
        return None
    return fields


def reference_loop_s() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - t0


def machine_facts(start_ticks, loops) -> dict:
    import numpy
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "reference_loop_s": loops,
    }
    end = _cpu_ticks()
    if start_ticks and end:
        delta = [b - a for a, b in zip(start_ticks, end)]
        total = sum(delta[:8])
        facts["cpu_steal_share"] = delta[7] / total if total else 0.0
        facts["cpu_steal_ticks"] = delta[7]
    return facts


# -- statistics ----------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with pct% of values at or below it.

    For 50 values the 80th percentile is the 40th smallest, with exactly
    ten values beyond it; no interpolation mixes two items' times.
    """
    xs = sorted(values)
    return xs[max(math.ceil(len(xs) * pct / 100) - 1, 0)]


def setup_samples(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to inputs ready, timed from the parent, SETUP_SAMPLES times."""
    out = []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-only"]
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=str(ROOT))
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        proc.wait()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"set-up child failed with code {proc.returncode}")
        out.append(t1 - t0)
    return out


# -- the run ---------------------------------------------------------------------


def prepare(workload: str, seed: int):
    """Everything before the first timed item: imports and inputs."""
    sys.path.insert(0, str(SRC))
    import germlab.cli  # noqa: F401  loads every germlab module
    import scipy.optimize  # noqa: F401  the sampled probes' solvers

    import workloads

    return workloads.make(workload, seed)


def measure(wl, seconds: float, traced: bool, tracer=None):
    """Whole passes until the next would end past `seconds`.

    Returns the passes and, per pass, its (start, end) and the tracer's
    counter totals at its end, so layer figures can be split by pass.
    """
    passes, bounds = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(wl.run_pass(traced))
        t1 = perf_counter()
        bounds.append((t0, t1, tracer.counters() if tracer is not None else None))
        if len(passes) >= wl.min_passes and (t1 - start) + (t1 - t0) > seconds:
            return passes, bounds


def layer_metrics(passes, bounds, tracer) -> tuple[dict, dict]:
    """Per-pass layer figures; counts from the first pass, times as medians."""
    per_pass = []
    prev = {}
    for p, (t0, t1, totals) in zip(passes, bounds):
        if tracer is not None:
            rows = tracer.aggregate(t0, t1)
            for k, v in totals.items():
                rows.setdefault(k, [0, 0.0])[0] += v - prev.get(k, 0)
            prev = totals
        else:
            rows = p.layers
        per_pass.append(rows)
    metrics, extra = {}, {}
    for name, unit in per_layer_names():
        base = name.rsplit(".", 1)[0] if unit == "s" or name.endswith(".calls") else name
        if unit == "s":
            vals = [rows.get(base, [0, 0.0])[1] for rows in per_pass]
            value = statistics.median(vals)
        else:
            vals = [rows.get(base, [0, 0.0])[0] for rows in per_pass]
            value = vals[0]
            if len(set(vals)) > 1:
                extra[name] = vals
        metrics[name] = {"value": value, "unit": unit}
    by_creator = {k: v[0] for k, v in per_pass[0].items()
                  if k.startswith("sampling.float_evals.by.")}
    return metrics, {"counts_differing_between_passes": extra,
                     "float_evals_by_creator_first_pass": by_creator}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (set-up timing)")
    args = ap.parse_args(argv)
    if not (SRC / "germlab" / "__init__.py").is_file():
        print(f"perfbench: no germlab sources under {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    ticks = _cpu_ticks()
    loop_before = reference_loop_s()
    wl = prepare(args.workload, args.seed)
    tracer = None
    if args.trace and args.workload != "cli-cold":  # commands trace themselves
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        passes, bounds = measure(wl, args.seconds, bool(args.trace), tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = (max(p.peak_kb for p in passes)
               or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    errors = wl.check(passes)
    setup = setup_samples(args.workload, args.seed) if not args.trace else []
    facts = machine_facts(ticks, [loop_before, reference_loop_s()])

    attempted = sum(p.ops or len(p.item_times) for p in passes)
    failed = sum(p.failed for p in passes)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(passes), "items_per_pass": len(passes[0].item_times),
              "pass_s_all": [p.wall for p in passes], "machine": facts, "errors": errors}
    if args.trace:
        metrics, detail = layer_metrics(passes, bounds, tracer)
        record["trace_detail"] = detail
    else:
        items = [t for p in passes for t in p.item_times]
        metrics = {
            "pass_s": {"value": statistics.mean(p.wall for p in passes), "unit": "s"},
            "item_p50_s": {"value": statistics.median(items), "unit": "s"},
            "item_tail_s": {"value": percentile(items, wl.tail_pct), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
        record["tail_percentile"] = wl.tail_pct
        record["setup_s_all"] = setup
        record["item_times"] = [p.item_times for p in passes]
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        exports = ([tracer.export()] if tracer is not None
                   else [e for p in passes for e in p.child_spans])
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(exports))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print("machine " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
