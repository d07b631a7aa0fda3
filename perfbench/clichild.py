"""One germlab command in a fresh interpreter, as the cli-cold workload runs it.

    python3 perfbench/clichild.py <trace 0|1> <germlab arguments...>

Calls `germlab.cli.main` on the arguments, leaves stdout to the command,
and prints one `PERFBENCH {json}` line last on stderr with the process's
own peak resident memory (VmHWM, which starts afresh at exec, unlike the
rusage maximum that inherits the parent's size at fork).  With trace 1
the command runs under a Tracer with a root span named after the command,
and the line also carries the interpreter-start and import timestamps
(perf_counter is CLOCK_MONOTONIC, shared with the parent), the per-span
calls and self time, the counters and the spans themselves.
"""

from time import perf_counter

t_begin = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import germlab.cli  # noqa: E402

t_imported = perf_counter()


def peak_kb() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    traced, argv = sys.argv[1] == "1", sys.argv[2:]
    report = {}
    if traced:
        sys.path.insert(0, str(HERE))
        import spans

        command = "construct-" + argv[1] if argv[0] == "construct" else argv[0]
        tracer = spans.Tracer()
        tracer.install()
        try:
            rc = tracer.wrap(f"cli.{command}", germlab.cli.main)(argv)
        finally:
            tracer.uninstall()
        report = {"t_begin": t_begin, "t_imported": t_imported,
                  "spans": tracer.aggregate(), "counts": dict(tracer.counters()),
                  "export": tracer.export()}
    else:
        rc = germlab.cli.main(argv)
    sys.stdout.flush()
    report["peak_kb"] = peak_kb()
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
