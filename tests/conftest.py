import re
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# Appended, so a PYTHONPATH that names another tree's src/ is the one tested.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

CRITERIA = {
    1: "ex1 Milnor determinant matches the factored form in under 60s",
    2: "mfx1 determinant with both components annihilating it",
    3: "e21 conformal frame, factor, and full certificate chain",
    4: "product pair verified and sign-flipped pair rejected",
    5: "ent1 witness limit (0,0,2s) with nonzero stratum pairing",
    6: "family violation on mhx1, quiet sampled probe on exaa",
    7: "closure claim annihilated on the cone, compose-closure fires",
    8: "three components land in the outer Milnor set, inclusion fires",
    9: "sampled composition probe finds a violation inside radius 0.5",
    10: "mixed and realified frame routes agree, Wirtinger exact",
    11: "rank, determinant, derivative, and finite-difference oracles",
}

_PAT = re.compile(r"test_acceptance\.py::test_criterion_(\d\d)")
_results: dict[int, list[bool]] = defaultdict(list)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = _PAT.search(report.nodeid)
    if m:
        _results[int(m.group(1))].append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tw = terminalreporter
    tw.section("acceptance", sep="-")
    for num in sorted(CRITERIA):
        runs = _results.get(num)
        if runs is None:
            continue
        verdict = "PASS" if all(runs) else "FAIL"
        tw.write_line(f"ACCEPTANCE {num:2d} {CRITERIA[num]}: {verdict}")
