"""Print one sha256 per CLI output that a refactor must keep byte-identical.

    python3 scripts/identity.py [CHECKOUT]

CHECKOUT defaults to the checkout that holds this script.  Each command
runs in a fresh interpreter on CHECKOUT's own `src/`, from CHECKOUT's
root, at the default seed (GERMLAB_SEED is dropped from the environment).
Each output line is

    <sha256 of stdout>  <exit code>  germlab <arguments>

with paths relative to the checkout root, so the lists of two checkouts
compare with diff:

    diff <(python3 scripts/identity.py ../parent) <(python3 scripts/identity.py)

`corpus run --json REPORT` hashes the JSON report instead of stdout.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = "src/germlab/corpus"
DECLARATION = re.compile(r"^(map|mixed) (\w+) :", re.MULTILINE)


def declarations(root: Path, germs: list[str]) -> list[tuple[str, str, str]]:
    """(file, kind, name) of every corpus declaration, in file order."""
    return [(g, kind, name) for g in germs
            for kind, name in DECLARATION.findall((root / CORPUS / g).read_text())]


def commands(root: Path) -> list[list[str]]:
    germs = sorted(p.name for p in (root / CORPUS).glob("*.germ"))
    decls = declarations(root, germs)
    return [
        *(["parse", f"{CORPUS}/{g}"] for g in germs),
        # perfbench's cli-cold commands; `parse e21.germ` is listed above
        ["milnor", f"{CORPUS}/mfx1.germ"],
        ["sing", f"{CORPUS}/ent1.germ"],
        ["hwc", f"{CORPUS}/e21.germ"],
        ["witness", f"{CORPUS}/ent1.germ"],
        ["probe-b", f"{CORPUS}/mhx1.germ", "--witness", "fam"],
        ["compose-check", f"{CORPUS}/comp48.germ", "--inner", "F48", "--outer",
         "G48", "--mode", "exact", "--set", "MH", "--claim", "closure"],
        # 2,000 rational points of another radius, so other denominators,
        # through the exact evaluation
        ["compose-check", f"{CORPUS}/comp48.germ", "--inner", "F48", "--outer",
         "G48", "--mode", "exact", "--set", "MH", "--claim", "closure",
         "--samples", "400", "--radius", "3"],
        ["construct", "sum", f"{CORPUS}/esum.germ", "--left", "quart",
         "--right", "bilin"],
        # the declared separable-thom transfer
        ["construct", "sum", f"{CORPUS}/esum.germ", "--left", "quart",
         "--right", "bilin", "--declare-thom-summands",
         "--declare-codim-matches"],
        # the sampled modes
        ["probe-b", f"{CORPUS}/exaa.germ", "--set", "V"],
        # floats compiled in the term order of a realified mixed germ
        ["probe-b", f"{CORPUS}/e1.germ", "--germ", "e1a", "--set", "V"],
        ["compose-check", f"{CORPUS}/contra.germ", "--inner", "FC", "--outer",
         "GC", "--mode", "sampled", "--radius", "0.5"],
        ["compose-check", f"{CORPUS}/incl.germ", "--inner", "FI", "--outer",
         "GI", "--mode", "inclusion", "--set", "MH"],
        *(["hwc", f"{CORPUS}/{g}", "--germ", name]
          for g, kind, name in decls if kind == "mixed"),
        # every Milnor polynomial, mixalg's 471,771 terms among them
        *(["milnor", f"{CORPUS}/{g}", "--germ", name] for g, _, name in decls),
        ["construct", "product", f"{CORPUS}/prodpair.germ"],
        ["construct", "product", f"{CORPUS}/prodpair_bad.germ"],
        # the README example
        ["construct", "mixed-algo", "--vars", "z1,z2,z3,z4,z5",
         "--left", "z1,z3,z5", "--f", "z1^4*z5^3", "--f", "z3^2",
         "--g", "z2^5", "--g", "z4", "--r", "z1^4", "--r=-z3^6",
         "--h=-z2^7*z4^3"],
        # a mixed build whose frame check holds, so a conformal factor prints
        ["construct", "mixed-algo", "--vars", "z1,z2", "--left", "z1",
         "--f", "z1^2", "--g", "z2^3", "--h", "z2^2"],
    ]


def run(root: Path, argv: list[str], env: dict) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "germlab.cli", *argv],
                          cwd=root, env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout


def main() -> int:
    here = Path(__file__).resolve().parents[1]
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here
    env = {k: v for k, v in os.environ.items() if k != "GERMLAB_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        code, _ = run(root, ["corpus", "run", "--json", str(report)], env)
        digest = hashlib.sha256(report.read_bytes()).hexdigest()
        print(f"{digest}  {code}  germlab corpus run --json REPORT", flush=True)
    for argv in commands(root):
        code, out = run(root, argv, env)
        digest = hashlib.sha256(out).hexdigest()
        print(f"{digest}  {code}  germlab {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
