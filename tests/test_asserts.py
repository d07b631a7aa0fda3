"""The `assert` statements left in germlab, against an allowlist.

`python -O` strips asserts, so a check on a caller's input must raise an
exception instead.  Each remaining assert is listed here by file and
enclosing function, once per statement; a new one fails this test until
it is either turned into an exception or added on purpose.
"""

import ast
from collections import Counter
from pathlib import Path

import germlab

ALLOWED = (
    ("certify.py", "RegularityReport.chain.walk"),
    ("hwc.py", "product_pair"),
)


def _asserts(root: Path) -> list[tuple[str, str]]:
    found = []

    def walk(node, scope, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + [child.name], path)
                continue
            if isinstance(child, ast.Assert):
                found.append((path, ".".join(scope) or "<module>"))
            walk(child, scope, path)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), [], path.relative_to(root).as_posix())
    return found


def test_remaining_asserts_are_allowlisted():
    found = Counter(_asserts(Path(germlab.__file__).resolve().parent))
    allowed = Counter(ALLOWED)
    assert found - allowed == Counter(), "new asserts; raise an exception instead"
    assert allowed - found == Counter(), "allowlisted asserts are gone; drop them here"
