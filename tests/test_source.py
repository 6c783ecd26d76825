"""Properties of the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "mlwb"


def test_no_assert_statements():
    """``python -O`` strips ``assert`` statements, so a correctness check
    written as one would silently vanish; checks raise explicitly instead."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found
