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


def test_no_unused_imports():
    """Every name a module imports is used in that module: an import left
    behind by a deletion is dead code that still ties the modules
    together."""
    unused = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{lineno}: {name}"
                   for name, lineno in sorted(imported.items())
                   if name not in used]
    assert not unused, unused


def test_one_predicate_evaluator():
    """Only the syntax module and the one predicate evaluator branch on
    ``Forall``: a model supplies what a ``forall`` binds through a hook, so
    a second evaluator would show up here."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name in ("syntax.py", "predicate.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "isinstance"
                  and any(isinstance(n, ast.Name) and n.id == "Forall"
                          for arg in node.args[1:] for n in ast.walk(arg))]
    assert not found, found
