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


def _branches_on_forall(node) -> bool:
    return any(isinstance(call, ast.Call)
               and getattr(call.func, "id", None) == "isinstance"
               and any(isinstance(n, ast.Name) and n.id == "Forall"
                       for arg in call.args[1:] for n in ast.walk(arg))
               for call in ast.walk(node))


def test_two_predicate_evaluators():
    """Outside the syntax module, exactly two definitions branch on
    ``Forall``: ``predicate._truth_vectors``, which evaluates a finite
    model under a family of valuations at once, and
    ``pipeline.DenseEvaluator.eval``, the dense model's lazy three-valued
    evaluator.  They are kept apart so that the pipeline's Kripke root
    value and its dense value do not come from one recursion; a third
    evaluator would show up here.  A definition is a module-level function, a method, or
    any other statement of a module or class body."""
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path.name == "syntax.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            parts = [(f"{top.name}.{getattr(node, 'name', '<body>')}", node)
                     for node in top.body] if isinstance(top, ast.ClassDef) \
                else [(getattr(top, "name", "<module>"), top)]
            found += [f"{path.stem}.{name}" for name, node in parts
                      if _branches_on_forall(node)]
    assert sorted(found) == ["pipeline.DenseEvaluator.eval",
                             "predicate._truth_vectors"], found


def test_one_walk_of_h():
    """Only ``h`` and the class tables mention ``h_step``: the walk of
    ``h`` has one implementation, which the tables extend word by word
    instead of keeping a copy of it."""
    callers = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in tree.body:
            callers |= {f"{path.stem}.{getattr(function, 'name', '?')}"
                        for node in ast.walk(function)
                        if isinstance(node, ast.Name) and node.id == "h_step"
                        or isinstance(node, ast.alias)
                        and node.name == "h_step"}
    assert callers == {"entangle.h", "entangle.class_table"}, sorted(callers)


def _module_names() -> tuple:
    """``(nodes, aliases)``: ``nodes[(module, name)]`` is the statement
    defining each module-level function, class and assigned name, and
    ``aliases[(module, name)]`` is the ``(module, name)`` that each
    ``from .module import name`` binds."""
    nodes, aliases = {}, {}
    for path in sorted(SOURCE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[module, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            nodes[module, name.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    aliases[module, alias.asname or alias.name] = \
                        (node.module, alias.name)
    return nodes, aliases


def test_every_definition_has_a_caller():
    """The library is what ``mlwb`` runs: every module-level function and
    class is reached from ``cli.main`` or ``acceptance.run_all`` through
    the module-level names each definition mentions.  A definition only a
    test calls belongs in that test.  A class named only in an
    ``isinstance`` type argument is tested for, not used, so that does not
    count as a mention.  A local name that shadows a module-level one
    counts as a mention, so the walk can over-reach but never misses a
    caller."""
    nodes, aliases = _module_names()
    reached, todo = set(), [("cli", "main"), ("acceptance", "run_all")]
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        module = key[0]
        type_args = {id(n) for node in ast.walk(nodes[key])
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "isinstance"
                     for arg in node.args[1:] for n in ast.walk(arg)}
        for node in ast.walk(nodes[key]):
            if isinstance(node, ast.Name) and id(node) not in type_args:
                name = (module, node.id)
                name = aliases.get(name, name)
                if name in nodes:
                    todo.append(name)
    unreached = {f"{module}.{name}" for (module, name), node in nodes.items()
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and (module, name) not in reached}
    # perfbench/tracing.py wraps these by name, so they stay until the
    # benchmark reads the pipeline's own counters (ROADMAP item 3)
    assert unreached == {
        "entangle.equiv_bruteforce", "entangle.xi_locality_check",
        "neighbourhood.eval_nbhd", "predicate.eval_pred_nbhd",
        "syntax.free_vars",
    }, sorted(unreached)
