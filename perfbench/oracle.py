"""Independent reference computations for the benchmark's output checks.

Nothing here imports mlwb: the root value and the closure-edge count are
recomputed from the generator's own ``Spec`` with separate code, so that a
fault in mlwb's parser, evaluator or closure cannot also hide in its check.
"""

from __future__ import annotations


def successor_map(worlds, edges) -> dict:
    succ = {w: [] for w in worlds}
    for u, v in edges:
        succ[u].append(v)
    return succ


def root_value(spec) -> bool:
    """Expanding-domain predicate Kripke semantics at the root: ``box``
    ranges over successors, ``forall`` over the domain of the current
    world, and bound elements keep their identity along the relation."""
    succ = successor_map(spec.worlds, spec.edges)

    def holds(w, a, env) -> bool:
        kind = a[0]
        if kind == "false":
            return False
        if kind == "atom":
            return env[a[2]] in spec.valuation[a[1]][w]
        if kind == "imp":
            return not holds(w, a[1], env) or holds(w, a[2], env)
        if kind == "box":
            return all(holds(v, a[1], env) for v in succ[w])
        if kind == "all":
            return all(holds(w, a[2], {**env, a[1]: d})
                       for d in spec.domains[w])
        raise ValueError(f"unknown formula node {a!r}")

    return holds(spec.root, spec.formula, {})


def unravelling(spec) -> tuple:
    """Rooted paths with at most ``spec.depth`` worlds, and the one-step
    extension relation between them."""
    succ = successor_map(spec.worlds, spec.edges)
    paths = [(spec.root,)]
    frontier = list(paths)
    for _ in range(spec.depth - 1):
        frontier = [p + (v,) for p in frontier for v in succ[p[-1]]]
        paths.extend(frontier)
    tree = {(p[:-1], p) for p in paths if len(p) > 1}
    return paths, tree


def closure_edges(spec) -> int:
    """Pairs that the least fixpoint of R^k <= R adds to the truncated
    unravelling (0 without Gamma)."""
    if spec.horn_k is None:
        return 0
    paths, tree = unravelling(spec)
    relation = set(tree)
    k = spec.horn_k
    while True:
        succ = {p: set() for p in paths}
        for u, v in relation:
            succ[u].add(v)
        # R^k as the set of endpoints reachable in exactly k steps
        new = set()
        for p in paths:
            reach = {p}
            for _ in range(k):
                reach = {v for u in reach for v in succ[u]}
            new.update((p, q) for q in reach if (p, q) not in relation)
        if not new:
            return len(relation) - len(tree)
        relation |= new
