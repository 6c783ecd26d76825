"""Seeded scenario generator for the benchmark workloads.

Every scenario is produced as a ``Spec`` that keeps the frame, domains,
valuation and formula in the benchmark's own representation, and is handed
to mlwb only as ``.scn`` text, so ``parse_scenario`` is part of every
verdict.  Formulas are small tuples:

    ("false",)  ("atom", pred, var)  ("imp", a, b)  ("box", a)  ("all", var, a)

The grid of frame shapes, formula templates, bounds and root values is
fixed; the seed chooses the world names and the valuations.  Fixing the grid
keeps the work of every seed comparable, so that run-to-run spread measures
the program and not the draw.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from oracle import root_value

WORLD_NAMES = ["a", "b", "c", "k", "m", "n", "r", "s", "t", "u", "v", "w"]
ELEMENT_NAMES = ["d", "e", "f", "g", "h", "i", "j", "l"]
PREDICATES = ("P", "Q")
# the root's domain has two elements, so that two-variable templates can be
# refuted there, and every other strongly connected component adds one; the
# domain sizes, which set the size of psi, are then the same for every seed
ROOT_ELEMENTS = 2
MAX_DRAWS = 2000


@dataclass(frozen=True)
class Spec:
    name: str
    worlds: tuple          # world names; worlds[0] is the root
    edges: tuple           # (u, v) pairs of world names
    domains: dict          # world -> frozenset of elements
    valuation: dict        # pred -> world -> frozenset of elements (unary)
    formula: tuple
    horn_k: Optional[int]  # Gamma = {R^k <= R}, or None
    depth: int
    j_max: int
    max_sigma: int

    @property
    def root(self):
        return self.worlds[0]


# ---------------------------------------------------------------------------
# formulas


def P(var):
    return ("atom", "P", var)


def Q(var):
    return ("atom", "Q", var)


def imp(a, b):
    return ("imp", a, b)


def box(a, times=1):
    for _ in range(times):
        a = ("box", a)
    return a


def forall(var, a):
    return ("all", var, a)


def modal_depth(a) -> int:
    kind = a[0]
    if kind in ("false", "atom"):
        return 0
    if kind == "imp":
        return max(modal_depth(a[1]), modal_depth(a[2]))
    if kind == "box":
        return 1 + modal_depth(a[1])
    return modal_depth(a[2])


def variables(a) -> set:
    kind = a[0]
    if kind == "false":
        return set()
    if kind == "atom":
        return {a[2]}
    if kind == "imp":
        return variables(a[1]) | variables(a[2])
    if kind == "box":
        return variables(a[1])
    return {a[1]} | variables(a[2])


def formula_text(a) -> str:
    """Fully parenthesised text in mlwb's predicate syntax."""
    kind = a[0]
    if kind == "false":
        return "false"
    if kind == "atom":
        return f"{a[1]}({a[2]})"
    if kind == "imp":
        return f"({formula_text(a[1])} -> {formula_text(a[2])})"
    if kind == "box":
        return f"box {formula_text(a[1])}"
    return f"forall {a[1]}. ({formula_text(a[2])})"


# ---------------------------------------------------------------------------
# .scn text


def scenario_text(spec: Spec) -> str:
    lines = ["[frame]", "worlds " + " ".join(spec.worlds), f"root {spec.root}"]
    if spec.edges:
        lines.append("edges " + " ".join(f"{u}->{v}" for u, v in spec.edges))
    lines += ["", "[domains]"]
    for w in spec.worlds:
        lines.append(f"domain {w} = {{{', '.join(sorted(spec.domains[w]))}}}")
    lines += ["", "[valuation]"]
    for pred in PREDICATES:
        for w in spec.worlds:
            rows = ", ".join(f"({d})" for d in sorted(spec.valuation[pred][w]))
            lines.append(f"val {pred} @ {w} = {{{rows}}}")
    if spec.horn_k is not None:
        lines += ["", "[horn]", horn_text(spec.horn_k)]
    lines += ["", "[formula]", formula_text(spec.formula),
              "", "[bounds]", f"depth = {spec.depth}", "k_max = 8",
              f"j_max = {spec.j_max}", f"max_sigma = {spec.max_sigma}",
              "seed = 0"]
    return "\n".join(lines) + "\n"


def horn_text(k: int) -> str:
    """The chain sentence of R^k <= R (k >= 2)."""
    names = ["x"] + [f"z{i}" for i in range(1, k)] + ["y"]
    body = " & ".join(f"{u} R {v}" for u, v in zip(names, names[1:]))
    return f"{body} => x R y"


# ---------------------------------------------------------------------------
# shared pieces


def longest_path(n: int, edges) -> int:
    """Edges on the longest rooted path of an acyclic frame on 0..n-1."""
    succ = {i: [b for a, b in edges if a == i] for i in range(n)}

    def height(i):
        return max((1 + height(j) for j in succ[i]), default=0)

    return height(0)


def _materialise(rng: random.Random, want: bool, name: str, n: int, edges,
                 formula, horn_k, depth: int, j_max: int,
                 max_sigma: int) -> Spec:
    """Name the worlds and draw expanding domains and a valuation, redrawing
    until the formula's root value is ``want``.  Fixing the root value per
    grid cell keeps the evaluator's work (which stops at the first
    falsifying branch) comparable from seed to seed."""
    for _ in range(MAX_DRAWS):
        spec = _draw(rng, name, n, edges, formula, horn_k, depth, j_max,
                     max_sigma)
        if root_value(spec) == want:
            return spec
    raise RuntimeError(f"{name}: no draw in {MAX_DRAWS} has root value {want}")


def _draw(rng: random.Random, name: str, n: int, edges, formula, horn_k,
          depth: int, j_max: int, max_sigma: int) -> Spec:
    names = rng.sample(WORLD_NAMES, n)
    reach = _reachability(n, edges)
    # worlds on a common cycle share one domain; along the remaining edges
    # domains expand
    components = []
    for i in range(n):
        comp = frozenset(j for j in range(n) if reach[i][j] and reach[j][i])
        if comp not in components:
            components.append(comp)
    components.sort(key=lambda c: sum(reach[j][min(c)] for j in range(n)))
    fresh = iter(ELEMENT_NAMES)
    domains: dict = {}
    for comp in components:
        inherited = set().union(*(domains[a] for a, b in edges
                                  if b in comp and a not in comp))
        new = ROOT_ELEMENTS if not inherited else 1
        dom = frozenset(inherited | {next(fresh) for _ in range(new)})
        domains.update((i, dom) for i in comp)
    valuation = {pred: {names[i]: frozenset(d for d in sorted(domains[i])
                                            if rng.random() < 0.5)
                        for i in range(n)}
                 for pred in PREDICATES}
    return Spec(name=name, worlds=tuple(names),
                edges=tuple((names[a], names[b]) for a, b in edges),
                domains={names[i]: domains[i] for i in range(n)},
                valuation=valuation, formula=formula, horn_k=horn_k,
                depth=depth, j_max=j_max, max_sigma=max_sigma)


def _reachability(n: int, edges) -> list:
    """reach[i][j]: j is reachable from i in zero or more steps."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for a, b in edges:
        reach[a][b] = True
    for m in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][m] and reach[m][j])
    return reach


# ---------------------------------------------------------------------------
# dense-eval: trees and DAGs without Gamma


DENSE_SHAPES = {
    "chain2": (2, [(0, 1)]),
    "chain3": (3, [(0, 1), (1, 2)]),
    "fork3": (3, [(0, 1), (0, 2)]),
    "dag3": (3, [(0, 1), (1, 2), (0, 2)]),
    "chain4": (4, [(0, 1), (1, 2), (2, 3)]),
    "tree4": (4, [(0, 1), (1, 2), (0, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "diamond4": (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
}

# (template name, formula, max_sigma values, refutable).  Templates whose
# root value rests on an implication between quantified sides do work that
# swings with the valuation at max_sigma 3, so they run at 2 only.  Two
# variables run only at max_sigma 2, at the smallest depth and on frames of
# at most three worlds, where a two-variable box already costs about a
# second.
DENSE_TEMPLATES = [
    ("box-all", box(forall("x", P("x"))), (2, 3), True),
    ("all-box", forall("x", box(P("x"))), (2, 3), True),
    ("barcan", imp(forall("x", box(P("x"))), box(forall("x", P("x")))),
     (2,), True),
    ("converse-barcan",
     imp(box(forall("x", P("x"))), forall("x", box(P("x")))), (2,), False),
    ("persist", forall("x", imp(P("x"), box(P("x")))), (2,), True),
    ("box2-all", box(forall("x", P("x")), 2), (2, 3), True),
    ("all-box2", forall("x", box(P("x"), 2)), (2,), True),
    ("box-all-box", box(forall("x", box(P("x")))), (2,), True),
    ("box3-all", box(forall("x", imp(P("x"), Q("x"))), 3), (2, 3), True),
    ("all-box3", forall("x", box(P("x"), 3)), (2,), True),
    ("all2-box", forall("x", forall("y", box(imp(P("x"), P("y"))))), (2,),
     True),
    ("all2-then-box",
     imp(forall("x", forall("y", imp(P("x"), Q("y")))),
         box(forall("x", P("x")))), (2,), True),
]
TWO_VARIABLE_MAX_WORLDS = 3


def dense_eval(seed: int) -> list:
    """Every template on every shape.  A template is refuted at the root on
    every other shape that allows it (a box^k template needs a rooted path
    of k edges), so each template is seen both refuted and holding."""
    rng = random.Random(seed)
    specs = []
    for tname, formula, sigmas, refutable in DENSE_TEMPLATES:
        md = modal_depth(formula)
        one_variable = len(variables(formula)) == 1
        j_max = 2 if md == 1 and one_variable else 1
        turn = 0
        for sname, (n, edges) in DENSE_SHAPES.items():
            if not one_variable and n > TWO_VARIABLE_MAX_WORLDS:
                continue
            longest = longest_path(n, edges)
            can_refute = refutable and longest >= md
            refuted = can_refute and turn % 2 == 0
            turn += can_refute
            base = max(longest, md) + 1
            depths = (base, base + 1) if one_variable else (base,)
            for max_sigma, depth in itertools.product(sigmas, depths):
                specs.append(_materialise(
                    rng, not refuted, f"{tname}@{sname}/s{max_sigma}/d{depth}",
                    n, edges, formula, None, depth, j_max, max_sigma))
    return specs


# ---------------------------------------------------------------------------
# horn-closure: pretransitive frames under a chain sentence


# a cell (shape, k, depth) is kept when paths^(k+1) stays under this: the
# closure tries every assignment of the k+1 variables of the chain sentence
# to paths, so this caps the closure work of the largest cells
CLOSURE_WORK_CAP = 120_000

HORN_TEMPLATES = [
    # (name, formula, refuted): modal depth 0 either way, or modal depth 1
    # refuted at the root, so that evaluation stays a small share
    ("all", forall("x", P("x")), None),
    ("box-false", box(("false",)), True),
    ("all-imp", forall("x", imp(P("x"), Q("x"))), None),
    ("all2", forall("x", forall("y", imp(P("x"), Q("y")))), None),
]


def validates(n: int, edges, k: int) -> bool:
    """Whether the frame on 0..n-1 satisfies R^k <= R."""
    relation = set(edges)
    power = {(i, i) for i in range(n)}
    for _ in range(k):
        power = {(a, c) for a, b in power for b2, c in relation if b == b2}
    return power <= relation


def rooted_frames(n: int) -> list:
    """Edge lists of the frames on 0..n-1 rooted at 0, one per isomorphism
    class of frames with that root."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    seen, out = set(), []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, bit in zip(pairs, bits) if bit]
        if not all(_reachability(n, edges)[0]):
            continue
        key = min(tuple(sorted((perm[a], perm[b]) for a, b in edges))
                  for perm in ((0,) + rest for rest in
                               itertools.permutations(range(1, n))))
        if key not in seen:
            seen.add(key)
            out.append(sorted(edges))
    return out


def path_count(n: int, edges, depth: int) -> int:
    succ = {i: [b for a, b in edges if a == i] for i in range(n)}
    frontier, total = [0], 1
    for _ in range(depth - 1):
        frontier = [v for u in frontier for v in succ[u]]
        total += len(frontier)
    return total


def horn_cells() -> list:
    """(n, edges, k, depth): every rooted 2- and 3-world frame under each
    chain sentence it validates, at depth 5 where the closure work stays
    under the cap, else at depth 4."""
    cells = []
    for k in (2, 3):
        for n in (2, 3):
            for edges in rooted_frames(n):
                if not validates(n, edges, k):
                    continue
                for depth in (5, 4):
                    if path_count(n, edges, depth) ** (k + 1) <= \
                            CLOSURE_WORK_CAP:
                        cells.append((n, edges, k, depth))
                        break
    return cells


def horn_closure(seed: int) -> list:
    """One scenario per cell, the templates taken in turn; those of modal
    depth 0 are refuted on every other turn."""
    rng = random.Random(seed)
    specs = []
    for index, (n, edges, k, depth) in enumerate(horn_cells()):
        tname, formula, refuted = HORN_TEMPLATES[index % len(HORN_TEMPLATES)]
        if refuted is None:
            refuted = index // len(HORN_TEMPLATES) % 2 == 0
        shape = "".join(f"{a}{b}" for a, b in edges)
        specs.append(_materialise(
            rng, not refuted, f"{tname}@{n}w:{shape}/R{k}/d{depth}", n, edges,
            formula, k, depth, 1, 2))
    return specs
