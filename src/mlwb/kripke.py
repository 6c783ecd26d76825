"""Finite Kripke frames and models.

Evaluation by truth sets, depth-truncated unravelling, p-morphism
verification and brute-force validity checking.  Worlds are arbitrary
hashable ids; the id ``"0"`` is reserved for the stop symbol used by the
dense-path machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .syntax import FALSUM, Box, Falsum, Formula, Implies, Letter, box_power, \
    conj, content_lines, directives, keyed_lines, letters, names, parse_set

STOP = "0"


class EvaluationError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class KripkeFrame:
    worlds: frozenset
    relation: frozenset  # of (u, v) pairs
    root: Optional[object] = None

    def __post_init__(self):
        if STOP in self.worlds:
            raise ValueError(f"world id {STOP!r} is reserved")
        worlds = self.worlds
        outside = [(u, v) for u, v in self.relation
                   if u not in worlds or v not in worlds]
        if outside:
            u, v = min(outside, key=repr)
            raise ValueError(f"relation pair ({u!r}, {v!r}) outside worlds")
        if self.root is not None and self.root not in self.worlds:
            raise ValueError(f"root {self.root!r} not a world")

    @staticmethod
    def make(worlds: Iterable, relation: Iterable, root=None) -> "KripkeFrame":
        return KripkeFrame(frozenset(worlds), frozenset(tuple(p) for p in relation),
                           root)

    def successors(self, w) -> frozenset:
        return self._successors.get(w, frozenset())

    def is_rooted(self) -> bool:
        return self.root is not None and reachable(self, self.root) == self.worlds

    # the frame's successor index, built from the relation on first use;
    # not fields, so ``==`` and ``hash`` stay those of the fields

    @cached_property
    def _successors(self) -> dict:
        out: dict = {}
        for u, v in self.relation:
            out.setdefault(u, set()).add(v)
        return {u: frozenset(vs) for u, vs in out.items()}

    @cached_property
    def _positions(self) -> tuple:
        """The worlds sorted by ``repr``, and at each its successors'
        positions in that order."""
        worlds = sorted(self.worlds, key=repr)
        index = dict(zip(worlds, range(len(worlds))))
        return worlds, [[index[v] for v in self._successors.get(w, ())]
                        for w in worlds]


def successor_map(frame: KripkeFrame) -> dict:
    """World -> the frozenset of its successors, for every world with one:
    the frame's own index, shared by every caller (read it, never change
    it)."""
    return frame._successors


def reachable(frame: KripkeFrame, w) -> frozenset:
    """R*-reachable set of ``w`` (including ``w``)."""
    seen = {w}
    todo = [w]
    while todo:
        u = todo.pop()
        for v in frame.successors(u):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return frozenset(seen)


def relation_compose(r1: frozenset, r2: frozenset) -> frozenset:
    by_left: dict = {}
    for u, v in r2:
        by_left.setdefault(u, []).append(v)
    return frozenset((u, w) for u, v in r1 for w in by_left.get(v, ()))


def relation_power(frame: KripkeFrame, k: int) -> frozenset:
    """R^k; k = 0 gives the identity relation."""
    rel = frozenset((w, w) for w in frame.worlds)
    for _ in range(k):
        rel = relation_compose(rel, frame.relation)
    return rel


@dataclass(frozen=True)
class KripkeModel:
    frame: KripkeFrame
    valuation: dict  # letter name -> frozenset of worlds

    def __post_init__(self):
        for p, ws in self.valuation.items():
            if not frozenset(ws) <= self.frame.worlds:
                raise ValueError(f"valuation of {p!r} outside worlds")


def eval_kripke(model: KripkeModel, w, a: Formula) -> bool:
    if w not in model.frame.worlds:
        raise EvaluationError(f"unknown world {w!r}")
    return w in truth_set(model, a)


def truth_set(model: KripkeModel, a: Formula) -> frozenset:
    """The worlds of ``model`` where ``a`` holds."""
    worlds = model.frame._positions[0]
    vectors = {p: list(map(ext.__contains__, worlds))
               for p, ext in model.valuation.items()}
    values = _truth_vectors(model.frame, a, vectors, 1)
    return frozenset(w for w, x in zip(worlds, values) if x)


# kept apart from neighbourhood.truth_set: criterion 7 compares the two
def _truth_vectors(frame: KripkeFrame, a: Formula, vectors: dict,
                   full: int) -> list:
    """The value of ``a`` at each world of ``frame``, in ``repr`` order, as
    a bit-vector whose bit k is the value under valuation k; ``full`` has a
    bit per valuation and ``vectors`` gives each letter's values."""
    worlds, succ = frame._positions

    def ev(b):
        if isinstance(b, Letter):
            if b.name not in vectors:
                raise EvaluationError(f"letter {b.name!r} has no valuation entry")
            return vectors[b.name]
        if isinstance(b, Implies):
            return [(full ^ x) | y for x, y in zip(ev(b.left), ev(b.right))]
        if isinstance(b, Box):
            body = ev(b.body)
            out = []
            for vs in succ:
                x = full
                for v in vs:
                    x &= body[v]
                out.append(x)
            return out
        if isinstance(b, Falsum):
            return [0] * len(worlds)
        raise EvaluationError(f"not a propositional formula: {b!r}")
    return ev(a)


# ---------------------------------------------------------------------------
# p-morphisms


@dataclass(frozen=True)
class Verdict:
    ok: bool
    condition: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class KripkeMorphism:
    source: KripkeFrame
    target: KripkeFrame
    map: dict
    # lifting is only promised at these points (all worlds when None);
    # truncated unravellings restrict it to interior paths
    interior: Optional[frozenset] = None

    def __call__(self, w):
        return self.map[w]

    def lifting_points(self) -> frozenset:
        return self.source.worlds if self.interior is None else self.interior


def check_surjection(fmap: dict, points: frozenset,
                     targets: frozenset) -> Verdict:
    """The point map of a morphism is total on ``points``, defined nowhere
    else, into ``targets`` and onto them."""
    keys = set(fmap)
    missing = points - keys
    if missing:
        return Verdict(False, "totality", (sorted(missing, key=repr)[0],))
    extra = keys - points
    if extra:
        return Verdict(False, "map-at-unknown-point",
                       (sorted(extra, key=repr)[0],))
    image = {fmap[x] for x in points}
    if not image <= targets:
        x = min((x for x in points if fmap[x] not in targets), key=repr)
        return Verdict(False, "into", (x, fmap[x]))
    if image != targets:
        return Verdict(False, "surjectivity",
                       (sorted(targets - image, key=repr)[0],))
    return Verdict(True)


def check_pmorphism(f: KripkeMorphism) -> Verdict:
    """Check surjectivity, monotonicity, and lifting (at lifting points).
    A failure names its least witness by ``repr``."""
    fmap, src, tgt = f.map, f.source, f.target
    onto = check_surjection(fmap, src.worlds, tgt.worlds)
    if not onto:
        return onto
    unmapped = [(u, v) for u, v in src.relation
                if (fmap[u], fmap[v]) not in tgt.relation]
    if unmapped:
        return Verdict(False, "monotonicity", min(unmapped, key=repr))
    src_succ, tgt_succ = successor_map(src), successor_map(tgt)
    none = frozenset()
    stuck = [w for w in f.lifting_points() if not tgt_succ.get(fmap[w], none)
             <= {fmap[v] for v in src_succ.get(w, ())}]
    if stuck:
        return Verdict(False, "lifting", min(
            ((w, v2) for w in stuck for v2 in tgt_succ[fmap[w]]
             if v2 not in {fmap[v] for v in src_succ.get(w, ())}), key=repr))
    return Verdict(True)


def pullback_valuation(f, valuation: dict) -> dict:
    """Preimages of the extensions under the map of a Kripke or a
    neighbourhood morphism."""
    return {p: frozenset(x for x, y in f.map.items() if y in ws)
            for p, ws in valuation.items()}


def truth_preservation_test(f: KripkeMorphism, samples: int = 1000,
                            seed: int = 0) -> dict:
    """Sampled check of the truth-transfer biconditional for a verified
    morphism, at its lifting points."""
    return sample_truth_preservation(
        check_pmorphism(f), f.map, f.lifting_points(),
        letter_draw(f, KripkeModel, f.target.worlds), truth_set,
        samples, seed)


def letter_draw(f, model, target_points):
    """A ``draw`` for a Kripke or a neighbourhood morphism ``f``: a random
    valuation of p and q on the target, its pullback on the source, and a
    random formula of modal depth <= 3; ``model`` makes the models."""
    target_points = sorted(target_points, key=repr)

    def draw(rng):
        val = {p: frozenset(w for w in target_points if rng.random() < 0.5)
               for p in ("p", "q")}
        return (model(f.source, pullback_valuation(f, val)),
                model(f.target, val), random_formula(rng, ["p", "q"], depth=3))
    return draw


def sample_truth_preservation(verdict: Verdict, point_map: dict, points,
                              draw, truth_set, samples: int,
                              seed: int) -> dict:
    """The one truth-preservation sampler, for every kind of morphism.

    ``verdict`` is the morphism's own check, ``point_map`` its map on
    points and ``points`` those where it promises to preserve truth.  Each
    of ``samples`` draws, ``draw(rng) -> (source model, target model,
    formula)``, passes when the formula's truth set on the source (by the
    semantics' ``truth_set``) and the preimage of its truth set on the
    target agree at every one of ``points``.  A failure names the first
    point where they differ and the formula."""
    if not verdict:
        raise ValueError(f"morphism not verified: {verdict.condition}"
                         f" {verdict.witness}")
    rng = random.Random(seed)
    points = sorted(points, key=repr)
    passed = 0
    failures = []
    for _ in range(samples):
        source, target, a = draw(rng)
        left, right = truth_set(source, a), truth_set(target, a)
        wrong = [x for x in points if (x in left) != (point_map[x] in right)]
        if not wrong:
            passed += 1
        elif len(failures) < 5:
            failures.append((wrong[0], a))
    return {"samples": samples, "passed": passed, "failures": failures}


def random_formula(rng: random.Random, letter_names: list, depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.15:
            return FALSUM
        return Letter(rng.choice(letter_names))
    if rng.random() < 0.5:
        return Implies(random_formula(rng, letter_names, depth - 1),
                       random_formula(rng, letter_names, depth - 1))
    return Box(random_formula(rng, letter_names, depth - 1))


# ---------------------------------------------------------------------------
# validity


BRUTE_VALUATIONS = 2 ** 20  # a truth vector of 128 KiB


def brute_validity(frame: KripkeFrame, a: Formula) -> bool:
    """True iff ``a`` holds at every world under every valuation.

    Evaluates ``a`` once under all 2^n valuations, n = |letters| * |W|: a
    world's value is a 2^n-bit vector, and bit i*|W| + j of valuation k is
    the i-th letter (sorted) at the j-th world (sorted by ``repr``).
    Refuses (loudly) when 2^n exceeds ``BRUTE_VALUATIONS``.  The
    independent oracle for criteria 1 and 5.
    """
    names = sorted(letters(a))
    worlds = frame._positions[0]
    n = len(names) * len(worlds)
    if 2 ** n > BRUTE_VALUATIONS:
        raise BudgetExceeded(f"{2 ** n} valuations exceed cap"
                             f" {BRUTE_VALUATIONS}")
    # bit k of bits[b] is bit b of k: double the valuations n times
    bits, width = [], 1
    for _ in range(n):
        bits = [x | x << width for x in bits] + [((1 << width) - 1) << width]
        width *= 2
    vectors = {p: bits[i * len(worlds):(i + 1) * len(worlds)]
               for i, p in enumerate(names)}
    full = (1 << width) - 1
    return all(x == full for x in _truth_vectors(frame, a, vectors, full))


def check_axiom_inclusion(frame: KripkeFrame, k: int) -> Verdict:
    """Relational counterpart of ``box p -> box^k p``: R^k(w) subset of R(w)."""
    rk = relation_power(frame, k)
    for u, v in rk:
        if (u, v) not in frame.relation:
            return Verdict(False, "inclusion", (u, v))
    return Verdict(True)


def check_pretransitive(frame: KripkeFrame, k: int) -> Verdict:
    """Counterpart of ``p & box p & ... & box^k p -> box^{k+1} p``."""
    power = relation_power(frame, 0)
    union: set = set()
    for _ in range(k + 1):
        union |= power
        power = relation_compose(power, frame.relation)
    for pair in power:  # R^{k+1}
        if pair not in union:
            return Verdict(False, "pretransitivity", pair)
    return Verdict(True)


def axiom_inclusion_formula(k: int) -> Formula:
    return Implies(Box(Letter("p")), box_power(Letter("p"), k))


def pretransitivity_formula(k: int) -> Formula:
    conjuncts = box_power(Letter("p"), 0)
    for i in range(1, k + 1):
        conjuncts = conj(conjuncts, box_power(Letter("p"), i))
    return Implies(conjuncts, box_power(Letter("p"), k + 1))


# ---------------------------------------------------------------------------
# unravelling


@dataclass(frozen=True)
class Unravelling:
    frame: KripkeFrame          # worlds are path tuples
    pi: KripkeMorphism          # endpoint map onto the base frame
    interior: frozenset         # paths of length < depth


# the most paths ``unravel`` builds; the bundled scenarios and the
# acceptance criteria build at most a few dozen
UNRAVEL_PATHS = 2 ** 16


def unravel(frame: KripkeFrame, depth: int) -> Unravelling:
    """Frame of rooted paths of length <= depth with one-step extension.

    The endpoint map satisfies surjectivity and monotonicity globally;
    lifting is guaranteed only at interior paths (length < depth).  The
    paths are counted length by length before any is built, and more than
    ``UNRAVEL_PATHS`` of them raise ``BudgetExceeded``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not frame.is_rooted():
        raise ValueError("frame must be rooted")
    succ = {w: sorted(vs, key=repr) for w, vs in successor_map(frame).items()}
    ends, count = {frame.root: 1}, 1  # paths of the last length, per endpoint
    for length in range(2, depth + 1):
        longer: dict = {}
        for w, n in ends.items():
            for v in succ.get(w, ()):
                longer[v] = longer.get(v, 0) + n
        ends = longer
        count += sum(ends.values())
        if count > UNRAVEL_PATHS:
            raise BudgetExceeded(
                f"unravelling to depth {depth} has {count} paths of length"
                f" <= {length} alone, over the budget of {UNRAVEL_PATHS}")

    def steps(word):
        return [(v,) for v in succ.get(word[-1] if word else frame.root, ())]
    paths = [(frame.root,) + word for word in grow_words(steps, depth - 1)]
    path_set = frozenset(paths)
    rel = frozenset((p[:-1], p) for p in paths if len(p) > 1)
    unravelled = KripkeFrame(path_set, rel, root=(frame.root,))
    interior = frozenset(p for p in paths if len(p) < depth)
    pi = KripkeMorphism(unravelled, frame, {p: p[-1] for p in paths},
                        interior=interior)
    return Unravelling(unravelled, pi, interior)


def grow_words(steps, rounds: int) -> list:
    """The empty word and, round by round, every word of the last round
    extended by each suffix in ``steps(word)``."""
    out = [()]
    frontier = [()]
    for _ in range(rounds):
        frontier = [word + step for word in frontier for step in steps(word)]
        out.extend(frontier)
    return out


# ---------------------------------------------------------------------------
# frame text format


def parse_frame(text: str) -> KripkeFrame:
    """Line format: ``frame <name>``, ``worlds w1 w2 ...``, ``root w``,
    ``edges a->b c->d ...``.  Duplicate world ids and a second ``root`` line
    are rejected."""
    lines = directives(text, "frame", "worlds", "root", "edges")
    root = None
    for lineno, root in keyed_lines(lines["root"], lead="root").values():
        if len(root.split()) != 1:
            raise ValueError(f"line {lineno}: expected one root world,"
                             f" found {root!r}")
    edges = []
    for lineno, line in lines["edges"]:
        for item in line.split()[1:]:
            u, arrow, v = item.partition("->")
            if not arrow:
                raise ValueError(f"line {lineno}: bad edge {item!r}")
            edges.append((u, v))
    return KripkeFrame.make(names(lines["worlds"], "world"), edges, root)


def parse_valuation(text: str) -> dict:
    """``val p = {w1,w2}`` per line."""
    return {p: frozenset(parse_set(value, lineno)) for p, (lineno, value)
            in keyed_lines(content_lines(text), "=", lead="val").items()}


def format_frame(frame: KripkeFrame, name: str = "F") -> str:
    lines = [f"frame {name}",
             "worlds " + " ".join(sorted(frame.worlds, key=repr))]
    if frame.root is not None:
        lines.append(f"root {frame.root}")
    edges = " ".join(f"{u}->{v}" for u, v in sorted(frame.relation, key=repr))
    lines.append("edges " + edges if edges else "edges")
    return "\n".join(lines) + "\n"
