"""Universal strict Horn sentences on finite frames and the Gamma-closure.

A Horn sentence is a Datalog rule with head ``R(x, y)``.  Each body is
rewritten once in disjunctive normal form, and its conjuncts are evaluated
as joins over a relation indexed by its first and by its second argument.
``eval_horn`` runs that join over the whole relation; ``gamma_close``
computes the least superset satisfying every sentence by semi-naive
evaluation, joining only the pairs each round added against the indexed
relation (Bancilhon 1986; Abiteboul, Hull & Vianu, *Foundations of
Databases*, ch. 13).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .kripke import KripkeFrame, KripkeMorphism, Verdict, check_pmorphism
from .syntax import HAnd, HAtom, HBody, HOr, HTrue, HornSentence, \
    content_lines, parse_horn, read_line


@dataclass(frozen=True)
class HornTheory:
    sentences: tuple  # of HornSentence

    def __iter__(self):
        return iter(self.sentences)

    @staticmethod
    def of(*sentences) -> "HornTheory":
        return HornTheory(tuple(sentences))


def _dnf(body: HBody) -> list:
    """The conjuncts of ``body``, each a tuple of atoms; ``true`` is ``()``."""
    if isinstance(body, HTrue):
        return [()]
    if isinstance(body, HAtom):
        return [(body,)]
    if isinstance(body, HAnd):
        return [left + right for left in _dnf(body.left)
                for right in _dnf(body.right)]
    if isinstance(body, HOr):
        return _dnf(body.left) + _dnf(body.right)
    raise TypeError(f"not a Horn body: {body!r}")


class _Index:
    """A binary relation indexed by its first and by its second argument."""

    def __init__(self, pairs=()):
        self.pairs: set = set()
        self.by_left: dict = {}
        self.by_right: dict = {}
        self.add(pairs)

    def add(self, pairs) -> None:
        for u, v in pairs:
            self.pairs.add((u, v))
            self.by_left.setdefault(u, set()).add(v)
            self.by_right.setdefault(v, set()).add(u)

    def extend(self, atom: HAtom, env: dict):
        """Every extension of ``env`` that binds ``atom`` to a pair."""
        left, right = atom.left, atom.right
        if left in env and right in env:
            if (env[left], env[right]) in self.pairs:
                yield env
        elif left in env:
            for v in self.by_left.get(env[left], ()):
                yield {**env, right: v}
        elif right in env:
            for u in self.by_right.get(env[right], ()):
                yield {**env, left: u}
        elif left == right:
            for u, v in self.pairs:
                if u == v:
                    yield {**env, left: u}
        else:
            for u, v in self.pairs:
                yield {**env, left: u, right: v}


def _plan(atoms: tuple, first: int) -> list:
    """Join order: atom ``first``, then always an atom with the most
    variables already bound (the earliest among equals)."""
    if not atoms:
        return []
    order, rest = [first], [i for i in range(len(atoms)) if i != first]
    bound = {atoms[first].left, atoms[first].right}
    while rest:
        i = max(rest, key=lambda i: (atoms[i].left in bound)
                + (atoms[i].right in bound))
        rest.remove(i)
        order.append(i)
        bound |= {atoms[i].left, atoms[i].right}
    return order


def _bindings(atoms: tuple, sources: list, order: list, env: dict):
    if not order:
        yield env
        return
    i = order[0]
    for extended in sources[i].extend(atoms[i], env):
        yield from _bindings(atoms, sources, order[1:], extended)


def _heads(atoms: tuple, head: HAtom, sources: list, first: int, worlds):
    """Head pairs of every binding of the conjunct ``atoms``, atom ``i``
    ranging over ``sources[i]``; head variables the body leaves unbound
    range over ``worlds``."""
    bound = {v for atom in atoms for v in (atom.left, atom.right)}
    free = [v for v in dict.fromkeys((head.left, head.right))
            if v not in bound]
    for env in _bindings(atoms, sources, _plan(atoms, first), {}):
        for values in itertools.product(worlds, repeat=len(free)):
            full = {**env, **dict(zip(free, values))}
            yield full[head.left], full[head.right]


def _violations(index: _Index, worlds, s: HornSentence):
    for atoms in _dnf(s.body):
        for pair in _heads(atoms, s.head, [index] * len(atoms), 0, worlds):
            if pair not in index.pairs:
                yield pair


def eval_horn(frame: KripkeFrame, s: HornSentence) -> bool:
    index = _Index(frame.relation)
    return next(_violations(index, frame.worlds, s), None) is None


def gamma_close(frame: KripkeFrame, gamma: HornTheory) -> KripkeFrame:
    """Least fixpoint F^Gamma, evaluated semi-naively.

    Round 0 joins every conjunct against the whole relation.  Each later
    round joins every conjunct once per atom position, with the pairs the
    last round added at that position and the whole relation at the others:
    a new derivation uses at least one new pair.  A round that adds nothing
    ends the loop.
    """
    relation = _Index(frame.relation)
    new = {pair for s in gamma
           for pair in _violations(relation, frame.worlds, s)}
    rules = [(atoms, s.head) for s in gamma for atoms in _dnf(s.body)]
    while new:
        relation.add(new)
        delta = _Index(new)
        new = set()
        for atoms, head in rules:
            for i in range(len(atoms)):
                sources = [relation] * len(atoms)
                sources[i] = delta
                new.update(pair for pair in
                           _heads(atoms, head, sources, i, frame.worlds)
                           if pair not in relation.pairs)
    return KripkeFrame(frame.worlds, frozenset(relation.pairs), frame.root)


def closure_minimality_check(frame: KripkeFrame, gamma: HornTheory) -> dict:
    """Every added pair is forced: re-closing without it restores it."""
    closed = gamma_close(frame, gamma)
    added = closed.relation - frame.relation
    violations = []
    for pair in sorted(added, key=repr):
        # R^Gamma \ {pair} is still a superset of R, so by minimality it must
        # break some sentence; re-closing it then restores the pair
        reduced = KripkeFrame(frame.worlds, closed.relation - {pair}, frame.root)
        if all(eval_horn(reduced, s) for s in gamma):
            violations.append(pair)
        elif pair not in gamma_close(reduced, gamma).relation:
            violations.append(pair)
    return {"added": sorted(added, key=repr), "violations": violations,
            "ok": not violations}


def closure_pmorphism_lift_check(f: KripkeMorphism, gamma: HornTheory) -> Verdict:
    """If the target satisfies Gamma, a verified f stays one after closing F."""
    base = check_pmorphism(f)
    if not base:
        return Verdict(False, f"precondition:morphism:{base.condition}", base.witness)
    for s in gamma:
        if not eval_horn(f.target, s):
            return Verdict(False, "precondition:target-violates-gamma", None)
    closed = gamma_close(f.source, gamma)
    lifted = KripkeMorphism(closed, f.target, f.map, f.interior)
    return check_pmorphism(lifted)


def axiom_to_horn(k: int):
    """Horn counterpart of ``box p -> box^k p``.

    k = 0: reflexivity with an empty (true) body; k = 1: no constraint
    (returns None); k >= 2: the chain sentence x R z1 & ... & z_{k-1} R y => x R y.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return HornSentence(("x",), HTrue(), HAtom("x", "x"))
    if k == 1:
        return None
    names = ["x"] + [f"z{i}" for i in range(1, k)] + ["y"]
    body: HBody = HAtom(names[0], names[1])
    for i in range(1, k):
        body = HAnd(body, HAtom(names[i], names[i + 1]))
    return HornSentence(("x", "y") + tuple(names[1:-1]), body, HAtom("x", "y"))


def axioms_to_theory(ks) -> HornTheory:
    sentences = [axiom_to_horn(k) for k in ks]
    return HornTheory(tuple(s for s in sentences if s is not None))


def chain_axiom_powers(gamma: HornTheory):
    """If every sentence of ``gamma`` is an ``axiom_to_horn`` instance, return
    the set of powers k; otherwise None."""
    powers = set()
    for s in gamma:
        k = _chain_power(s)
        if k is None:
            return None
        powers.add(k)
    return powers


def _chain_power(s: HornSentence):
    if isinstance(s.body, HTrue) and s.head.left == s.head.right:
        return 0
    atoms = []

    def linear(b):
        if isinstance(b, HAtom):
            atoms.append(b)
            return True
        if isinstance(b, HAnd):
            return linear(b.left) and linear(b.right)
        return False

    if not linear(s.body):
        return None
    if not atoms:
        return None
    for prev, nxt in zip(atoms, atoms[1:]):
        if prev.right != nxt.left:
            return None
    if atoms[0].left != s.head.left or atoms[-1].right != s.head.right:
        return None
    mids = [a.left for a in atoms[1:]]
    if len(set(mids + [s.head.left, s.head.right])) != len(mids) + 2:
        return None
    return len(atoms)


def transitive_closure_squaring(relation: frozenset) -> frozenset:
    """Independent oracle: iterative squaring until stable.  Kept apart
    from ``gamma_close`` and ``relation_compose``: criterion 4 checks the
    closure against it."""
    def compose(r1, r2):
        by_left: dict = {}
        for u, v in r2:
            by_left.setdefault(u, []).append(v)
        return frozenset((u, w) for u, v in r1 for w in by_left.get(v, ()))

    rel = frozenset(relation)
    while True:
        squared = rel | compose(rel, rel)
        if squared == rel:
            return rel
        rel = squared


def parse_horn_theory(text: str) -> HornTheory:
    """One sentence per line; ``#`` starts a comment."""
    return HornTheory(tuple(read_line(parse_horn, lineno, line)
                            for lineno, line in content_lines(text)))
