"""Universal strict Horn sentences on finite frames and the Gamma-closure.

The closure is the least superset of the relation satisfying every sentence,
computed as a naive fixpoint over variable assignments.  Frames here are
tiny, so clarity beats speed throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .kripke import KripkeFrame, KripkeMorphism, Verdict, check_pmorphism
from .syntax import HAnd, HAtom, HBody, HOr, HTrue, HornSentence, \
    content_lines, parse_horn


@dataclass(frozen=True)
class HornTheory:
    sentences: tuple  # of HornSentence

    def __iter__(self):
        return iter(self.sentences)

    @staticmethod
    def of(*sentences) -> "HornTheory":
        return HornTheory(tuple(sentences))


def _body_holds(body: HBody, relation: frozenset, env: dict) -> bool:
    if isinstance(body, HTrue):
        return True
    if isinstance(body, HAtom):
        return (env[body.left], env[body.right]) in relation
    if isinstance(body, HAnd):
        return _body_holds(body.left, relation, env) and \
            _body_holds(body.right, relation, env)
    if isinstance(body, HOr):
        return _body_holds(body.left, relation, env) or \
            _body_holds(body.right, relation, env)
    raise TypeError(f"not a Horn body: {body!r}")


def _violations(worlds, relation, s: HornSentence):
    for values in itertools.product(sorted(worlds, key=repr), repeat=len(s.variables)):
        env = dict(zip(s.variables, values))
        if _body_holds(s.body, relation, env):
            pair = (env[s.head.left], env[s.head.right])
            if pair not in relation:
                yield pair


def eval_horn(frame: KripkeFrame, s: HornSentence) -> bool:
    return next(_violations(frame.worlds, frame.relation, s), None) is None


def gamma_close(frame: KripkeFrame, gamma: HornTheory) -> KripkeFrame:
    """Least fixpoint F^Gamma: repeatedly add missing head pairs."""
    relation = set(frame.relation)
    max_rounds = len(frame.worlds) ** 2 + 1
    for _ in range(max_rounds):
        added = False
        for s in gamma:
            new = set(_violations(frame.worlds, frozenset(relation), s))
            if new:
                relation |= new
                added = True
        if not added:
            return KripkeFrame(frame.worlds, frozenset(relation), frame.root)
    raise RuntimeError("Horn closure failed to reach a fixpoint")  # pragma: no cover


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
    return HornTheory(tuple(parse_horn(line) for _, line in content_lines(text)))
