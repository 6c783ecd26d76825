"""Universal strict Horn sentences on finite frames and the Gamma-closure.

A Horn sentence is a Datalog rule with head ``R(x, y)``.  Each body is
rewritten in disjunctive normal form, and each conjunct is compiled once
into a join program: its atoms in join order, each step mapping a whole
list of rows (tuples of variable values by slot) over a relation indexed
by its first and by its second argument.  ``gamma_close`` computes the
least superset satisfying every sentence by semi-naive evaluation, running
each program once per atom position with the pairs the last round added at
that position (Bancilhon 1986; Abiteboul, Hull & Vianu, *Foundations of
Databases*, ch. 13).  The pipeline's theories are chain sentences R^k <= R,
recognised by ``chain_power``; it checks them by ``check_axiom_inclusion``
and closes the unravelling by path length (``dense.DenseFrame``), so
``gamma_close`` serves ``mlwb close``, criterion 4 and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .kripke import KripkeFrame
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

    @cached_property
    def _programs(self) -> list:
        """Per DNF conjunct, its join program from each atom position (one
        program for a ``true`` conjunct); not a field, so equality and hash
        come from ``sentences`` alone."""
        return [[_compile(atoms, s.head, i) for i in range(max(len(atoms), 1))]
                for s in self.sentences for atoms in _dnf(s.body)]


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
        self.pairs.update(pairs)
        by_left, by_right = self.by_left, self.by_right
        for u, v in pairs:
            by_left.setdefault(u, set()).add(v)
            by_right.setdefault(v, set()).add(u)


def _compile(atoms: tuple, head: HAtom, first: int) -> tuple:
    """The join program ``(steps, free, head slots)`` of the conjunct
    ``atoms``: atom ``first``, then always an atom with the most variables
    bound (the earliest among equals).  A row holds a value per slot.  A
    step ``(op, a, b)`` keeps the rows whose slots ``a`` and ``b`` are a
    pair (``check``), extends them through the index at slot ``a``
    (``by_left``, ``by_right``), or appends a loop's world (``diag``) or a
    pair (``cross``); then ``free`` unbound head variables range over the
    worlds."""
    slots: dict = {}
    steps = []
    rest = sorted(range(len(atoms)), key=lambda i: i != first)
    while rest:
        i = max(rest, key=lambda i: (atoms[i].left in slots)
                + (atoms[i].right in slots))
        rest.remove(i)
        u, v = atoms[i].left, atoms[i].right
        if u in slots and v in slots:
            steps.append(("check", slots[u], slots[v]))
        elif u in slots or v in slots:
            steps.append(("by_left", slots[u], None) if u in slots
                         else ("by_right", slots[v], None))
        else:
            steps.append(("diag" if u == v else "cross", None, None))
        for w in (u, v):
            slots.setdefault(w, len(slots))
    free = [w for w in dict.fromkeys((head.left, head.right))
            if w not in slots]
    for w in free:
        slots[w] = len(slots)
    return steps, len(free), slots[head.left], slots[head.right]


def _joins(program: tuple, first, relation: _Index, worlds) -> set:
    """The head pairs of ``program``, its first step reading the pairs
    ``first`` and each later step ``relation``."""
    steps, free, left, right = program
    rows, pairs = [()], first
    for op, a, b in steps:
        if op == "check":
            rows = [r for r in rows if (r[a], r[b]) in pairs]
        elif op == "cross":
            rows = [r + pair for r in rows for pair in pairs]
        elif op == "diag":
            loops = [(u,) for u, v in pairs if u == v]
            rows = [r + loop for r in rows for loop in loops]
        else:
            index = relation.by_left if op == "by_left" else relation.by_right
            rows = [r + (w,) for r in rows for w in index.get(r[a], ())]
        pairs = relation.pairs
    for _ in range(free):
        rows = [r + (w,) for r in rows for w in worlds]
    return {(r[left], r[right]) for r in rows}


def gamma_close(frame: KripkeFrame, gamma: HornTheory) -> KripkeFrame:
    """Least fixpoint F^Gamma, evaluated semi-naively.

    Round 0 runs every conjunct's program against the whole relation.
    Each later round runs every conjunct once per atom position, that atom
    reading the pairs the last round added and the others the whole
    relation: a new derivation uses at least one new pair.  A round that
    adds nothing ends the loop.
    """
    relation = _Index(frame.relation)
    programs = gamma._programs
    new = set().union(*(_joins(p[0], relation.pairs, relation, frame.worlds)
                        for p in programs)) - relation.pairs
    while new:
        relation.add(new)
        delta, new = new, set()
        for program in (p for ps in programs for p in ps):
            if program[0]:  # a ``true`` conjunct reads no new pair
                new |= _joins(program, delta, relation, frame.worlds)
        new -= relation.pairs
    return KripkeFrame(frame.worlds, frozenset(relation.pairs), frame.root)


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
    powers = {chain_power(s) for s in gamma}
    return None if None in powers else powers


def chain_power(s: HornSentence):
    """The k of an ``axiom_to_horn(k)`` sentence up to variable names: 0
    for ``true => x R x``, k for a chain of k atoms from the head's left to
    its right variable through distinct fresh ones; otherwise None."""
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
