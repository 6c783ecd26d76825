"""Entanglement of the base frame with a domain alphabet, the ~ quotient,
D-sharp domains, the h/t/xi machinery, the constant domain D* with its
classes at a point, and the psi surjections.

An entangled word interleaves a rooted path of the base frame with letters
from a finite domain alphabet (standing in for an S5-total second frame).
Words are equivalent when they agree after stripping trailing base-frame
letters; the quotient classes form the expanding domains D-sharp that the
constant-domain construction matches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .dense import DenseFrame, canonical, dropped, st, uk_members
from .kripke import (
    STOP, BudgetExceeded, EvaluationError, KripkeFrame, KripkeMorphism,
    Verdict, grow_words,
)
from .predicate import PredKKMorphism, PredKripkeFrame, check_agreement, \
    check_domain_maps, check_kk_morphism


@dataclass(frozen=True)
class EntangleSpace:
    """Base frame plus domain alphabet, whose second frame is S5-total on
    sigma2 with root ``sigma2[0]``."""

    frame: KripkeFrame
    sigma2: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma2", tuple(self.sigma2))
        if not self.sigma2:
            raise ValueError("domain alphabet must be nonempty")
        repeated = sorted({c for c in self.sigma2 if self.sigma2.count(c) > 1})
        if repeated:
            raise ValueError(f"domain alphabet repeats a letter: {repeated}")
        if not self.frame.is_rooted():
            raise ValueError("base frame must be rooted")
        overlap = set(self.sigma2) & (set(self.frame.worlds) | {STOP})
        if overlap:
            raise ValueError(f"alphabets must be disjoint: {sorted(overlap)}")

    def is_w(self, letter) -> bool:
        return letter in self.frame.worlds

    def is_d(self, letter) -> bool:
        return letter in self.sigma2


# ---------------------------------------------------------------------------
# projections and enumeration


def p1(space: EntangleSpace, word) -> tuple:
    return (space.frame.root,) + tuple(a for a in word if space.is_w(a))


def _is_path(frame: KripkeFrame, path: tuple) -> bool:
    if not path or path[0] != frame.root:
        return False
    return all((u, v) in frame.relation for u, v in zip(path, path[1:]))


def is_entangled(space: EntangleSpace, word) -> bool:
    word = tuple(word)
    for a in word:
        if not (space.is_w(a) or space.is_d(a)):
            return False
    return _is_path(space.frame, p1(space, word))


def entangle_enumerate(space: EntangleSpace, max_len: int) -> list:
    letters = sorted(space.frame.worlds) + list(space.sigma2)
    return grow_words(lambda w: [(a,) for a in letters
                                 if is_entangled(space, w + (a,))], max_len)


def _interleave(steps, sigma2, k: int) -> list:
    """Words of the ``steps`` in order with ``k`` letters of ``sigma2``
    placed among them, the last place going to a letter.  The letters cut
    the steps into runs: each choice of cut points is extended by every
    letter after every run."""
    n = len(steps)
    out = []
    for cuts in itertools.combinations_with_replacement(range(n + 1), k - 1):
        words = [()]
        start = 0
        for cut in cuts + (n,):
            run = steps[start:cut]
            words = [w + run + (c,) for w in words for c in sigma2]
            start = cut
        out += words
    return out


# ---------------------------------------------------------------------------
# the ~ quotient


def canonicalize(space: EntangleSpace, word) -> tuple:
    word = tuple(word)
    for c in word:
        if not (space.is_w(c) or space.is_d(c)):
            raise EvaluationError(f"not an entangled-word letter: {c!r}")
    while word and space.is_w(word[-1]):
        word = word[:-1]
    return word


def equiv(space: EntangleSpace, x, y) -> bool:
    for word in (x, y):
        if not is_entangled(space, word):
            raise EvaluationError(f"not an entangled word: {tuple(word)!r}")
    return canonicalize(space, x) == canonicalize(space, y)


def decompositions(space: EntangleSpace, x) -> set:
    """The entangled ``t`` with ``x = t.c`` for a word ``c`` over W: the
    prefixes of ``x`` reached by walking back from its end over world
    letters, stopping at the first letter that is not one."""
    x = tuple(x)
    out = set()
    i = len(x)
    while True:
        if is_entangled(space, x[:i]):
            out.add(x[:i])
        if i == 0 or not space.is_w(x[i - 1]):
            return out
        i -= 1


def equiv_bruteforce(space: EntangleSpace, x, y) -> bool:
    """Oracle: x = t.c and y = t.d for an entangled t and c,d over W.
    Kept apart from ``equiv`` as the independent side of criterion 9: it
    reads the definition and never calls ``canonicalize``.  The definition
    asks for a common ``t``, so it is factored per word: the two sets of
    ``decompositions`` meet.  Criterion 9 builds each word's set once and
    joins the words on them: the words ~ to ``u`` are those listed under
    any of ``u``'s decompositions."""
    return not decompositions(space, x).isdisjoint(decompositions(space, y))


# ---------------------------------------------------------------------------
# D-sharp domains


def dsharp(space: EntangleSpace, path: tuple, max_sigma: int) -> frozenset:
    """Canonical representatives of classes over ``path``: interleavings of
    a prefix of the path's steps with up to max_sigma domain letters, ending
    in a domain letter (or empty).  Bounding the domain-letter count keeps
    the truncated family expanding along path extension: the domain of a
    path is the empty class plus the fresh classes (``fresh_classes``) of
    each of its prefixes."""
    if not _is_path(space.frame, path):
        raise ValueError(f"not a rooted path: {path!r}")
    steps = path[1:]
    classes = {()}
    for plen in range(len(steps) + 1):
        classes.update(fresh_classes(space, steps[:plen], max_sigma))
    return frozenset(classes)


def fresh_classes(space: EntangleSpace, steps: tuple, max_sigma: int) -> list:
    """The classes born at the path with these steps: interleavings of all
    of ``steps`` with 1..max_sigma domain letters, ending in a domain
    letter."""
    return [word for k in range(1, max_sigma + 1)
            for word in _interleave(steps, space.sigma2, k)]


# ---------------------------------------------------------------------------
# h, t, xi


def h(space: EntangleSpace, alpha, gamma) -> tuple:
    """Interleave alpha's base-frame letters with gamma's domain letters.

    The zeros of gamma are slots; walking gamma position by position, each
    slot is filled by the next unused letter of alpha whose own position in
    alpha has already been reached.  Letters of alpha beyond gamma's
    stopping length are appended.  (A letter may thus be delayed past a run
    of domain letters, but never pulled ahead of its position — which is
    what keeps the result stable on deep neighbourhoods of alpha.)

    The walk is a fold of ``h_step`` over gamma from ``H_START``; the class
    tables (``class_table``) extend the same walk word by word."""
    letters = h_letters(space, alpha)
    state = H_START
    for c in canonical(gamma):
        state = h_step(space, letters, state, c)
    _, k, out = state
    return out + tuple(a for _, a in letters[k:])


def h_letters(space: EntangleSpace, alpha) -> tuple:
    """(position, letter) for each base-frame letter of alpha, checked."""
    letters = []
    for pos, a in enumerate(canonical(alpha), start=1):
        if a == STOP:
            continue
        if not space.is_w(a):
            raise EvaluationError(f"not a base-frame letter: {a!r}")
        letters.append((pos, a))
    return tuple(letters)


# the state of h's walk before gamma's first letter: (position in gamma,
# letters of alpha consumed, output so far)
H_START = (0, 0, ())


def h_step(space: EntangleSpace, letters: tuple, state: tuple, c) -> tuple:
    """The state of h's walk after gamma's next letter ``c``: a zero takes
    the next letter of alpha (``h_letters``) once its position is reached,
    and a domain letter is copied."""
    p, k, out = state
    p += 1
    if c == STOP:
        if k < len(letters) and letters[k][0] <= p:
            return p, k + 1, out + (letters[k][1],)
        return p, k, out
    if c not in space.sigma2:
        raise EvaluationError(f"not a domain letter: {c!r}")
    return p, k, out + (c,)


def t(space: EntangleSpace, alpha, ybar) -> tuple:
    """Insert the domain letters of ybar into alpha so that dropping zeros
    recovers ybar; the result is a stop word over the joint alphabet."""
    alpha = canonical(alpha)
    ybar = tuple(ybar)
    if dropped(alpha) != tuple(a for a in ybar if space.is_w(a)):
        raise EvaluationError(
            f"incompatible inputs: f0 of {alpha!r} does not match the"
            f" base-frame part of {ybar!r}")
    out = []
    i = 0
    j = 0
    while j < len(ybar) or i < len(alpha):
        c = ybar[j] if j < len(ybar) else None
        if c is not None and space.is_d(c):
            out.append(c)
            j += 1
        elif i >= len(alpha):
            break
        elif alpha[i] == STOP:
            out.append(STOP)
            i += 1
        else:
            # matching base-frame letters (guaranteed by the precondition)
            out.append(alpha[i])
            i += 1
            j += 1
    result = canonical(out)
    if tuple(a for a in result if a != STOP) != ybar:
        raise AssertionError(
            f"t self-check failed: dropping zeros of {result!r}"
            f" does not give {ybar!r}")  # pragma: no cover
    return result


def xi(space: EntangleSpace, alpha, gamma) -> tuple:
    return canonicalize(space, h(space, alpha, gamma))


def xi_locality_check(space: EntangleSpace, df: DenseFrame, alpha, gamma) -> dict:
    """xi(beta, gamma) = xi(alpha, gamma) for beta in U_m(alpha) at
    m = st(gamma) + st(alpha)."""
    if df.frame != space.frame:
        raise ValueError("dense frame must sit over the entangle base frame")
    m = st(gamma) + st(alpha)
    value = xi(space, alpha, gamma)
    members, families = uk_members(alpha, m, df)
    mismatches = [beta for beta in members
                  if xi(space, beta, gamma) != value]
    return {"m": m, "members": len(members), "families": len(families),
            "mismatches": mismatches, "ok": not mismatches}


# ---------------------------------------------------------------------------
# the constant domain D* and its classes at a point


# the most words ``enumerate_dstar`` builds, and the most classes a D-sharp
# domain of ``PsiMaps`` holds; the bundled scenarios and the benchmark's
# seed-3 and seed-5 ones, run at the least max_sigma, reach 9 words and 9
# classes (585 and 209 at their files' max_sigma)
DSTAR_WORDS = 2 ** 16
DSHARP_CLASSES = 2 ** 16


def enumerate_dstar(sigma2, max_sigma: int, gap_max: int) -> list:
    """Canonical domain stop words with at most max_sigma letters and zero
    runs capped at gap_max.

    The family is profile-complete at every point alpha with st(alpha) <=
    gap_max: it hits every class xi(alpha, gamma) that a word gamma with at
    most max_sigma letters hits.  In ``h`` each zero of gamma consumes the
    next unconsumed base letter of alpha once the walk has reached that
    letter's position, and every position of alpha is at most st(alpha).
    So a zero run of length >= st(alpha) consumes every letter of alpha
    still left, and a longer run consumes nothing more: shortening it to
    gap_max leaves xi(alpha, gamma), hence eta(alpha, gamma), as it was.

    The words are counted before any is built, and more than
    ``DSTAR_WORDS`` of them raise ``BudgetExceeded``."""
    steps = [(STOP,) * gap + (s,) for gap in range(gap_max + 1) for s in sigma2]
    count = sum(len(steps) ** k for k in range(max_sigma + 1))
    if count > DSTAR_WORDS:
        raise BudgetExceeded(
            f"the D* family with max_sigma = {max_sigma} and zero runs up to"
            f" {gap_max} has {count} words, over the budget DSTAR_WORDS ="
            f" {DSTAR_WORDS}")
    return grow_words(lambda word: steps, max_sigma)


def class_table(space: EntangleSpace, alpha, family) -> dict:
    """Class xi(alpha, gamma) -> the first word gamma of ``family`` in that
    class, in the order the family first hits the classes.

    One walk of ``h`` over the family: every word of ``family`` is empty or
    ends in a domain letter, and its parent (the word without its last step
    ``0^g s``: the last letter, then the zeros before it) comes before it,
    as in ``enumerate_dstar`` and its overflow words.  So each word's walk
    state is its parent's extended by one ``h_step`` per letter of that
    step (a word whose parent is not in the family is walked from the
    start).  And since the word ends in a domain letter, the letters of
    alpha that ``h`` would append are all base-frame letters that
    ``canonicalize`` strips: the walk's output as it stands is the class
    xi(alpha, gamma)."""
    letters = h_letters(space, alpha)
    states = {(): H_START}
    table = {}
    for gamma in family:
        i = max(len(gamma) - 1, 0)
        while i and gamma[i - 1] == STOP:
            i -= 1
        state = states.get(gamma[:i])
        if state is None:
            state, i = H_START, 0
        for c in gamma[i:]:
            state = h_step(space, letters, state, c)
        states[gamma] = state
        table.setdefault(state[2], gamma)
    return table


def xi_surjectivity_check(domain, table: dict) -> dict:
    """Every class of ``domain``, the truncated D-sharp domain over
    f0(alpha), is a key of ``table``, the class table that a ``forall`` at
    alpha ranges over."""
    missed = sorted(cls for cls in domain if cls not in table)
    return {"classes": len(domain), "missed": missed, "ok": not missed}


# ---------------------------------------------------------------------------
# psi


class PsiMaps(dict):
    """Path -> psi's domain map at the path (D-sharp class -> element of the
    target's domain at the path's endpoint), over the (optionally closed)
    truncated unravelling ``dense``.  A path's map is built from its
    parent's the first time it is looked up, the way ``pipeline.PointPaths``
    builds f0 paths, so only the paths asked for and their ancestors get
    one.

    The assignment rule: the path's parent's classes keep their values; the
    classes born at the path (``fresh_classes``; at the root, its whole
    D-sharp domain), sorted, go to the sorted elements new at the path's
    endpoint, one each, and the rest to the designated (least) element of
    the parent's domain.  So a path's domain is its parent's plus its fresh
    classes.  Those use every step of the path while each class of the
    parent's domain has fewer base letters, so they are disjoint from the
    parent's domain and are exactly the classes the path adds.  ``domains``
    keeps each built path's domain, grown that way from its parent's; the
    checks read it there (``check_psi_maps``, and the pipeline's
    ``xi_surjectivity_check`` through ``domain``).

    Set-up counts the classes born at each closed path (``fresh_count``)
    instead of listing them.  It refuses a D-sharp domain of more than
    ``DSHARP_CLASSES`` classes and an alphabet that is too small at some
    closed path, and makes ``phi0``, psi's frame part: each path to its
    endpoint, with lifting promised at the interior paths.

    ``max_sigma`` bounds the domain letters of a class.  The pipeline
    passes the least value that covers the domains (``least_max_sigma``);
    criterion 6 and the tests pass fixed ones."""

    def __init__(self, space: EntangleSpace, target: PredKripkeFrame,
                 dense: DenseFrame, max_sigma: int):
        super().__init__()
        frame = target.frame
        if frame != space.frame:
            raise ValueError("target must sit over the entangle base frame")
        if dense.frame != frame:
            raise ValueError("dense frame must sit over the target's base"
                             " frame")
        self.space, self.target, self.max_sigma = space, target, max_sigma
        self.domains = {}
        self.closed = closed = dense.closed_unravelling()
        self.phi0 = KripkeMorphism(closed, frame,
                                   {p: p[-1] for p in closed.worlds},
                                   interior=dense.interior_paths())
        # the number of classes born at a path of each length
        fresh = self.fresh_counts = [
            fresh_count(n, len(space.sigma2), max_sigma)
            for n in range(max(map(len, closed.worlds)))]
        fresh[0] += 1  # the root's domain also holds the empty class
        if sum(fresh) > DSHARP_CLASSES:
            raise BudgetExceeded(
                f"the D-sharp domain at a closed path of length {len(fresh)}"
                f" has {sum(fresh)} classes with max_sigma = {max_sigma},"
                f" over the budget DSHARP_CLASSES = {DSHARP_CLASSES}")
        short = [p for p in closed.worlds
                 if fresh[len(p) - 1] < len(_new(target.domain, p))]
        if short:
            path = min(short, key=lambda p: (len(p), p))
            raise ValueError(
                f"alphabet too small: {fresh[len(path) - 1]} fresh classes"
                f" cannot cover {len(_new(target.domain, path))} new elements"
                f" at {path!r}")

    def __missing__(self, path):
        if path not in self.closed.worlds:
            raise KeyError(path)
        if len(path) == 1:
            inherited = {}
            fresh = dsharp(self.space, path, self.max_sigma)
            self.domains[path] = fresh
            home = path[-1]
        else:
            inherited = self[path[:-1]]
            fresh = fresh_classes(self.space, path[1:], self.max_sigma)
            self.domains[path] = self.domains[path[:-1]].union(fresh)
            home = path[-2]
        targets = sorted(_new(self.target.domain, path))
        designated = min(self.target.domain(home))
        assignment = dict(inherited)
        for i, cls in enumerate(sorted(fresh)):
            assignment[cls] = targets[i] if i < len(targets) else designated
        self[path] = assignment
        return assignment

    def domain(self, path) -> frozenset:
        """The D-sharp domain at a closed path, its map built if need be."""
        self[path]
        return self.domains[path]


def _new(domain, path) -> frozenset:
    """The elements of the domain at the path's endpoint that its parent's
    endpoint lacks (all of the root's)."""
    if len(path) == 1:
        return domain(path[-1])
    return domain(path[-1]) - domain(path[-2])


def fresh_count(steps: int, letters: int, max_sigma: int) -> int:
    """len(fresh_classes) at a path of ``steps`` steps over ``letters``
    domain letters: with k letters, the last closes the word and the other
    k - 1 fall into the steps + 1 gaps around the steps, C(steps + k - 1,
    k - 1) ways, each letter one of ``letters``."""
    return sum(math.comb(steps + k - 1, k - 1) * letters ** k
               for k in range(1, max_sigma + 1))


def least_max_sigma(target: PredKripkeFrame, dense: DenseFrame, letters: int,
                    ceiling: int) -> int:
    """The least max_sigma >= 1 at which ``PsiMaps`` over ``dense`` covers
    the elements new at every closed path with ``letters`` domain letters:
    at each path length, ``fresh_count`` (plus the empty class at the root)
    against the most elements new at a closed path of that length.  It is
    ``ceiling`` when no smaller value covers them, and ``PsiMaps`` then
    refuses the alphabet there.  Every psi that passes the morphism checks
    gives the dense side the same truth values, so a larger value only
    grows the D-sharp domains and the ``forall`` families."""
    most = {}
    for path in dense.closed_unravelling().worlds:
        n = len(path) - 1
        most[n] = max(most.get(n, 0),
                      len(_new(target.domain, path)) - (n == 0))
    m = 1
    while m < ceiling and any(fresh_count(n, letters, m) < new
                              for n, new in most.items()):
        m += 1
    return m


def check_psi_maps(phi1: PsiMaps) -> Verdict:
    """psi's domain-map conditions at every path ``phi1`` holds a map for:
    each map is total on the path's D-sharp domain, into and onto the
    target's domain at the path's endpoint, and extends the map at the
    source of every closed edge into the path.  A path's map is built after
    its parent's, so those paths hold every ancestor of a checked path,
    among them the source of each closure edge into it.  Each domain is
    the one ``PsiMaps`` grew with the path's map."""
    checked = sorted(phi1, key=lambda p: (len(p), p))
    maps = check_domain_maps(phi1, checked, phi1.domains.__getitem__,
                             lambda p: phi1.target.domain(p[-1]))
    if not maps:
        return maps
    return check_agreement(phi1, [(u, v) for u, v in phi1.closed.relation
                                  if v in phi1])


def build_psi(space: EntangleSpace, target: PredKripkeFrame,
              dense: DenseFrame, max_sigma: int = 2) -> PredKKMorphism:
    """The whole psi: the surjections of ``PsiMaps`` from the D-sharp
    domains of the (optionally closed) truncated unravelling ``dense`` onto
    the target's expanding domains, at every closed path, checked by
    ``check_kk_morphism`` against the domains ``PsiMaps`` grew (its source
    domains).  The pipeline builds the maps only at the paths eta reads
    and checks them there (``check_psi_maps``); criterion 6 and the tests
    take the whole morphism."""
    phi1 = PsiMaps(space, target, dense, max_sigma)
    for path in phi1.closed.worlds:
        phi1[path]
    source = PredKripkeFrame(phi1.closed, phi1.domains)
    morphism = PredKKMorphism(source, target, phi1.phi0, dict(phi1))
    verdict = check_kk_morphism(morphism)
    if not verdict:
        raise AssertionError(f"psi construction failed its own check:"
                             f" {verdict.condition} {verdict.witness}")
    return morphism
