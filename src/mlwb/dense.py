"""Pseudo-infinite paths with stops and the dense neighbourhood frame.

A point of the dense frame over a rooted finite frame F is an eventually-zero
infinite word over W + {0}; it is stored canonically as the finite prefix with
trailing zeros stripped (a *stop word*).  The filter base at a point is the
antitone family U_k; since the intersection of the U_k is empty, no point has
a minimal neighbourhood.

Although the frame is infinite, ``bounded_eval`` decides exactly the
fragment it accepts: letters, falsum and implication, and boxes over bodies
of modal depth 0 along one-letter extension steps, which two zero paddings
of each step decide at one neighbourhood index (see ``_eval_box``).  Any
other formula, and a box at a frontier path of the truncated unravelling,
raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .horn import HornTheory, chain_axiom_powers
from .kripke import (
    STOP, BudgetExceeded, EvaluationError, KripkeFrame, Verdict,
    brute_validity, grow_words, successor_map, unravel,
)
from .syntax import Box, Falsum, Formula, Implies, Letter, dia, modal_depth, \
    neg, to_text


# ---------------------------------------------------------------------------
# stop words


def canonical(letters) -> tuple:
    """Strip trailing stop symbols."""
    word = tuple(letters)
    while word and word[-1] == STOP:
        word = word[:-1]
    return word


def dropped(word) -> tuple:
    return tuple(a for a in word if a != STOP)


def st(word) -> int:
    """Index of the last non-stop letter of the denoted infinite word."""
    return len(canonical(word))


def restrict(word, k: int) -> tuple:
    """First k letters of the infinite word (zero-padded beyond st)."""
    word = tuple(word)
    if k <= len(word):
        return word[:k]
    return word + (STOP,) * (k - len(word))


def validate_stopword(word, frame: KripkeFrame) -> Verdict:
    """A word is a path with stops iff its zero-dropped form is a chain of
    R-successors starting from a successor of the root.  The frame is taken
    to be rooted: ``unravel`` and ``EntangleSpace`` check that once."""
    word = tuple(word)
    for a in word:
        if a != STOP and a not in frame.worlds:
            return Verdict(False, "unknown-letter", (a,))
    chain = (frame.root,) + dropped(word)
    for u, v in zip(chain, chain[1:]):
        if (u, v) not in frame.relation:
            return Verdict(False, "broken-chain", (u, v))
    return Verdict(True)


def f0(word, frame: KripkeFrame) -> tuple:
    """Root followed by the zero-dropped letters (a rooted path)."""
    verdict = validate_stopword(word, frame)
    if not verdict:
        raise EvaluationError(f"invalid path with stops: {verdict.condition}"
                              f" {verdict.witness}")
    return (frame.root,) + dropped(word)


def enumerate_paths_with_stops(frame: KripkeFrame, max_len: int) -> list:
    """All finite paths with stops of length <= max_len (raw words; trailing
    zeros allowed, so this is the paper's finite-word notion)."""
    def steps(word):
        endpoint = ((frame.root,) + dropped(word))[-1]
        return [(a,) for a in [STOP] + sorted(frame.successors(endpoint),
                                              key=repr)]
    return grow_words(steps, max_len)


def format_stopword(word) -> str:
    if not word:
        return "eps"
    return ".".join(word)


def format_compact(word) -> str:
    """Single-character rendering like ``00b`` (used in reports)."""
    return "".join(word) if word else "eps"


# ---------------------------------------------------------------------------
# the dense frame


@dataclass(frozen=True)
class DenseFrame:
    """Bounded description of N_omega(F), optionally Gamma-relativized.

    The Gamma-closure of the unravelling is realized on the depth-truncated
    unravelling; Gamma must consist of chain sentences R^k <= R
    (``axiom_to_horn`` instances), for which closure edges depend only on
    ancestor chains already present in the truncation, and only on their
    length:

    - a chain sentence derives (x, y) from an R-path from x to y (k = 0:
      from the empty path, so x = y), and in a tree every such path runs
      from a path to itself or to an extension of it; so, by induction on
      the derivation, does every derived edge;
    - a derivation of (p, q) therefore uses only the paths between p and
      q, which form a chain of |q| - |p| edges, so whether (p, q) is
      derived depends on that length alone.

    The lengths derived form the least set S of lengths below ``depth``
    that holds 1 and, for each power k of Gamma, every sum of k members of
    S (``closure_steps``); the closed relation is {(p, q) : q extends p by
    d in S steps}.  ``horn.gamma_close``, the general closure, computes
    the same relation and is the tests' oracle for it.
    """

    frame: KripkeFrame
    gamma: Optional[HornTheory] = None
    depth: int = 6
    j_max: int = 8
    _closed: KripkeFrame = field(init=False, repr=False, compare=False)
    _interior: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unr = unravel(self.frame, self.depth)
        closed = unr.frame
        if self.gamma is not None and self.gamma.sentences:
            powers = chain_axiom_powers(self.gamma)
            if powers is None:
                raise ValueError("Gamma must consist of chain sentences")
            steps = closure_steps(powers, self.depth)
            if steps != {1}:
                closed = KripkeFrame(closed.worlds, frozenset(
                    (q[:len(q) - d], q) for q in closed.worlds
                    for d in steps if d < len(q)), closed.root)
        object.__setattr__(self, "_closed", closed)
        object.__setattr__(self, "_interior", unr.interior)

    def closed_unravelling(self) -> KripkeFrame:
        return self._closed

    def interior_paths(self) -> frozenset:
        return self._interior

    def closure_edges(self) -> int:
        """The closed edges that are not edges of the unravelling, which is
        a tree: one edge into each path but the root."""
        return len(self._closed.relation) - (len(self._closed.worlds) - 1)

    def extensions(self, path: tuple) -> list:
        """Extension suffixes ext with path -> path+ext one closed step away
        (ext = () on a reflexive closed edge)."""
        if path not in self._closed.worlds:
            raise BudgetExceeded(
                f"path of length {len(path)} beyond truncation depth {self.depth}")
        if path not in self._interior:
            raise BudgetExceeded(
                f"path {path!r} is a frontier path; raise the depth bound")
        out = []
        for q in sorted(successor_map(self._closed).get(path, ()), key=repr):
            if q == path:
                out.append(())
            elif q[:len(path)] == path:
                out.append(q[len(path):])
        return out


def closure_steps(powers, depth: int) -> set:
    """The least set of lengths below ``depth`` that holds 1 and, for each
    k in ``powers``, every sum of k of its members: 0 for k = 0, nothing
    new for k = 1."""
    steps = {1}
    while True:
        derived = set()
        for k in powers:
            sums = {0}
            for _ in range(k):
                sums = {a + b for a in sums for b in steps if a + b < depth}
            derived |= sums
        if derived <= steps:
            return steps
        steps |= derived


# ---------------------------------------------------------------------------
# U_k membership and enumeration


def is_member_uk(beta, alpha, k: int, df: DenseFrame) -> bool:
    """Direct check: shared prefix at m = max(k, st(alpha)) and a single
    (closed) relation step between the f0 images."""
    frame = df.frame
    m = max(k, st(alpha))
    if restrict(beta, m) != restrict(alpha, m):
        return False
    pa, pb = f0(alpha, frame), f0(beta, frame)
    closed = df.closed_unravelling()
    if pa not in closed.worlds or pb not in closed.worlds:
        raise BudgetExceeded("path beyond truncation depth")
    return (pa, pb) in closed.relation


def uk_members(alpha, k: int, df: DenseFrame):
    """Enumerated members of U_k(alpha) plus their tail families.

    Members come from the closed extensions of f0(alpha); zero paddings are
    enumerated up to j_max per gap.  Returns (members, families) where each
    family is (prefix, ext) describing { prefix . 0^j1 c1 ... 0^jr cr . 0^w }.
    """
    m = max(k, st(alpha))
    pre = restrict(alpha, m)
    members = []
    families = []
    for ext in df.extensions(f0(alpha, df.frame)):
        if ext == ():
            members.append(canonical(alpha))
            continue
        families.append((pre, ext))
        members.extend(word for _, word in padded_words(pre, ext, df.j_max))
    return members, families


def padded_words(pre, ext, j_max: int):
    """``(js, word)`` for every padding ``js`` in 0..j_max per letter, where
    ``word`` is the canonical form of ``pre . 0^j1 c1 ... 0^jr cr``."""
    for js in itertools.product(range(j_max + 1), repeat=len(ext)):
        word = list(pre)
        for j, c in zip(js, ext):
            word.extend([STOP] * j)
            word.append(c)
        yield js, canonical(word)


def density_witness(alpha, n: int, beta, df: DenseFrame) -> int:
    """For beta in U_n(alpha), a k with beta not in U_{k+1}(alpha)."""
    if not is_member_uk(beta, alpha, n, df):
        raise ValueError("beta is not a member of U_n(alpha)")
    k = st(beta)
    if is_member_uk(beta, alpha, k + 1, df):
        raise AssertionError("density exclusion failed")  # pragma: no cover
    return k


# ---------------------------------------------------------------------------
# pattern valuations


@dataclass(frozen=True)
class ParityVal:
    """True exactly on words of shape 0^i L with i = parity (mod 2)."""

    letter: str
    parity: int  # 0 = even, 1 = odd

    def member(self, word) -> bool:
        w = canonical(word)
        return (len(w) >= 1 and w[-1] == self.letter
                and all(a == STOP for a in w[:-1])
                and (len(w) - 1) % 2 == self.parity)

    def max_len(self) -> int:
        return 0


# ---------------------------------------------------------------------------
# exact evaluation of depth-one boxes


@dataclass(frozen=True)
class DenseModel:
    """A valuation over the dense frame.  Each entry has ``member(word)``
    and ``max_len()``, and must meet the condition ``_eval_box`` relies on:
    on a word ``pre . 0^j . b`` with ``len(pre) > max_len()``, ``member``
    depends only on ``pre``, ``b`` and the parity of j.  ``ParityVal``
    meets it, as does any finite set of words of at most ``max_len()``
    letters (it reads every such word false)."""

    dense: DenseFrame
    valuation: dict  # letter name -> pattern valuation

    def member(self, name: str, word) -> bool:
        if name not in self.valuation:
            raise EvaluationError(f"letter {name!r} has no valuation entry")
        return self.valuation[name].member(word)

    def stability_bound(self, alpha) -> int:
        """m from which on ``restrict(alpha, m)`` is alpha padded with zeros
        and longer than every entry's ``max_len()``."""
        longest = max((v.max_len() for v in self.valuation.values()), default=0)
        return max(st(alpha), longest) + 1


def bounded_eval(model: DenseModel, alpha, a: Formula) -> bool:
    alpha = canonical(alpha)
    verdict = validate_stopword(alpha, model.dense.frame)
    if not verdict:
        raise EvaluationError(f"invalid point: {verdict.condition}")
    return _eval(model, alpha, a)


def _eval(model: DenseModel, alpha, a: Formula) -> bool:
    if isinstance(a, Falsum):
        return False
    if isinstance(a, Letter):
        return model.member(a.name, alpha)
    if isinstance(a, Implies):
        left, right = _eval(model, alpha, a.left), _eval(model, alpha, a.right)
        return not left or right
    if isinstance(a, Box):
        return _eval_box(model, alpha, a.body)
    raise EvaluationError(f"not a propositional formula: {a!r}")


def _eval_box(model: DenseModel, alpha, body: Formula) -> bool:
    """The box holds at alpha iff some U_k(alpha) lies inside the body's
    extension.  Decided for a body of modal depth 0 along extension steps of
    at most one letter, at the single index k = ``stability_bound(alpha)``:

    * U_k(alpha) only shrinks as k grows, so the box holds at some k iff it
      holds at every larger one;
    * from k = ``stability_bound(alpha)`` on, the prefix ``pre =
      restrict(alpha, k)`` is alpha padded with zeros, and each one-letter
      extension b contributes the family ``pre . 0^j . b`` for j >= 0.  By
      the condition on a ``DenseModel`` valuation, every letter, and hence
      the body, takes the same value at j and j + 2.  So the members at
      j = 0 and j = 1 decide the family at k, and they are the members at
      j = 1 and j = 2 of the family at k - 1.  The answer is the same at
      every such k.

    Hence the box holds at some k iff it holds at ``stability_bound(alpha)``.
    A reflexive step (``ext == ()``) contributes alpha itself at every k."""
    df = model.dense
    exts = df.extensions(f0(alpha, df.frame))
    if not exts:
        return True
    if modal_depth(body) > 0 or any(len(ext) > 1 for ext in exts):
        raise EvaluationError(
            f"box {to_text(body)} at {format_stopword(alpha)} is outside the"
            " decided fragment: a body of modal depth 0 along one-letter"
            " extension steps")
    pre = restrict(alpha, model.stability_bound(alpha))
    return all(_eval(model, word, body)
               for ext in exts
               for word in ([alpha] if ext == () else
                            (w for _, w in padded_words(pre, ext, 1))))


# ---------------------------------------------------------------------------
# the paper's counterexample frame


def next_frame(length: int) -> KripkeFrame:
    """Truncation of the natural numbers with the "next" relation; the root
    is ``r`` and successive worlds are named "1", "2", ..."""
    worlds = ["r"] + [str(i) for i in range(1, length + 1)]
    rel = [(worlds[i], worlds[i + 1]) for i in range(length)]
    return KripkeFrame.make(worlds, rel, root="r")


# the most letters the witness words of ``counterexample_g`` have: about
# k_max = 1000, which takes a fifth of a second; the work grows with k_max^2
WITNESS_LETTERS = 2 ** 20


def counterexample_g(k_max: int = 10) -> dict:
    """Certified failure of ``dia p -> box p`` on the dense frame over the
    next-relation chain, against its Kripke-side validity, with a p-true and
    a p-false member of U_k(eps) for each k up to ``k_max``.  The witness
    words have (k_max + 1)(k_max + 3) letters in all, counted before any is
    built: more than ``WITNESS_LETTERS`` raise ``BudgetExceeded``."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    letters = (k_max + 1) * (k_max + 3)
    if letters > WITNESS_LETTERS:
        raise BudgetExceeded(
            f"witnesses up to k_max = {k_max} have {letters} letters, over"
            f" the budget WITNESS_LETTERS = {WITNESS_LETTERS}")
    frame = next_frame(k_max + 3)
    df = DenseFrame(frame, depth=3)
    parity = ParityVal("1", 0)
    model = DenseModel(df, {"p": parity})
    p = Letter("p")
    dia_p = dia(p)
    dia_notp = neg(Box(p))  # dia not p, up to the double negation
    alpha = ()
    v_dia_p = bounded_eval(model, alpha, dia_p)
    v_dia_notp = bounded_eval(model, alpha, dia_notp)
    v_box_p = bounded_eval(model, alpha, Box(p))
    witnesses = {}
    for k in range(k_max + 1):
        true_word = (STOP,) * k + ("1",) if k % 2 == 0 else (STOP,) * (k + 1) + ("1",)
        false_word = (STOP,) * (k + 1) + ("1",) if k % 2 == 0 else (STOP,) * k + ("1",)
        if not (is_member_uk(canonical(true_word), alpha, k, df)
                and is_member_uk(canonical(false_word), alpha, k, df)
                and parity.member(true_word)
                and not parity.member(false_word)):
            raise AssertionError(f"parity witnesses fail at k = {k}")
        witnesses[k] = (format_compact(canonical(true_word)),
                        format_compact(canonical(false_word)))
    # dia p -> box p is a depth-one scheme: it is frame-valid exactly when
    # no world has two distinct successors, which holds per construction;
    # brute-force validity cross-checks the equivalence on a small instance
    axiom = Implies(dia_p, Box(p))
    functional = all(
        sum(1 for (u, v) in frame.relation if u == w) <= 1
        for w in frame.worlds)
    small = next_frame(4)
    kripke_valid = functional and brute_validity(small, axiom)
    refuted = v_dia_p and v_dia_notp and not v_box_p
    return {
        "ok": refuted and kripke_valid,
        "dia_p": v_dia_p,
        "dia_not_p": v_dia_notp,
        "box_p": v_box_p,
        "witnesses": witnesses,
        "kripke_validates_dia_p_implies_box_p": kripke_valid,
    }


# ---------------------------------------------------------------------------
# lemma checks


def f0_image_check(alpha, k: int, df: DenseFrame) -> Verdict:
    """f0(U_k(alpha)) equals the closed-successor set of f0(alpha): the
    enumerated members of U_k(alpha) are read against the closed relation
    itself, not against the extensions they were built from."""
    frame = df.frame
    pa = f0(alpha, frame)
    rhs = set(df.closed_unravelling().successors(pa))
    members, _ = uk_members(alpha, k, df)
    lhs = {f0(beta, frame) for beta in members}
    if rhs - lhs:
        return Verdict(False, "image-misses-successor",
                       (alpha, k, sorted(rhs - lhs)[0]))
    if lhs - rhs:
        return Verdict(False, "image-outside-successors",
                       (alpha, k, sorted(lhs - rhs)[0]))
    return Verdict(True)

