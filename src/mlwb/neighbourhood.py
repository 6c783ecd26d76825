"""Finite neighbourhood frames represented by filter bases.

Filters are never materialized: a set U is a neighbourhood of x iff some
base member of x is contained in U.  Improper filters (empty set in the
base) are permitted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kripke import EvaluationError, KripkeFrame, KripkeMorphism, Verdict, \
    check_surjection, letter_draw, sample_truth_preservation
from .syntax import Box, Falsum, Formula, Implies, Letter, directives, \
    keyed_lines, names, parse_sets


@dataclass(frozen=True)
class NFrame:
    points: frozenset
    base: dict  # point -> tuple of frozensets (a filter base)

    def __post_init__(self):
        extra = set(self.base) - self.points
        if extra:
            raise ValueError(f"base given at {sorted(extra, key=repr)[0]!r},"
                             " which is not a point")
        for x in self.points:
            members = self.base.get(x)
            if not members:
                raise ValueError(f"point {x!r} has an empty base")
            for m in members:
                if not m <= self.points:
                    raise ValueError(f"base member of {x!r} outside points")
            for m1 in members:
                for m2 in members:
                    inter = m1 & m2
                    if not any(m3 <= inter for m3 in members):
                        raise ValueError(
                            f"base of {x!r} not refined under intersection")

    @staticmethod
    def make(points, base) -> "NFrame":
        return NFrame(frozenset(points),
                      {x: tuple(frozenset(m) for m in members)
                       for x, members in base.items()})

    def is_neighbourhood(self, x, u: frozenset) -> bool:
        return any(m <= u for m in self.base[x])


@dataclass(frozen=True)
class NModel:
    frame: NFrame
    valuation: dict


def eval_nbhd(model: NModel, x, a: Formula) -> bool:
    if x not in model.frame.points:
        raise EvaluationError(f"unknown point {x!r}")
    return x in truth_set(model, a)


# kept apart from kripke.truth_set: criterion 7 compares the two
def truth_set(model: NModel, a: Formula) -> frozenset:
    """The points of ``model`` where ``a`` holds, bottom-up."""
    points = model.frame.points
    if isinstance(a, Falsum):
        return frozenset()
    if isinstance(a, Letter):
        if a.name not in model.valuation:
            raise EvaluationError(f"letter {a.name!r} has no valuation entry")
        return points & model.valuation[a.name]
    if isinstance(a, Implies):
        return (points - truth_set(model, a.left)) | truth_set(model, a.right)
    if isinstance(a, Box):
        body = truth_set(model, a.body)
        return frozenset(x for x in points
                         if model.frame.is_neighbourhood(x, body))
    raise EvaluationError(f"not a propositional formula: {a!r}")


def nf_from_kripke(frame: KripkeFrame) -> NFrame:
    """N(F): the principal filter generated by R(w) at each world."""
    return NFrame(frame.worlds,
                  {w: (frame.successors(w),) for w in frame.worlds})


# ---------------------------------------------------------------------------
# n-frame p-morphisms


@dataclass(frozen=True)
class NMorphism:
    source: NFrame
    target: NFrame
    map: dict

    def __call__(self, x):
        return self.map[x]


def check_n_pmorphism(f: NMorphism) -> Verdict:
    """Surjectivity plus zig/zag, checked on base members only.

    By upward closure it suffices to check zig on each base member of x and
    zag on each base member of f(x).  A failure names the least point x by
    ``repr``, and at it the least failing member, shown as a sorted tuple.
    """
    fmap, src, tgt = f.map, f.source, f.target
    onto = check_surjection(fmap, src.points, tgt.points)
    if not onto:
        return onto
    for x in sorted(src.points, key=repr):
        zig = [u for u in src.base[x]
               if not tgt.is_neighbourhood(fmap[x], {fmap[y] for y in u})]
        if zig:
            return Verdict(False, "zig", (x, _least(zig)))
        zag = [v for v in tgt.base[fmap[x]] if not src.is_neighbourhood(
            x, {y for y in src.points if fmap[y] in v})]
        if zag:
            return Verdict(False, "zag", (x, _least(zag)))
    return Verdict(True)


def _least(sets) -> tuple:
    """The least of ``sets`` by ``repr`` once each is a sorted tuple."""
    return min((tuple(sorted(u, key=repr)) for u in sets), key=repr)


def n_morphism_from_kripke(f: KripkeMorphism) -> NMorphism:
    return NMorphism(nf_from_kripke(f.source), nf_from_kripke(f.target), dict(f.map))


def n_truth_preservation_test(f: NMorphism, samples: int = 1000,
                              seed: int = 0) -> dict:
    return sample_truth_preservation(
        check_n_pmorphism(f), f.map, f.source.points,
        letter_draw(f, NModel, f.target.points), truth_set, samples, seed)


# ---------------------------------------------------------------------------
# text format


def parse_nframe(text: str) -> NFrame:
    """``nframe <name>``, ``points x y ...``, ``base x = {a, b} {c} ...``"""
    lines = directives(text, "nframe", "points", "base")
    base = {x: tuple(frozenset(u) for u in parse_sets(value, lineno))
            for x, (lineno, value)
            in keyed_lines(lines["base"], "=", lead="base").items()}
    return NFrame.make(names(lines["points"], "point"), base)
