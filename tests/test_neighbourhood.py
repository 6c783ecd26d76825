import itertools
import random

import pytest

from mlwb.kripke import EvaluationError, KripkeFrame, KripkeModel, \
    KripkeMorphism, check_pmorphism, eval_kripke, pullback_valuation, \
    random_formula, unravel
from mlwb.neighbourhood import (
    NFrame, NModel, NMorphism, check_n_pmorphism, eval_nbhd,
    n_morphism_from_kripke, n_truth_preservation_test, nf_from_kripke,
    parse_nframe, truth_set,
)
from mlwb.syntax import Box, Falsum, Implies, Letter, neg, parse_prop


def chain(n):
    worlds = [f"w{i}" for i in range(n)]
    return KripkeFrame(frozenset(worlds),
                       frozenset(zip(worlds, worlds[1:])), worlds[0])


def pointwise_eval(model: NModel, x, a) -> bool:
    """The reference: truth at one point by structural recursion; a box
    collects its body's extension point by point."""
    if isinstance(a, Falsum):
        return False
    if isinstance(a, Letter):
        return x in model.valuation[a.name]
    if isinstance(a, Implies):
        return not pointwise_eval(model, x, a.left) or \
            pointwise_eval(model, x, a.right)
    if isinstance(a, Box):
        ext = frozenset(y for y in model.frame.points
                        if pointwise_eval(model, y, a.body))
        return model.frame.is_neighbourhood(x, ext)
    raise TypeError(a)


def random_base(rng: random.Random, points: list) -> tuple:
    """One to three random subsets of ``points``, sometimes the empty set
    among them, closed under intersection so that they form a filter
    base."""
    members = {frozenset(y for y in points if rng.random() < 0.6)
               for _ in range(rng.randint(1, 3))}
    if rng.random() < 0.2:
        members.add(frozenset())
    while True:
        meets = {m1 & m2 for m1 in members for m2 in members} - members
        if not meets:
            return tuple(sorted(members, key=sorted))
        members |= meets


class TestNFrame:
    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            NFrame(frozenset({"x"}), {"x": ()})

    def test_filter_base_property_enforced(self):
        # two disjoint members with no member inside the intersection
        with pytest.raises(ValueError):
            NFrame(frozenset({"x", "y"}),
                   {"x": (frozenset({"x"}), frozenset({"y"})),
                    "y": (frozenset({"y"}),)})

    def test_nf_from_kripke_principal_filters(self):
        f = chain(3)
        nf = nf_from_kripke(f)
        assert nf.base[("w0")][0] == frozenset({"w1"})

    def test_parse(self):
        nf = parse_nframe("points x y\nbase x = {x,y} {y}\nbase y = {y}\n")
        assert nf.points == frozenset({"x", "y"})

    def test_parse_spaced_base_sets(self):
        nf = parse_nframe("points x y\nbase x = { x, y }  {y}\nbase y = {y}\n")
        assert nf == parse_nframe("points x y\nbase x = {x,y} {y}\n"
                                  "base y = {y}\n")
        assert nf.base["x"] == (frozenset({"x", "y"}), frozenset({"y"}))


class TestEvaluation:
    def test_agreement_with_kripke_exhaustive_small(self):
        frames = [chain(1), chain(2), chain(3),
                  KripkeFrame(frozenset("ab"),
                              frozenset({("a", "b"), ("b", "a")}), "a")]
        p = Letter("p")
        formulas = [p, neg(p), Box(p), Box(Box(p)),
                    Implies(Box(p), p), Box(Falsum())]
        for frame in frames:
            worlds = sorted(frame.worlds)
            nf = nf_from_kripke(frame)
            for bits in itertools.product([0, 1], repeat=len(worlds)):
                val = {"p": frozenset(w for w, b in zip(worlds, bits) if b)}
                km, nm = KripkeModel(frame, val), NModel(nf, val)
                for a in formulas:
                    for w in worlds:
                        assert eval_kripke(km, w, a) == eval_nbhd(nm, w, a)

    def test_truth_set_matches_pointwise_reference(self):
        rng = random.Random(15)
        several = improper = 0
        for _ in range(400):
            points = [f"x{i}" for i in range(rng.randint(1, 4))]
            nf = NFrame(frozenset(points),
                        {x: random_base(rng, points) for x in points})
            several += any(len(ms) > 1 for ms in nf.base.values())
            improper += any(frozenset() in ms for ms in nf.base.values())
            val = {p: frozenset(x for x in points if rng.random() < 0.5)
                   for p in ("p", "q")}
            model = NModel(nf, val)
            a = random_formula(rng, ["p", "q"], depth=3)
            expected = {x for x in points if pointwise_eval(model, x, a)}
            assert truth_set(model, a) == expected
            for x in points:
                assert eval_nbhd(model, x, a) == (x in expected)
        assert several > 100 and improper > 50

    def test_missing_letter_refused_where_pointwise_never_looks(self):
        model = NModel(nf_from_kripke(chain(2)), {"p": frozenset({"w1"})})
        with pytest.raises(EvaluationError,
                           match="letter 'q' has no valuation entry"):
            eval_nbhd(model, "w0", parse_prop("false -> q"))

    def test_box_via_base_member(self):
        # a genuinely non-principal base: two nested neighbourhoods
        nf = NFrame(frozenset({"x", "y", "z"}),
                    {"x": (frozenset({"y", "z"}), frozenset({"y"})),
                     "y": (frozenset({"z"}),),
                     "z": (frozenset({"z"}),)})
        model = NModel(nf, {"p": frozenset({"y"})})
        # box p holds at x through the smaller member {y}
        assert eval_nbhd(model, "x", Box(Letter("p")))
        assert not eval_nbhd(model, "y", Box(Letter("p")))


class TestMorphisms:
    def test_from_kripke_unravelling(self):
        frame = KripkeFrame(frozenset("rab"),
                            frozenset({("r", "a"), ("r", "b"), ("a", "b")}),
                            "r")
        u = unravel(frame, 4)
        nm = n_morphism_from_kripke(u.pi)
        assert check_n_pmorphism(nm)
        rep = n_truth_preservation_test(nm, samples=300, seed=3)
        assert rep["passed"] == 300

    def test_violation_detected(self):
        source = nf_from_kripke(chain(2))
        target = nf_from_kripke(
            KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x"))
        bad = check_n_pmorphism(
            type(n_morphism_from_kripke(
                KripkeMorphism(chain(2), chain(2),
                               {w: w for w in chain(2).worlds})))(
                source, target, {"w0": "x", "w1": "x"}))
        assert not bad

    def test_map_leaving_the_target_fails_into(self):
        source = nf_from_kripke(chain(2))
        target = nf_from_kripke(
            KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x"))
        verdict = check_n_pmorphism(
            NMorphism(source, target, {"w0": "x", "w1": "y"}))
        assert not verdict and verdict.condition == "into"
        assert verdict.witness == ("w1", "y")

    def test_pullback_valuation(self):
        frame = chain(2)
        u = unravel(frame, 3)
        nm = n_morphism_from_kripke(u.pi)
        val = pullback_valuation(nm, {"p": frozenset({"w1"})})
        assert val["p"] == frozenset({("w0", "w1")})
