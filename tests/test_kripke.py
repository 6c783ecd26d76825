import itertools
import random

import pytest

from mlwb.kripke import (
    BudgetExceeded, EvaluationError, KripkeFrame, KripkeModel, KripkeMorphism,
    Verdict, axiom_inclusion_formula, brute_validity, check_axiom_inclusion,
    check_pmorphism, check_pretransitive, eval_kripke, format_frame,
    letter_draw, parse_frame, parse_valuation, pretransitivity_formula,
    pullback_valuation, random_formula, reachable, relation_power,
    sample_truth_preservation, truth_preservation_test, truth_set, unravel,
)
from mlwb.syntax import Box, Falsum, Implies, Letter, letters, neg, parse_prop


def chain(n):
    worlds = [f"w{i}" for i in range(n)]
    return KripkeFrame(frozenset(worlds),
                       frozenset(zip(worlds, worlds[1:])), worlds[0])


def generated_subframe(frame: KripkeFrame, w) -> KripkeFrame:
    if w not in frame.worlds:
        raise ValueError(f"unknown world {w!r}")
    ws = reachable(frame, w)
    rel = frozenset(p for p in frame.relation if p[0] in ws and p[1] in ws)
    return KripkeFrame(ws, rel, root=w)


def pointwise_eval(model: KripkeModel, w, a) -> bool:
    """The reference: truth at one world by structural recursion, looking
    only where the formula leads."""
    if isinstance(a, Falsum):
        return False
    if isinstance(a, Letter):
        return w in model.valuation[a.name]
    if isinstance(a, Implies):
        return not pointwise_eval(model, w, a.left) or \
            pointwise_eval(model, w, a.right)
    if isinstance(a, Box):
        return all(pointwise_eval(model, v, a.body)
                   for v in model.frame.successors(w))
    raise TypeError(a)


def pointwise_validity(frame: KripkeFrame, a) -> bool:
    """The reference: the reference evaluator at every world under each
    valuation in turn."""
    names = sorted(letters(a))
    worlds = sorted(frame.worlds, key=repr)
    for bits in itertools.product([0, 1], repeat=len(names) * len(worlds)):
        val = {p: frozenset(w for j, w in enumerate(worlds)
                            if bits[i * len(worlds) + j])
               for i, p in enumerate(names)}
        model = KripkeModel(frame, val)
        if not all(pointwise_eval(model, w, a) for w in worlds):
            return False
    return True


def random_frame(rng: random.Random, max_worlds: int = 4) -> KripkeFrame:
    worlds = [f"w{i}" for i in range(rng.randint(1, max_worlds))]
    relation = frozenset((u, v) for u in worlds for v in worlds
                         if rng.random() < 0.4)
    return KripkeFrame(frozenset(worlds), relation, worlds[0])


class TestFrames:
    def test_reserved_world_id(self):
        with pytest.raises(ValueError):
            KripkeFrame(frozenset({"0", "a"}), frozenset(), None)

    def test_relation_outside_worlds(self):
        with pytest.raises(ValueError):
            KripkeFrame(frozenset({"a"}), frozenset({("a", "b")}), None)

    def test_reachable_and_generated(self):
        f = chain(4)
        assert reachable(f, "w1") == frozenset({"w1", "w2", "w3"})
        sub = generated_subframe(f, "w2")
        assert sub.worlds == frozenset({"w2", "w3"})

    def test_relation_power(self):
        f = chain(4)
        assert relation_power(f, 2) == frozenset({("w0", "w2"), ("w1", "w3")})
        assert relation_power(f, 0) == frozenset((w, w) for w in f.worlds)

    def test_parse_format_round_trip(self):
        f = chain(3)
        assert parse_frame(format_frame(f)) == f


class TestEvaluation:
    def test_box_on_chain(self):
        f = chain(3)
        model = KripkeModel(f, parse_valuation("val p = {w1, w2}"))
        assert eval_kripke(model, "w0", parse_prop("box p"))
        assert not eval_kripke(model, "w0", parse_prop("box box false"))
        # vacuous box at the endpoint
        assert eval_kripke(model, "w2", parse_prop("box false"))

    def test_brute_validity(self):
        f = chain(2)
        assert brute_validity(f, parse_prop("box p -> box p"))
        assert not brute_validity(f, parse_prop("p -> box p"))

    def test_truth_set_matches_pointwise_reference(self):
        rng = random.Random(15)
        for _ in range(400):
            frame = random_frame(rng)
            val = {p: frozenset(w for w in frame.worlds if rng.random() < 0.5)
                   for p in ("p", "q")}
            model = KripkeModel(frame, val)
            a = random_formula(rng, ["p", "q"], depth=3)
            expected = {w for w in frame.worlds if pointwise_eval(model, w, a)}
            assert truth_set(model, a) == expected
            for w in frame.worlds:
                assert eval_kripke(model, w, a) == (w in expected)

    def test_brute_validity_matches_all_valuations_loop(self):
        rng = random.Random(15)
        p, q = Letter("p"), Letter("q")
        schemata = [Implies(Box(Implies(p, q)), Implies(Box(p), Box(q))),
                    Implies(Box(p), p), Implies(Box(p), Box(Box(p))),
                    Implies(p, Box(neg(Box(neg(p))))),
                    Implies(neg(Box(neg(p))), Box(p)),
                    Implies(Box(p), Box(q)), Implies(Box(q), Box(q))]
        valid = 0
        for i in range(120):
            frame = random_frame(rng)
            a = schemata[i % len(schemata)] if i % 2 else \
                random_formula(rng, ["p", "q"], depth=3)
            expected = pointwise_validity(frame, a)
            assert brute_validity(frame, a) == expected, (frame, a)
            valid += expected
        assert 0 < valid < 120

    def test_missing_letter_refused_where_pointwise_never_looks(self):
        model = KripkeModel(chain(2), {"p": frozenset({"w1"})})
        for a in ("false -> q", "box false -> box q", "p -> (q -> p)"):
            with pytest.raises(EvaluationError,
                               match="letter 'q' has no valuation entry"):
                eval_kripke(model, "w0", parse_prop(a))

    def test_brute_validity_budget(self):
        worlds = frozenset(f"w{i}" for i in range(25))
        big = KripkeFrame(worlds, frozenset(), None)
        with pytest.raises(BudgetExceeded):
            brute_validity(big, parse_prop("box p -> p"))

    def test_axiom_checks_match_validity_on_fixed_frames(self):
        frames = [
            chain(3),
            KripkeFrame(frozenset("ab"), frozenset({("a", "b"), ("b", "a")}), "a"),
            KripkeFrame(frozenset("abc"),
                        frozenset({("a", "b"), ("b", "c"), ("a", "c")}), "a"),
        ]
        for f in frames:
            for k in (1, 2, 3):
                assert bool(check_axiom_inclusion(f, k)) == \
                    brute_validity(f, axiom_inclusion_formula(k))
            for k in (1, 2):
                assert bool(check_pretransitive(f, k)) == \
                    brute_validity(f, pretransitivity_formula(k))


class TestUnravelling:
    def test_tree_shape(self):
        f = KripkeFrame(frozenset("rab"),
                        frozenset({("r", "a"), ("r", "b"), ("a", "r")}), "r")
        u = unravel(f, 3)
        assert ("r",) in u.frame.worlds
        assert all(len(p) <= 3 for p in u.frame.worlds)
        # edges extend paths by exactly one step
        for p, q in u.frame.relation:
            assert q[:len(p)] == p and len(q) == len(p) + 1

    def test_pi_is_pmorphism_on_interior(self):
        f = KripkeFrame(frozenset("rab"),
                        frozenset({("r", "a"), ("r", "b"), ("a", "r")}), "r")
        u = unravel(f, 4)
        assert check_pmorphism(u.pi)

    def test_needs_root(self):
        with pytest.raises(ValueError):
            unravel(KripkeFrame(frozenset("ab"), frozenset(), None), 2)

    def test_budget_counts_before_building(self, monkeypatch):
        """Two worlds that see each other and themselves have 2^39 paths of
        length 40: the count passes the budget and raises before any path
        is built."""
        import mlwb.kripke
        monkeypatch.setattr(mlwb.kripke, "grow_words", None)
        cluster = KripkeFrame.make("ab", [(u, v) for u in "ab" for v in "ab"],
                                   root="a")
        with pytest.raises(BudgetExceeded, match="depth 40 has 131071 paths"):
            unravel(cluster, 40)


class TestMorphisms:
    def test_collapse_morphism(self):
        # a 2-cycle collapses onto a reflexive point
        source = KripkeFrame(frozenset("ab"),
                             frozenset({("a", "b"), ("b", "a")}), "a")
        target = KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x")
        f = KripkeMorphism(source, target, {"a": "x", "b": "x"})
        assert check_pmorphism(f)
        rep = truth_preservation_test(f, samples=300, seed=1)
        assert rep["passed"] == 300

    def test_zigzag_violation_detected(self):
        source = chain(2)
        target = KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x")
        f = KripkeMorphism(source, target, {"w0": "x", "w1": "x"})
        verdict = check_pmorphism(f)  # w1 has no successor to lift x -> x
        assert not verdict
        assert verdict.witness is not None

    def test_map_leaving_the_target_fails_into(self):
        target = KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x")
        f = KripkeMorphism(chain(2), target, {"w0": "x", "w1": "y"})
        verdict = check_pmorphism(f)
        assert not verdict and verdict.condition == "into"
        assert verdict.witness == ("w1", "y")

    def test_pullback_valuation(self):
        source = KripkeFrame(frozenset("ab"),
                             frozenset({("a", "b"), ("b", "a")}), "a")
        target = KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x")
        f = KripkeMorphism(source, target, {"a": "x", "b": "x"})
        val = pullback_valuation(f, {"p": frozenset({"x"})})
        assert val["p"] == frozenset({"a", "b"})

    def test_truth_preservation_exhaustive_small(self):
        source = KripkeFrame(frozenset("ab"),
                             frozenset({("a", "b"), ("b", "a")}), "a")
        target = KripkeFrame(frozenset("x"), frozenset({("x", "x")}), "x")
        f = KripkeMorphism(source, target, {"a": "x", "b": "x"})
        p = Letter("p")
        formulas = [p, neg(p), Box(p), Box(Box(p)),
                    Implies(Box(p), p)]
        for bits in range(2):
            val = {"p": frozenset({"x"}) if bits else frozenset()}
            src_model = KripkeModel(source, pullback_valuation(f, val))
            tgt_model = KripkeModel(target, val)
            for a in formulas:
                for w in source.worlds:
                    assert eval_kripke(src_model, w, a) == \
                        eval_kripke(tgt_model, f.map[w], a)


class TestSampler:
    """``sample_truth_preservation`` on the chain a -> b and its copy
    u -> v, under a hand-built verdict that claims a p-morphism."""

    def sample(self, fmap):
        source = KripkeFrame(frozenset("ab"), frozenset({("a", "b")}), "a")
        target = KripkeFrame(frozenset("uv"), frozenset({("u", "v")}), "u")
        f = KripkeMorphism(source, target, fmap)
        return sample_truth_preservation(
            Verdict(True), f.map, source.worlds,
            letter_draw(f, KripkeModel, target.worlds), truth_set,
            samples=200, seed=4)

    def test_right_image_passes_every_draw(self):
        rep = self.sample({"a": "u", "b": "v"})
        assert rep["passed"] == 200 and not rep["failures"], rep

    def test_image_wrong_at_one_point_names_it(self):
        # a goes to the leaf v, so box false holds at v but not at a; b
        # and v are both leaves with one valuation, so b never differs
        rep = self.sample({"a": "v", "b": "v"})
        assert 0 < rep["passed"] < 200, rep
        assert {x for x, _ in rep["failures"]} == {"a"}

    def test_unverified_morphism_is_refused(self):
        with pytest.raises(ValueError, match="not verified: surjectivity"):
            sample_truth_preservation(
                Verdict(False, "surjectivity", ("u",)), {}, (), None,
                truth_set, samples=1, seed=0)
