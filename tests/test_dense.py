import pytest

from mlwb.horn import axioms_to_theory
from mlwb.kripke import BudgetExceeded, EvaluationError, KripkeFrame
from mlwb.dense import (
    DenseFrame, DenseModel, FiniteSetVal, ParityVal, STOP, bounded_eval,
    canonical, chain_collapse_check, counterexample_g, density_witness,
    enumerate_canonical, f0, f0_image_check, f0_pmorphism_check,
    format_compact, format_stopword, is_member_uk, next_frame,
    parse_stopword, restrict, st, uk_members, validate_stopword,
)
from mlwb.syntax import Box, Falsum, Implies, Letter


def two_chain():
    return KripkeFrame.make(["r", "a", "b"], [("r", "a"), ("a", "b")],
                            root="r")


class TestWords:
    def test_canonical_strips_trailing_stops(self):
        assert canonical(("a", STOP, STOP)) == ("a",)
        assert canonical((STOP, "a", STOP)) == (STOP, "a")
        assert canonical(()) == ()

    def test_st_counts_to_last_letter(self):
        assert st(()) == 0
        assert st((STOP, "a", STOP, "b")) == 4

    def test_restrict_then_canonical(self):
        w = (STOP, "a", STOP, "b")
        assert restrict(w, 2) == (STOP, "a")
        assert restrict(w, 3) == (STOP, "a", STOP)
        assert restrict((STOP, "a"), 4) == (STOP, "a", STOP, STOP)
        assert canonical(restrict(w, 3)) == (STOP, "a")

    def test_parse_format_round_trip(self):
        for text in ["", "0", "a", "0 a 0 0 b"]:
            w = parse_stopword(text)
            assert parse_stopword(format_stopword(w)) == w

    def test_validate_against_frame(self):
        frame = two_chain()
        assert validate_stopword((STOP, "a", "b"), frame)
        assert not validate_stopword(("b",), frame)  # b not a root successor

    def test_f0_drops_stops(self):
        assert f0((STOP, "a", STOP, "b"), two_chain()) == ("r", "a", "b")

    def test_enumeration_matches_brute_force(self):
        frame = two_chain()
        words = enumerate_canonical(frame, 5)
        assert len(words) == len(set(words))
        # brute force: all stop words of length <= 5, canonicalized
        import itertools
        brute = set()
        for n in range(6):
            for w in itertools.product([STOP, "a", "b"], repeat=n):
                if validate_stopword(w, frame) and canonical(w) == w:
                    brute.add(w)
        assert set(words) == brute


class TestNeighbourhoods:
    def setup_method(self):
        self.df = DenseFrame(two_chain(), depth=4, k_max=6, j_max=3)

    def test_membership_requires_shared_prefix(self):
        alpha = (STOP, "a")
        assert is_member_uk((STOP, "a", "b"), alpha, 2, self.df)
        assert not is_member_uk(("a", "b"), alpha, 2, self.df)

    def test_reflexivity_never_without_loop(self):
        assert not is_member_uk((STOP, "a"), (STOP, "a"), 0, self.df)

    def test_uk_members_all_pass_direct_check(self):
        alpha = ("a",)
        for k in (1, 2, 3):
            members, families = uk_members(alpha, k, self.df)
            assert members
            for beta in members:
                assert is_member_uk(beta, alpha, k, self.df)
            assert families  # a -> ab extension exists

    def test_density_witness_excludes(self):
        alpha = ("a",)
        beta = ("a", STOP, STOP, "b")
        k = density_witness(alpha, 1, beta, self.df)
        assert not is_member_uk(beta, alpha, k + 1, self.df)

    def test_antitone_in_k(self):
        # every enumerated member at a deeper k is semantically a member at
        # every shallower k
        alpha = ("a",)
        deep, _ = uk_members(alpha, 3, self.df)
        for beta in deep:
            assert is_member_uk(beta, alpha, 1, self.df)
            assert is_member_uk(beta, alpha, 0, self.df)

    def test_frontier_raises(self):
        df = DenseFrame(next_frame(6), depth=3)
        with pytest.raises(BudgetExceeded):
            df.extensions(("r", "1", "2", "3"))

    def test_gamma_closure_adds_extensions(self):
        theory = axioms_to_theory([0, 2])  # reflexive + transitive
        df = DenseFrame(two_chain(), gamma=theory, depth=4)
        exts = df.extensions(("r",))
        assert () in exts          # reflexive loop
        assert ("a",) in exts
        assert ("a", "b") in exts  # transitive shortcut


class TestEvaluation:
    def test_letter_and_falsum_certified(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": FiniteSetVal(frozenset({("a",)}))})
        v = bounded_eval(model, ("a",), Letter("p"))
        assert (v.value, v.certified) == (True, True)
        v = bounded_eval(model, (STOP, "a"), Letter("p"))
        assert (v.value, v.certified) == (False, True)
        v = bounded_eval(model, (), Falsum())
        assert (v.value, v.certified) == (False, True)

    def test_box_vacuous_at_endpoint(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": FiniteSetVal(frozenset())})
        v = bounded_eval(model, ("a", "b"), Box(1, Letter("p")))
        assert (v.value, v.certified) == (True, True)

    def test_box_false_certified_on_parity(self):
        rep = counterexample_g(6)
        assert rep["ok"]
        assert rep["box_p"].certified and rep["box_p"].value is False
        assert rep["dia_p"].certified and rep["dia_p"].value is True

    def test_certified_verdicts_stable_under_doubled_bounds(self):
        frame = two_chain()
        formulas = [Box(1, Letter("p")),
                    Implies(Box(1, Letter("p")), Letter("p")),
                    Box(1, Implies(Letter("p"), Falsum()))]
        val = {"p": ParityVal("b", 0)}
        small = DenseModel(DenseFrame(frame, depth=4, k_max=8, j_max=4), val)
        big = DenseModel(DenseFrame(frame, depth=4, k_max=16, j_max=8), val)
        for a in formulas:
            for alpha in [(), ("a",), (STOP, "a")]:
                v1 = bounded_eval(small, alpha, a)
                v2 = bounded_eval(big, alpha, a)
                if v1.certified:
                    assert v2.value == v1.value

    def test_invalid_point_rejected(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": FiniteSetVal(frozenset())})
        with pytest.raises(EvaluationError):
            bounded_eval(model, ("b",), Letter("p"))


class TestMorphismChecks:
    def test_f0_image_check(self):
        df = DenseFrame(two_chain(), depth=4)
        assert f0_image_check(("a",), 1, df)

    def test_f0_pmorphism_sampled(self):
        df = DenseFrame(two_chain(), depth=4)
        rep = f0_pmorphism_check(df, n_samples=40, seed=5)
        assert rep["ok"], rep

    def test_chain_collapse(self):
        df = DenseFrame(next_frame(7), gamma=axioms_to_theory([2]),
                        depth=6)
        rep = chain_collapse_check(df, 2, 1, samples=60, seed=1)
        assert rep["ok"], rep

    def test_chain_collapse_requires_gamma(self):
        df = DenseFrame(next_frame(5), depth=4)
        with pytest.raises(ValueError):
            chain_collapse_check(df, 2, 1)


class TestCounterexample:
    def test_witness_compact_forms(self):
        rep = counterexample_g(4)
        assert rep["witnesses"][0] == ("1", "01")
        assert rep["witnesses"][1] == ("001", "01")
        assert rep["kripke_validates_dia_p_implies_box_p"]

    def test_rejects_tiny_kmax(self):
        with pytest.raises(ValueError):
            counterexample_g(1)

    def test_format_compact(self):
        assert format_compact((STOP, STOP, "1")) == "001"
        assert format_compact(()) == "eps"
