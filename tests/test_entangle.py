from collections import defaultdict
from pathlib import Path

import pytest

from mlwb.dense import DenseFrame, STOP, f0
from mlwb.horn import parse_horn_theory
from mlwb.kripke import BudgetExceeded, EvaluationError, KripkeFrame, Verdict
from mlwb.entangle import (
    EntangleSpace, PsiMaps, build_psi, canonicalize, decompositions, dsharp,
    entangle_enumerate, enumerate_dstar, equiv, equiv_bruteforce,
    fresh_classes,
    fresh_count, h, is_entangled, least_max_sigma, p1, t, xi,
    xi_locality_check, xi_surjectivity_check,
)
from mlwb.pipeline import ClassTables, XiClasses, parse_scenario
from mlwb.predicate import PredKripkeFrame, check_kk_morphism

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def chain_space(n_worlds=4, sigma=("x", "y")):
    worlds = ["r"] + [f"w{i}" for i in range(1, n_worlds)]
    frame = KripkeFrame.make(worlds, list(zip(worlds, worlds[1:])), root="r")
    return EntangleSpace(frame, sigma)


def abc_space():
    # the worked three-step chain with a three-letter domain alphabet
    frame = KripkeFrame.make(["r", "1", "3", "4"],
                             [("r", "1"), ("1", "3"), ("3", "4")], root="r")
    return EntangleSpace(frame, ("a", "b", "c"))


class TestSpace:
    def test_alphabet_disjointness(self):
        frame = KripkeFrame.make(["r", "a"], [("r", "a")], root="r")
        with pytest.raises(ValueError):
            EntangleSpace(frame, ("a",))

    def test_projections(self):
        sp = abc_space()
        w = ("1", "a", "3", "b")
        assert p1(sp, w) == ("r", "1", "3")

    def test_is_entangled(self):
        sp = abc_space()
        assert is_entangled(sp, ("1", "a", "3", "b"))
        assert not is_entangled(sp, ("3",))       # skips a step
        assert not is_entangled(sp, ("1", STOP))  # stops are not letters

    def test_enumeration_only_entangled(self):
        sp = chain_space(3)
        words = entangle_enumerate(sp, 4)
        assert words
        for w in words:
            assert is_entangled(sp, w)


class TestWorkedVectors:
    def make_space(self):
        frame = KripkeFrame.make(["r", "a", "b", "c"],
                                 [("r", "a"), ("a", "b"), ("b", "c")],
                                 root="r")
        return EntangleSpace(frame, ("1", "2", "3", "4"))

    def test_h_on_the_fixed_vector(self):
        sp = self.make_space()
        assert h(sp, tuple("a0b00c"), tuple("1034")) == tuple("1a34bc")

    def test_h_base_clauses(self):
        sp = self.make_space()
        # empty gamma: alpha's letters pass through
        assert h(sp, tuple("a0b"), ()) == tuple("ab")
        # pure-sigma gamma: emitted before the appended letters
        assert h(sp, tuple("ab"), tuple("12")) == tuple("12ab")
        # a slot at position 1 can take alpha's first letter
        assert h(sp, tuple("ab"), (STOP, "1")) == tuple("a1b")

    def test_h_never_pulls_letters_ahead(self):
        sp = self.make_space()
        # alpha's b sits at position 3; the slot at position 2 stays empty
        assert h(sp, ("a", STOP, "b"), (STOP, STOP, "1")) == ("a", "1", "b")

    def test_t_on_the_fixed_vector(self):
        sp = self.make_space()
        assert t(sp, tuple("ab00c"), tuple("a12bc3")) == tuple("a12b00c3")

    def test_t_incompatible_inputs(self):
        sp = self.make_space()
        with pytest.raises(EvaluationError):
            t(sp, tuple("ab"), tuple("ba"))

    def test_h_rejects_foreign_letters(self):
        sp = self.make_space()
        with pytest.raises(EvaluationError):
            h(sp, ("a",), ("z",))
        with pytest.raises(EvaluationError):
            h(sp, ("z",), ("1",))


class TestEquivalence:
    def test_oracle_agreement_exhaustive(self):
        sp = chain_space(3, sigma=("x", "y"))
        words = entangle_enumerate(sp, 5)
        for i, u in enumerate(words):
            for v in words[i:]:
                assert equiv(sp, u, v) == equiv_bruteforce(sp, u, v)

    def test_decompositions_walk_back_over_world_letters(self):
        sp = chain_space(3, sigma=("x", "y"))
        assert decompositions(sp, ("x", "w1", "w2")) == {
            ("x",), ("x", "w1"), ("x", "w1", "w2")}
        assert decompositions(sp, ("w1", "x")) == {("w1", "x")}
        assert decompositions(sp, ("w1", "w2")) == {
            (), ("w1",), ("w1", "w2")}
        # a prefix that is not entangled is no decomposition
        assert decompositions(sp, ("w2",)) == {()}

    def test_oracle_never_canonicalizes(self, monkeypatch):
        sp = chain_space(3, sigma=("x", "y"))

        def refuse(*args):
            raise AssertionError("the oracle must not call canonicalize")

        monkeypatch.setattr("mlwb.entangle.canonicalize", refuse)
        assert equiv_bruteforce(sp, ("x", "w1", "w2"), ("x",))
        assert not equiv_bruteforce(sp, ("x", "w1"), ("y", "w1"))

    def test_canonicalize_idempotent(self):
        sp = chain_space(3)
        for w in entangle_enumerate(sp, 5):
            c = canonicalize(sp, w)
            assert canonicalize(sp, c) == c
            assert equiv(sp, w, c)

    def test_equiv_rejects_non_entangled(self):
        sp = chain_space(3)
        with pytest.raises(EvaluationError):
            equiv(sp, ("w2",), ("w2",))


def domain_monotonicity_check(space: EntangleSpace, a_path: tuple,
                              b_path: tuple, max_sigma: int) -> Verdict:
    """D-sharp(a_path) is a proper subset of D-sharp(b_path) along a
    relation step: the invariant that ``build_psi`` grows its domains on."""
    if not (len(b_path) == len(a_path) + 1 and b_path[:-1] == a_path
            and (a_path[-1], b_path[-1]) in space.frame.relation):
        return Verdict(False, "not-a-relation-step", (a_path, b_path))
    da = dsharp(space, a_path, max_sigma)
    db = dsharp(space, b_path, max_sigma)
    if not da <= db:
        return Verdict(False, "not-monotone", sorted(da - db)[0])
    strict = sorted(db - da)
    if not strict:
        return Verdict(False, "no-strictness-witness", (a_path, b_path))
    return Verdict(True, "strict", strict[0])


def dsharp_by_definition(space: EntangleSpace, paths, max_sigma: int) -> dict:
    """Path -> its D-sharp domain read from the definition, not through
    ``dsharp``: the entangled words whose base letters are a prefix of the
    path's steps, with at most max_sigma domain letters, that end in a
    domain letter or are empty.  Such a word is at most max_sigma letters
    longer than its base part, so one enumeration up to the longest path
    covers every path."""
    longest = max(len(p) for p in paths) - 1
    by_base = defaultdict(set)
    for word in entangle_enumerate(space, longest + max_sigma):
        if sum(map(space.is_d, word)) <= max_sigma \
                and (not word or space.is_d(word[-1])):
            by_base[tuple(a for a in word if space.is_w(a))].add(word)
    return {p: frozenset().union(*(by_base[p[1:i]]
                                   for i in range(1, len(p) + 1)))
            for p in paths}


def r3_frame():
    """A frame with a cycle that validates R^3 <= R but not R^2 <= R."""
    frame = KripkeFrame.make(["r", "a", "b"], [("r", "a"), ("r", "b"),
                                               ("a", "b"), ("b", "a")],
                             root="r")
    target = PredKripkeFrame(frame, {"r": {"m"}, "a": {"m", "n", "o"},
                                     "b": {"m", "n", "o"}})
    return target, parse_horn_theory("x R y & y R z & z R w => x R w")


def transitive_three_chain():
    frame = KripkeFrame.make(["w0", "w1", "w2"], [("w0", "w1"), ("w1", "w2"),
                                                 ("w0", "w2")], root="w0")
    target = PredKripkeFrame(frame, {"w0": {"m"}, "w1": {"m", "n"},
                                     "w2": {"m", "n", "o"}})
    return target, parse_horn_theory("x R y & y R z => x R z")


def psi_inputs(name):
    """(space, target, dense frame) of a bundled scenario or a Gamma frame."""
    if name.endswith(".scn"):
        s = parse_scenario((SCENARIOS / name).read_text(), name)
        return s.space, s.pframe, DenseFrame(s.pframe.frame, gamma=s.gamma,
                                             depth=s.depth)
    target, gamma = {"transitive-three-chain": transitive_three_chain,
                     "r3-frame": r3_frame}[name]()
    return (EntangleSpace(target.frame, ("x", "y")), target,
            DenseFrame(target.frame, gamma=gamma, depth=6))


@pytest.mark.parametrize("max_sigma", [1, 2, 3])
@pytest.mark.parametrize("name", [
    "barcan-two-chain.scn", "degenerate-point.scn",
    "transitive-three-chain.scn", "transitive-three-chain", "r3-frame"])
def test_psi_domains_match_the_definition(name, max_sigma):
    """The domains that ``build_psi`` grows along the tree order are the
    D-sharp domains of the definition at every closed path, and each
    path's domain map extends its parent's."""
    space, target, df = psi_inputs(name)
    psi = build_psi(space, target, df, max_sigma=max_sigma)
    paths = psi.source.frame.worlds
    want = dsharp_by_definition(space, paths, max_sigma)
    for p in paths:
        assert psi.source.domain(p) == want[p], p
        if len(p) > 1:
            assert psi.phi1[p[:-1]].items() <= psi.phi1[p].items(), p


class TestDsharp:
    def test_monotone_and_strict_along_steps(self):
        sp = chain_space(4)
        assert domain_monotonicity_check(sp, ("r",), ("r", "w1"), 2)
        assert domain_monotonicity_check(sp, ("r", "w1"), ("r", "w1", "w2"), 2)

    def test_rejects_non_step(self):
        sp = chain_space(4)
        v = domain_monotonicity_check(sp, ("r",), ("r", "w2"), 2)
        assert not v and v.condition == "not-a-relation-step"

    def test_root_classes_are_pure_sigma(self):
        sp = chain_space(3, sigma=("x",))
        d = dsharp(sp, ("r",), 2)
        assert d == frozenset({(), ("x",), ("x", "x")})


def surjectivity(space, alpha, table):
    """``xi_surjectivity_check`` of a table at alpha against D-sharp over
    f0(alpha) at max_sigma = 2."""
    return xi_surjectivity_check(dsharp(space, f0(alpha, space.frame), 2),
                                 table)


class TestXi:
    def test_surjectivity_on_stop_free_alpha(self):
        sp = chain_space(4)
        tables = ClassTables(XiClasses(sp), 2)
        for alpha in [(), ("w1",), ("w1", "w2"), ("w1", "w2", "w3")]:
            rep = surjectivity(sp, alpha, tables[alpha])
            assert rep["ok"], rep["missed"]

    def test_surjectivity_with_interleaved_stops(self):
        sp = chain_space(3)
        tables = ClassTables(XiClasses(sp), 2)
        for alpha in [("w1", STOP), (STOP, "w1"),
                      ("w1", STOP, STOP, "w2"), (STOP, STOP, "w1", "w2")]:
            rep = surjectivity(sp, alpha, tables[alpha])
            assert rep["ok"], rep["missed"]

    def test_surjectivity_checks_the_forall_family(self, monkeypatch):
        """The check reads the class table of the family a ``forall`` ranges
        over, so a family whose zero runs stop one short of st(alpha)
        misses classes."""
        import mlwb.pipeline as pipeline
        sp = chain_space(3)
        table = ClassTables(XiClasses(sp), 2)[("w1",)]
        assert surjectivity(sp, ("w1",), table)["ok"]
        short = pipeline.enumerate_dstar
        monkeypatch.setattr(
            pipeline, "enumerate_dstar",
            lambda sigma2, max_sigma, gap_max:
                short(sigma2, max_sigma, gap_max - 1))
        table = ClassTables(XiClasses(sp), 2)[("w1",)]
        rep = surjectivity(sp, ("w1",), table)
        assert not rep["ok"]
        assert ("w1", "x") in rep["missed"]

    def test_locality(self):
        sp = chain_space(4)
        df = DenseFrame(sp.frame, depth=5)
        for alpha in [("w1",), ("w1", STOP, "w2")]:
            for gamma in [("x",), (STOP, "x"), ("x", STOP, "y")]:
                rep = xi_locality_check(sp, df, alpha, gamma)
                assert rep["ok"], rep

    def test_xi_lands_in_dsharp(self):
        sp = chain_space(4)
        alpha = ("w1", STOP, "w2")
        path = f0(alpha, sp.frame)
        for gamma in [("x",), (STOP, "y"), ("x", STOP, "y", STOP)]:
            cls = xi(sp, alpha, gamma)
            assert cls in dsharp(sp, path, 3)


@pytest.mark.parametrize("letters", [1, 2, 3])
def test_fresh_count_counts_the_fresh_classes(letters):
    """The closed form behind the alphabet-size refusal, against the
    enumeration, for paths of up to 4 steps."""
    sp = chain_space(5, sigma=("x", "y", "z")[:letters])
    steps = ("w1", "w2", "w3", "w4")
    for n in range(len(steps) + 1):
        for max_sigma in (1, 2, 3):
            want = len(fresh_classes(sp, steps[:n], max_sigma))
            assert fresh_count(n, letters, max_sigma) == want, (n, max_sigma)


def _domains(*sizes) -> list:
    """Nested domains along a path: the first ``size`` of d0, d1, ..."""
    return [{f"d{i}" for i in range(size)} for size in sizes]


@pytest.mark.parametrize("edges, domains, letters, least", [
    ([], _domains(1), 1, 1),
    ([], _domains(3), 1, 2),
    ([], _domains(4), 2, 2),
    ([], _domains(13), 3, 2),
    ([], _domains(14), 3, 3),
    ([("r", "a")], _domains(1, 4), 1, 2),
    ([("r", "a")], _domains(1, 6), 2, 2),
    ([("r", "a"), ("a", "b")], _domains(1, 1, 6), 1, 3),
    ([("r", "a"), ("a", "b")], _domains(2, 3, 4), 1, 1),
    # b is reached in one step and in two, with two new elements each way
    ([("r", "a"), ("a", "b"), ("r", "b")], _domains(1, 1, 3), 1, 2),
    ([("r", "a"), ("a", "a")], _domains(1, 3), 1, 2),
], ids=["one-element", "root-of-three", "root-of-four", "root-of-13",
        "root-of-14", "three-new-in-one-step", "five-new-in-one-step",
        "five-new-in-two-steps", "one-new-per-step", "dag", "loop"])
def test_least_max_sigma_is_the_least_psi_accepts(edges, domains, letters,
                                                  least):
    """``PsiMaps`` accepts the alphabet at the least value and refuses it
    at one less; at a ceiling below the least value, the ceiling is
    returned."""
    worlds = ["r", "a", "b"][:len(domains)]
    frame = KripkeFrame.make(worlds, edges, root="r")
    space = EntangleSpace(frame, ("x", "y", "z")[:letters])
    target = PredKripkeFrame(frame, dict(zip(worlds, domains)))
    df = DenseFrame(frame, depth=len(worlds) + 1)
    assert least_max_sigma(target, df, letters, 5) == least
    PsiMaps(space, target, df, least)
    if least > 1:
        assert least_max_sigma(target, df, letters, least - 1) == least - 1
        with pytest.raises(ValueError, match="alphabet too small"):
            PsiMaps(space, target, df, least - 1)


class TestBuildPsi:
    def test_two_chain_self_check(self):
        sp = chain_space(3)
        target = PredKripkeFrame(sp.frame,
                                 {"r": {"d"}, "w1": {"d", "e"},
                                  "w2": {"d", "e", "f"}})
        m = build_psi(sp, target, DenseFrame(sp.frame, depth=4), max_sigma=2)
        assert check_kk_morphism(m)
        # root classes cover the root domain
        root_map = m.phi1[("r",)]
        assert set(root_map.values()) == {"d"}

    def test_alphabet_too_small(self):
        sp = chain_space(2, sigma=("x",))
        target = PredKripkeFrame(
            sp.frame, {"r": {"d", "e", "f"}, "w1": {"d", "e", "f"}})
        with pytest.raises(ValueError, match="alphabet too small"):
            build_psi(sp, target, DenseFrame(sp.frame, depth=3), max_sigma=1)

    def test_non_tree_needs_dense(self):
        frame = KripkeFrame.make(["r", "a"],
                                 [("r", "a"), ("a", "a")], root="r")
        sp = EntangleSpace(frame, ("x", "y"))
        target = PredKripkeFrame(frame, {"r": {"d"}, "a": {"d", "e"}})
        m = build_psi(sp, target, DenseFrame(frame, depth=4), max_sigma=2)
        assert check_kk_morphism(m)


def test_dstar_family_counts_before_building(monkeypatch):
    """With max_sigma = 40 the family at a point with st = 0 has 2^41 - 1
    words: the count passes ``DSTAR_WORDS`` and raises before any word is
    built.  A family of the bundled size still builds."""
    import mlwb.entangle
    assert len(enumerate_dstar(("1", "2"), 2, 4)) == 111
    monkeypatch.setattr(mlwb.entangle, "grow_words", None)
    with pytest.raises(BudgetExceeded, match=(
            "has 2199023255551 words, over the budget DSTAR_WORDS = 65536")):
        enumerate_dstar(("1", "2"), 40, 0)


def test_dsharp_domains_count_before_building(monkeypatch):
    """psi's set-up counts the D-sharp classes at its longest closed path
    and refuses more than ``DSHARP_CLASSES`` before it builds a domain."""
    import mlwb.entangle
    for name in ("dsharp", "fresh_classes"):
        monkeypatch.setattr(mlwb.entangle, name, None)
    space = chain_space()
    target = PredKripkeFrame(space.frame,
                             {w: {"d"} for w in space.frame.worlds})
    df = DenseFrame(space.frame, depth=4)
    assert PsiMaps(space, target, df, 3).fresh_counts == [15, 34, 62, 98]
    with pytest.raises(BudgetExceeded, match=(
            "length 4 has .* classes with max_sigma = 40, over the budget"
            " DSHARP_CLASSES = 65536")):
        PsiMaps(space, target, df, 40)
