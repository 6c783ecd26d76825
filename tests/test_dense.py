import random
from dataclasses import dataclass

import pytest

from mlwb.horn import HornTheory, axiom_to_horn, axioms_to_theory, \
    gamma_close
from mlwb.kripke import BudgetExceeded, EvaluationError, KripkeFrame, \
    relation_compose, unravel
from mlwb.dense import (
    DenseFrame, DenseModel, ParityVal, STOP,
    bounded_eval, canonical, counterexample_g,
    density_witness, enumerate_paths_with_stops, f0, f0_image_check,
    format_compact, format_stopword, is_member_uk, next_frame, restrict, st,
    uk_members, validate_stopword,
)
from mlwb.syntax import Box, Falsum, Implies, Letter, dia, modal_depth, neg, \
    parse_horn


@dataclass(frozen=True)
class FiniteSetVal:
    """A dense valuation true on a finite set of canonical stop words."""

    words: frozenset

    def member(self, word) -> bool:
        return canonical(word) in self.words

    def max_len(self) -> int:
        return max((len(w) for w in self.words), default=0)


def two_chain():
    return KripkeFrame.make(["r", "a", "b"], [("r", "a"), ("a", "b")],
                            root="r")


# the three-world frame of acceptance criterion 8 where r and a both see
# two worlds
THREE_WORLDS = KripkeFrame.make(
    ["r", "a", "b"], [("r", "a"), ("r", "b"), ("a", "b"), ("b", "a")],
    root="r")


def enumerate_canonical(frame: KripkeFrame, max_len: int) -> list:
    """All canonical stop words of length <= max_len."""
    return [w for w in enumerate_paths_with_stops(frame, max_len)
            if not w or w[-1] != STOP]


def chain_collapse_check(df: DenseFrame, n: int, m: int,
                         samples: int = 100, seed: int = 0) -> dict:
    """Collapse step of the box-to-box^n preservation proof: an n-chain of
    U^Gamma_m steps stays inside U^Gamma_m of the start."""
    if df.gamma is None:
        raise ValueError("chain collapse needs a Gamma-relativized frame")
    closed = df.closed_unravelling()
    safe = frozenset(p for p in df.interior_paths()
                     if len(p) + n < df.depth)
    sub_worlds = frozenset(p for p in closed.worlds if len(p) <= df.depth - 1)
    # precondition: the closed truncated unravelling validates R^n <= R on
    # chains that stay inside the truncation
    rel = frozenset((u, v) for u, v in closed.relation
                    if u in sub_worlds and v in sub_worlds)
    cur = frozenset((w, w) for w in sub_worlds)
    for _ in range(n):
        cur = relation_compose(cur, rel)
    for u, v in cur:
        if u in safe and (u, v) not in rel:
            raise ValueError(f"precondition failed: closed unravelling lacks"
                             f" R^{n} edge {(u, v)!r}")
    rng = random.Random(seed)
    starts = [w for w in enumerate_canonical(df.frame, max(1, df.depth - n - 2))
              if f0(w, df.frame) in safe]
    passed = tried = 0
    failures = []
    for _ in range(samples):
        alpha = rng.choice(starts)
        chain = [alpha]
        ok = True
        try:
            for _ in range(n):
                members, _ = uk_members(chain[-1], m, df)
                members = [b for b in members if b != chain[-1]]
                if not members:
                    ok = False
                    break
                chain.append(rng.choice(members))
            if not ok:
                continue
            result = is_member_uk(chain[-1], alpha, m, df)
        except BudgetExceeded:
            continue
        tried += 1
        if result:
            passed += 1
        elif len(failures) < 5:
            failures.append(tuple(chain))
    return {"tried": tried, "passed": passed, "failures": failures,
            "ok": tried > 0 and passed == tried}


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

    def test_format_stopword(self):
        assert format_stopword(()) == "eps"
        assert format_stopword(("a",)) == "a"
        assert format_stopword((STOP, "a", STOP, STOP, "b")) == "0.a.0.0.b"

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


class TestClosureByPathLength:
    """``DenseFrame`` closes the truncated unravelling by path length
    alone; the general Datalog closure ``gamma_close`` is the oracle."""

    POWERS = [{0}, {1}, {2}, {0, 3}, {2, 3}, {3, 5}, {0, 2, 4}]

    @staticmethod
    def rooted_frame(rng: random.Random) -> KripkeFrame:
        """1-4 worlds reachable from w0 along a random tree, some forward
        edges and, half the time, an edge back to an earlier world or a
        loop."""
        n = rng.randint(1, 4)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3}
        if rng.random() < 0.5:
            i = rng.randrange(n)
            edges.add((i, rng.randrange(i + 1)))
        names = [f"w{i}" for i in range(n)]
        return KripkeFrame.make(names, [(names[i], names[j])
                                        for i, j in edges], root="w0")

    @pytest.mark.parametrize("powers", POWERS,
                             ids=lambda ks: "-".join(map(str, sorted(ks))))
    def test_agrees_with_gamma_close(self, powers):
        rng = random.Random(repr(sorted(powers)))
        gamma = HornTheory(tuple(  # R^1 <= R as a sentence too
            axiom_to_horn(k) or parse_horn("x R y => x R y")
            for k in sorted(powers)))
        cyclic = 0
        for depth in range(1, 7):
            for _ in range(12):
                frame = self.rooted_frame(rng)
                cyclic += any(v <= u for u, v in frame.relation)
                tree = unravel(frame, depth).frame
                want = gamma_close(tree, gamma)
                df = DenseFrame(frame, gamma, depth)
                assert df.closed_unravelling() == want, (frame, depth)
                assert df.closure_edges() == len(want.relation
                                                 - tree.relation)
        assert cyclic


class TestNeighbourhoods:
    def setup_method(self):
        self.df = DenseFrame(two_chain(), depth=4, j_max=3)

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


def reference_eval(model: DenseModel, alpha, a, k_max: int) -> tuple:
    """Reference for the exact box, read from the definition, as a
    (value, certified) pair.  A box tries k = 0..k_max, reads U_k(alpha)
    from ``uk_members`` and evaluates the body at each member; it is
    certified true at the first k where the body holds at every member,
    and certified false only when k_max reaches past
    stability_bound(alpha) + 1.  An implication is certified when a
    certified side decides it.

    ``uk_members`` pads each one-letter step with j = 0..j_max zeros (8 on
    the random frames, 4 on the frame with only a parity valuation).  That
    shows every value a family takes: the finite sets here hold words of at
    most 4 letters, so only j <= 3 can meet one, and past them parity has
    period 2, so j = 4 and 5 show the rest."""
    alpha = canonical(alpha)
    if isinstance(a, Falsum):
        return False, True
    if isinstance(a, Letter):
        return model.member(a.name, alpha), True
    if isinstance(a, Implies):
        left, left_cert = reference_eval(model, alpha, a.left, k_max)
        right, right_cert = reference_eval(model, alpha, a.right, k_max)
        if left_cert and not left or right_cert and right:
            return True, True
        return not left or right, left_cert and right_cert
    df = model.dense
    exts = df.extensions(f0(alpha, df.frame))
    if not exts:
        return True, True
    assert modal_depth(a.body) == 0 and all(len(ext) <= 1 for ext in exts)
    for k in range(k_max + 1):
        members, _ = uk_members(alpha, k, df)
        if all(reference_eval(model, beta, a.body, k_max)[0]
               for beta in members):
            return True, True
    return False, k_max >= model.stability_bound(alpha) + 1


def random_dense_frame(rng: random.Random, kind: str) -> DenseFrame:
    """A rooted frame of 2-4 worlds (a tree, a DAG, a frame with a loop or
    cycle, or a tree with the reflexive Gamma) as a dense frame of depth 4,
    so that words of at most two letters are interior points."""
    n = rng.randint(2, 4)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    if kind in ("dag", "loop"):
        edges |= {(i, j) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.3}
    if kind == "loop":
        j = rng.randrange(1, n)
        edges.add((j, rng.randrange(1, j + 1)))
    names = [f"w{i}" for i in range(n)]
    frame = KripkeFrame.make(names, [(names[i], names[j]) for i, j in edges],
                             root="w0")
    gamma = axioms_to_theory([0]) if kind == "reflexive" else None
    return DenseFrame(frame, gamma=gamma, depth=4)


def random_val(rng: random.Random, frame: KripkeFrame):
    if rng.random() < 0.5:
        return ParityVal(rng.choice(sorted(frame.worlds)), rng.randint(0, 1))
    words = enumerate_canonical(frame, 4)
    return FiniteSetVal(frozenset(w for w in words if rng.random() < 0.4))


def random_depth_one(rng: random.Random):
    """A formula whose boxes have bodies of modal depth 0."""
    def body(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([Letter("p"), Letter("q"), Falsum()])
        return Implies(body(depth - 1), body(depth - 1))

    def modal(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            return rng.choice([Box, dia])(body(2))
        if roll < 0.5:
            return neg(modal(depth - 1))
        return Implies(modal(depth - 1), rng.choice([modal, body])(depth - 1))
    return modal(2)


class TestEvaluation:
    def test_letter_and_falsum_certified(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": FiniteSetVal(frozenset({("a",)}))})
        assert bounded_eval(model, ("a",), Letter("p")) is True
        assert bounded_eval(model, (STOP, "a"), Letter("p")) is False
        assert bounded_eval(model, (), Falsum()) is False

    def test_box_vacuous_at_endpoint(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": FiniteSetVal(frozenset())})
        assert bounded_eval(model, ("a", "b"), Box(Letter("p"))) is True

    def test_box_false_certified_on_parity(self):
        rep = counterexample_g(6)
        assert rep["ok"]
        assert rep["box_p"] is False
        assert rep["dia_p"] is True

    def test_agrees_with_k_loop_reference(self):
        """Every verdict of the exact box is certified by the k-loop
        reference, with the same value, on seeded trees, DAGs, frames with
        loops and reflexive-Gamma frames."""
        cases = [(DenseModel(DenseFrame(two_chain(), depth=4, j_max=4),
                             {"p": ParityVal("b", 0)}),
                  [(), ("a",), (STOP, "a")],
                  [Box(Letter("p")), Implies(Box(Letter("p")), Letter("p")),
                   Box(Implies(Letter("p"), Falsum()))])]
        rng = random.Random("exact-box")
        for kind in ("tree", "dag", "loop", "reflexive"):
            for _ in range(6):
                df = random_dense_frame(rng, kind)
                model = DenseModel(df, {name: random_val(rng, df.frame)
                                        for name in ("p", "q")})
                points = [w for w in enumerate_canonical(df.frame, 3)
                          if f0(w, df.frame) in df.interior_paths()]
                formulas = [random_depth_one(rng) for _ in range(8)]
                cases.append((model, points, formulas))
        values = []
        for model, points, formulas in cases:
            for alpha in points:
                for a in formulas:
                    got = bounded_eval(model, alpha, a)
                    want, certified = reference_eval(model, alpha, a,
                                                     k_max=12)
                    assert certified, (alpha, a)
                    assert got is want, (alpha, a)
                    values.append(got)
        assert len(values) > 1000 and set(values) == {True, False}

    def test_nested_box_raises(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": ParityVal("b", 0)})
        with pytest.raises(EvaluationError, match="decided fragment"):
            bounded_eval(model, (), Box(Box(Letter("p"))))

    def test_box_over_multi_letter_extension_raises(self):
        # under R^2 <= R the closed unravelling steps from r to r.a.b
        frame = KripkeFrame.make(["r", "a", "b"],
                                 [("r", "a"), ("a", "b"), ("r", "b")],
                                 root="r")
        df = DenseFrame(frame, gamma=axioms_to_theory([2]), depth=4)
        assert ("a", "b") in df.extensions(("r",))
        model = DenseModel(df, {"p": ParityVal("b", 0)})
        with pytest.raises(EvaluationError, match="decided fragment"):
            bounded_eval(model, (), Box(Letter("p")))

    def test_invalid_point_rejected(self):
        df = DenseFrame(two_chain(), depth=4)
        model = DenseModel(df, {"p": FiniteSetVal(frozenset())})
        with pytest.raises(EvaluationError):
            bounded_eval(model, ("b",), Letter("p"))


class TestMorphismChecks:
    def test_f0_image_check(self):
        df = DenseFrame(two_chain(), depth=4)
        assert f0_image_check(("a",), 1, df)

    @pytest.mark.parametrize("frame, gamma, depth", [
        (two_chain(), None, 4),
        (THREE_WORLDS, None, 5),
        (KripkeFrame.make(["r", "a", "b"], [("r", "a"), ("a", "b"),
                                            ("r", "b")], root="r"),
         axioms_to_theory([2]), 5),
    ], ids=["two-chain", "three-worlds", "transitive-chain"])
    def test_f0_zigzag_at_every_point(self, frame, gamma, depth):
        """f0 maps onto the interior paths, and f0(U_k(alpha)) is the
        closed-successor set of f0(alpha) at every point whose path is
        interior, for k = 0..3."""
        df = DenseFrame(frame, gamma=gamma, depth=depth)
        for path in df.interior_paths():
            assert f0(canonical(path[1:]), frame) == path
        checked = 0
        for alpha in enumerate_canonical(frame, depth - 2):
            if f0(alpha, frame) not in df.interior_paths():
                continue
            for k in range(4):
                verdict = f0_image_check(alpha, k, df)
                assert verdict, (alpha, k, verdict)
                checked += 1
        assert checked > 0

    def test_f0_image_check_reads_the_closed_relation(self, monkeypatch):
        """A DenseFrame.extensions that drops the last of two or more
        extensions leaves a closed successor outside the image."""
        df = DenseFrame(THREE_WORLDS, depth=5)
        assert f0_image_check((), 1, df)
        extensions = DenseFrame.extensions
        monkeypatch.setattr(DenseFrame, "extensions", lambda self, path: (
            lambda out: out[:-1] if len(out) >= 2 else out)(
                extensions(self, path)))
        verdict = f0_image_check((), 1, df)
        assert not verdict
        assert verdict.condition == "image-misses-successor"

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

    def test_kmax_counts_before_building(self, monkeypatch):
        """(k_max + 1)(k_max + 3) witness letters: past
        ``WITNESS_LETTERS`` the call raises before it builds the frame."""
        import mlwb.dense
        monkeypatch.setattr(mlwb.dense, "next_frame", None)
        with pytest.raises(BudgetExceeded, match=(
                "k_max = 1023 have 1050624 letters, over the budget"
                " WITNESS_LETTERS = 1048576")):
            counterexample_g(1023)

    def test_rejects_tiny_kmax(self):
        with pytest.raises(ValueError):
            counterexample_g(1)

    def test_format_compact(self):
        assert format_compact((STOP, STOP, "1")) == "001"
        assert format_compact(()) == "eps"
