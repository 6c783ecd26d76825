import itertools
import random

import pytest

from mlwb.horn import (
    HornTheory, _Index, _compile, _dnf, _joins, axiom_to_horn,
    axioms_to_theory, chain_axiom_powers, gamma_close, parse_horn_theory,
    transitive_closure_squaring,
)
from mlwb.kripke import KripkeFrame, KripkeMorphism, check_pmorphism, unravel
from mlwb.syntax import HAnd, HAtom, HOr, HTrue, HornSentence, parse_horn


def eval_horn(frame: KripkeFrame, s: HornSentence) -> bool:
    """Whether ``frame`` validates ``s``: each conjunct's join program run
    over the whole relation derives no pair outside it."""
    relation = _Index(frame.relation)
    return all(_joins(_compile(atoms, s.head, 0), relation.pairs, relation,
                      frame.worlds) <= relation.pairs
               for atoms in _dnf(s.body))


def random_frame(rng, max_worlds=6, p=0.3):
    n = rng.randint(1, max_worlds)
    worlds = [f"w{i}" for i in range(n)]
    relation = frozenset((u, v) for u in worlds for v in worlds
                         if rng.random() < p)
    return KripkeFrame(frozenset(worlds), relation, worlds[0])


# Brute-force reference: the naive fixpoint over all n^|vars| assignments
# that the indexed semi-naive join in mlwb.horn replaced.
def naive_body_holds(body, relation, env):
    if isinstance(body, HTrue):
        return True
    if isinstance(body, HAtom):
        return (env[body.left], env[body.right]) in relation
    if isinstance(body, HAnd):
        return naive_body_holds(body.left, relation, env) and \
            naive_body_holds(body.right, relation, env)
    return naive_body_holds(body.left, relation, env) or \
        naive_body_holds(body.right, relation, env)


def naive_violations(worlds, relation, s):
    for values in itertools.product(sorted(worlds), repeat=len(s.variables)):
        env = dict(zip(s.variables, values))
        if naive_body_holds(s.body, relation, env):
            pair = (env[s.head.left], env[s.head.right])
            if pair not in relation:
                yield pair


def naive_close(frame, gamma):
    relation = set(frame.relation)
    while True:
        new = {pair for s in gamma
               for pair in naive_violations(frame.worlds, frozenset(relation), s)}
        if not new:
            return frozenset(relation)
        relation |= new


def power_fixpoint(relation, k):
    """Closure under R^k <= R: add R^k until nothing changes."""
    rel = set(relation)
    while True:
        succ = {}
        for u, v in rel:
            succ.setdefault(u, set()).add(v)
        step = set(rel)
        for _ in range(k - 1):
            step = {(u, w) for u, v in step for w in succ.get(v, ())}
        if step <= rel:
            return frozenset(rel)
        rel |= step


VARIABLES = ("x", "y", "z", "w")


def random_body(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.1:
            return HTrue()
        return HAtom(rng.choice(VARIABLES), rng.choice(VARIABLES))
    node = HAnd if roll < 0.7 else HOr
    return node(random_body(rng, depth - 1), random_body(rng, depth - 1))


def random_sentence(rng):
    body = random_body(rng, 3)
    head = HAtom(rng.choice(VARIABLES), rng.choice(VARIABLES))
    used = {head.left, head.right}
    probe = HornSentence(VARIABLES, body, head)
    used |= {v for atom in probe.body_atoms() for v in (atom.left, atom.right)}
    return HornSentence(tuple(v for v in VARIABLES if v in used), body, head)


SHAPED_SENTENCES = [
    "x R y | y R x => x R y",          # disjunctive body
    "true => x R y",                    # true body, head unbound
    "x R z => x R y",                   # head variable absent from the body
    "x R x => x R y",                   # x R x atom
    "x R x & x R y => y R y",
    "y R y | true => x R x",
    "x R z1 & z1 R z2 & z2 R y => x R y",
    "x R z1 & z1 R z2 & z2 R z3 & z3 R y => x R y",
    "x R z & z R x & z R y => y R x",   # variable repeated across atoms
    "(x R y | y R z) & z R x => y R z",
]


class TestAxiomTranslation:
    def test_k0_is_reflexivity(self):
        s = axiom_to_horn(0)
        refl = KripkeFrame(frozenset("a"), frozenset({("a", "a")}), "a")
        irrefl = KripkeFrame(frozenset("a"), frozenset(), "a")
        assert eval_horn(refl, s) and not eval_horn(irrefl, s)

    def test_k1_is_vacuous(self):
        assert axiom_to_horn(1) is None

    def test_k2_is_transitivity(self):
        s = axiom_to_horn(2)
        assert s == parse_horn("x R z1 & z1 R y => x R y")

    def test_chain_axiom_powers(self):
        theory = axioms_to_theory([0, 2, 3])
        assert set(chain_axiom_powers(theory)) == {0, 2, 3}
        # a non-chain sentence has no power reading
        other = HornTheory.of(parse_horn("x R y => y R x"))
        assert chain_axiom_powers(other) is None


class TestClosure:
    def test_transitive_closure_matches_squaring_oracle(self):
        rng = random.Random(0)
        theory = HornTheory.of(axiom_to_horn(2))
        for _ in range(200):
            frame = random_frame(rng)
            closed = gamma_close(frame, theory)
            assert closed.relation == transitive_closure_squaring(frame.relation)

    def test_closure_is_superset_and_idempotent(self):
        rng = random.Random(1)
        theory = axioms_to_theory([0, 2])
        for _ in range(50):
            frame = random_frame(rng)
            closed = gamma_close(frame, theory)
            assert frame.relation <= closed.relation
            assert gamma_close(closed, theory).relation == closed.relation
            assert all(eval_horn(closed, s) for s in theory)

    def test_disjunctive_body(self):
        # instantiating x=b, y=a realizes the second disjunct, so the
        # sentence forces symmetry
        theory = parse_horn_theory("x R y | y R x => x R y")
        frame = KripkeFrame(frozenset("ab"), frozenset({("a", "b")}), "a")
        closed = gamma_close(frame, theory)
        assert closed.relation == frozenset({("a", "b"), ("b", "a")})

    def test_closure_lifts_along_unravelling(self):
        frame = KripkeFrame(frozenset("rab"),
                            frozenset({("r", "a"), ("a", "b"), ("r", "b")}), "r")
        theory = HornTheory.of(axiom_to_horn(2))
        assert all(eval_horn(frame, s) for s in theory)
        u = unravel(frame, 4)
        closed = gamma_close(u.frame, theory)
        verdict = check_pmorphism(
            KripkeMorphism(closed, frame, u.pi.map, u.interior))
        assert verdict, verdict


class TestJoinAgainstNaiveReference:
    @pytest.mark.parametrize("text", SHAPED_SENTENCES)
    def test_shaped_sentence(self, text):
        s = parse_horn(text)
        theory = HornTheory.of(s)
        rng = random.Random(text)
        for _ in range(25):
            frame = random_frame(rng, max_worlds=5, p=0.25)
            expected_valid = next(naive_violations(
                frame.worlds, frame.relation, s), None) is None
            assert eval_horn(frame, s) == expected_valid
            closed = gamma_close(frame, theory)
            assert closed.relation == naive_close(frame, theory)
            assert eval_horn(closed, s)

    def test_one_theory_closes_frames_in_turn(self):
        """A theory's compiled programs carry nothing from one frame to
        the next, and leave its equality and hash to its sentences."""
        rng = random.Random(18)
        for text in SHAPED_SENTENCES:
            theory = HornTheory.of(parse_horn(text))
            frames = [random_frame(rng, max_worlds=5, p=0.3)
                      for _ in range(3)]
            for frame in frames + frames[:1]:
                assert gamma_close(frame, theory).relation == \
                    naive_close(frame, theory)
            other = HornTheory.of(parse_horn(text))
            gamma_close(frames[1], other)
            assert other == theory and hash(other) == hash(theory)

    def test_random_sentences(self):
        rng = random.Random(5)
        for _ in range(150):
            theory = HornTheory(tuple(random_sentence(rng)
                                      for _ in range(rng.randint(1, 2))))
            frame = random_frame(rng, max_worlds=4, p=0.3)
            for s in theory:
                expected_valid = next(naive_violations(
                    frame.worlds, frame.relation, s), None) is None
                assert eval_horn(frame, s) == expected_valid
            assert gamma_close(frame, theory).relation == \
                naive_close(frame, theory)


class TestClusterGate:
    """The depth-6 unravelling of the two-world cluster: 63 paths."""

    @pytest.fixture(scope="class")
    def paths(self):
        cluster = KripkeFrame(frozenset("ab"), frozenset(
            {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}), "a")
        frame = unravel(cluster, 6).frame
        assert len(frame.worlds) == 63
        return frame

    def test_transitive_closure(self, paths):
        closed = gamma_close(paths, HornTheory.of(axiom_to_horn(2)))
        assert closed.relation == transitive_closure_squaring(paths.relation)

    def test_cubic_closure(self, paths):
        closed = gamma_close(paths, HornTheory.of(axiom_to_horn(3)))
        assert closed.relation == power_fixpoint(paths.relation, 3)
        assert closed.relation != paths.relation


class TestParsing:
    def test_theory_parse(self):
        theory = parse_horn_theory(
            "x R y & y R z => x R z\n# comment\ntrue => x R x\n")
        assert len(theory.sentences) == 2
