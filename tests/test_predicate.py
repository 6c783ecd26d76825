import itertools
import random
import re

import pytest

from mlwb.kripke import EvaluationError, KripkeFrame, KripkeMorphism
from mlwb.neighbourhood import NFrame, nf_from_kripke
from mlwb.predicate import (
    PredKKMorphism, PredKripkeFrame, PredKripkeModel, PredNFrame, PredNKMorphism,
    PredNModel, barcan_formula, check_kk_morphism, check_nk_morphism,
    converse_barcan_formula, eval_pred_kripke, eval_pred_nbhd, parse_domains,
    parse_pred_valuation, pred_truth_preservation_test, pullback_kk,
    pullback_nk, random_pred_formula, truth_set, truth_vectors,
)
from mlwb.syntax import Atom, Box, Falsum, Forall, Implies, Var, parse_pred


def compose_morphisms(nk: PredNKMorphism, kk: PredKKMorphism) -> PredNKMorphism:
    """The composite NK morphism: eta_x(d) = psi_{1 phi0(x)}(phi1_x(d))."""
    if kk.source != nk.target and kk.source is not nk.target:
        raise ValueError("morphism codomain/domain mismatch")
    phi0 = {x: kk.phi0.map[nk.phi0[x]] for x in nk.space.points}
    phi1 = {x: {d: kk.phi1[nk.phi0[x]][nk.phi1[x][d]] for d in nk.dstar}
            for x in nk.space.points}
    return PredNKMorphism(nk.space, kk.target, nk.dstar, phi0, phi1)


def two_chain():
    return KripkeFrame.make(["r", "a", "b"], [("r", "a"), ("a", "b")],
                            root="r")


def expanding_pframe():
    return PredKripkeFrame(two_chain(), {"r": {"d"}, "a": {"d", "e"},
                                         "b": {"d", "e"}})


class TestFrames:
    def test_expansion_enforced(self):
        with pytest.raises(ValueError):
            PredKripkeFrame(two_chain(), {"r": {"d", "e"}, "a": {"d"},
                                          "b": {"d"}})

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            PredKripkeFrame(two_chain(), {"r": set(), "a": {"d"}, "b": {"d"}})

    def test_valuation_respects_local_domains(self):
        pf = expanding_pframe()
        with pytest.raises(ValueError):
            PredKripkeModel(pf, {"P": {"r": frozenset({("e",)})}})

    def test_domains_name_the_worlds_they_miss_or_add(self):
        with pytest.raises(ValueError, match=re.escape(
                "the worlds ['b'] have no domain")):
            PredKripkeFrame(two_chain(), {"r": {"d"}, "a": {"d"}})
        with pytest.raises(ValueError, match=re.escape(
                "domains at worlds the frame lacks: ['z']")):
            PredKripkeFrame(two_chain(), {"r": {"d"}, "a": {"d"}, "b": {"d"},
                                          "z": {"d"}})

    def test_valuation_at_a_missing_world_is_refused(self):
        with pytest.raises(ValueError, match="the frame has no world 'z'"):
            PredKripkeModel(expanding_pframe(), {"P": {"z": frozenset()}})


class TestEvaluation:
    def setup_method(self):
        self.pf = expanding_pframe()
        self.model = PredKripkeModel(
            self.pf, {"P": {"a": frozenset({("d",)}),
                            "b": frozenset({("d",), ("e",)})}})

    def test_quantifier_over_local_domain(self):
        a = parse_pred("forall x. P(x)")
        assert eval_pred_kripke(self.model, "b", a)
        assert not eval_pred_kripke(self.model, "a", a)  # e missing at a

    def test_box_shifts_domain(self):
        # at a, box forall x. P(x) holds because b satisfies P everywhere
        a = parse_pred("box forall x. P(x)")
        assert eval_pred_kripke(self.model, "a", a)
        assert not eval_pred_kripke(self.model, "r", a)

    def test_barcan_fails_on_expanding_domains(self):
        # forall x. box P(x) quantifies at r over {d} only
        bf = barcan_formula()
        model = PredKripkeModel(
            self.pf, {"P": {"a": frozenset({("d",)}),
                            "b": frozenset({("d",)})}})
        assert not eval_pred_kripke(model, "r", bf)
        assert eval_pred_kripke(model, "r", converse_barcan_formula())

    def test_nbhd_constant_domain_validates_barcan(self):
        nf = nf_from_kripke(two_chain())
        pnf = PredNFrame(nf, {"d", "e"})
        rng = random.Random(7)
        points = sorted(nf.points)
        for _ in range(50):
            val = {"P": {x: frozenset(
                (el,) for el in ("d", "e") if rng.random() < 0.5)
                for x in points}}
            model = PredNModel(pnf, val)
            for x in points:
                assert eval_pred_nbhd(model, x, barcan_formula())
                assert eval_pred_nbhd(model, x, converse_barcan_formula())


def _p(*args):
    return Atom("P", tuple(args))


def _kripke_case():
    """Evaluation at the root of the expanding chain, whose domain is {d}."""
    model = PredKripkeModel(expanding_pframe(),
                            {"P": {"a": frozenset({("d",)})}})
    return lambda x, a: eval_pred_kripke(model, x, a)


def _nbhd_case():
    """Evaluation at the root of the same chain as an n-frame, D* = {d, e}."""
    model = PredNModel(PredNFrame(nf_from_kripke(two_chain()), {"d", "e"}),
                       {"P": {"a": frozenset({("d",)})}})
    return lambda x, a: eval_pred_nbhd(model, x, a)


@pytest.mark.parametrize("case", [_kripke_case, _nbhd_case],
                         ids=["kripke", "nbhd"])
class TestRefusals:
    """Both entry points refuse before they walk: an unknown point, and free
    and rebound variables anywhere in the formula."""

    def test_unknown_point(self, case):
        evaluate = case()
        with pytest.raises(EvaluationError, match="unknown point 'zz'"):
            evaluate("zz", barcan_formula())

    def test_open_atom_on_unreached_branch(self, case):
        evaluate = case()
        with pytest.raises(EvaluationError,
                           match="formula must be closed; free: \\['x'\\]"):
            evaluate("r", Implies(Falsum(), _p(Var("x"))))

    @pytest.mark.parametrize("inner", [
        lambda body: body,
        lambda body: Implies(Falsum(), body),
    ], ids=["direct", "unreached-branch"])
    def test_rebound_variable(self, case, inner):
        # the parser rejects shadowing, so the formula is built directly
        evaluate = case()
        a = Forall("x", inner(Forall("x", _p(Var("x")))))
        with pytest.raises(EvaluationError, match="bound again"):
            evaluate("r", a)

    @pytest.mark.parametrize("a", [
        parse_pred("forall x. P(x, x)"),
        parse_pred("forall x. (false -> P(x, x))"),
        _p(),
    ], ids=["direct", "unreached-branch", "nullary"])
    def test_atom_of_another_arity(self, case, a):
        evaluate = case()
        with pytest.raises(ValueError, match=re.escape(
                "predicate 'P' is applied at arity")):
            evaluate("r", a)

    def test_predicate_without_valuation(self, case):
        evaluate = case()
        with pytest.raises(ValueError,
                           match="predicate 'Q' has no valuation entry"):
            evaluate("r", parse_pred("forall x. (false -> Q(x))"))


def test_one_world_model_refuses_an_atom_of_another_arity():
    """``truth_set``, ``eval_pred_kripke`` and ``eval_pred_nbhd`` refuse an
    atom whose argument count differs from its predicate's rows, where an
    atom used to read such an argument tuple as false."""
    frame = KripkeFrame.make(["u"], [], root="u")
    kripke = PredKripkeModel(PredKripkeFrame(frame, {"u": {"d"}}),
                             {"P": {"u": frozenset({("d",)})}})
    nbhd = PredNModel(PredNFrame(nf_from_kripke(frame), {"d"}),
                      {"P": {"u": frozenset({("d",)})}})
    for text in ("forall x. P(x, x)", "forall x. P(x, x) -> false"):
        a = parse_pred(text)
        for call in (lambda: truth_set(kripke, a),
                     lambda: truth_set(nbhd, a),
                     lambda: eval_pred_kripke(kripke, "u", a),
                     lambda: eval_pred_nbhd(nbhd, "u", a)):
            with pytest.raises(ValueError, match=re.escape(
                    "predicate 'P' is applied at arity 2, but its"
                    " [valuation] rows have arity 1")):
                call()
    assert eval_pred_kripke(kripke, "u", parse_pred("forall x. P(x)"))


def test_both_models_refuse_rows_of_two_arities():
    frame = KripkeFrame.make(["u", "v"], [("u", "v")], root="u")
    rows = {"P": {"u": frozenset({("d",)}), "v": frozenset({("d", "d")})}}
    with pytest.raises(ValueError, match="inconsistent arity for 'P'"):
        PredKripkeModel(PredKripkeFrame(frame, {"u": {"d"}, "v": {"d"}}),
                        rows)
    with pytest.raises(ValueError, match="inconsistent arity for 'P'"):
        PredNModel(PredNFrame(nf_from_kripke(frame), {"d"}), rows)


def test_truth_set_collects_the_pointwise_values():
    kripke = PredKripkeModel(expanding_pframe(), {"P": {
        "a": frozenset({("d",)}), "b": frozenset({("d",), ("e",)})}})
    nbhd = PredNModel(PredNFrame(nf_from_kripke(two_chain()), {"d", "e"}),
                      {"P": {"r": frozenset({("e",)}),
                             "a": frozenset({("d",)})}})
    rng = random.Random(15)
    for model, evaluate in ((kripke, eval_pred_kripke),
                            (nbhd, eval_pred_nbhd)):
        for _ in range(100):
            a = random_pred_formula(rng, {"P": 1}, depth=2)
            assert truth_set(model, a) == \
                {x for x in "rab" if evaluate(model, x, a)}
        with pytest.raises(EvaluationError, match="formula must be closed"):
            truth_set(model, Implies(Falsum(), _p(Var("x"))))


# ---------------------------------------------------------------------------
# truth vectors against a pointwise reference


REFERENCE_PREDS = {"P": 1, "R": 2, "Q": 0}


def _frame_of(model):
    """The points of a finite model and, at each, the elements a ``forall``
    binds there, read off its frame: the local domain on the Kripke side,
    D* on the neighbourhood side."""
    if isinstance(model, PredKripkeModel):
        return model.pframe.frame.worlds, model.pframe.domains.__getitem__
    return model.pframe.space.points, lambda x: model.pframe.dstar


def _reference(model, valuation, x, a, env):
    """Predicate truth at ``x`` under one valuation, from the definitions,
    one point at a time.  On a Kripke model a box ranges over the
    successors of ``x`` (read off the relation) and ``forall`` over the
    local domain of ``x``; on a neighbourhood model a box holds iff its
    body holds throughout some member of the filter base, and ``forall``
    ranges over D*.  It shares no code with ``truth_vectors`` or
    ``pipeline.DenseEvaluator.eval``."""
    if isinstance(model, PredKripkeModel):
        frame = model.pframe.frame
        members = [{v for u, v in frame.relation if u == x}]
    else:
        members = model.pframe.space.base[x]
    if isinstance(a, Falsum):
        return False
    if isinstance(a, Atom):
        args = tuple(env[t.name] for t in a.args)
        return args in valuation[a.name].get(x, frozenset())
    if isinstance(a, Implies):
        return (not _reference(model, valuation, x, a.left, env)
                or _reference(model, valuation, x, a.right, env))
    if isinstance(a, Box):
        return any(all(_reference(model, valuation, y, a.body, env)
                       for y in u) for u in members)
    if isinstance(a, Forall):
        return all(_reference(model, valuation, x, a.body, {**env, a.var: d})
                   for d in _frame_of(model)[1](x))
    raise TypeError(a)


def _random_valuation(rng, model):
    """Rows over each point's quantifier domain for P, R and Q; some points
    get no entry at all."""
    points, domain = _frame_of(model)
    return {name: {x: frozenset(t for t in itertools.product(
                       sorted(domain(x)), repeat=arity) if rng.random() < 0.5)
                   for x in sorted(points) if rng.random() < 0.8}
            for name, arity in REFERENCE_PREDS.items()}


def _reference_models():
    """Two Kripke and two neighbourhood models; ``truth_vectors`` reads only
    their frames.  The looped Kripke frame branches and cycles, and the
    second n-frame has a point with two base members and one whose only
    member is empty."""
    looped = KripkeFrame.make(
        ["r", "a", "b"], [("r", "a"), ("r", "b"), ("a", "a"), ("b", "a")],
        root="r")
    space = NFrame.make("rab", {"r": [{"a", "b"}, {"a"}], "a": [{"b"}],
                                "b": [set()]})
    return [
        PredKripkeModel(expanding_pframe(), {}),
        PredKripkeModel(PredKripkeFrame(looped, {"r": {"d"}, "a": {"d", "e"},
                                                 "b": {"d", "e"}}), {}),
        PredNModel(PredNFrame(nf_from_kripke(two_chain()), {"d", "e"}), {}),
        PredNModel(PredNFrame(space, {"d", "e"}), {}),
    ]


@pytest.mark.parametrize("case", range(4), ids=["kripke-chain",
                                                "kripke-looped",
                                                "nbhd-chain", "nbhd-two-sets"])
def test_truth_vectors_agree_with_a_pointwise_reference(case):
    """Bit k of a point's truth vector is the reference value at the point
    under the k-th valuation of a random family, for random closed formulas
    of modal depth <= 2."""
    model = _reference_models()[case]
    points = _frame_of(model)[0]
    rng = random.Random(23 + case)
    for _ in range(80):
        family = [_random_valuation(rng, model)
                  for _ in range(rng.randint(1, 6))]
        a = random_pred_formula(rng, REFERENCE_PREDS, depth=2)
        values = truth_vectors(model, a, family)
        assert set(values) == points
        for x in points:
            assert 0 <= values[x] < 1 << len(family)
            for k, valuation in enumerate(family):
                assert (values[x] >> k & 1) == \
                    _reference(model, valuation, x, a, {}), (x, k, a)


def _refusal_cases():
    """(model class, frame, valuation that the model refuses, formula)."""
    kripke, nbhd = expanding_pframe(), PredNFrame(
        nf_from_kripke(two_chain()), {"d", "e"})
    cases = []
    for cls, pframe, outside in ((PredKripkeModel, kripke, "e"),
                                 (PredNModel, nbhd, "z")):
        cases += [
            (cls, pframe, {"P": {"a": {("d",)}, "b": {("d", "e")}}},
             "forall x. P(x)"),
            (cls, pframe, {"P": {"r": {(outside,)}}}, "forall x. P(x)"),
            (cls, pframe, {"P": {"zz": frozenset()}}, "forall x. P(x)"),
            (cls, pframe, {"Q": {}}, "forall x. P(x)"),
        ]
    return cases


@pytest.mark.parametrize(
    "cls,pframe,bad,text", _refusal_cases(),
    ids=[f"{kind}-{what}" for kind in ("kripke", "nbhd")
         for what in ("mixed-arity", "outside-domain", "unknown-point",
                      "missing-predicate")])
def test_truth_vectors_refuse_a_family_member_as_the_model_does(
        cls, pframe, bad, text):
    """A family member that the model constructor or ``truth_set`` refuses
    is refused with the same message, wherever it sits in the family."""
    a = parse_pred(text)
    with pytest.raises(ValueError) as one:
        truth_set(cls(pframe, bad), a)
    good = {"P": {"a": frozenset({("d",)})}}
    model = cls(pframe, good)
    for family in ([bad], [good, bad], [good, good, bad, good]):
        with pytest.raises(ValueError) as batched:
            truth_vectors(model, a, family)
        assert str(batched.value) == str(one.value)


def test_truth_vectors_refuse_an_open_formula_over_an_empty_family():
    """An open formula is refused even over an empty family."""
    model = PredNModel(PredNFrame(nf_from_kripke(two_chain()), {"d"}), {})
    with pytest.raises(EvaluationError, match="formula must be closed"):
        truth_vectors(model, _p(Var("x")), [])
    assert truth_vectors(model, Falsum(), []) == dict.fromkeys("rab", 0)


class TestKKMorphisms:
    def make_collapse(self):
        # r -> a -> b with a loop at b collapses onto x -> y with a loop at y
        sframe = KripkeFrame.make(["r", "a", "b"],
                                  [("r", "a"), ("a", "b"), ("b", "b")],
                                  root="r")
        source = PredKripkeFrame(sframe, {"r": {"d"}, "a": {"d", "e"},
                                          "b": {"d", "e"}})
        tframe = KripkeFrame.make(["x", "y"], [("x", "y"), ("y", "y")],
                                  root="x")
        target = PredKripkeFrame(tframe, {"x": {"u"}, "y": {"u"}})
        phi0 = KripkeMorphism(sframe, tframe,
                              {"r": "x", "a": "y", "b": "y"})
        phi1 = {"r": {"d": "u"}, "a": {"d": "u", "e": "u"},
                "b": {"d": "u", "e": "u"}}
        return PredKKMorphism(source, target, phi0, phi1)

    def test_valid_kk(self):
        assert check_kk_morphism(self.make_collapse())

    def test_disagreement_detected(self):
        m = self.make_collapse()
        tframe = KripkeFrame.make(["x", "y"], [("x", "y"), ("y", "y")],
                                  root="x")
        target = PredKripkeFrame(tframe, {"x": {"u"}, "y": {"u", "v"}})
        phi1 = {"r": {"d": "u"}, "a": {"d": "v", "e": "u"},
                "b": {"d": "v", "e": "u"}}
        bad = PredKKMorphism(m.source, target,
                             KripkeMorphism(m.source.frame, tframe,
                                            {"r": "x", "a": "y", "b": "y"}),
                             phi1)
        v = check_kk_morphism(bad)
        assert not v and v.condition == "domain-map-disagreement"

    def test_non_surjective_detected(self):
        m = self.make_collapse()
        tframe = m.target.frame
        target = PredKripkeFrame(tframe, {"x": {"u", "v"}, "y": {"u", "v"}})
        bad = PredKKMorphism(m.source, target, m.phi0, m.phi1)
        v = check_kk_morphism(bad)
        assert not v and v.condition == "domain-map-not-surjective"

    def test_pullback_truth_preservation(self):
        m = self.make_collapse()
        tmodel = PredKripkeModel(m.target, {"P": {"y": frozenset({("u",)})}})
        smodel = pullback_kk(tmodel, m)
        rng = random.Random(11)
        preds = {"P": 1}
        for _ in range(200):
            a = random_pred_formula(rng, preds)
            for w in m.source.frame.worlds:
                assert (eval_pred_kripke(smodel, w, a)
                        == eval_pred_kripke(tmodel, m.phi0.map[w], a))


def test_domain_map_not_into_names_the_element():
    kk = TestKKMorphisms().make_collapse()
    phi1 = {**kk.phi1, "a": {"d": "u", "e": "z"}}
    v = check_kk_morphism(PredKKMorphism(kk.source, kk.target, kk.phi0, phi1))
    assert not v and v.condition == "domain-map-not-into"
    assert v.witness == ("a", "z")
    nk = TestNKMorphisms().make_identity_nk()
    phi1 = {**nk.phi1, "b": {"d": "d", "e": "z"}}
    v = check_nk_morphism(PredNKMorphism(nk.space, nk.target, nk.dstar,
                                         nk.phi0, phi1))
    assert not v and v.condition == "domain-map-not-into"
    assert v.witness == ("b", "z")


class TestNKMorphisms:
    def make_identity_nk(self):
        frame = two_chain()
        target = PredKripkeFrame(frame, {w: {"d", "e"} for w in frame.worlds})
        nf = nf_from_kripke(frame)
        phi0 = {w: w for w in frame.worlds}
        phi1 = {w: {"d": "d", "e": "e"} for w in frame.worlds}
        return PredNKMorphism(nf, target, {"d", "e"}, phi0, phi1)

    def test_identity_valid(self):
        assert check_nk_morphism(self.make_identity_nk())

    def test_local_stability_violation(self):
        # swap elements at a leaf: no neighbourhood of its predecessor is
        # constant on d
        m = self.make_identity_nk()
        phi1 = dict(m.phi1)
        phi1["b"] = {"d": "e", "e": "d"}
        bad = PredNKMorphism(m.space, m.target, m.dstar, m.phi0, phi1)
        v = check_nk_morphism(bad)
        assert not v and v.condition == "domain-map-not-locally-stable"

    def test_pullback_and_preservation(self):
        m = self.make_identity_nk()
        tmodel = PredKripkeModel(
            m.target, {"P": {"a": frozenset({("d",)}),
                             "b": frozenset({("d",), ("e",)})}})
        rep = pred_truth_preservation_test(m, tmodel, samples=200, seed=2)
        assert rep["passed"] == 200, rep

    def test_pullback_nk_values(self):
        m = self.make_identity_nk()
        tmodel = PredKripkeModel(m.target, {"P": {"a": frozenset({("d",)})}})
        nmodel = pullback_nk(tmodel, m)
        assert nmodel.holds("P", "a", ("d",))
        assert not nmodel.holds("P", "a", ("e",))

    def test_composition(self):
        # compose with a KK morphism that renames worlds and merges elements
        nk = self.make_identity_nk()
        tframe = KripkeFrame.make(["x", "y", "z"], [("x", "y"), ("y", "z")],
                                  root="x")
        target2 = PredKripkeFrame(tframe, {w: {"u"} for w in "xyz"})
        kk = PredKKMorphism(
            nk.target, target2,
            KripkeMorphism(nk.target.frame, tframe,
                           {"r": "x", "a": "y", "b": "z"}),
            {w: {"d": "u", "e": "u"} for w in nk.target.frame.worlds})
        assert check_kk_morphism(kk)
        comp = compose_morphisms(nk, kk)
        assert check_nk_morphism(comp)
        assert comp.phi0["b"] == "z"
        assert comp.phi1["a"]["e"] == "u"


class TestParsers:
    def test_parse_domains(self):
        pf = parse_domains(
            "domain r = {d}\ndomain a = {d,e}\ndomain b = {d,e}\n",
            two_chain())
        assert pf.domain("a") == frozenset({"d", "e"})

    def test_parse_valuation(self):
        pf = expanding_pframe()
        model = parse_pred_valuation(
            "val P @ a = {(d)}\nval P @ b = {(d),(e)}\n", pf)
        assert model.holds("P", "b", ("e",))
        assert not model.holds("P", "r", ("d",))
