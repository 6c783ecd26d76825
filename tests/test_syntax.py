import pytest
from hypothesis import given, strategies as st

from mlwb.syntax import (
    Atom, Box, Falsum, Forall, Implies, Letter, ParseError, Var,
    box_power, conj, dia, disj, exists, free_vars, horn_to_text, letters,
    modal_depth, neg, parse_horn, parse_pred, parse_prop, subformulas,
    to_text, universal_closure,
)


def _prop_formulas(max_depth=4):
    leaf = st.one_of(
        st.just(Falsum()),
        st.sampled_from([Letter("p"), Letter("q"), Letter("r")]))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: Implies(*t)),
            sub.map(lambda a: Box(a))),
        max_leaves=12)


class TestPropositional:
    def test_parse_basics(self):
        a = parse_prop("box p -> box box p")
        assert a == Implies(Box(Letter("p")), Box(Box(Letter("p"))))

    def test_precedence_right_assoc(self):
        assert parse_prop("p -> q -> r") == \
            Implies(Letter("p"), Implies(Letter("q"), Letter("r")))

    def test_derived_connectives_round_trip(self):
        p, q = Letter("p"), Letter("q")
        r, top = Letter("r"), neg(Falsum())
        # "&" and "|" parse left-associatively, so nesting on either side
        # must survive printing
        for a in (neg(p), conj(p, q), disj(p, q), dia(p),
                  conj(conj(p, q), r), conj(p, conj(q, r)),
                  disj(disj(p, q), r), disj(p, disj(q, r)),
                  Implies(top, Implies(top, p))):
            assert parse_prop(to_text(a)) == a

    def test_box_power(self):
        assert box_power(Letter("p"), 0) == Letter("p")
        assert modal_depth(box_power(Letter("p"), 3)) == 3

    @given(_prop_formulas())
    def test_print_parse_round_trip(self, a):
        assert parse_prop(to_text(a)) == a

    def test_modal_depth_and_letters(self):
        a = parse_prop("box (p -> box q) -> r")
        assert modal_depth(a) == 2
        assert letters(a) == {"p", "q", "r"}

    def test_subformulas_contains_leaves(self):
        a = parse_prop("box p -> q")
        subs = list(subformulas(a))
        assert Letter("p") in subs and Letter("q") in subs

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError):
            parse_prop("box -> p")

    @pytest.mark.parametrize("text", ["box[1] p", "dia[1] p"])
    def test_no_modality_index(self, text):
        with pytest.raises(ParseError, match="unexpected character '\\['"):
            parse_prop(text)


class TestPredicate:
    def test_parse_atom_and_quantifier(self):
        a = parse_pred("forall x. P(x)")
        assert a == Forall("x", Atom("P", (Var("x"),)))

    def test_arity_consistency_enforced(self):
        with pytest.raises(ParseError):
            parse_pred("forall x. P(x) -> P(x, x)")

    def test_exists_unfolds_to_primitives(self):
        a = exists("x", Atom("P", (Var("x"),)))
        assert free_vars(a) == set()

    def test_free_vars_and_closure(self):
        a = parse_pred("P(x) -> box Q(y)")
        assert free_vars(a) == {"x", "y"}
        closed = universal_closure(a)
        assert free_vars(closed) == set()
        assert parse_pred(to_text(closed)) == closed

    def test_pred_round_trip(self):
        text = "forall x. (P(x) -> box forall y. Q(x, y))"
        a = parse_pred(text)
        assert parse_pred(to_text(a)) == a


class TestHorn:
    def test_parse_chain_sentence(self):
        s = parse_horn("x R y & y R z => x R z")
        assert set(s.variables) == {"x", "y", "z"}
        assert parse_horn(horn_to_text(s)) == s

    def test_parse_true_body(self):
        s = parse_horn("true => x R x")
        assert parse_horn(horn_to_text(s)) == s

    def test_disjunctive_body(self):
        s = parse_horn("x R y | y R x => x R x")
        assert parse_horn(horn_to_text(s)) == s

    def test_missing_arrow_rejected(self):
        with pytest.raises(ParseError):
            parse_horn("x R y & y R z")

    @pytest.mark.parametrize("text, message, pos", [
        ("x R y & y R z => x R z extra", "Horn head must be a single atom", 23),
        ("x R y => y R", "bad relation atom", 12),
        ("x R y => ", "expected relation atom", 9),
    ])
    def test_head_error_positions_count_from_line_start(self, text, message,
                                                        pos):
        with pytest.raises(ParseError, match=message) as e:
            parse_horn(text)
        assert e.value.pos == pos
