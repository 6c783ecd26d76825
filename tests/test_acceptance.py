"""The acceptance gate: one test (and one printed pass/fail line) per
numbered criterion."""

import pytest

from mlwb import acceptance
from mlwb.acceptance import CRITERIA, run_criterion
from mlwb.entangle import EntangleSpace, canonicalize, decompositions, \
    entangle_enumerate
from mlwb.kripke import KripkeFrame
from mlwb.predicate import PredNModel


@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _, _ in CRITERIA],
    ids=[f"criterion-{num:02d}-{name.replace(' ', '-')}"
         for num, name, _, _ in CRITERIA])
def test_criterion(number, name):
    result = run_criterion(number)
    status = "pass" if result.ok else "FAIL"
    print(f"criterion {result.number:2d} ({result.name}): {status}"
          f"  [{result.seconds:.2f}s]")
    assert result.ok, result.detail


def test_criterion_9_catches_a_one_letter_strip(monkeypatch):
    """A canonical form that strips only the last world letter agrees with
    the oracle on the chain, where no word ends in two, but not on the
    looped frame."""
    def strip_one(space, word):
        word = tuple(word)
        return word[:-1] if word and space.is_w(word[-1]) else word

    monkeypatch.setattr(acceptance, "canonicalize", strip_one)
    detail = acceptance.criterion_9_equiv_oracle()
    assert not detail["ok"]
    assert detail["chain"]["mismatches"] == 0
    assert detail["loop"]["mismatches"] > 0


def _strip_one(space, word):
    word = tuple(word)
    return word[:-1] if word and space.is_w(word[-1]) else word


def _merge_two_classes(space, word):
    form = canonicalize(space, word)
    return ("1",) if form == ("2",) else form


@pytest.mark.parametrize("mutant", [_strip_one, _merge_two_classes])
def test_criterion_9_join_counts_every_pair(monkeypatch, mutant):
    """Under a wrong canonical form the join's mismatches equal a count over
    every ordered pair, made here from the words and their decompositions.
    ``equiv`` follows the mutant, so the spot-check adds nothing."""
    monkeypatch.setattr(acceptance, "canonicalize", mutant)
    monkeypatch.setattr(acceptance, "equiv", lambda space, u, v:
                        mutant(space, u) == mutant(space, v))
    detail = acceptance.criterion_9_equiv_oracle()
    for name, relation, max_len in (("chain", {("a", "b")}, 6),
                                    ("loop", {("a", "b"), ("b", "b")}, 5)):
        frame = KripkeFrame(frozenset({"a", "b"}), frozenset(relation), "a")
        space = EntangleSpace(frame, sigma2=("1", "2"))
        words = entangle_enumerate(space, max_len)
        form = {w: mutant(space, w) for w in words}
        parts = {w: decompositions(space, w) for w in words}
        expected = sum((form[u] == form[v]) == parts[u].isdisjoint(parts[v])
                       for u in words for v in words)
        assert detail[name]["mismatches"] == expected
        assert detail[name]["pairs"] == len(words) ** 2
    assert detail["loop"]["mismatches"] > 0
    assert not detail["ok"]


def test_criterion_10_visits_the_one_element_domain(monkeypatch):
    """Truth vectors that lose one valuation's bit at one point, only on
    one-element constant domains, fail criterion 10: those valuations are
    still checked after the repeated ones are dropped."""
    truth_vectors = acceptance.pred_truth_vectors

    def clear_one(model, formula, valuations):
        values = truth_vectors(model, formula, valuations)
        if isinstance(model, PredNModel) and len(model.pframe.dstar) == 1:
            x = min(values)
            values = {**values, x: values[x] & ~1}
        return values

    monkeypatch.setattr(acceptance, "pred_truth_vectors", clear_one)
    assert not acceptance.criterion_10_barcan()["ok"]
