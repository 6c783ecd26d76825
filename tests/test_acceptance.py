"""The acceptance gate: one test (and one printed pass/fail line) per
numbered criterion."""

import pytest

from mlwb import acceptance
from mlwb.acceptance import CRITERIA, run_criterion


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
