"""The golden corpus pins pcore's observable results: the fixture's STF
report, the fixtures' dumped ASTs, soundness and union-differential
observations per seed, packet outcomes, the generators' output, the
front end's tokens, trees and errors, and the checker's verdicts. See
`regen_golden.py`."""

import json

import pytest

from regen_golden import CORPUS, ILL_TYPED, check_verdict, compute_corpus


def first_difference(want, got, path="corpus"):
    """The path of the first entry where got differs from want, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in want or key not in got:
                return f"{path}[{key!r}]"
            found = first_difference(want[key], got[key], f"{path}[{key!r}]")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        for i, (w, g) in enumerate(zip(want, got)):
            found = first_difference(w, g, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if want == got else f"{path}: {want!r} != {got!r}"


def test_corpus_unchanged():
    want = json.loads(CORPUS.read_text())
    got = json.loads(json.dumps(compute_corpus()))
    diff = first_difference(want, got)
    assert diff is None, f"golden corpus differs at {diff}"


def test_first_difference_names_the_entry():
    want = {"a": [1, {"b": 2}], "c": 3}
    assert first_difference(want, want) is None
    assert first_difference(want, {"a": [1, {"b": 5}], "c": 4}) == \
        "corpus['a'][1]['b']: 2 != 5"
    assert first_difference(want, {"a": [1, {"b": 2}]}) == "corpus['c']"


@pytest.mark.parametrize("rule, text", ILL_TYPED)
def test_each_ill_typed_program_is_rejected_by_its_rule(rule, text):
    # `check_sha256` pins these verdicts; this says what each one tests
    assert check_verdict(text)[0] == rule
