import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_verifier import EQUALITY_CASES, EXTRACTION_CASES, NORMALIZATION_CASES
from reference_verifier import extract_boxed as reference_extract_boxed
from reference_verifier import normalize as reference_normalize
from rlready import verifier
from rlready.verifier import (
    GoldAnswer,
    Sample,
    answers_equal,
    extract_boxed,
    normalize,
    score,
)


@pytest.mark.parametrize("text,expected", EXTRACTION_CASES)
def test_extraction_corpus(text, expected):
    assert extract_boxed(text) == expected


@pytest.mark.parametrize("raw,expected", NORMALIZATION_CASES)
def test_normalization_corpus(raw, expected):
    assert normalize(raw) == expected


@pytest.mark.parametrize("a,b,expected", EQUALITY_CASES)
def test_equality_corpus(a, b, expected):
    assert answers_equal(a, b) is expected
    assert answers_equal(b, a) is expected  # symmetric


def test_nested_frac_rewrites_to_fixed_point():
    assert normalize("\\frac{\\frac{1}{2}}{3}") == "1/2/3"


def test_extraction_handles_megabyte_input():
    # all-unclosed adversarial input: single pass, no exception
    text = "\\boxed{" * 100_000 + "tail"
    assert len(text) > 700_000
    assert extract_boxed(text) is None
    # one closing brace resolves only the innermost box
    assert extract_boxed(text + "}") == "tail"


def test_extraction_on_large_nonascii_text():
    filler = "π≈3.14159✓ " * 50_000
    assert extract_boxed(filler + "\\boxed{答案}") == "答案"


# the boxed-answer hazards: spaced and broken box openers, stray braces,
# escapes, nested groups and plain words
_HAZARD_TOKENS = st.sampled_from(
    [
        "\\boxed{",
        "\\boxed {",
        "\\boxed\n{",
        "\\boxed",
        "{",
        "}",
        "\\",
        "\\dfrac{1}{2}",
        "a",
        "b",
    ]
)


@settings(max_examples=1000)
@given(st.lists(_HAZARD_TOKENS, max_size=40))
def test_extraction_matches_character_walk(tokens):
    text = "".join(tokens)
    assert extract_boxed(text) == reference_extract_boxed(text)


def test_extraction_is_linear_when_no_box_closes():
    # every box is open at the next one's "{", so none can close; a reverse
    # scan that rescans to the end from each box would be quadratic here
    text = "\\boxed{" * 50_000
    start = time.perf_counter()
    assert extract_boxed(text) is None
    assert time.perf_counter() - start < 2.0


@given(st.text(max_size=300))
def test_extraction_is_total(text):
    out = extract_boxed(text)
    assert out is None or isinstance(out, str)


@given(st.text(max_size=200))
def test_normalize_idempotent(text):
    once = normalize(text)
    assert normalize(once) == once


@given(st.text(max_size=100))
def test_answers_equal_reflexive(text):
    assert answers_equal(text, text)


def test_normalize_matches_the_reference_on_the_corpus():
    answers = [raw for raw, _ in NORMALIZATION_CASES]
    answers += [side for a, b, _ in EQUALITY_CASES for side in (a, b)]
    answers += [expected for _, expected in EXTRACTION_CASES if expected is not None]
    for answer in answers:
        assert normalize(answer) == reference_normalize(answer)


# pieces of LaTeX answers: every trigger character of a rewrite, the commands
# it rewrites, digits and the spaces the whitespace rule collapses
_LATEX_TOKENS = st.sampled_from(
    ["\\", "\\left", "\\right", "\\frac", "\\dfrac", "\\leftarrow", "{", "}", "(", ")",
     "$", ",", ".", "%", "0", "1", "00", "25", "-", "+", "/", " ", "  ", "\t", "x", "ab", "٣"]
)


@settings(max_examples=2000)
@given(st.lists(_LATEX_TOKENS, max_size=30))
def test_normalize_matches_the_reference_on_latex(tokens):
    answer = "".join(tokens)
    assert normalize(answer) == reference_normalize(answer)


@given(st.text(max_size=100))
def test_normalize_matches_the_reference_on_any_text(text):
    assert normalize(text) == reference_normalize(text)


def test_normalize_idempotent_on_corpus():
    for raw, _ in NORMALIZATION_CASES:
        assert normalize(normalize(raw)) == normalize(raw)
    for a, b, _ in EQUALITY_CASES:
        assert normalize(normalize(a)) == normalize(a)
        assert normalize(normalize(b)) == normalize(b)


def test_numeric_transitivity():
    # on the numeric subset equality is exact arithmetic, hence transitive
    variants = ["0.5", "1/2", "2/4", "0.50", "50%", "\\frac{1}{2}"]
    for a in variants:
        for b in variants:
            assert answers_equal(a, b)


def test_a_number_beyond_the_digit_limit_is_compared_as_a_string():
    # in a child process, so that a verifier that builds 10**999999999 fails
    # the test by its timeout instead of stalling the suite
    code = ("from rlready.verifier import answers_equal as eq; "
            "print(eq('1e999999999', '1'), eq('2' * 5000 + '/2', '1' * 5000))")
    env = {name: value for name, value in os.environ.items() if name != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(Path(verifier.__file__).parents[1])
    verdicts = [
        subprocess.run([sys.executable, "-c", code], env={**env, **limit}, capture_output=True,
                       text=True, timeout=10, check=True).stdout
        for limit in ({}, {"PYTHONINTMAXSTRDIGITS": "0"})
    ]
    assert verdicts == ["False False\n"] * 2


class TestScore:
    def _samples(self, texts, task="t1", bench="math500", ckpt="m1"):
        return [
            Sample(ckpt, bench, task, i, text) for i, text in enumerate(texts)
        ]

    def test_counts_matches(self):
        texts = ["\\boxed{27}", "so \\boxed{27}", "\\boxed{26}", "no box"]
        out = score(self._samples(texts), GoldAnswer("math500", "t1", "27"))
        assert (out.n, out.c) == (4, 2)

    def test_rational_equality(self):
        texts = ["\\boxed{1/2}", "\\boxed{1/2}"]
        out = score(self._samples(texts), GoldAnswer("math500", "t1", "0.5"))
        assert (out.n, out.c) == (2, 2)

    def test_missing_box_is_incorrect(self):
        out = score(self._samples(["a", "b", "c"]), GoldAnswer("math500", "t1", "7"))
        assert (out.n, out.c) == (3, 0)

    def test_shuffle_invariant(self):
        texts = ["\\boxed{1}", "\\boxed{2}", "no", "\\boxed{1}", "\\boxed{3}"]
        samples = self._samples(texts)
        gold = GoldAnswer("math500", "t1", "1")
        base = score(samples, gold)
        rng = random.Random(0)
        for _ in range(5):
            rng.shuffle(samples)
            shuffled = score(samples, gold)
            assert (shuffled.n, shuffled.c) == (base.n, base.c)

    def test_each_distinct_answer_is_compared_once(self, monkeypatch):
        golds, calls = [], []
        matcher = verifier._matcher

        def counting_matcher(gold):
            golds.append(gold)
            matches = matcher(gold)

            def counting_matches(answer):
                calls.append(answer)
                return matches(answer)

            return counting_matches

        monkeypatch.setattr(verifier, "_matcher", counting_matcher)
        texts = ["\\boxed{1/2}", "\\boxed{0.5}", "\\boxed{1/2}", "no", "\\boxed{0.5}"]
        out = score(self._samples(texts), GoldAnswer("math500", "t1", "0.5"))
        assert (out.n, out.c) == (5, 4)
        assert golds == ["0.5"]  # the gold is normalized and valued once per task
        assert sorted(calls) == ["0.5", "1/2"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            score([], GoldAnswer("math500", "t1", "7"))

    def test_mixed_tasks_rejected(self):
        samples = [
            Sample("m1", "math500", "t1", 0, "\\boxed{1}"),
            Sample("m1", "math500", "t2", 0, "\\boxed{1}"),
        ]
        with pytest.raises(ValueError, match="multiple tasks"):
            score(samples, GoldAnswer("math500", "t1", "1"))

    def test_wrong_task_rejected(self):
        samples = self._samples(["\\boxed{1}"])
        with pytest.raises(ValueError, match="gold"):
            score(samples, GoldAnswer("math500", "other", "1"))


def test_gold_answer_must_be_nonempty():
    with pytest.raises(ValueError, match="empty gold answer"):
        GoldAnswer("b", "t", "")


def test_sample_index_nonnegative():
    with pytest.raises(ValueError):
        Sample("m", "b", "t", -1, "text")
