"""Turn raw completions into correctness counts for reasoning benchmarks.

A completion is correct when its final \\boxed{...} answer matches the gold
answer, either after normalization or as an exact rational value ("0.5" vs
"1/2"). The normalization rule set is deliberately small and frozen under
RULESET_VERSION so scores stay reproducible; richer symbolic equivalence
(trig identities, intervals, matrices) is out of scope.

An answer is read as a rational only if it holds at most one "/" (so
\\frac{1/2}{3}, which normalizes to 1/2/3, is no number), and only if no run
of digits in it is longer than _MAX_DIGITS and no exponent lies beyond
+-_MAX_DIGITS. Any other answer is compared as a string only: one completion
cannot make the verifier build a huge power of ten, and no verdict depends
on the interpreter's limit on int digits.

score compares each answer with _matcher(gold), which holds the gold
normalized and valued once per task; answers_equal(a, b) is _matcher(b)(a),
so the rule is written once.

Completions with no boxed answer count as incorrect, never excluded:
excluding them would inflate c/n and bias Pass@k upward.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .passk import TaskOutcome

# Bump whenever a normalization or extraction rule changes; recorded in
# report metadata so scores can be traced to the rule set that produced them.
RULESET_VERSION = "2"

_BOXED = re.compile(r"\\boxed\s*\{")
_BRACE = re.compile(r"[{}]")
_LEFT_RIGHT = re.compile(r"\\left\b|\\right\b")
_DFRAC = re.compile(r"\\dfrac\b")
_FRAC = re.compile(r"\\frac\{([^{}]+)\}\{([^{}]+)\}")
_DIGIT_COMMA = re.compile(r"(?<=\d),(?=\d)")
_TRAILING_ZEROS = re.compile(r"(?<=\d)\.0+$")
_PERCENT = re.compile(r"^([+-]?\d+(?:\.\d+)?)%$")
# CPython's default limit on the digits of an int read from a string
_MAX_DIGITS = 4300
_DIGIT_RUN = re.compile(r"\d[\d_]*")
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


@dataclass(frozen=True)
class Sample:
    """One completion for one task."""

    checkpoint_id: str
    benchmark_id: str
    task_id: str
    sample_index: int
    text: str
    finish_reason: str | None = None

    def __post_init__(self) -> None:
        if self.sample_index < 0:
            raise ValueError(f"sample_index must be >= 0, got {self.sample_index}")


@dataclass(frozen=True)
class GoldAnswer:
    benchmark_id: str
    task_id: str
    answer: str

    def __post_init__(self) -> None:
        if not self.answer:
            raise ValueError(f"empty gold answer for task {self.task_id!r}")


def extract_boxed(text: str) -> str | None:
    """Contents of the last well-formed \\boxed{...} in text, or None.

    Brace matching is balanced, so nested groups like \\boxed{\\dfrac{1}{2}}
    come back whole. Missing or never-closed boxes yield None, and a box that
    never closes falls back to the closed box before it; this never raises,
    whatever the input.

    The boxes are found from the last to the first with str.rfind, each
    brace-matched forward from its content; the first that closes is the
    answer. The scan is linear in len(text) even when no box closes: an
    earlier box still open at a failed box's "{" can never close, because
    the failed box keeps the depth above zero from there on, so each scan
    stops at that "{" (limit) and no character is scanned twice.
    """
    limit = at = len(text)
    while (at := text.rfind("\\boxed", 0, at)) >= 0:
        box = _BOXED.match(text, at)
        if box is None:
            continue
        start = box.end()
        depth = 1
        for brace in _BRACE.finditer(text, start, limit):
            depth += 1 if brace.group() == "{" else -1
            if depth == 0:
                return text[start : brace.start()]
        limit = start - 1  # this box's "{"
    return None


def normalize(answer: str) -> str:
    """Canonicalize an answer string under the frozen rule set.

    In order: strip \\left/\\right, strip $, normalize whitespace (trim and
    collapse runs), rewrite \\dfrac to \\frac, rewrite \\frac{a}{b} to a/b
    (innermost first, to a fixed point), drop thousands commas inside digit
    runs, drop a trailing .0...0, and rewrite a trailing % on a number into
    /100 form. Idempotent; case is preserved.
    """
    # each rewrite runs only when the character its pattern needs is present
    s = _LEFT_RIGHT.sub("", answer) if "\\" in answer else answer
    s = s.replace("$", "")
    s = " ".join(s.split())
    if "\\" in s:
        s = _DFRAC.sub(r"\\frac", s)
        while True:
            rewritten = _FRAC.sub(r"\1/\2", s)
            if rewritten == s:
                break
            s = rewritten
    if "," in s:
        s = _DIGIT_COMMA.sub("", s)
    if "." in s:
        s = _TRAILING_ZEROS.sub("", s)
    if "%" in s:
        m = _PERCENT.match(s)
        if m:
            s = m.group(1) + "/100"
    return s


def _number(s: str) -> Fraction | None:
    """Fraction(s), or None if s is no number, or has a run of more than
    _MAX_DIGITS digits or an exponent beyond +-_MAX_DIGITS."""
    # Fraction reads each digit run with int(), and an underscore joins digits;
    # a run longer than _MAX_DIGITS needs a longer string
    if len(s) > _MAX_DIGITS and any(
        len(run) - run.count("_") > _MAX_DIGITS for run in _DIGIT_RUN.findall(s)
    ):
        return None
    try:
        exponent = _EXPONENT.search(s)
        if exponent and abs(int(exponent[1])) > _MAX_DIGITS:
            return None
        return Fraction(s)
    except ValueError:
        return None


def _as_fraction(s: str) -> Fraction | None:
    """Exact rational value of a normalized answer, or None if non-numeric."""
    if s.count("/") > 1:
        return None  # a/b/c reads two ways
    num, slash, den = s.partition("/")
    if not slash:
        return _number(s)
    n, d = _number(num), _number(den)
    return n / d if n is not None and d else None


def _matcher(gold: str) -> Callable[[str], bool]:
    """answers_equal(., gold), with gold normalized and valued once."""
    normal = normalize(gold)
    value = _as_fraction(normal)

    def matches(answer: str) -> bool:
        na = normalize(answer)
        if na == normal:
            return True
        return value is not None and _as_fraction(na) == value

    return matches


def answers_equal(a: str, b: str) -> bool:
    """True iff a and b normalize to the same string or to equal exact rationals.

    Numeric comparison is exact (Fraction), never float-with-epsilon: gold
    answers in math benchmarks are exact values.
    """
    return _matcher(b)(a)


def score(samples: Sequence[Sample], gold: GoldAnswer) -> TaskOutcome:
    """Score one task's samples against its gold answer.

    n is the sample count, c the number whose extracted boxed answer matches
    gold under answers_equal; samples with no boxed answer are incorrect.
    """
    if not samples:
        raise ValueError(f"no samples to score for task {gold.task_id!r}")
    task_ids = sorted({s.task_id for s in samples})
    if len(task_ids) > 1:
        raise ValueError(f"samples span multiple tasks: {task_ids}")
    if task_ids[0] != gold.task_id:
        raise ValueError(
            f"samples are for task {task_ids[0]!r} but gold is for {gold.task_id!r}"
        )
    benchmarks = sorted({s.benchmark_id for s in samples})
    if len(benchmarks) > 1 or benchmarks[0] != gold.benchmark_id:
        raise ValueError(
            f"samples are for benchmark {benchmarks} but gold is for {gold.benchmark_id!r}"
        )
    checkpoints = sorted({s.checkpoint_id for s in samples})
    if len(checkpoints) > 1:
        raise ValueError(f"samples span multiple checkpoints: {checkpoints}")
    # samples of one task repeat answers (half of them in the score benchmark's
    # inputs), so each distinct one is compared once; the matcher is pure
    matches = _matcher(gold.answer)
    verdicts: dict[str, bool] = {}
    c = 0
    for s in samples:
        boxed = extract_boxed(s.text)
        if boxed is None:
            continue
        if boxed not in verdicts:
            verdicts[boxed] = matches(boxed)
        c += verdicts[boxed]
    return TaskOutcome(
        checkpoint_id=checkpoints[0],
        benchmark_id=gold.benchmark_id,
        task_id=gold.task_id,
        n=len(samples),
        c=c,
    )
