"""Seeded inputs for the benchmark workloads, and the references they are checked against.

Everything here is a pure function of the workload seed. The references are
computed from what the generator planted, never by calling rlready, so a
defect in the program cannot hide behind a matching defect in the check.

Completion texts are cut from one filler corpus made of brace-balanced
tokens separated by single spaces. Cutting at spaces keeps every slice
balanced, so a later unclosed \\boxed{ is never closed by a stray brace in
the filler, and the filler never contains \\boxed itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# ------------------------------------------------------------------ shared


def stable_hash(*parts) -> int:
    """64-bit hash of parts that is the same in every process and run."""
    data = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def text_digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=12).hexdigest()


_WORDS = (
    "so we get then note that hence the sum of both sides gives us "
    "consider a case where it follows first second check again wait "
    "let substitute simplify expand factor divide multiply terms"
).split()
_MATH = (
    "x_{1}", "y^{2}", "\\frac{a}{b}", "\\sqrt{n}", "(a+b)", "=", "+", "-", "2^{k}",
    "\\left(x\\right)", "f(x)", "\\cdot", "a_{n+1}", "{x}", "\\dfrac{3}{4}", "$n$",
)


class Filler:
    """A 256 KB corpus of balanced tokens; take() returns seeded slices of it."""

    SIZE = 1 << 18

    def __init__(self, seed: int):
        rng = random.Random(stable_hash("filler", seed))
        tokens: list[str] = []
        size = 0
        while size < self.SIZE:
            roll = rng.random()
            if roll < 0.55:
                tok = rng.choice(_WORDS)
            elif roll < 0.9:
                tok = rng.choice(_MATH)
            else:
                tok = str(rng.randrange(1000))
            tokens.append(tok)
            size += len(tok) + 1
        self.corpus = " ".join(tokens) + " "

    def take(self, rng: random.Random, length: int) -> str:
        """About length characters of whole tokens, starting at a seeded place."""
        length = max(1, min(length, self.SIZE // 2))
        start = self.corpus.index(" ", rng.randrange(len(self.corpus) - length - 64)) + 1
        end = self.corpus.rindex(" ", start, start + length + 32)
        return self.corpus[start:end]


def _lognormal_length(rng: random.Random, median: float, sigma: float, lo: int, hi: int) -> int:
    return int(min(hi, max(lo, median * math.exp(rng.gauss(0.0, sigma)))))


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


# ----------------------------------------------------------------- collect

COLLECT_TASKS = 200  # the first half is prefilled during set-up
COLLECT_N = 16
COLLECT_CHECKPOINT = "ckpt-collect"
COLLECT_FAULT_RATE = 100  # one request in this many gets HTTP 500


def collect_tasks(seed: int) -> list[dict]:
    return [
        {
            "task_id": f"t{i:04d}",
            "benchmark": f"bench{i % 2}",
            "problem": f"Problem {seed}-{i}: find the value of the expression number {i}.",
        }
        for i in range(COLLECT_TASKS)
    ]


def _collect_fault(seed: int, problem: str, ordinal: int) -> bool:
    return stable_hash("fault", seed, problem, ordinal) % COLLECT_FAULT_RATE == 0


def collect_fails(seed: int, problem: str, ordinal: int) -> bool:
    """The deterministic HTTP 500 schedule, keyed on the prompt and its request ordinal.

    About one request in COLLECT_FAULT_RATE fails, and never two consecutive
    ordinals of one prompt, so a small retry budget always suffices.
    """
    if not _collect_fault(seed, problem, ordinal):
        return False
    return ordinal == 0 or not _collect_fault(seed, problem, ordinal - 1)


def collect_text(filler: Filler, seed: int, problem: str, ordinal: int) -> str:
    """The completion served for a prompt's request with this ordinal.

    Median length is about 6 KB with a tail to 64 KB.
    """
    rng = random.Random(stable_hash("collect", seed, problem, ordinal))
    length = _lognormal_length(rng, 6000, 0.8, 400, 65536)
    answer = rng.randrange(1000)
    return filler.take(rng, length) + f" so the answer is \\boxed{{{answer}}}."


def served_ordinals(seed: int, problem: str, n: int) -> list[int]:
    """The first n request ordinals of a prompt that the fault schedule lets through.

    They are the ordinals whose texts a task of n samples ends up with.
    """
    ordinals, ordinal = [], 0
    while len(ordinals) < n:
        if not collect_fails(seed, problem, ordinal):
            ordinals.append(ordinal)
        ordinal += 1
    return ordinals


def collect_expected(filler: Filler, seed: int, problem: str, n: int) -> list[str]:
    """Sorted digests of the n texts a task ends up with."""
    return sorted(
        text_digest(collect_text(filler, seed, problem, o)) for o in served_ordinals(seed, problem, n)
    )


def collect_prefill(filler: Filler, seed: int, tasks: list[dict]) -> list[tuple]:
    """(benchmark, task_id, index, text) for every sample of the prefilled half."""
    return [
        (task["benchmark"], task["task_id"], index, collect_text(filler, seed, task["problem"], o))
        for task in tasks[: len(tasks) // 2]
        for index, o in enumerate(served_ordinals(seed, task["problem"], COLLECT_N))
    ]


# ------------------------------------------------------------------- score

SCORE_CHECKPOINTS = 4
SCORE_BENCHMARKS = 2
SCORE_TASKS = 10  # per benchmark
SCORE_N = 64
SCORE_KS = (1, 2, 4, 8, 16, 32, 64)

# How each completion is laid out; every kind is a verifier hazard.
_KINDS = (
    ("plain", 0.34),  # ... \boxed{A} short tail
    ("space", 0.08),  # ... \boxed {A}
    ("multi", 0.12),  # several closed boxes, the last one is A
    ("closed_then_unclosed", 0.08),  # \boxed{A} ... \boxed{never closes
    ("none", 0.07),  # no box at all
    ("truncated", 0.10),  # cut off, finish_reason "length"
    ("early_long_tail", 0.21),  # the only box comes early, then a long tail
)


def _decimal(v: Fraction) -> str | None:
    """Exact decimal form of v when its denominator divides a power of ten."""
    q, twos, fives = v.denominator, 0, 0
    while q % 2 == 0:
        q, twos = q // 2, twos + 1
    while q % 5 == 0:
        q, fives = q // 5, fives + 1
    if q != 1:
        return None
    places = max(twos, fives)
    scaled = v.numerator * 10**places // v.denominator
    if places == 0:
        return str(scaled)
    whole, frac = divmod(scaled, 10**places)
    return f"{whole}.{frac:0{places}d}"


def answer_forms(v: Fraction) -> list[str]:
    """Spellings of v that the verifier must all treat as equal."""
    p, q = v.numerator, v.denominator
    forms = [f"{p}/{q}", f"{2 * p}/{2 * q}", f"\\dfrac{{{p}}}{{{q}}}", f"\\frac{{{p}}}{{{q}}}"]
    if q == 1:
        forms += [str(p), f"{p}.0", f"{p}.000"]
    decimal = _decimal(v)
    if decimal is not None and q != 1:
        forms += [decimal, decimal + "0"]
    return forms


def _wrong_value(rng: random.Random, v: Fraction) -> Fraction:
    while True:
        w = v + Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), v.denominator)
        if w > 0:
            return w


def _score_sample(
    filler: Filler, rng: random.Random, gold: Fraction, p_correct: float
) -> tuple[str, str, bool]:
    """One completion: (text, finish_reason, counts as correct)."""
    kind = rng.choices([k for k, _ in _KINDS], weights=[w for _, w in _KINDS])[0]
    correct = rng.random() < p_correct
    value = gold if correct else _wrong_value(rng, gold)
    answer = rng.choice(answer_forms(value))
    length = _lognormal_length(rng, 1500, 0.6, 200, 16000)
    finish = "stop"
    if kind == "plain":
        text = f"{filler.take(rng, length)} \\boxed{{{answer}}}. {filler.take(rng, 80)}"
    elif kind == "space":
        text = f"{filler.take(rng, length)} \\boxed {{{answer}}}."
    elif kind == "multi":
        parts = [filler.take(rng, length // 3)]
        for _ in range(rng.randint(1, 3)):
            decoy = gold if rng.random() < 0.5 else _wrong_value(rng, gold)
            parts.append(f"\\boxed{{{rng.choice(answer_forms(decoy))}}} {filler.take(rng, length // 3)}")
        parts.append(f"\\boxed{{{answer}}}.")
        text = " ".join(parts)
    elif kind == "closed_then_unclosed":
        text = (
            f"{filler.take(rng, length)} \\boxed{{{answer}}} {filler.take(rng, 200)} "
            f"\\boxed{{{rng.randrange(100)} {filler.take(rng, 300)}"
        )
    elif kind == "none":
        text, correct = filler.take(rng, length), False
    elif kind == "truncated":
        text = filler.take(rng, length)
        if rng.random() < 0.5:
            text += f" \\boxed{{{answer[: rng.randrange(1, len(answer) + 1)]}"
        finish, correct = "length", False
    else:  # early_long_tail
        tail = rng.randint(8000, 20000)
        text = f"{filler.take(rng, rng.randint(200, 1500))} \\boxed{{{answer}}} {filler.take(rng, tail)}"
    return text, finish, correct


def write_score_inputs(seed: int, workdir: Path) -> dict:
    """Write samples.jsonl, gold.jsonl and genloss.jsonl; return the reference.

    The reference maps (checkpoint, benchmark, task) to the planted c, and
    holds the token-weighted genloss per checkpoint.
    """
    filler = Filler(seed)
    rng = random.Random(stable_hash("score", seed))
    golds = {}
    gold_lines = []
    difficulty = {}
    for b in range(SCORE_BENCHMARKS):
        bench = f"bench{b}"
        for t in range(SCORE_TASKS):
            task = f"t{t:03d}"
            value = Fraction(rng.randint(1, 400), rng.choice((1, 2, 4, 5, 8, 10, 20, 25, 40)))
            golds[(bench, task)] = value
            gold_lines.append(json.dumps(
                {"benchmark": bench, "task_id": task, "answer": rng.choice(answer_forms(value))}
            ))
            # a share of tasks is never solved, so large-k Pass@k still discriminates
            difficulty[(bench, task)] = 0.0 if rng.random() < 0.2 else rng.random() ** 2
    _write_lines(workdir / "gold.jsonl", gold_lines)

    c_ref: dict[tuple[str, str, str], int] = {}

    def sample_lines():
        for ck in range(SCORE_CHECKPOINTS):
            ckpt = f"ckpt{ck}"
            skill = 0.6 + 0.15 * ck
            for (bench, task), gold in golds.items():
                p = min(1.0, difficulty[(bench, task)] * skill)
                c = 0
                for index in range(SCORE_N):
                    text, finish, correct = _score_sample(filler, rng, gold, p)
                    c += correct
                    yield json.dumps({
                        "checkpoint_id": ckpt, "benchmark": bench, "task_id": task,
                        "sample_index": index, "text": text, "finish_reason": finish,
                    })
                c_ref[(ckpt, bench, task)] = c

    _write_lines(workdir / "samples.jsonl", sample_lines())
    checkpoints = [f"ckpt{ck}" for ck in range(SCORE_CHECKPOINTS)]
    genloss = _write_genloss(rng, workdir / "genloss.jsonl", checkpoints, 200)
    return {"c": c_ref, "genloss": genloss}


def _write_genloss(rng: random.Random, path: Path, checkpoints: list[str], examples: int) -> dict:
    """Write per-example losses; return the token-weighted loss per checkpoint,
    from a correctly rounded sum."""
    expected = {}

    def lines():
        for ckpt in checkpoints:
            level = 0.8 + rng.random()
            nlls, tokens_total = [], 0
            for e in range(examples):
                tokens = 50 + int(rng.random() * 750)
                nll = tokens * level * (0.5 + rng.random())
                nlls.append(nll)
                tokens_total += tokens
                yield (
                    f'{{"checkpoint_id": "{ckpt}", "example_id": "e{e:05d}", '
                    f'"nll_sum": {nll!r}, "token_count": {tokens}}}'
                )
            expected[ckpt] = math.fsum(nlls) / tokens_total

    _write_lines(path, lines())
    return expected


# ----------------------------------------------------------------- analyze

ANALYZE_CHECKPOINTS = 48
ANALYZE_BENCHMARKS = (("bench0", 200), ("bench1", 180), ("bench2", 120))
ANALYZE_N = 256
ANALYZE_KS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
ANALYZE_GENLOSS_EXAMPLES = 5000


def write_analyze_inputs(seed: int, workdir: Path) -> dict:
    """Write outcomes.jsonl and genloss.jsonl; return the reference and labels.

    c per task is drawn from a latent skill per checkpoint; labels are a
    noisy function of the same skill, so the predictors have signal.
    """
    rng = random.Random(stable_hash("analyze", seed))
    skills = {f"ckpt{ck:02d}": rng.random() for ck in range(ANALYZE_CHECKPOINTS)}
    tasks = [
        (bench, f"t{t:04d}", 0.0 if rng.random() < 0.25 else rng.random() ** 3)
        for bench, count in ANALYZE_BENCHMARKS
        for t in range(count)
    ]
    outcomes: dict[str, list[tuple[str, int]]] = {}

    def lines():
        for ckpt, skill in skills.items():
            rows = outcomes.setdefault(ckpt, [])
            for bench, task, ease in tasks:
                p = ease * (0.3 + skill)
                c = 0 if p == 0.0 else min(ANALYZE_N, max(0, round(p * ANALYZE_N + rng.gauss(0, 3))))
                rows.append((bench, c))
                yield (
                    f'{{"checkpoint_id": "{ckpt}", "benchmark": "{bench}", '
                    f'"task_id": "{task}", "n": {ANALYZE_N}, "c": {c}}}'
                )

    _write_lines(workdir / "outcomes.jsonl", lines())
    genloss = _write_genloss(rng, workdir / "genloss.jsonl", list(skills), ANALYZE_GENLOSS_EXAMPLES)
    labels = {
        ckpt: min(1.0, max(0.0, 0.1 + 0.6 * skill + rng.gauss(0, 0.05)))
        for ckpt, skill in skills.items()
    }
    return {"outcomes": outcomes, "genloss": genloss, "labels": labels}


# -------------------------------------------------------------- references


class ExactPassK:
    """Exact unbiased Pass@k, 1 - C(n-c, k) / C(n, k), with math.comb and fractions."""

    def __init__(self):
        self._cache: dict[tuple[int, int, int], Fraction] = {}

    def task(self, n: int, c: int, k: int) -> Fraction:
        key = (n, c, k)
        if key not in self._cache:
            self._cache[key] = 1 - Fraction(math.comb(n - c, k), math.comb(n, k))
        return self._cache[key]

    def macro(self, rows: list[tuple[str, int]], n: int, ks) -> list[Fraction]:
        """Mean over tasks within each benchmark, then over benchmarks."""
        by_bench: dict[str, list[int]] = {}
        for bench, c in rows:
            by_bench.setdefault(bench, []).append(c)
        values = []
        for k in ks:
            means = []
            for cs in by_bench.values():
                counts: dict[int, int] = {}
                for c in cs:
                    counts[c] = counts.get(c, 0) + 1
                total = sum(self.task(n, c, k) * m for c, m in counts.items())
                means.append(total / len(cs))
            values.append(sum(means) / len(means))
        return values
