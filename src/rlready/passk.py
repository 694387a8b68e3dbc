"""Unbiased Pass@k estimation from per-task (n, c) outcome counts.

For a task with n generated samples of which c are correct, the probability
that a random size-k subset contains at least one correct sample is

    pass@k = 1 - C(n-c, k) / C(n, k)

which is an unbiased estimator of the model's true Pass@k on that task.
The complement ratio is evaluated in product form

    C(n-c, k) / C(n, k) = prod_{j=0}^{k-1} (n - c - j) / (n - j)

so every intermediate stays in [0, 1]: no factorials, no log-gamma, no
overflow even for n in the tens of thousands. That product is written once,
in _complement_values; pass_at_k and pass_curve both read from it.

Aggregation is macro by default: mean over tasks within each benchmark,
then the unweighted mean across benchmarks, so small benchmarks carry the
same weight as large ones. A micro (task-weighted) mode is available for
sensitivity checks. A checkpoint's Pass@1 is its overall curve at k=1,
which aggregate evaluates whether or not 1 is among the requested ks.

The metrics CSV that the passk command writes, and that rank, predict and
evaluate read back as CheckpointMetrics, is formatted and read here.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import dropwhile, groupby
from pathlib import Path
from typing import Iterable, Sequence


@dataclass(frozen=True, slots=True)
class TaskOutcome:
    """Per-task sampling outcome: n completions generated, c of them correct."""

    checkpoint_id: str
    benchmark_id: str
    task_id: str
    n: int
    c: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got n={self.n} (task {self.task_id!r})")
        if not 0 <= self.c <= self.n:
            raise ValueError(
                f"c must be in [0, n={self.n}], got c={self.c} (task {self.task_id!r})"
            )


@dataclass(frozen=True)
class PassKCurve:
    """Pass@k values evaluated at a strictly increasing list of k."""

    ks: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "values", tuple(self.values))
        _check_ks(self.ks)
        if len(self.values) != len(self.ks):
            raise ValueError(
                f"curve has {len(self.ks)} ks but {len(self.values)} values"
            )
        for k, v in zip(self.ks, self.values):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"pass@{k} value {v} outside [0, 1]")

    def value_at(self, k: int) -> float:
        """Value at exactly k; raises if k was not evaluated."""
        try:
            return self.values[self.ks.index(k)]
        except ValueError:
            raise ValueError(f"k={k} not in curve (available: {list(self.ks)})") from None


@dataclass(frozen=True)
class CheckpointMetrics:
    """Aggregated pre-RL metrics for one checkpoint.

    pass1 and passk are aggregated across benchmarks. gen_loss comes from a
    different data source than sampling outcomes, the genloss report, so
    aggregate leaves it None; the CLI attaches it with dataclasses.replace
    when it reads the metrics CSV, and the predict workflows read it here.
    """

    checkpoint_id: str
    pass1: float
    passk: PassKCurve
    gen_loss: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.pass1 <= 1.0:
            raise ValueError(f"pass1 {self.pass1} outside [0, 1]")
        if self.gen_loss is not None and not self.gen_loss >= 0.0:
            raise ValueError(f"gen_loss must be >= 0, got {self.gen_loss}")


def _check_ks(ks: Sequence[int]) -> None:
    if not ks:
        raise ValueError("ks must be nonempty")
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"every k must be a positive integer, got {k!r}")
    for a, b in zip(ks, ks[1:]):
        if b <= a:
            raise ValueError(f"ks must be strictly increasing, got {a} before {b}")


def _complement_values(n: int, c: int, ks: Sequence[int]) -> list[float]:
    """1 - C(n-c, k) / C(n, k) at each k of the strictly increasing ks.

    One running product serves every k; once fewer than k incorrect samples
    remain, the ratio is exactly 0 and every later value is 1.0.
    """
    values: list[float] = []
    ratio = 1.0
    pos = 0
    for j in range(ks[-1]):
        if n - c - j > 0:
            ratio *= (n - c - j) / (n - j)
        else:
            ratio = 0.0
        if ks[pos] == j + 1:
            values.append(1.0 - ratio)
            pos += 1
    return values


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased Pass@k for a single task: 1 - C(n-c, k) / C(n, k).

    The probability that a uniformly random size-k subset of the n samples,
    c of them correct, holds a correct one. Raises ValueError unless n >= 1,
    0 <= c <= n and 1 <= k <= n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if not 0 <= c <= n:
        raise ValueError(f"c must be in [0, n={n}], got c={c}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n={n}], got k={k}")
    return _complement_values(n, c, (k,))[0]


def pass_curve(outcome: TaskOutcome, ks: Sequence[int]) -> PassKCurve:
    """Evaluate pass@k at each k in ks for one task outcome.

    The curve comes from the same product as pass_at_k, accumulated once
    across increasing k, so it is bitwise identical to independent pass_at_k
    calls and nondecreasing.
    """
    ks = tuple(ks)
    _check_ks(ks)
    if ks[-1] > outcome.n:
        raise ValueError(f"k={ks[-1]} exceeds n={outcome.n} for task {outcome.task_id!r}")
    return PassKCurve(ks=ks, values=tuple(_complement_values(outcome.n, outcome.c, ks)))


def aggregate(
    outcomes: Iterable[TaskOutcome],
    ks: Sequence[int],
    mode: str = "macro",
    *,
    curves: dict[tuple[int, int, tuple[int, ...]], tuple[float, ...]] | None = None,
) -> CheckpointMetrics:
    """Aggregate one checkpoint's task outcomes into its overall Pass@k curve.

    macro (default): mean over tasks within each benchmark, then unweighted
    mean across benchmarks. micro: mean over all tasks regardless of
    benchmark. Both are computed in sorted (benchmark_id, task_id) order so
    the result is independent of input order.

    Each distinct (n, c) is evaluated once, at ks and k=1, and shared by
    every task that has it. The curves are kept in curves, keyed (n, c, ks
    with 1), if the caller passes a dict, so that calls sharing it evaluate
    each (n, c) once between them; without one they are kept for this call
    only. pass1 is the overall curve at k=1, whether or not 1 is in ks.
    """
    outs = sorted(outcomes, key=lambda o: (o.benchmark_id, o.task_id))
    if not outs:
        raise ValueError("cannot aggregate an empty outcome set")
    if mode not in ("macro", "micro"):
        raise ValueError(f"mode must be 'macro' or 'micro', got {mode!r}")
    checkpoint_ids = sorted({o.checkpoint_id for o in outs})
    if len(checkpoint_ids) > 1:
        raise ValueError(f"outcomes span multiple checkpoints: {checkpoint_ids}")
    keys = [(o.benchmark_id, o.task_id) for o in outs]
    for key, next_key in zip(keys, keys[1:]):  # sorted, so duplicates are adjacent
        if key == next_key:
            raise ValueError(f"duplicate task {key!r} in outcome set")
    ks = tuple(ks)
    _check_ks(ks)
    too_small = [o.task_id for o in outs if o.n < ks[-1]]
    if too_small:
        raise ValueError(f"tasks with n < max k={ks[-1]}: {', '.join(too_small)}")

    # every curve also holds k=1, dropped from the reported curve if not asked
    ks1 = ks if ks[0] == 1 else (1, *ks)
    drop = len(ks1) - len(ks)
    # one curve per distinct (n, c); every n is at least max k (checked
    # above), so pass_curve cannot raise here
    if curves is None:
        curves = {}
    for o in outs:
        if (o.n, o.c, ks1) not in curves:
            curves[o.n, o.c, ks1] = pass_curve(o, ks1).values

    def mean_curve(tasks: Iterable[TaskOutcome]) -> list[float]:
        return [_mean(column) for column in zip(*(curves[o.n, o.c, ks1] for o in tasks))]

    # the overall curve is a mean of group means: one group per benchmark in
    # macro mode, one group of every task in micro mode (dividing by 1 is exact)
    if mode == "macro":
        groups = [mean_curve(tasks) for _, tasks in groupby(outs, key=lambda o: o.benchmark_id)]
    else:
        groups = [mean_curve(outs)]
    overall = [_mean(column) for column in zip(*groups)]
    return CheckpointMetrics(
        checkpoint_id=checkpoint_ids[0],
        pass1=overall[0],
        passk=PassKCurve(ks=ks, values=tuple(overall[drop:])),
    )


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


# ---------------------------------------------------------------- metrics CSV

METRICS_CSV_MARKER = "# rlready metrics v1"


def metrics_csv(rows: list[dict], ks: list[int], metadata: dict) -> str:
    """passk's rows as a metrics CSV, sorted by checkpoint, under the marker and a metadata line."""
    buf = io.StringIO()
    buf.write(METRICS_CSV_MARKER + "\n")
    buf.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    header = ["checkpoint_id", "n_benchmarks", "n_tasks", "min_n", "max_n", "pass1"]
    header += [f"pass@{k}" for k in ks]
    writer.writerow(header)
    for row in sorted(rows, key=lambda r: r["checkpoint_id"]):
        record = [
            row["checkpoint_id"],
            row["n_benchmarks"],
            row["n_tasks"],
            row["min_n"],
            row["max_n"],
            repr(row["pass1"]),
        ]
        record += [repr(v) for v in row["passk"]]
        writer.writerow(record)
    return buf.getvalue()


def read_metrics_csv(path: Path) -> list[CheckpointMetrics]:
    """The checkpoints of a metrics CSV, in file order, without gen_loss."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(fh)
    except UnicodeDecodeError:
        from .records import undecodable_line  # records imports this module

        raise ValueError(f"{path}: line {undecodable_line(path)}: not valid UTF-8") from None
    # past the marker and metadata lines only: a checkpoint id may start with # too
    reader = csv.DictReader(dropwhile(lambda line: line.startswith("#"), lines))
    if reader.fieldnames is None:
        raise ValueError(f"{path}: empty metrics file")
    ks = []
    for name in reader.fieldnames:
        if name.startswith("pass@"):
            try:
                ks.append(int(name[len("pass@") :]))
            except ValueError:
                raise ValueError(f"{path}: bad column name {name!r}") from None
    if not ks:
        raise ValueError(f"{path}: no pass@k columns")
    metrics = []
    for lineno, row in enumerate(reader, start=2):
        try:
            curve = PassKCurve(
                ks=tuple(ks), values=tuple(float(row[f"pass@{k}"]) for k in ks)
            )
            metrics.append(
                CheckpointMetrics(
                    checkpoint_id=row["checkpoint_id"],
                    pass1=float(row["pass1"]),
                    passk=curve,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: row {lineno}: {exc}") from None
    if not metrics:
        raise ValueError(f"{path}: no checkpoint rows")
    return metrics
