"""Unbiased Pass@k estimation from per-task (n, c) outcome counts.

For a task with n generated samples of which c are correct, the probability
that a random size-k subset contains at least one correct sample is

    pass@k = 1 - C(n-c, k) / C(n, k)

which is an unbiased estimator of the model's true Pass@k on that task.
The complement ratio is evaluated in product form

    C(n-c, k) / C(n, k) = prod_{j=0}^{k-1} (n - c - j) / (n - j)

so every intermediate stays in [0, 1]: no factorials, no log-gamma, no
overflow even for n in the tens of thousands.

Aggregation is macro by default: mean over tasks within each benchmark,
then the unweighted mean across benchmarks, so small benchmarks carry the
same weight as large ones. A micro (task-weighted) mode is available for
sensitivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
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

    pass1 and passk are aggregated across benchmarks; per_benchmark holds the
    per-benchmark curves they were built from. gen_loss is attached later by
    the caller (it comes from a different data source than sampling outcomes).
    """

    checkpoint_id: str
    pass1: float
    passk: PassKCurve
    gen_loss: float | None = None
    per_benchmark: dict[str, PassKCurve] = field(default_factory=dict)

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


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased Pass@k for a single task: 1 - C(n-c, k) / C(n, k).

    Args:
        n: total samples generated for the task (>= 1).
        c: correct samples among them (0 <= c <= n).
        k: subset size (1 <= k <= n).

    Returns:
        Probability in [0, 1] that a uniformly random size-k subset of the
        n samples contains at least one correct sample.

    Raises:
        ValueError: if any of the bounds above is violated.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got n={n}")
    if not 0 <= c <= n:
        raise ValueError(f"c must be in [0, n={n}], got c={c}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n={n}], got k={k}")
    if n - c < k:
        # fewer than k incorrect samples: every size-k subset hits a correct one
        return 1.0
    ratio = 1.0
    for j in range(k):
        ratio *= (n - c - j) / (n - j)
    return 1.0 - ratio


def pass_curve(outcome: TaskOutcome, ks: Sequence[int]) -> PassKCurve:
    """Evaluate pass@k at each k in ks for one task outcome.

    The shared product is accumulated once across increasing k, so the curve
    is bitwise identical to independent pass_at_k calls and nondecreasing.
    """
    ks = tuple(ks)
    _check_ks(ks)
    n, c = outcome.n, outcome.c
    if ks[-1] > n:
        raise ValueError(
            f"k={ks[-1]} exceeds n={n} for task {outcome.task_id!r}"
        )
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
    return PassKCurve(ks=ks, values=tuple(values))


def aggregate(
    outcomes: Iterable[TaskOutcome],
    ks: Sequence[int],
    mode: str = "macro",
) -> CheckpointMetrics:
    """Aggregate one checkpoint's task outcomes into benchmark and overall curves.

    macro (default): mean over tasks within each benchmark, then unweighted
    mean across benchmarks. micro: mean over all tasks regardless of
    benchmark. Both are computed in sorted (benchmark_id, task_id) order so
    the result is independent of input order.

    pass1 is always computed (at k=1), whether or not 1 is in ks. A task's
    curve depends only on its (n, c), so each distinct (n, c) is evaluated
    once per call and shared by every task that has it.
    """
    outs = sorted(outcomes, key=lambda o: (o.benchmark_id, o.task_id))
    if not outs:
        raise ValueError("cannot aggregate an empty outcome set")
    if mode not in ("macro", "micro"):
        raise ValueError(f"mode must be 'macro' or 'micro', got {mode!r}")
    checkpoint_ids = sorted({o.checkpoint_id for o in outs})
    if len(checkpoint_ids) > 1:
        raise ValueError(f"outcomes span multiple checkpoints: {checkpoint_ids}")
    seen: set[tuple[str, str]] = set()
    for o in outs:
        key = (o.benchmark_id, o.task_id)
        if key in seen:
            raise ValueError(f"duplicate task {key!r} in outcome set")
        seen.add(key)
    ks = tuple(ks)
    _check_ks(ks)
    too_small = [o.task_id for o in outs if o.n < ks[-1]]
    if too_small:
        raise ValueError(
            f"tasks with n < max k={ks[-1]}: {', '.join(too_small)}"
        )

    by_benchmark: dict[str, list[TaskOutcome]] = {}
    for o in outs:
        by_benchmark.setdefault(o.benchmark_id, []).append(o)

    # one curve per distinct (n, c), kept for this call only; every n is at
    # least max k (checked above), so pass_curve cannot raise here
    curves_by_nc: dict[tuple[int, int], PassKCurve] = {}

    def curve(o: TaskOutcome) -> PassKCurve:
        cu = curves_by_nc.get((o.n, o.c))
        if cu is None:
            cu = curves_by_nc[o.n, o.c] = pass_curve(o, ks)
        return cu

    per_benchmark: dict[str, PassKCurve] = {}
    for bench, tasks in by_benchmark.items():
        curves = [curve(o) for o in tasks]
        per_benchmark[bench] = PassKCurve(
            ks=ks,
            values=tuple(_mean([cu.values[i] for cu in curves]) for i in range(len(ks))),
        )

    if mode == "macro":
        benches = sorted(per_benchmark)
        overall = PassKCurve(
            ks=ks,
            values=tuple(
                _mean([per_benchmark[b].values[i] for b in benches])
                for i in range(len(ks))
            ),
        )
        bench_pass1 = [
            _mean([pass_at_k(o.n, o.c, 1) for o in by_benchmark[b]]) for b in benches
        ]
        pass1 = _mean(bench_pass1)
    else:
        task_curves = [curve(o) for o in outs]
        overall = PassKCurve(
            ks=ks,
            values=tuple(
                _mean([cu.values[i] for cu in task_curves]) for i in range(len(ks))
            ),
        )
        pass1 = _mean([pass_at_k(o.n, o.c, 1) for o in outs])

    if 1 in ks:
        # bitwise identity between the two computation paths
        pass1 = overall.value_at(1)
    return CheckpointMetrics(
        checkpoint_id=checkpoint_ids[0],
        pass1=pass1,
        passk=overall,
        per_benchmark=per_benchmark,
    )


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)
