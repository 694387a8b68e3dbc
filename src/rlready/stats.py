"""Predictor-evaluation statistics: OLS calibration, held-out R², Spearman.

The centerpiece is repeated_split_eval: draw a fitting subset uniformly at
random, fit a line on it, score R-squared on the held-out remainder, and
repeat. Each repeat derives its RNG from (seed, repeat index), so the whole
protocol is reproducible from the seed alone.

R-squared here is prediction quality on held-out points, 1 - SS_res/SS_tot
around the holdout mean. It can be negative (a fit worse than predicting the
mean) and is reported as-is; clamping would hide exactly the failures this
protocol exists to expose.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class LabeledPoint:
    """A (pre-RL metric value, post-RL Pass@1 label) pair for one checkpoint."""

    checkpoint_id: str
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(
                f"non-finite point for {self.checkpoint_id!r}: x={self.x}, y={self.y}"
            )


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError(f"non-finite fit: slope={self.slope}, intercept={self.intercept}")

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class EvalProtocolResult:
    """Repeated-split R² summary.

    per_repeat_r2 holds one value per non-degenerate repeat; degenerate draws
    (constant x in the fit set or constant y in the holdout) are counted in
    skipped rather than silently folded into the mean. dispersion is the
    sample standard deviation across kept repeats, stderr its /sqrt(m)
    companion; tables usually quote the former.
    """

    per_repeat_r2: tuple[float, ...]
    mean_r2: float
    dispersion: float
    stderr: float
    n_fit: int
    n_val: int
    repeats: int
    skipped: int
    seed: int


def fit_linear(points: Sequence[LabeledPoint]) -> LinearFit:
    """Ordinary least squares y = slope*x + intercept.

    Needs at least two points and at least two distinct x values.
    """
    if len(points) < 2:
        raise ValueError(f"need >= 2 points to fit a line, got {len(points)}")
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    sxx = sum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError(
            f"degenerate fit: all {len(points)} points share x={xs[0]}"
        )
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return LinearFit(slope=slope, intercept=y_mean - slope * x_mean)


def r_squared(fit: LinearFit, holdout: Sequence[LabeledPoint]) -> float:
    """1 - SS_res/SS_tot of fit's predictions on held-out points.

    May be negative; never clamped. Undefined (error) when all holdout labels
    are identical, since SS_tot would be zero.
    """
    if len(holdout) < 2:
        raise ValueError(f"need >= 2 holdout points, got {len(holdout)}")
    ys = [p.y for p in holdout]
    y_mean = sum(ys) / len(ys)
    ss_tot = sum((y - y_mean) ** 2 for y in ys)
    if ss_tot == 0.0:
        raise ValueError(f"all {len(holdout)} holdout labels equal {ys[0]}; R² undefined")
    ss_res = sum((p.y - fit.predict(p.x)) ** 2 for p in holdout)
    return 1.0 - ss_res / ss_tot


def _fractional_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties receiving the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    num = sum(a * b for a, b in zip(dx, dy))
    den = math.sqrt(sum(a * a for a in dx) * sum(b * b for b in dy))
    return num / den


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation: Pearson correlation of fractional ranks.

    Ties get average ranks. Result is in [-1, 1]; +1 for identical orderings,
    -1 for exactly opposed ones.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError(f"need >= 2 observations, got {len(xs)}")
    if len(set(xs)) == 1:
        raise ValueError("xs are all equal; ranks undefined")
    if len(set(ys)) == 1:
        raise ValueError("ys are all equal; ranks undefined")
    r = _pearson(_fractional_ranks(xs), _fractional_ranks(ys))
    return max(-1.0, min(1.0, r))


def _repeat_rng(seed: int, repeat_index: int) -> random.Random:
    # string seeding hashes via sha512: stable across runs and platforms
    return random.Random(f"{seed}:{repeat_index}")


def _stratified_indices(
    rng: random.Random,
    groups: Sequence[tuple[str, list[int]]],
    n_fit: int,
    total: int,
) -> list[int]:
    # largest-remainder allocation of n_fit across groups, proportional to size
    quotas = []
    for name, members in groups:
        exact = n_fit * len(members) / total
        quotas.append([name, members, int(exact), exact - int(exact)])
    short = n_fit - sum(q[2] for q in quotas)
    for q in sorted(quotas, key=lambda q: (-q[3], q[0]))[:short]:
        q[2] += 1
    picked: list[int] = []
    for _, members, quota, _ in quotas:
        picked.extend(rng.sample(members, quota))
    return picked


def repeated_split_eval(
    points: Sequence[LabeledPoint],
    n_fit: int,
    repeats: int,
    seed: int,
    stratify_by: Mapping[str, str] | None = None,
) -> EvalProtocolResult:
    """Repeat: fit on a random n_fit subset, score R² on the remainder.

    The draw sequence is a pure function of (points order, n_fit, repeats,
    seed); callers who want order-independence should sort points by
    checkpoint_id first (the CLI does). stratify_by optionally maps
    checkpoint_id to a group label and makes each draw proportional per
    group.
    """
    return _split_eval([list(points)], n_fit, repeats, seed, stratify_by)


def repeated_split_eval_combined(
    metric_points: Mapping[str, Sequence[LabeledPoint]],
    n_fit: int,
    repeats: int,
    seed: int,
) -> EvalProtocolResult:
    """Repeated-split protocol for an averaged multi-metric predictor.

    metric_points maps metric name -> labeled points; the lists must be
    aligned (same checkpoints, same order, same labels). Each repeat draws
    one fit subset with the same (seed, index) derivation as
    repeated_split_eval, fits each metric on it separately, averages the
    fits' predictions on the holdout, and scores R² of the averages.
    """
    names = sorted(metric_points)
    if len(names) < 2:
        raise ValueError(f"need >= 2 metrics to combine, got {len(names)}")
    lists = [list(metric_points[name]) for name in names]
    reference = [(p.checkpoint_id, p.y) for p in lists[0]]
    for name, lst in zip(names[1:], lists[1:]):
        if [(p.checkpoint_id, p.y) for p in lst] != reference:
            raise ValueError(
                f"metric {name!r} points are not aligned with {names[0]!r} "
                "(checkpoints, order and labels must match)"
            )
    return _split_eval(lists, n_fit, repeats, seed, None)


def _split_eval(
    lists: list[list[LabeledPoint]],
    n_fit: int,
    repeats: int,
    seed: int,
    stratify_by: Mapping[str, str] | None,
) -> EvalProtocolResult:
    # lists are aligned point lists, one per metric; the predictor is the mean
    # of each metric's fit, so a single list is the plain one-metric protocol
    m = len(lists[0])
    if m < 4:
        raise ValueError(f"need >= 4 labeled points for a fit/validation split, got {m}")
    if not 2 <= n_fit <= m - 2:
        raise ValueError(f"n_fit must be in [2, {m - 2}], got {n_fit}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    groups: list[tuple[str, list[int]]] | None = None
    if stratify_by is not None:
        by_group: dict[str, list[int]] = {}
        for i, p in enumerate(lists[0]):
            if p.checkpoint_id not in stratify_by:
                raise ValueError(f"checkpoint {p.checkpoint_id!r} missing from stratify_by")
            by_group.setdefault(stratify_by[p.checkpoint_id], []).append(i)
        groups = sorted(by_group.items())

    ys = [p.y for p in lists[0]]
    n_metrics = len(lists)

    def one_repeat(r: int) -> float | None:
        rng = _repeat_rng(seed, r)
        if groups is None:
            fit_idx = set(rng.sample(range(m), n_fit))
        else:
            fit_idx = set(_stratified_indices(rng, groups, n_fit, m))
        holdout_idx = [i for i in range(m) if i not in fit_idx]
        y_true = [ys[i] for i in holdout_idx]
        if len(set(y_true)) == 1:
            return None
        fit_order = sorted(fit_idx)
        preds = [0.0] * len(holdout_idx)
        for lst in lists:
            fit_points = [lst[i] for i in fit_order]
            if len({p.x for p in fit_points}) == 1:
                return None
            fit = fit_linear(fit_points)
            preds = [p + fit.predict(lst[i].x) for p, i in zip(preds, holdout_idx)]
        y_mean = sum(y_true) / len(y_true)
        ss_tot = sum((y - y_mean) ** 2 for y in y_true)
        ss_res = sum((y - p / n_metrics) ** 2 for y, p in zip(y_true, preds))
        return 1.0 - ss_res / ss_tot

    kept = tuple(v for v in map(one_repeat, range(repeats)) if v is not None)
    skipped = repeats - len(kept)
    if not kept:
        raise ValueError(f"all {repeats} repeats drew degenerate splits")
    mean = sum(kept) / len(kept)
    if len(kept) > 1:
        sd = math.sqrt(sum((v - mean) ** 2 for v in kept) / (len(kept) - 1))
    else:
        sd = 0.0
    return EvalProtocolResult(
        per_repeat_r2=kept,
        mean_r2=mean,
        dispersion=sd,
        stderr=sd / math.sqrt(len(kept)),
        n_fit=n_fit,
        n_val=m - n_fit,
        repeats=repeats,
        skipped=skipped,
        seed=seed,
    )
