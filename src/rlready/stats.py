"""Predictor-evaluation statistics: OLS calibration, held-out R², Spearman.

The centerpiece is split_eval, the one split core: draw a fitting subset
uniformly at random, fit each predictor on it, score R-squared on the
held-out remainder, and repeat. Each repeat derives its RNG from (seed,
repeat index), so the whole protocol is reproducible from the seed alone.
So from 2 _PART_REPEATS repeats on, the repeats run in slices, one per
usable CPU, each but the first in a forked worker (parts.run), and the
slices' scores are joined in repeat order: each result is still a pure
function of the seed, and one in which some repeat raises is left to the
serial loop, which raises the first error. repeated_split_eval and
repeated_split_eval_combined are its adapters for LabeledPoint lists.

R-squared here is prediction quality on held-out points, 1 - SS_res/SS_tot
around the holdout mean. It can be negative (a fit worse than predicting the
mean) and is reported as-is; clamping would hide exactly the failures this
protocol exists to expose.

The averaged composite predictor (one line per metric, predictions
averaged) is average_fit_predict; split_eval scores it on each repeat's
holdout, and predict.calibrate_and_predict fits it on every labeled
checkpoint. Lines and R² share one degeneracy rule, _spread, and every sum
of squared deviations is _sum_sq, which turns an overflow into a ValueError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from . import parts


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
    (some metric's fit-set x values or the holdout labels do not vary, by the
    rule of _spread) are counted in skipped rather than silently folded into
    the mean. dispersion is the sample standard deviation across kept
    repeats, stderr its /sqrt(m) companion; tables usually quote the former.
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


def _sum_sq(deviations: Iterable[float]) -> float:
    """Sum of the squared deviations; ValueError if it overflows the float range."""
    try:
        # a list, not a generator: the same terms in the same order, so the same bits
        total = sum([d ** 2 for d in deviations])
    except OverflowError:  # a float ** raises where * would give inf
        total = math.inf
    if math.isinf(total):
        raise ValueError("sum of squared deviations overflows the float range")
    return total


def _spread(values: Sequence[float]) -> tuple[float, float]:
    """(mean, sum of squared deviations from it) of values.

    The sum is 0.0 whenever fewer than two values differ, so a sum of 0.0 is
    the one test for "cannot vary", which also catches distinct values whose
    squared deviations underflow.
    """
    mean = sum(values) / len(values)
    if len(set(values)) < 2:
        return mean, 0.0
    return mean, _sum_sq(v - mean for v in values)


def _r2(ys: Sequence[float], preds: Iterable[float]) -> float | None:
    """1 - SS_res/SS_tot of preds against ys, None if ys do not vary (see _spread)."""
    _, ss_tot = _spread(ys)
    if ss_tot == 0.0:
        return None
    return 1.0 - _sum_sq(y - p for y, p in zip(ys, preds)) / ss_tot


def _line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    # the OLS core on plain floats: (slope, intercept) of ys on xs
    if len(xs) < 2:
        raise ValueError(f"need >= 2 points to fit a line, got {len(xs)}")
    x_mean, sxx = _spread(xs)
    if sxx == 0.0:
        raise ValueError(f"degenerate fit: all {len(xs)} points share x={xs[0]}, or nearly")
    y_mean = sum(ys) / len(ys)
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError(f"non-finite fit: slope={slope}, intercept={intercept}")
    return slope, intercept


def fit_linear(points: Sequence[LabeledPoint]) -> LinearFit:
    """Ordinary least squares y = slope*x + intercept; the x values must vary."""
    return LinearFit(*_line([p.x for p in points], [p.y for p in points]))


def average_fit_predict(
    columns: Sequence[Sequence[float]],
    ys: Sequence[float],
    fit_rows: Sequence[int],
    at_rows: Sequence[int],
) -> list[float]:
    """The averaged composite predictor, fitted on fit_rows, at each of at_rows.

    Each x column gets its own OLS line of ys on its fit_rows values (ys is
    read there only). A row's prediction sums the lines' predictions in
    column order and divides once by their number, so one column predicts
    exactly its own line. Raises ValueError if a column cannot be fitted.
    """
    fit_ys = [ys[i] for i in fit_rows]
    sums = [0.0] * len(at_rows)
    for xs in columns:
        slope, intercept = _line([xs[i] for i in fit_rows], fit_ys)
        sums = [s + (slope * xs[i] + intercept) for s, i in zip(sums, at_rows)]
    return [s / len(columns) for s in sums]


def r_squared(fit: LinearFit, holdout: Sequence[LabeledPoint]) -> float:
    """1 - SS_res/SS_tot of fit's predictions on held-out points.

    May be negative; never clamped. Undefined (error) when the holdout labels
    do not vary (see _spread), since SS_tot would be zero.
    """
    if len(holdout) < 2:
        raise ValueError(f"need >= 2 holdout points, got {len(holdout)}")
    r2 = _r2([p.y for p in holdout], [fit.predict(p.x) for p in holdout])
    if r2 is None:
        raise ValueError(f"the {len(holdout)} holdout labels do not vary; R² undefined")
    return r2


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


def _draws(
    seed: int, m: int, n_fit: int, first: int, stop: int
) -> Iterator[tuple[list[int], list[int]]]:
    """(fit rows, holdout rows) of each repeat in [first, stop) in turn, both ascending."""
    for r in range(first, stop):
        fit = set(_repeat_rng(seed, r).sample(range(m), n_fit))
        yield sorted(fit), [i for i in range(m) if i not in fit]


def _scores(predictors, ys, n_fit: int, seed: int, first: int, stop: int) -> list[list]:
    """Per predictor, per repeat in [first, stop): its R², None if skipped, or
    the ValueError its R² raised."""
    scores: list[list] = [[] for _ in predictors]
    for fit_rows, holdout_rows in _draws(seed, len(ys), n_fit, first, stop):
        holdout_ys = [ys[i] for i in holdout_rows]
        for columns, values in zip(predictors, scores):
            try:
                preds = average_fit_predict(columns, ys, fit_rows, holdout_rows)
            except ValueError:  # some column's fit values admit no finite line
                values.append(None)
                continue
            try:
                values.append(_r2(holdout_ys, preds))
            except ValueError as exc:  # an overflow, which split_eval raises in predictor order
                values.append(exc)
    return scores


def _part_scores(predictors, ys, n_fit: int, seed: int, first: int, stop: int) -> list[list]:
    """_scores of one slice of the repeats; a ValueError if some repeat
    raised one, so that the serial loop raises the first of them."""
    scores = _scores(predictors, ys, n_fit, seed, first, stop)
    if any(isinstance(v, ValueError) for values in scores for v in values):
        raise ValueError("a repeat raised")
    return scores


# split_eval scores its repeats in slices of at least this many, one per
# usable CPU, each but the first in a forked worker. On 2 vCPUs of a shared
# Xeon VM (one predictor at m = 48, n_fit = 24; two sets of 25 alternating
# runs per count) one repeat took about 41 us and a fork and reap about
# 2 ms, and 2 slices took 1.15 of the serial time at 400 repeats, 1.13 at
# 600, 0.65-0.88 at 800, 0.63-0.74 at 1000 and 0.61-0.67 at 2000: slices
# pay from about 800 repeats, and slices of 500 keep a margin
_PART_REPEATS = 500


def _scores_in_parts(predictors, ys, n_fit: int, repeats: int, seed: int) -> list[list] | None:
    """_scores of every repeat, in slices by parts.run; None where the
    serial loop must decide: fewer than 2 slices, or what parts.run returns
    None on, a repeat that raised a ValueError included."""
    count = min(parts.usable_cpus(), repeats // _PART_REPEATS)
    if count < 2:
        return None
    cuts = [repeats * i // count for i in range(count + 1)]
    sliced = parts.run(
        _part_scores,
        [(predictors, ys, n_fit, seed, first, stop) for first, stop in zip(cuts, cuts[1:])],
    )
    if sliced is None:
        return None
    scores = sliced[0]
    for part in sliced[1:]:
        for values, more in zip(scores, part):
            values.extend(more)
    return scores


def split_eval(
    predictors: Sequence[Sequence[Sequence[float]]],
    ys: Sequence[float],
    n_fit: int,
    repeats: int,
    seed: int,
) -> list[EvalProtocolResult]:
    """Repeat: fit each predictor on a random n_fit subset, score R² on the rest.

    A predictor is a list of x columns aligned with ys, the averaged composite
    of average_fit_predict; one column is the plain one-metric line. Each
    repeat's split is drawn once and every predictor is scored on it, so each
    result, an error included, is the one its predictor gets alone. The draws
    are a pure function of (len(ys), n_fit, repeats, seed); callers who want
    order-independence sort the rows first (the CLI sorts by checkpoint id).
    Results come in predictor order, and so does the first error raised.
    """
    m = len(ys)
    if m < 4:
        raise ValueError(f"need >= 4 labeled points for a fit/validation split, got {m}")
    if not 2 <= n_fit <= m - 2:
        raise ValueError(f"n_fit must be in [2, {m - 2}], got {n_fit}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    scores = _scores_in_parts(predictors, ys, n_fit, repeats, seed)
    if scores is None:
        scores = _scores(predictors, ys, n_fit, seed, 0, repeats)

    results = []
    for values in scores:
        error = next((v for v in values if isinstance(v, ValueError)), None)
        if error is not None:
            raise error
        kept = tuple(v for v in values if v is not None)
        if not kept:
            raise ValueError(f"all {repeats} repeats drew degenerate splits")
        mean = sum(kept) / len(kept)
        if len(kept) > 1:
            sd = math.sqrt(_sum_sq(v - mean for v in kept) / (len(kept) - 1))
        else:
            sd = 0.0
        results.append(
            EvalProtocolResult(
                per_repeat_r2=kept,
                mean_r2=mean,
                dispersion=sd,
                stderr=sd / math.sqrt(len(kept)),
                n_fit=n_fit,
                n_val=m - n_fit,
                repeats=repeats,
                skipped=repeats - len(kept),
                seed=seed,
            )
        )
    return results


def repeated_split_eval(
    points: Sequence[LabeledPoint], n_fit: int, repeats: int, seed: int
) -> EvalProtocolResult:
    """split_eval of one metric given as labeled points, in the points' order."""
    [result] = split_eval([[[p.x for p in points]]], [p.y for p in points], n_fit, repeats, seed)
    return result


def repeated_split_eval_combined(
    metric_points: Mapping[str, Sequence[LabeledPoint]],
    n_fit: int,
    repeats: int,
    seed: int,
) -> EvalProtocolResult:
    """split_eval of the averaged predictor of several metrics' labeled points.

    metric_points maps metric name -> labeled points; the lists must be
    aligned (same checkpoints, same order, same labels). The metrics' lines
    are averaged in sorted-name order.
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
    columns = [[p.x for p in lst] for lst in lists]
    [result] = split_eval([columns], [p.y for p in lists[0]], n_fit, repeats, seed)
    return result
