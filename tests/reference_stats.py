"""The two codings of the averaged composite that stats.average_fit_predict replaced.

The split-evaluation core (with the OLS fit it called) and
predict.calibrate_and_predict each fitted one line per metric and averaged
the predictions on their own. Kept verbatim as the oracle for the
differential test in test_stats.py: the shared function must reproduce
both, bit for bit. The Candidate wrapper and component_value that the old
calibrate_and_predict read are kept here verbatim too, since predict now
works on CheckpointMetrics and a labels map directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from rlready.passk import CheckpointMetrics
from rlready.predict import _check_unique, parse_metric
from rlready.stats import EvalProtocolResult, LabeledPoint, LinearFit, _repeat_rng


@dataclass(frozen=True)
class Candidate:
    """A checkpoint under consideration, with its pre-RL metrics.

    post_rl_pass1 is set only for calibration checkpoints that were actually
    trained through RL.
    """

    checkpoint_id: str
    metrics: CheckpointMetrics
    post_rl_pass1: float | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_id != self.metrics.checkpoint_id:
            raise ValueError(
                f"candidate id {self.checkpoint_id!r} does not match metrics id "
                f"{self.metrics.checkpoint_id!r}"
            )
        if self.post_rl_pass1 is not None and not 0.0 <= self.post_rl_pass1 <= 1.0:
            raise ValueError(
                f"post_rl_pass1 must be in [0, 1], got {self.post_rl_pass1}"
            )

    @property
    def pass1(self) -> float:
        return self.metrics.pass1

    @property
    def gen_loss(self) -> float | None:
        return self.metrics.gen_loss


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


def component_value(cand: Candidate, comp: tuple) -> float:
    """The candidate's value for one parsed metric component."""
    if comp[0] == "pass1":
        return cand.pass1
    if comp[0] == "genloss":
        if cand.gen_loss is None:
            raise ValueError(f"checkpoint {cand.checkpoint_id!r} has no gen_loss")
        return cand.gen_loss
    try:
        return cand.metrics.passk.value_at(comp[1])
    except ValueError as exc:
        raise ValueError(f"checkpoint {cand.checkpoint_id!r}: {exc}") from None


def calibrate_and_predict(
    candidates: Sequence[Candidate],
    metric: str,
) -> dict[str, float]:
    """Fit metric -> post-RL Pass@1 on the labeled candidates, predict for all.

    metric follows parse_metric's grammar. A multi-component metric is the
    averaged composite: each component gets its own line, fitted on the
    labeled candidates, and a candidate's prediction is the mean of those
    lines' predictions. Predictions are returned for every candidate, labeled
    ones included.
    """
    _check_unique(candidates)
    components = parse_metric(metric)
    labeled = [c for c in candidates if c.post_rl_pass1 is not None]
    if len(labeled) < 2:
        raise ValueError(
            f"need >= 2 candidates with known post_rl_pass1 to calibrate, got {len(labeled)}"
        )
    fits = []
    for comp in components:
        points = [
            LabeledPoint(c.checkpoint_id, component_value(c, comp), c.post_rl_pass1)
            for c in labeled
        ]
        fits.append((comp, fit_linear(points)))
    return {
        c.checkpoint_id: sum(fit.predict(component_value(c, comp)) for comp, fit in fits)
        / len(fits)
        for c in candidates
    }
