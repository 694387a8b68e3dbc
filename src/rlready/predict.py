"""Checkpoint-selection workflows: Pareto rule-out, ranking, value prediction.

Every workflow takes the candidates as CheckpointMetrics, which carry the
checkpoint id, Pass@1, the Pass@k curve and, once attached, gen_loss.

Ranking: drop every checkpoint that another one beats on both axes (higher
Pass@1, lower generalization loss, at least one strictly), then order the
survivors by Pass@k at a large k. Value prediction: fit a line from a metric
to known post-RL Pass@1 on the few calibrated checkpoints, whose labels come
as a map from checkpoint id to label, then predict for everyone, calibrated
ones included so residuals stay inspectable. A composite metric
(avg:passk:K+genloss) fits one line per component and predicts the mean of
their predictions; averaging is the only way metrics are combined, and its
one implementation is stats.average_fit_predict, which the repeated-split
evaluation calls too.

Dominance requires at least one strict inequality, so exact duplicates
survive together; ruling one of them out would be arbitrary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .passk import CheckpointMetrics
from .stats import average_fit_predict

METRIC_GRAMMAR = "pass1 | passk:K | genloss | avg:passk:K+genloss"


@dataclass(frozen=True)
class RankingReport:
    """Outcome of the rule-out-then-rank workflow."""

    ruled_out: tuple[tuple[str, str], ...]  # (checkpoint, dominated by)
    ranked: tuple[tuple[str, float], ...]  # (checkpoint, pass@k) best first
    k_used: int


def _check_unique(candidates: Sequence[CheckpointMetrics]) -> None:
    if not candidates:
        raise ValueError("no candidates given")
    seen: set[str] = set()
    for c in candidates:
        if c.checkpoint_id in seen:
            raise ValueError(f"duplicate candidate {c.checkpoint_id!r}")
        seen.add(c.checkpoint_id)


def _dominator_key(c: CheckpointMetrics) -> tuple[float, float, str]:
    # preferred representative: lowest loss, then highest pass1, then id
    assert c.gen_loss is not None
    return (c.gen_loss, -c.pass1, c.checkpoint_id)


def _check_epsilon(epsilon: float) -> None:
    # a NaN margin would compare false everywhere and rule nothing out
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")


def pareto_rule_out(
    candidates: Sequence[CheckpointMetrics],
    epsilon: float = 0.0,
) -> tuple[list[CheckpointMetrics], list[tuple[str, str]]]:
    """Partition candidates into (survivors, ruled_out) on (pass1, gen_loss).

    B dominates A iff B.pass1 >= A.pass1 + epsilon and
    B.gen_loss <= A.gen_loss - epsilon, and B is strictly better than A on
    at least one axis (B.pass1 > A.pass1 or B.gen_loss < A.gen_loss). A is
    ruled out iff some B dominates it. At epsilon 0 the survivors are exactly
    the Pareto frontier of (maximize pass1, minimize gen_loss); a larger
    epsilon demands that margin on both axes. The strictness rule holds at
    every epsilon, so exact duplicates never rule each other out. Output is
    independent of input order; each ruled_out entry names the dominator
    that is least by (gen_loss, -pass1, checkpoint_id).
    """
    _check_unique(candidates)
    _check_epsilon(epsilon)
    missing = sorted(c.checkpoint_id for c in candidates if c.gen_loss is None)
    if missing:
        raise ValueError(f"candidates missing gen_loss: {', '.join(missing)}")

    survivors: list[CheckpointMetrics] = []
    ruled: list[tuple[str, str]] = []
    for cand in candidates:
        dominators = [
            other
            for other in candidates
            if other.pass1 >= cand.pass1 + epsilon
            and other.gen_loss <= cand.gen_loss - epsilon
            and (other.pass1 > cand.pass1 or other.gen_loss < cand.gen_loss)
        ]
        if dominators:
            by = min(dominators, key=_dominator_key)
            ruled.append((cand.checkpoint_id, by.checkpoint_id))
        else:
            survivors.append(cand)
    survivors.sort(key=lambda c: c.checkpoint_id)
    ruled.sort()
    return survivors, ruled


def rank_by_passk(candidates: Sequence[CheckpointMetrics], k: int) -> list[tuple[str, float]]:
    """Checkpoints ordered by Pass@k descending, ties by checkpoint_id ascending."""
    _check_unique(candidates)
    values = []
    for c in candidates:
        try:
            values.append((c.checkpoint_id, c.passk.value_at(k)))
        except ValueError as exc:
            raise ValueError(f"checkpoint {c.checkpoint_id!r}: {exc}") from None
    values.sort(key=lambda item: (-item[1], item[0]))
    return values


def rank_candidates(
    candidates: Sequence[CheckpointMetrics],
    k: int,
    rule_out: bool = True,
    epsilon: float = 0.0,
) -> RankingReport:
    """Full ranking workflow: Pareto rule-out (optional), then rank by Pass@k."""
    if rule_out:
        survivors, ruled = pareto_rule_out(candidates, epsilon=epsilon)
    else:
        _check_unique(candidates)
        _check_epsilon(epsilon)  # unused, but recorded in the report
        survivors, ruled = list(candidates), []
    return RankingReport(
        ruled_out=tuple(ruled),
        ranked=tuple(rank_by_passk(survivors, k)) if survivors else (),
        k_used=k,
    )


def parse_metric(spec: str) -> tuple[tuple, ...]:
    """Parse a metric spec string into its components.

    Grammar: pass1 | passk:K | genloss | avg:<component>+<component>.
    Returns a tuple of components, each ("pass1",), ("passk", k) or
    ("genloss",).
    """
    spec = spec.strip()
    if spec.startswith("avg:"):
        parts = spec[len("avg:") :].split("+")
        if len(parts) < 2:
            raise ValueError(f"avg metric needs >= 2 components, got {spec!r}")
        return tuple(_parse_component(p) for p in parts)
    return (_parse_component(spec),)


def _parse_component(text: str) -> tuple:
    text = text.strip()
    if text == "pass1":
        return ("pass1",)
    if text == "genloss":
        return ("genloss",)
    if text.startswith("passk:"):
        try:
            k = int(text[len("passk:") :])
        except ValueError:
            raise ValueError(f"bad k in metric component {text!r}") from None
        if k < 1:
            raise ValueError(f"k must be >= 1 in metric component {text!r}")
        return ("passk", k)
    raise ValueError(f"unknown metric {text!r} (expected {METRIC_GRAMMAR})")


def component_name(comp: tuple) -> str:
    """Canonical string form of a parsed metric component."""
    return f"passk:{comp[1]}" if comp[0] == "passk" else comp[0]


def component_value(cand: CheckpointMetrics, comp: tuple) -> float:
    """The checkpoint's value for one parsed metric component."""
    if comp[0] == "pass1":
        return cand.pass1
    if comp[0] == "genloss":
        if cand.gen_loss is None:
            raise ValueError(f"checkpoint {cand.checkpoint_id!r} has no gen_loss")
        return cand.gen_loss
    try:
        return cand.passk.value_at(comp[1])
    except ValueError as exc:
        raise ValueError(f"checkpoint {cand.checkpoint_id!r}: {exc}") from None


def calibrate_and_predict(
    candidates: Sequence[CheckpointMetrics],
    labels: Mapping[str, float],
    metric: str,
) -> dict[str, float]:
    """Fit metric -> post-RL Pass@1 on the labeled candidates, predict for all.

    labels maps checkpoint id -> known post-RL Pass@1, a value in [0, 1];
    every id it names must be one of the candidates, and at least two must
    be labeled. metric follows parse_metric's grammar. A multi-component
    metric is the averaged composite of stats.average_fit_predict: each
    component gets its own line, fitted on the labeled candidates, and a
    candidate's prediction is the mean of those lines' predictions.
    Predictions are returned for every candidate, labeled ones included.
    """
    for value in labels.values():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"post_rl_pass1 must be in [0, 1], got {value}")
    unknown = sorted(set(labels) - {c.checkpoint_id for c in candidates})
    if unknown:
        raise ValueError(f"labels name unknown checkpoints: {', '.join(unknown)}")
    _check_unique(candidates)
    components = parse_metric(metric)
    fit_rows = [i for i, c in enumerate(candidates) if c.checkpoint_id in labels]
    if len(fit_rows) < 2:
        raise ValueError(
            f"need >= 2 candidates with known post_rl_pass1 to calibrate, got {len(fit_rows)}"
        )
    columns = [[component_value(c, comp) for c in candidates] for comp in components]
    ys = [labels.get(c.checkpoint_id) for c in candidates]
    predictions = average_fit_predict(columns, ys, fit_rows, range(len(candidates)))
    return {c.checkpoint_id: p for c, p in zip(candidates, predictions)}
