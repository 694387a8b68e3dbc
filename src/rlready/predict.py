"""Candidate-checkpoint workflows: Pareto rule-out, ranking, value prediction.

Ranking: drop every checkpoint that another one beats on both axes (higher
Pass@1, lower generalization loss, at least one strictly), then order the
survivors by Pass@k at a large k. Value prediction: fit a line from a metric
to known post-RL Pass@1 on the few calibrated checkpoints, then predict for
everyone, calibrated ones included so residuals stay inspectable.

Dominance requires at least one strict inequality, so exact duplicates
survive together; ruling one of them out would be arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .passk import CheckpointMetrics
from .stats import LabeledPoint, combine_predictions, fit_bivariate, fit_linear

METRIC_GRAMMAR = "pass1 | passk:K | genloss | avg:passk:K+genloss"


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


@dataclass(frozen=True)
class RankingReport:
    """Outcome of the rule-out-then-rank workflow."""

    ruled_out: tuple[tuple[str, str], ...]  # (checkpoint, dominated by)
    ranked: tuple[tuple[str, float], ...]  # (checkpoint, pass@k) best first
    k_used: int


def _check_unique(candidates: Sequence[Candidate]) -> None:
    if not candidates:
        raise ValueError("no candidates given")
    seen: set[str] = set()
    for c in candidates:
        if c.checkpoint_id in seen:
            raise ValueError(f"duplicate candidate {c.checkpoint_id!r}")
        seen.add(c.checkpoint_id)


def _dominator_key(c: Candidate) -> tuple[float, float, str]:
    # preferred representative: lowest loss, then highest pass1, then id
    assert c.gen_loss is not None
    return (c.gen_loss, -c.pass1, c.checkpoint_id)


def pareto_rule_out(
    candidates: Sequence[Candidate],
    epsilon: float = 0.0,
) -> tuple[list[Candidate], list[tuple[str, str]]]:
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
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    missing = sorted(c.checkpoint_id for c in candidates if c.gen_loss is None)
    if missing:
        raise ValueError(f"candidates missing gen_loss: {', '.join(missing)}")

    survivors: list[Candidate] = []
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


def rank_by_passk(candidates: Sequence[Candidate], k: int) -> list[tuple[str, float]]:
    """Candidates ordered by Pass@k descending, ties by checkpoint_id ascending."""
    _check_unique(candidates)
    values = []
    for c in candidates:
        try:
            values.append((c.checkpoint_id, c.metrics.passk.value_at(k)))
        except ValueError as exc:
            raise ValueError(f"checkpoint {c.checkpoint_id!r}: {exc}") from None
    values.sort(key=lambda item: (-item[1], item[0]))
    return values


def rank_candidates(
    candidates: Sequence[Candidate],
    k: int,
    rule_out: bool = True,
    epsilon: float = 0.0,
) -> RankingReport:
    """Full ranking workflow: Pareto rule-out (optional), then rank by Pass@k."""
    if rule_out:
        survivors, ruled = pareto_rule_out(candidates, epsilon=epsilon)
    else:
        _check_unique(candidates)
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
    mode: str = "avg",
) -> dict[str, float]:
    """Fit metric -> post-RL Pass@1 on the labeled candidates, predict for all.

    metric follows parse_metric's grammar. For multi-component metrics, mode
    "avg" (default) fits each component separately and averages the
    predictions; mode "joint" fits one bivariate OLS for comparison.
    Predictions are returned for every candidate, labeled ones included.
    """
    _check_unique(candidates)
    if mode not in ("avg", "joint"):
        raise ValueError(f"mode must be 'avg' or 'joint', got {mode!r}")
    components = parse_metric(metric)
    labeled = [c for c in candidates if c.post_rl_pass1 is not None]
    if len(labeled) < 2:
        raise ValueError(
            f"need >= 2 candidates with known post_rl_pass1 to calibrate, got {len(labeled)}"
        )

    if mode == "joint" and len(components) > 1:
        if len(components) != 2:
            raise ValueError("joint mode supports exactly 2 components")
        rows = [
            (
                component_value(c, components[0]),
                component_value(c, components[1]),
                c.post_rl_pass1,
            )
            for c in labeled
        ]
        a1, a2, b = fit_bivariate(rows)
        return {
            c.checkpoint_id: a1 * component_value(c, components[0])
            + a2 * component_value(c, components[1])
            + b
            for c in candidates
        }

    fits = []
    for comp in components:
        points = [
            LabeledPoint(c.checkpoint_id, component_value(c, comp), c.post_rl_pass1)
            for c in labeled
        ]
        fits.append((component_name(comp), fit_linear(points)))
    features = {
        c.checkpoint_id: {
            component_name(comp): component_value(c, comp) for comp in components
        }
        for c in candidates
    }
    return combine_predictions(fits, features)
