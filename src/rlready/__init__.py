"""rlready: predict post-RL outcomes of SFT checkpoints from pre-RL signals.

Rank or value-predict SFT candidates without running RL, using unbiased
Pass@k at large k and held-out generalization loss, and evaluate predictor
quality with repeated-split R² and Spearman rank correlation.
"""

from .curate import CurationSpec, SftExample, measure_lengths, select, split_validation
from .passk import CheckpointMetrics, PassKCurve, TaskOutcome, aggregate, pass_at_k, pass_curve
from .plotting import plot_scatter
from .predict import (
    Candidate,
    RankingReport,
    calibrate_and_predict,
    pareto_rule_out,
    rank_by_passk,
    rank_candidates,
)
from .records import (
    GenLossRecord,
    Label,
    RecordStore,
    aggregate_genloss,
    dump,
    file_sha256,
    load,
)
from .sampler import (
    SamplingIncomplete,
    SamplingJob,
    SamplingTask,
    sample_completions,
)
from .stats import (
    EvalProtocolResult,
    LabeledPoint,
    LinearFit,
    fit_linear,
    r_squared,
    repeated_split_eval,
    spearman,
)
from .verifier import (
    RULESET_VERSION,
    GoldAnswer,
    Sample,
    answers_equal,
    extract_boxed,
    normalize,
    score,
)

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "CheckpointMetrics",
    "CurationSpec",
    "EvalProtocolResult",
    "GenLossRecord",
    "GoldAnswer",
    "Label",
    "LabeledPoint",
    "LinearFit",
    "PassKCurve",
    "RankingReport",
    "RecordStore",
    "RULESET_VERSION",
    "Sample",
    "SamplingIncomplete",
    "SamplingJob",
    "SamplingTask",
    "SftExample",
    "TaskOutcome",
    "aggregate",
    "aggregate_genloss",
    "answers_equal",
    "calibrate_and_predict",
    "dump",
    "extract_boxed",
    "file_sha256",
    "fit_linear",
    "load",
    "measure_lengths",
    "normalize",
    "pareto_rule_out",
    "pass_at_k",
    "pass_curve",
    "plot_scatter",
    "r_squared",
    "rank_by_passk",
    "rank_candidates",
    "repeated_split_eval",
    "sample_completions",
    "score",
    "select",
    "spearman",
    "split_validation",
]
