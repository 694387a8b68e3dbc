"""The aggregate that evaluated one Pass@k curve per task.

Kept verbatim as the oracle for the differential test in test_passk.py:
aggregate now evaluates each distinct (n, c) once per call, and must return
exactly what this one returns, bit for bit, on every input.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from rlready.passk import (
    CheckpointMetrics,
    PassKCurve,
    TaskOutcome,
    _check_ks,
    _mean,
    pass_at_k,
    pass_curve,
)


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

    pass1 is always computed (at k=1), whether or not 1 is in ks.
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

    per_benchmark: dict[str, PassKCurve] = {}
    for bench, tasks in by_benchmark.items():
        curves = [pass_curve(o, ks) for o in tasks]
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
        task_curves = [pass_curve(o, ks) for o in outs]
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
