"""Command-line surface: collect, verify, passk, genloss, rank, predict,
evaluate, curate, plot.

Every report embeds the provenance needed to re-run it: tool version, seed,
k, modes, and sha256 hashes of the input files. Randomized commands require
an explicit --seed; there are no default seeds. Outputs are deterministic:
identical inputs and flags produce identical bytes.

Exit codes: 0 success, 1 validation error, 2 I/O error. Errors print one
machine-parsable line: "error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import __version__
from .curate import CurationSpec, measure_lengths, select, split_validation
from .passk import CheckpointMetrics, PassKCurve, aggregate
from .plotting import plot_scatter
from .predict import (
    Candidate,
    calibrate_and_predict,
    component_name,
    component_value,
    parse_metric,
    rank_candidates,
)
from .records import RecordStore, aggregate_genloss, dump, file_sha256, load
from .sampler import SamplingIncomplete, SamplingJob, SamplingTask, sample_completions
from .stats import (
    LabeledPoint,
    fit_linear,
    r_squared,
    repeated_split_eval,
    repeated_split_eval_combined,
    spearman,
)
from .verifier import RULESET_VERSION, score

METRICS_CSV_MARKER = "# rlready metrics v1"


def _metadata(command: str, inputs: dict[str, Path], **extra) -> dict:
    md = {
        "tool": "rlready",
        "tool_version": __version__,
        "command": command,
        "inputs": {
            role: {"path": str(path), "sha256": file_sha256(path)}
            for role, path in sorted(inputs.items())
        },
    }
    md.update(extra)
    return md


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--ks must be comma-separated integers, got {text!r}") from None
    if not ks:
        raise ValueError("--ks must name at least one k")
    return ks


def _load_points_jsonl(path: Path) -> list[LabeledPoint]:
    points = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
                point = LabeledPoint(obj["checkpoint_id"], float(obj["x"]), float(obj["y"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if point.checkpoint_id in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate checkpoint "
                    f"{point.checkpoint_id!r} (first seen at line {seen[point.checkpoint_id]})"
                )
            seen[point.checkpoint_id] = lineno
            points.append(point)
    if not points:
        raise ValueError(f"{path}: no points")
    return points


# ---------------------------------------------------------------- metrics CSV


def _write_metrics_csv(path: Path, rows: list[dict], ks: list[int], metadata: dict) -> None:
    buf = io.StringIO()
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(METRICS_CSV_MARKER + "\n")
        fh.write("# " + json.dumps(metadata, sort_keys=True) + "\n")
        fh.write(buf.getvalue())


def _read_metrics_csv(path: Path) -> list[CheckpointMetrics]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [line for line in lines if not line.startswith("#")]
    if not rows:
        raise ValueError(f"{path}: empty metrics file")
    reader = csv.DictReader(io.StringIO("\n".join(rows)))
    ks = []
    for name in reader.fieldnames or []:
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


def _load_genloss_scalars(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    gen_loss = payload.get("gen_loss") if isinstance(payload, dict) else None
    if not isinstance(gen_loss, dict):
        raise ValueError(f"{path}: expected a genloss report with a 'gen_loss' map")
    try:
        return {str(k): float(v) for k, v in gen_loss.items()}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: gen_loss values must be numbers: {exc}") from None


def _build_candidates(
    metrics_path: Path,
    genloss_path: Path | None,
    labels_path: Path | None,
) -> list[Candidate]:
    metrics = _read_metrics_csv(metrics_path)
    gen_loss = _load_genloss_scalars(genloss_path) if genloss_path else {}
    labels = {}
    if labels_path is not None:
        labels = {rec.checkpoint_id: rec.post_rl_pass1 for rec in load("labels", labels_path)}
        unknown = sorted(set(labels) - {m.checkpoint_id for m in metrics})
        if unknown:
            raise ValueError(f"labels name unknown checkpoints: {', '.join(unknown)}")
    candidates = []
    for m in metrics:
        if m.checkpoint_id in gen_loss:
            m = CheckpointMetrics(
                checkpoint_id=m.checkpoint_id,
                pass1=m.pass1,
                passk=m.passk,
                gen_loss=gen_loss[m.checkpoint_id],
            )
        candidates.append(
            Candidate(m.checkpoint_id, m, post_rl_pass1=labels.get(m.checkpoint_id))
        )
    return sorted(candidates, key=lambda c: c.checkpoint_id)


# ------------------------------------------------------------------- commands


def cmd_collect(args) -> None:
    with open(args.config, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: config must be a flat JSON object")
    known = {
        "endpoint_url",
        "model_name",
        "tasks_path",
        "n",
        "temperature",
        "prompt_suffix",
        "max_concurrency",
        "max_tokens",
        "checkpoint_id",
        "max_retries",
        "retry_backoff",
        "request_timeout",
    }
    unknown = sorted(set(config) - known)
    if unknown:
        raise ValueError(f"{args.config}: unknown keys: {', '.join(unknown)}")
    for required in ("endpoint_url", "model_name", "tasks_path", "n"):
        if required not in config:
            raise ValueError(f"{args.config}: missing key {required!r}")
    tasks = _load_tasks_jsonl(Path(config.pop("tasks_path")))
    job = SamplingJob(tasks=tasks, **config)
    store = RecordStore(args.store)
    written = sample_completions(job, store)
    print(f"wrote {written} samples to {store.path('samples')}")


def _load_tasks_jsonl(path: Path) -> tuple[SamplingTask, ...]:
    tasks = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("expected a JSON object")
                tasks.append(
                    SamplingTask(
                        task_id=str(obj["task_id"]),
                        problem=str(obj["problem"]),
                        benchmark_id=str(obj["benchmark"]),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not tasks:
        raise ValueError(f"{path}: no tasks")
    return tuple(tasks)


def cmd_verify(args) -> None:
    samples = load("samples", args.samples)
    gold_records = {(g.benchmark_id, g.task_id): g for g in load("gold", args.gold)}
    groups: dict[tuple[str, str, str], list] = {}
    for s in samples:
        groups.setdefault((s.checkpoint_id, s.benchmark_id, s.task_id), []).append(s)
    outcomes = []
    for (ckpt, bench, task), group in sorted(groups.items()):
        gold = gold_records.get((bench, task))
        if gold is None:
            raise ValueError(f"no gold answer for task ({bench!r}, {task!r})")
        outcomes.append(score(group, gold))
    dump("outcomes", outcomes, args.out)
    meta = _metadata(
        "verify",
        {"samples": Path(args.samples), "gold": Path(args.gold)},
        verifier_ruleset_version=RULESET_VERSION,
        n_outcomes=len(outcomes),
    )
    _write_json(Path(str(args.out) + ".meta.json"), meta)
    print(f"scored {len(outcomes)} tasks -> {args.out}")


def cmd_passk(args) -> None:
    ks = _parse_ks(args.ks)
    outcomes = load("outcomes", args.outcomes)
    by_checkpoint: dict[str, list] = {}
    for o in outcomes:
        by_checkpoint.setdefault(o.checkpoint_id, []).append(o)
    rows = []
    for ckpt, outs in sorted(by_checkpoint.items()):
        metrics = aggregate(outs, ks, mode=args.agg)
        rows.append(
            {
                "checkpoint_id": ckpt,
                "n_benchmarks": len(metrics.per_benchmark),
                "n_tasks": len(outs),
                "min_n": min(o.n for o in outs),
                "max_n": max(o.n for o in outs),
                "pass1": metrics.pass1,
                "passk": list(metrics.passk.values),
            }
        )
    meta = _metadata(
        "passk",
        {"outcomes": Path(args.outcomes)},
        ks=ks,
        aggregation=args.agg,
    )
    _write_metrics_csv(Path(args.out), rows, ks, meta)
    print(f"wrote metrics for {len(rows)} checkpoints -> {args.out}")


def cmd_genloss(args) -> None:
    records = load("genloss", args.records)
    by_checkpoint: dict[str, list] = {}
    for r in records:
        by_checkpoint.setdefault(r.checkpoint_id, []).append(r)
    scalars = {
        ckpt: aggregate_genloss(recs, mode=args.mode)
        for ckpt, recs in sorted(by_checkpoint.items())
    }
    payload = {
        "metadata": _metadata("genloss", {"records": Path(args.records)}, mode=args.mode),
        "gen_loss": scalars,
    }
    _write_json(Path(args.out), payload)
    print(f"aggregated gen_loss for {len(scalars)} checkpoints -> {args.out}")


def cmd_rank(args) -> None:
    genloss_path = Path(args.genloss) if args.genloss else None
    candidates = _build_candidates(Path(args.metrics), genloss_path, None)
    inputs = {"metrics": Path(args.metrics)}
    if genloss_path:
        inputs["genloss"] = genloss_path
    report = rank_candidates(
        candidates, k=args.k, rule_out=genloss_path is not None, epsilon=args.epsilon
    )
    payload = {
        "metadata": _metadata("rank", inputs, k_used=args.k, epsilon=args.epsilon),
        "k_used": report.k_used,
        "ruled_out": [list(pair) for pair in report.ruled_out],
        "ranked": [[ckpt, value] for ckpt, value in report.ranked],
    }
    if genloss_path is None:
        payload["warning"] = (
            "no generalization-loss input: Pareto rule-out stage skipped"
        )
    _write_json(Path(args.out), payload)
    print(
        f"ranked {len(report.ranked)} checkpoints "
        f"({len(report.ruled_out)} ruled out) -> {args.out}"
    )


def cmd_predict(args) -> None:
    parse_metric(args.metric)  # fail fast on a bad spec
    genloss_path = Path(args.genloss) if args.genloss else None
    candidates = _build_candidates(Path(args.metrics), genloss_path, Path(args.labels))
    predictions = calibrate_and_predict(candidates, args.metric, mode=args.mode)
    residuals = {
        c.checkpoint_id: c.post_rl_pass1 - predictions[c.checkpoint_id]
        for c in candidates
        if c.post_rl_pass1 is not None
    }
    inputs = {"metrics": Path(args.metrics), "labels": Path(args.labels)}
    if genloss_path:
        inputs["genloss"] = genloss_path
    payload = {
        "metadata": _metadata("predict", inputs, metric=args.metric, mode=args.mode),
        "metric": args.metric,
        "mode": args.mode,
        "predictions": predictions,
        "residuals": residuals,
    }
    _write_json(Path(args.out), payload)
    print(f"predicted {len(predictions)} checkpoints -> {args.out}")


def cmd_evaluate(args) -> None:
    genloss_path = Path(args.genloss) if args.genloss else None
    candidates = _build_candidates(Path(args.metrics), genloss_path, Path(args.labels))
    labeled = [c for c in candidates if c.post_rl_pass1 is not None]
    if len(labeled) < 4:
        raise ValueError(f"need >= 4 labeled checkpoints to evaluate, got {len(labeled)}")
    labeled.sort(key=lambda c: c.checkpoint_id)  # split protocol input order contract

    metric_names = ["pass1", f"passk:{args.k}"]
    if genloss_path is not None:
        metric_names += ["genloss", f"avg:passk:{args.k}+genloss"]

    ys = [c.post_rl_pass1 for c in labeled]
    results = {}
    for name in metric_names:
        predictions = calibrate_and_predict(labeled, name)
        points = {
            component_name(comp): [
                LabeledPoint(c.checkpoint_id, component_value(c, comp), c.post_rl_pass1)
                for c in labeled
            ]
            for comp in parse_metric(name)
        }
        if len(points) == 1:
            [single] = points.values()
            protocol = repeated_split_eval(single, args.n_fit, args.repeats, args.seed)
        else:
            protocol = repeated_split_eval_combined(points, args.n_fit, args.repeats, args.seed)
        results[name] = {
            "spearman": spearman([predictions[c.checkpoint_id] for c in labeled], ys),
            "mean_r2": protocol.mean_r2,
            "sd_r2": protocol.dispersion,
            "stderr_r2": protocol.stderr,
            "per_repeat_r2": list(protocol.per_repeat_r2),
            "skipped": protocol.skipped,
            "n_fit": protocol.n_fit,
            "n_val": protocol.n_val,
        }

    inputs = {"metrics": Path(args.metrics), "labels": Path(args.labels)}
    if genloss_path:
        inputs["genloss"] = genloss_path
    payload = {
        "metadata": _metadata(
            "evaluate",
            inputs,
            seed=args.seed,
            n_fit=args.n_fit,
            repeats=args.repeats,
            k=args.k,
        ),
        "metrics": results,
    }
    _write_json(Path(args.out), payload)
    print(f"evaluated {len(results)} predictors on {len(labeled)} checkpoints -> {args.out}")


def cmd_curate(args) -> None:
    examples = load("sft", args.sft)
    examples = measure_lengths(examples, length_fn=args.length_fn)
    mixture_parts = None
    if args.mixture:
        parts = []
        for chunk in args.mixture.split(","):
            strategy, _, count = chunk.partition(":")
            try:
                parts.append((strategy.strip(), int(count)))
            except ValueError:
                raise ValueError(
                    f"--mixture must look like 'shortest:100,longest:100', got {args.mixture!r}"
                ) from None
        mixture_parts = tuple(parts)
    spec = CurationSpec(
        strategy=args.strategy,
        count=args.count,
        seed=args.seed,
        mixture_parts=mixture_parts,
    )
    selected = select(examples, spec)
    dump("sft", selected, args.out)

    manifest = {
        "metadata": _metadata("curate", {"sft": Path(args.sft)}),
        "spec": {
            "strategy": spec.strategy,
            "count": spec.count,
            "seed": spec.seed,
            "mixture_parts": [list(p) for p in spec.mixture_parts or []],
        },
        "length_fn": args.length_fn,
        "dedup": "none",
        "selected_ids": [e.example_id for e in selected],
    }
    out = Path(args.out)
    if args.validation_fraction is not None:
        train, val = split_validation(selected, args.validation_fraction, seed=args.seed)
        train_path = out.with_name(out.stem + ".train.jsonl")
        val_path = out.with_name(out.stem + ".val.jsonl")
        dump("sft", train, train_path)
        dump("sft", val, val_path)
        manifest["split"] = {
            "validation_fraction": args.validation_fraction,
            "train_path": str(train_path),
            "validation_path": str(val_path),
            "train_ids": [e.example_id for e in train],
            "validation_ids": [e.example_id for e in val],
        }
    manifest_path = args.manifest or str(out.with_name(out.stem + ".curation-manifest.json"))
    _write_json(Path(manifest_path), manifest)
    print(f"selected {len(selected)} examples -> {args.out}")


def cmd_plot(args) -> None:
    points = _load_points_jsonl(Path(args.points))
    fit = None
    r2 = None
    if not args.no_fit:
        fit = fit_linear(points)
        try:
            r2 = r_squared(fit, points)
        except ValueError:
            r2 = None  # constant labels: annotate nothing
    meta = _metadata(
        "plot",
        {"points": Path(args.points)},
        x_label=args.x_label,
        y_label=args.y_label,
        fit=None
        if fit is None
        else {"slope": fit.slope, "intercept": fit.intercept},
    )
    svg = plot_scatter(
        points,
        fit,
        x_label=args.x_label,
        y_label=args.y_label,
        r2=r2,
        description=json.dumps(meta, sort_keys=True),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"plotted {len(points)} points -> {args.out}")


# --------------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlready",
        description="Predict post-RL outcomes of SFT checkpoints from pre-RL signals.",
    )
    parser.add_argument("--version", action="version", version=f"rlready {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="run a sampling job from a config file")
    p.add_argument("--config", required=True, help="flat JSON config mirroring the sampling job")
    p.add_argument("--store", required=True, help="record store directory")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("verify", help="score samples against gold answers")
    p.add_argument("--samples", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True, help="outcomes.jsonl to write")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("passk", help="aggregate outcomes into per-checkpoint metrics CSV")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ks", default="1,64", help="comma-separated k values (default 1,64)")
    p.add_argument("--agg", choices=("macro", "micro"), default="macro")
    p.set_defaults(func=cmd_passk)

    p = sub.add_parser("genloss", help="aggregate per-example losses into scalars")
    p.add_argument("--records", required=True, help="genloss.jsonl")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--mode", choices=("token_weighted", "per_example"), default="token_weighted"
    )
    p.set_defaults(func=cmd_genloss)

    p = sub.add_parser("rank", help="Pareto rule-out then rank by Pass@k")
    p.add_argument("--metrics", required=True, help="metrics CSV from passk")
    p.add_argument("--k", required=True, type=int, help="which Pass@k ranks survivors")
    p.add_argument("--genloss", help="genloss scalars JSON; omitting skips rule-out")
    p.add_argument("--epsilon", type=float, default=0.0, help="dominance margin (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("predict", help="calibrate on labeled checkpoints, predict the rest")
    p.add_argument("--metrics", required=True)
    p.add_argument("--labels", required=True, help="labels.jsonl with known post-RL Pass@1")
    p.add_argument(
        "--metric",
        required=True,
        help="pass1 | passk:K | genloss | avg:passk:K+genloss",
    )
    p.add_argument("--genloss", help="genloss scalars JSON (required for genloss metrics)")
    p.add_argument("--mode", choices=("avg", "joint"), default="avg")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="repeated-split R² and Spearman per predictor")
    p.add_argument("--metrics", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--genloss", help="genloss scalars JSON; adds the genloss predictors")
    p.add_argument("--n-fit", required=True, type=int, dest="n_fit")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--k", type=int, default=64, help="large k for the Pass@k predictor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("curate", help="select an SFT subset by response length")
    p.add_argument("--sft", required=True, help="sft.jsonl")
    p.add_argument("--strategy", required=True, choices=("shortest", "longest", "random", "mixture"))
    p.add_argument("--count", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--mixture", help="parts as 'shortest:100,longest:100' (mixture only)")
    p.add_argument(
        "--length-fn", choices=("chars", "whitespace_tokens"), default="whitespace_tokens"
    )
    p.add_argument(
        "--validation-fraction",
        type=float,
        help="also split the subset into train/validation files",
    )
    p.add_argument("--out", required=True, help="subset.jsonl to write")
    p.add_argument("--manifest", help="manifest path (default: <out>.curation-manifest.json)")
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("plot", help="scatter points with a fitted line as SVG")
    p.add_argument("--points", required=True, help="points.jsonl: {checkpoint_id, x, y}")
    p.add_argument("--out", required=True)
    p.add_argument("--x-label", default="pre-RL metric")
    p.add_argument("--y-label", default="post-RL Pass@1")
    p.add_argument("--no-fit", action="store_true", help="draw points only")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except SamplingIncomplete as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
