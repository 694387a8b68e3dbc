"""Command-line surface: collect, verify, passk, genloss, rank, predict,
evaluate, curate, plot.

Every report embeds the provenance needed to re-run it: tool version, seed,
k, modes, and sha256 hashes of the input files. Each command names its input
files in the parser, and hashes them after it has read them and before it
writes its first output (_metadata), so an output written over an input
never stands in for it. An input that is a FIFO, socket or character device
is refused before anything is read, and every output is written whole
(records.write_whole). Randomized commands require an explicit --seed;
there are no default seeds. Outputs are deterministic: identical inputs and
flags produce identical bytes.

verify and genloss fold an input file of at least 2 parts.PART_BYTES in
parts, one per usable CPU, each part but the first in a forked worker
(parts.run), and evaluate scores its split repeats in slices the same way
(stats.split_eval); wherever the parts cannot vouch for the serial result,
the serial path runs instead, so every report and error line is the serial
one. No worker prints or outlives main().

Exit codes: 0 success, 1 validation error, 2 I/O error. Errors print one
machine-parsable line: "error: <category>: <message>".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from array import array
from dataclasses import MISSING, fields, replace
from itertools import groupby
from pathlib import Path
from stat import S_ISCHR, S_ISFIFO, S_ISSOCK

from . import __version__, parts
from .curate import CurationSpec, measure_lengths, select, split_validation
from .passk import (
    CheckpointMetrics,
    TaskOutcome,
    aggregate,
    metrics_csv,
    read_metrics_csv,
)
from .plotting import plot_scatter
from .predict import (
    METRIC_GRAMMAR,
    calibrate_and_predict,
    component_value,
    parse_metric,
    rank_candidates,
)
from .records import (
    RecordStore,
    dump,
    file_sha256,
    finite_float,
    genloss_file_by_checkpoint,
    iter_part,
    iter_records,
    load,
    read_json,
    write_json,
    write_whole,
)
from .sampler import SamplingIncomplete, SamplingJob, sample_completions
from .stats import fit_linear, r_squared, spearman, split_eval
from .verifier import RULESET_VERSION, score

# collect's config keys are the SamplingJob fields, except that the config
# names the tasks file tasks_path; a field without a default is required
_CONFIG_REQUIRED = {
    ("tasks_path" if f.name == "tasks" else f.name): (
        f.default is MISSING and f.default_factory is MISSING
    )
    for f in fields(SamplingJob)
}


def _refuse_a_stream(path) -> None:
    """An OSError if path is a FIFO, socket or character device, which a
    read could wait on forever and a second read could not see again."""
    mode = os.stat(path).st_mode if os.path.exists(path) else 0
    if S_ISFIFO(mode) or S_ISSOCK(mode) or S_ISCHR(mode):
        raise OSError(f"{path}: not a regular file")


def _metadata(args, **extra) -> dict:
    md = {
        "tool": "rlready",
        "tool_version": __version__,
        "command": args.command,
        # each input's role is the name of the option that gives its path;
        # called after the command has read its inputs and before its first
        # write, so an output written over an input never stands in for it
        "inputs": {
            role: {"path": str(Path(path)), "sha256": file_sha256(path)}
            for role in sorted(args.inputs)
            if (path := getattr(args, role))
        },
    }
    md.update(extra)
    return md


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--ks must be comma-separated integers, got {text!r}") from None
    if not ks:
        raise ValueError("--ks must name at least one k")
    return ks


def _load_genloss_scalars(path: Path) -> dict[str, float]:
    payload = read_json(path)
    gen_loss = payload.get("gen_loss") if isinstance(payload, dict) else None
    if not isinstance(gen_loss, dict):
        raise ValueError(f"{path}: expected a genloss report with a 'gen_loss' map")
    scalars = {}
    for ckpt, value in gen_loss.items():
        # exact classes: a JSON true is a bool, never a number
        number = finite_float(value) if value.__class__ in (int, float) else None
        if number is None:
            raise ValueError(f"{path}: gen_loss of {ckpt!r} must be a finite number")
        if number < 0:
            raise ValueError(f"{path}: gen_loss of {ckpt!r} must be >= 0, got {number}")
        scalars[ckpt] = number
    return scalars


def _read_checkpoints(metrics_path: Path, genloss_path: Path | None) -> list[CheckpointMetrics]:
    """The metrics CSV's checkpoints sorted by id, each with its gen_loss if
    the genloss report names it."""
    metrics = read_metrics_csv(metrics_path)
    gen_loss = _load_genloss_scalars(genloss_path) if genloss_path else {}
    checkpoints = [
        replace(m, gen_loss=gen_loss[m.checkpoint_id]) if m.checkpoint_id in gen_loss else m
        for m in metrics
    ]
    return sorted(checkpoints, key=lambda m: m.checkpoint_id)


# ------------------------------------------------------------------- commands


def cmd_collect(args) -> None:
    config = read_json(args.config)
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: config must be a flat JSON object")
    unknown = sorted(set(config) - set(_CONFIG_REQUIRED))
    if unknown:
        raise ValueError(f"{args.config}: unknown keys: {', '.join(unknown)}")
    for key, required in _CONFIG_REQUIRED.items():
        if required and key not in config:
            raise ValueError(f"{args.config}: missing key {key!r}")
    # SamplingJob checks the type and range of every other value
    if not isinstance(config["tasks_path"], str):
        raise ValueError(f"{args.config}: 'tasks_path' must be str, got {config['tasks_path']!r}")
    tasks_path = Path(config.pop("tasks_path"))
    _refuse_a_stream(tasks_path)  # main checks the inputs named by options only
    tasks = load("tasks", tasks_path)
    if not tasks:
        raise ValueError(f"{tasks_path}: no tasks")
    job = SamplingJob(tasks=tasks, **config)
    store = RecordStore(args.store)
    written = sample_completions(job, store)
    print(f"wrote {written} samples to {store.path('samples')}")


def _score_runs(samples, gold_records: dict, totals: dict, missing: set) -> None:
    """Score each run of one (checkpoint, benchmark, task) key in samples,
    adding its (n, c) to totals[key]; a key with no gold goes to missing."""
    # the sampler appends whole tasks, so each run of one key is scored as
    # the stream leaves it; a key split into several runs (a resumed collect,
    # or a part boundary) adds up their (n, c), as c is a per-sample sum
    for key, run in groupby(samples, key=lambda s: (s.checkpoint_id, s.benchmark_id, s.task_id)):
        gold = gold_records.get(key[1:])
        if gold is None:
            missing.add(key)  # reported after the stream, so a bad line wins
            continue
        outcome = score(list(run), gold)
        n, c = totals.get(key, (0, 0))
        totals[key] = (n + outcome.n, c + outcome.c)


def _fold_part(path, start: int, end: int, gold_records: dict) -> tuple[dict, set, bytes]:
    """The totals, missing keys and packed key hashes of one part of a samples file."""
    totals, missing, hashes = {}, set(), array("q")
    _score_runs(iter_part("samples", path, start, end, hashes), gold_records, totals, missing)
    return totals, missing, hashes.tobytes()


def _fold_in_parts(path, gold_records: dict) -> tuple[dict, set] | None:
    """The serial fold's totals and missing keys of the samples file at path,
    folded in one part per usable CPU, each of at least parts.PART_BYTES, by
    parts.run.

    None where the serial fold must decide: an invalid line or a \\r that
    ends no \\r\\n in some part (iter_part), a key hash seen twice within a
    part or across parts, a worker that failed or died, no safe fork, fewer
    than 2 parts, or a path that is not a regular file.
    """
    try:
        ranges = parts.file_ranges(path)
    except (OSError, ValueError):
        return None
    results = ranges and parts.run(
        _fold_part, [(path, start, end, gold_records) for start, end in ranges]
    )
    if not results:
        return None
    totals: dict = {}
    missing: set = set()
    hashes = array("q")
    for part_totals, part_missing, part_hashes in results:
        for key, (n, c) in part_totals.items():
            total_n, total_c = totals.get(key, (0, 0))
            totals[key] = (total_n + n, total_c + c)
        missing |= part_missing
        hashes.frombytes(part_hashes)
    if len(set(hashes)) != len(hashes):
        return None  # a duplicate key, or a collision iter_records confirms
    return totals, missing


def cmd_verify(args) -> None:
    gold_records = {(g.benchmark_id, g.task_id): g for g in load("gold", args.gold)}
    folded = _fold_in_parts(args.samples, gold_records)
    if folded is None:
        totals, missing = {}, set()
        _score_runs(iter_records("samples", args.samples), gold_records, totals, missing)
    else:
        totals, missing = folded
    if missing:
        _, bench, task = min(missing)
        raise ValueError(f"no gold answer for task ({bench!r}, {task!r})")
    outcomes = [TaskOutcome(*key, n, c) for key, (n, c) in sorted(totals.items())]
    meta = _metadata(args, verifier_ruleset_version=RULESET_VERSION, n_outcomes=len(outcomes))
    meta_path = Path(str(args.out) + ".meta.json")
    meta_path.unlink(missing_ok=True)  # so no crash leaves new outcomes beside an old meta
    dump("outcomes", outcomes, args.out)
    write_json(meta_path, meta)
    print(f"scored {len(outcomes)} tasks -> {args.out}")


def cmd_passk(args) -> None:
    ks = _parse_ks(args.ks)
    outcomes = load("outcomes", args.outcomes)
    by_checkpoint: dict[str, list] = {}
    for o in outcomes:
        by_checkpoint.setdefault(o.checkpoint_id, []).append(o)
    rows = []
    curves: dict = {}  # one Pass@k curve per distinct (n, c) for every checkpoint
    for ckpt, outs in sorted(by_checkpoint.items()):
        metrics = aggregate(outs, ks, mode=args.agg, curves=curves)
        rows.append(
            {
                "checkpoint_id": ckpt,
                "n_benchmarks": len({o.benchmark_id for o in outs}),
                "n_tasks": len(outs),
                "min_n": min(o.n for o in outs),
                "max_n": max(o.n for o in outs),
                "pass1": metrics.pass1,
                "passk": list(metrics.passk.values),
            }
        )
    meta = _metadata(args, ks=ks, aggregation=args.agg)
    write_whole(args.out, [metrics_csv(rows, ks, meta)])
    print(f"wrote metrics for {len(rows)} checkpoints -> {args.out}")


def cmd_genloss(args) -> None:
    scalars = genloss_file_by_checkpoint(args.records, mode=args.mode)
    payload = {
        "metadata": _metadata(args, mode=args.mode),
        "gen_loss": scalars,
    }
    write_json(args.out, payload)
    print(f"aggregated gen_loss for {len(scalars)} checkpoints -> {args.out}")


def cmd_rank(args) -> None:
    genloss_path = Path(args.genloss) if args.genloss else None
    checkpoints = _read_checkpoints(Path(args.metrics), genloss_path)
    report = rank_candidates(
        checkpoints, k=args.k, rule_out=genloss_path is not None, epsilon=args.epsilon
    )
    payload = {
        "metadata": _metadata(args, k_used=args.k, epsilon=args.epsilon),
        "k_used": report.k_used,
        "ruled_out": [list(pair) for pair in report.ruled_out],
        "ranked": [[ckpt, value] for ckpt, value in report.ranked],
    }
    if genloss_path is None:
        payload["warning"] = (
            "no generalization-loss input: Pareto rule-out stage skipped"
        )
    write_json(args.out, payload)
    print(
        f"ranked {len(report.ranked)} checkpoints "
        f"({len(report.ruled_out)} ruled out) -> {args.out}"
    )


def cmd_predict(args) -> None:
    parse_metric(args.metric)  # fail fast on a bad spec
    genloss_path = Path(args.genloss) if args.genloss else None
    checkpoints = _read_checkpoints(Path(args.metrics), genloss_path)
    labels = {rec.checkpoint_id: rec.post_rl_pass1 for rec in load("labels", args.labels)}
    predictions = calibrate_and_predict(checkpoints, labels, args.metric)
    residuals = {ckpt: label - predictions[ckpt] for ckpt, label in labels.items()}
    payload = {
        "metadata": _metadata(args, metric=args.metric),
        "metric": args.metric,
        "predictions": predictions,
        "residuals": residuals,
    }
    write_json(args.out, payload)
    print(f"predicted {len(predictions)} checkpoints -> {args.out}")


def cmd_evaluate(args) -> None:
    genloss_path = Path(args.genloss) if args.genloss else None
    checkpoints = _read_checkpoints(Path(args.metrics), genloss_path)
    labels = {rec.checkpoint_id: rec.post_rl_pass1 for rec in load("labels", args.labels)}
    # sorted by id, as the split protocol's input order contract asks
    labeled = [m for m in checkpoints if m.checkpoint_id in labels]
    if len(labeled) < 4:
        raise ValueError(f"need >= 4 labeled checkpoints to evaluate, got {len(labeled)}")

    metric_names = ["pass1", f"passk:{args.k}"]
    if genloss_path is not None:
        metric_names += ["genloss", f"avg:passk:{args.k}+genloss"]

    ys = [labels[m.checkpoint_id] for m in labeled]
    predictions = [calibrate_and_predict(labeled, labels, name) for name in metric_names]
    # one predictor is one x column per component, all scored on the same splits
    predictors = [
        [[component_value(m, comp) for m in labeled] for comp in parse_metric(name)]
        for name in metric_names
    ]
    protocols = split_eval(predictors, ys, args.n_fit, args.repeats, args.seed)
    results = {}
    for name, predicted, protocol in zip(metric_names, predictions, protocols):
        if protocol.skipped:
            print(
                f"warning: {name}: {protocol.skipped} of {args.repeats} repeats "
                "drew degenerate splits and were skipped",
                file=sys.stderr,
            )
        results[name] = {
            "spearman": spearman([predicted[m.checkpoint_id] for m in labeled], ys),
            "mean_r2": protocol.mean_r2,
            "sd_r2": protocol.dispersion,
            "stderr_r2": protocol.stderr,
            "per_repeat_r2": list(protocol.per_repeat_r2),
            "skipped": protocol.skipped,
            "n_fit": protocol.n_fit,
            "n_val": protocol.n_val,
        }

    payload = {
        "metadata": _metadata(
            args, seed=args.seed, n_fit=args.n_fit, repeats=args.repeats, k=args.k
        ),
        "metrics": results,
    }
    write_json(args.out, payload)
    print(f"evaluated {len(results)} predictors on {len(labeled)} checkpoints -> {args.out}")


def cmd_curate(args) -> None:
    examples = load("sft", args.sft)
    examples = measure_lengths(examples, length_fn=args.length_fn)
    mixture_parts = None
    if args.mixture:
        pairs = []
        for chunk in args.mixture.split(","):
            strategy, _, count = chunk.partition(":")
            try:
                pairs.append((strategy.strip(), int(count)))
            except ValueError:
                raise ValueError(
                    f"--mixture must look like 'shortest:100,longest:100', got {args.mixture!r}"
                ) from None
        mixture_parts = tuple(pairs)
    spec = CurationSpec(
        strategy=args.strategy,
        count=args.count,
        seed=args.seed,
        mixture_parts=mixture_parts,
    )
    selected = select(examples, spec)
    manifest = {
        "metadata": _metadata(args),  # before --out, which may name the input, is written
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
    dump("sft", selected, args.out)
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
    write_json(manifest_path, manifest)
    print(f"selected {len(selected)} examples -> {args.out}")


def cmd_plot(args) -> None:
    points = load("points", args.points)
    if not points:
        raise ValueError(f"{args.points}: no points")
    fit = None
    r2 = None
    if not args.no_fit:
        fit = fit_linear(points)
        try:
            r2 = r_squared(fit, points)
        except ValueError:
            r2 = None  # constant labels: annotate nothing
    meta = _metadata(
        args,
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
    write_whole(args.out, [svg])
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
    p.add_argument(
        "--config",
        required=True,
        help="flat JSON object; required keys: "
        + ", ".join(key for key, required in _CONFIG_REQUIRED.items() if required)
        + "; optional keys: "
        + ", ".join(key for key, required in _CONFIG_REQUIRED.items() if not required)
        + '. tasks_path names a JSONL file of {"task_id": str, "problem": str, '
        '"benchmark": str} lines, unique by (benchmark, task_id)',
    )
    p.add_argument("--store", required=True, help="record store directory")
    p.set_defaults(func=cmd_collect, inputs=())

    p = sub.add_parser(
        "verify",
        help="score samples against gold answers; folds a samples file of "
        f"{2 * parts.PART_BYTES >> 20} MiB or more in parts, up to one per CPU; holds one "
        "task group of samples per process, "
        "one (n, c) per task and one 8 B hash per sample key",
    )
    p.add_argument("--samples", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", required=True, help="outcomes.jsonl to write")
    p.set_defaults(func=cmd_verify, inputs=("samples", "gold"))

    p = sub.add_parser("passk", help="aggregate outcomes into per-checkpoint metrics CSV")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--ks", default="1,64", help="comma-separated k values (default 1,64)")
    p.add_argument("--agg", choices=("macro", "micro"), default="macro")
    p.set_defaults(func=cmd_passk, inputs=("outcomes",))

    p = sub.add_parser("genloss", help="aggregate per-example losses into scalars")
    p.add_argument("--records", required=True, help="genloss.jsonl")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--mode", choices=("token_weighted", "per_example"), default="token_weighted"
    )
    p.set_defaults(func=cmd_genloss, inputs=("records",))

    p = sub.add_parser("rank", help="Pareto rule-out then rank by Pass@k")
    p.add_argument("--metrics", required=True, help="metrics CSV from passk")
    p.add_argument("--k", required=True, type=int, help="which Pass@k ranks survivors")
    p.add_argument("--genloss", help="genloss scalars JSON; omitting skips rule-out")
    p.add_argument("--epsilon", type=float, default=0.0, help="dominance margin (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank, inputs=("metrics", "genloss"))

    p = sub.add_parser("predict", help="calibrate on labeled checkpoints, predict the rest")
    p.add_argument("--metrics", required=True)
    p.add_argument("--labels", required=True, help="labels.jsonl with known post-RL Pass@1")
    p.add_argument("--metric", required=True, help=METRIC_GRAMMAR)
    p.add_argument("--genloss", help="genloss scalars JSON (required for genloss metrics)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict, inputs=("metrics", "labels", "genloss"))

    p = sub.add_parser("evaluate", help="repeated-split R² and Spearman per predictor")
    p.add_argument("--metrics", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--genloss", help="genloss scalars JSON; adds the genloss predictors")
    p.add_argument("--n-fit", required=True, type=int, dest="n_fit")
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--k", type=int, default=64, help="large k for the Pass@k predictor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate, inputs=("metrics", "labels", "genloss"))

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
    p.set_defaults(func=cmd_curate, inputs=("sft",))

    p = sub.add_parser("plot", help="scatter points with a fitted line as SVG")
    p.add_argument(
        "--points",
        required=True,
        help='points.jsonl of {"checkpoint_id": str, "x": number, "y": number} lines, '
        "one per checkpoint",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--x-label", default="pre-RL metric")
    p.add_argument("--y-label", default="post-RL Pass@1")
    p.add_argument("--no-fit", action="store_true", help="draw points only")
    p.set_defaults(func=cmd_plot, inputs=("points",))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for path in filter(None, (getattr(args, role) for role in args.inputs)):
            _refuse_a_stream(path)
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
