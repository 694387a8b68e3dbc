"""rlready benchmark: offline, stdlib only, one workload per run.

    python3 bench/run.py --workload {collect,score,analyze} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. Each run is a fresh process that
imports rlready from src/, generates the workload's inputs from the seed in
the fixed working directory .bench_work/<workload>/ (report metadata embeds
input paths, so a fixed directory keeps reports byte-identical), runs the
user's own code path rlready.cli.main(argv) in-process, and checks every
output against a reference the generator computed on its own. It repeats
set-up and timed section as often as fits in S seconds (at least once) and
reports medians.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced iterations, installs timing shims on each layer for the traced ones,
writes the spans, one [iteration, name, start, end, parent, work] per
line, to .bench_work/spans-<workload>.jsonl and prints the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The line before it holds the
sha256 of every report the CLI wrote; a report that differs between
iterations, or from an earlier run of the same seed in this checkout, makes
the run incorrect.

See bench/README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True  # every run imports the same way and leaves nothing behind

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CONCURRENCY = 2

if not (ROOT / "src" / "rlready").is_dir() or not (ROOT / "tests" / "mockserver.py").is_file():
    sys.exit(f"error: {ROOT} holds no rlready source tree (src/rlready, tests/mockserver.py)")
sys.path.insert(0, str(ROOT / "src"))

from rlready import cli, stats  # noqa: E402
from rlready.records import RecordStore  # noqa: E402
from rlready.verifier import Sample  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]


def rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


class Iteration:
    """What one set-up plus timed section produced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        self.stage_s: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.items = 0  # samples written, scored or summarized
        self.reports: dict[str, str] = {}
        self.errors: list[str] = []
        self.mock: dict = {}  # the mock server's counters (collect)
        self.collect_start = 0.0  # monotonic clock, shared with the mock process
        self.protocols: dict = {}  # stats results (analyze)
        self.spans: list[tuple] = []


def run_stage(it: Iteration, stage: str, tracer, fn, *args):
    """Run one stage of the timed section; returns (ok, result).

    A CLI stage is ok when it exits 0, a library stage when it returns;
    a raised exception fails either. With a tracer, a CLI stage runs in a
    cli.<stage> span.
    """
    is_cli = fn is cli.main
    start = time.perf_counter()
    ok, result = False, None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            if tracer is not None and is_cli:
                result = tracer.call(f"cli.{stage}", fn, *args)
            else:
                result = fn(*args)
        ok = result == 0 if is_cli else True
        if not ok:
            it.errors.append(f"{stage}: exit code {result}")
    except (Exception, SystemExit) as exc:
        traceback.print_exc()
        it.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
    it.stage_s[stage] = time.perf_counter() - start
    it.attempted += 1
    it.failed += not ok
    return ok, result


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_metrics_csv(path: Path) -> dict[str, dict[str, float]]:
    """checkpoint -> column -> value, from the CLI's metrics CSV."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return {
        row["checkpoint_id"]: {k: float(v) for k, v in row.items() if k != "checkpoint_id"}
        for row in csv.DictReader(rows)
    }


def check_passk(metrics: dict, outcomes: dict[str, list[tuple[str, int]]], n: int, ks) -> list[str]:
    """Every pass@k and pass1 within 1e-12 of the exact fractions reference."""
    exact = workloads.ExactPassK()
    errors = []
    if sorted(metrics) != sorted(outcomes):
        return [f"passk: checkpoints {sorted(metrics)} != {sorted(outcomes)}"]
    for ckpt, rows in outcomes.items():
        values = exact.macro(rows, n, ks)
        got = [metrics[ckpt][f"pass@{k}"] for k in ks]
        got.append(metrics[ckpt]["pass1"])
        for k, want, have in zip(list(ks) + ["pass1"], values + values[:1], got):
            if abs(have - float(want)) > 1e-12:
                errors.append(f"passk: {ckpt} pass@{k} = {have!r}, exact {float(want)!r}")
    return errors


def check_genloss(path: Path, expected: dict[str, float]) -> tuple[list[str], dict[str, float]]:
    got = json.loads(path.read_text())["gen_loss"]
    errors = [
        f"genloss: {ckpt} = {got.get(ckpt)!r}, expected {want!r}"
        for ckpt, want in expected.items()
        if ckpt not in got or abs(got[ckpt] - want) > 1e-9 * max(1.0, abs(want))
    ]
    if set(got) != set(expected):
        errors.append(f"genloss: checkpoints {sorted(got)} != {sorted(expected)}")
    return errors, got


def check_rank(path: Path, metrics: dict, losses: dict[str, float], k: int) -> list[str]:
    """Recompute the Pareto rule-out on (pass1, gen_loss) and the Pass@k order."""
    report = json.loads(path.read_text())
    p1 = {c: m["pass1"] for c, m in metrics.items()}
    pk = {c: m[f"pass@{k}"] for c, m in metrics.items()}

    def dominates(b: str, a: str) -> bool:
        return p1[b] >= p1[a] and losses[b] <= losses[a] and (p1[b] > p1[a] or losses[b] < losses[a])

    dominated = {a for a in p1 if any(dominates(b, a) for b in p1 if b != a)}
    survivors = sorted((c for c in p1 if c not in dominated), key=lambda c: (-pk[c], c))
    errors = []
    if report["ranked"] != [[c, pk[c]] for c in survivors]:
        errors.append(f"rank: ranked {report['ranked']} != expected survivors {survivors}")
    if sorted(a for a, _ in report["ruled_out"]) != sorted(dominated):
        errors.append(f"rank: ruled out {report['ruled_out']} != {sorted(dominated)}")
    errors += [f"rank: {b} does not dominate {a}" for a, b in report["ruled_out"] if not dominates(b, a)]
    return errors


# ---------------------------------------------------------------- workloads


class Collect:
    """rlready collect into a store half filled during set-up, against the mock."""


    def __init__(self, seed: int):
        self.seed = seed
        self.filler = workloads.Filler(seed)
        self.tasks = workloads.collect_tasks(seed)
        self.due = (len(self.tasks) - len(self.tasks) // 2) * workloads.COLLECT_N
        self.expected: dict | None = None
        self.proc = subprocess.Popen(
            [sys.executable, "-B", str(HERE / "mock_server.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline())
        except ValueError:
            self.stop()
            raise RuntimeError("the mock server did not start") from None

    def control(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def prepare(self) -> None:
        with open("tasks.jsonl", "w", encoding="utf-8") as fh:
            for task in self.tasks:
                fh.write(json.dumps(task) + "\n")
        config = {
            "endpoint_url": f"http://127.0.0.1:{self.port}",
            "model_name": "bench-model",
            "checkpoint_id": workloads.COLLECT_CHECKPOINT,
            "tasks_path": "tasks.jsonl",
            "n": workloads.COLLECT_N,
            "max_concurrency": CONCURRENCY,
            "max_retries": 3,
            "retry_backoff": 0.001,
            "request_timeout": 30,
        }
        Path("config.json").write_text(json.dumps(config, indent=2) + "\n")
        prefill = [
            Sample(workloads.COLLECT_CHECKPOINT, bench, task, index, text, "stop")
            for bench, task, index, text in workloads.collect_prefill(self.filler, self.seed, self.tasks)
        ]
        RecordStore("store").append("samples", prefill)
        self.control("POST", "/bench/reset")

    def run(self, it: Iteration, tracer) -> None:
        it.collect_start = time.monotonic()
        run_stage(it, "collect", tracer, cli.main, ["collect", "--config", "config.json", "--store", "store"])
        it.attempted, it.failed = 0, 0  # collect counts samples, not stages

    def check(self, it: Iteration) -> None:
        it.mock = self.control("GET", "/bench/stats")
        if self.expected is None:
            self.expected = {
                (t["benchmark"], t["task_id"]): workloads.collect_expected(
                    self.filler, self.seed, t["problem"], workloads.COLLECT_N
                )
                for t in self.tasks
            }
        try:
            RecordStore("store").verify()
        except (OSError, ValueError) as exc:
            it.errors.append(f"collect: RecordStore.verify: {exc}")
        if Path("store", "failures.jsonl").exists():
            it.errors.append("collect: a failures sidecar was written")
        seen: dict[tuple, list[tuple[int, str]]] = {}
        with open("store/samples.jsonl", encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if obj["checkpoint_id"] != workloads.COLLECT_CHECKPOINT:
                    it.errors.append(f"collect: unexpected checkpoint {obj['checkpoint_id']!r}")
                    continue
                key = (obj["benchmark"], obj["task_id"])
                seen.setdefault(key, []).append((obj["sample_index"], workloads.text_digest(obj["text"])))
        new_keys = {(t["benchmark"], t["task_id"]) for t in self.tasks[len(self.tasks) // 2 :]}
        written = 0
        for key, want in self.expected.items():
            got = seen.get(key, [])
            indices = sorted(i for i, _ in got)
            if key in new_keys:
                written += len(set(indices) & set(range(workloads.COLLECT_N)))
            if indices != list(range(workloads.COLLECT_N)):
                it.errors.append(f"collect: {key} has sample indices {indices}")
            elif sorted(d for _, d in got) != want:
                it.errors.append(f"collect: {key} texts differ from the ones served")
        if set(seen) - set(self.expected):
            it.errors.append(f"collect: unexpected tasks {sorted(set(seen) - set(self.expected))}")
        it.items = written
        it.attempted, it.failed = self.due, self.due - written

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Score:
    """verify -> passk -> genloss -> rank on a pre-generated store of completions."""

    REPORTS = ("outcomes.jsonl", "outcomes.jsonl.meta.json", "metrics.csv", "genloss.json", "rank.json")
    K = workloads.SCORE_KS[-1]

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        self.ref = workloads.write_score_inputs(self.seed, Path("."))

    def run(self, it: Iteration, tracer) -> None:
        ks = ",".join(map(str, workloads.SCORE_KS))
        stages = (
            ("verify", ["verify", "--samples", "samples.jsonl", "--gold", "gold.jsonl", "--out", "outcomes.jsonl"]),
            ("passk", ["passk", "--outcomes", "outcomes.jsonl", "--out", "metrics.csv", "--ks", ks]),
            ("genloss", ["genloss", "--records", "genloss.jsonl", "--out", "genloss.json"]),
            ("rank", ["rank", "--metrics", "metrics.csv", "--k", str(self.K), "--genloss", "genloss.json", "--out", "rank.json"]),
        )
        for stage, argv in stages:
            if not run_stage(it, stage, tracer, cli.main, argv)[0]:
                break

    def check(self, it: Iteration) -> None:
        if it.failed:
            return
        c_ref = self.ref["c"]
        got = {}
        with open("outcomes.jsonl", encoding="utf-8") as fh:
            for line in fh:
                o = json.loads(line)
                got[(o["checkpoint_id"], o["benchmark"], o["task_id"])] = (o["n"], o["c"])
        want = {key: (workloads.SCORE_N, c) for key, c in c_ref.items()}
        if got != want:
            bad = sorted(key for key in set(got) | set(want) if got.get(key) != want.get(key))
            it.errors.append(f"verify: {len(bad)} task outcomes differ, first {bad[0]}: {got.get(bad[0])} != {want.get(bad[0])}")
        outcomes: dict[str, list[tuple[str, int]]] = {}
        for (ckpt, bench, _), c in sorted(c_ref.items()):
            outcomes.setdefault(ckpt, []).append((bench, c))
        metrics = read_metrics_csv(Path("metrics.csv"))
        it.errors += check_passk(metrics, outcomes, workloads.SCORE_N, workloads.SCORE_KS)
        errors, losses = check_genloss(Path("genloss.json"), self.ref["genloss"])
        it.errors += errors
        if not errors:
            it.errors += check_rank(Path("rank.json"), metrics, losses, self.K)
        it.items = len(c_ref) * workloads.SCORE_N
        it.reports = {name: sha256(Path(name)) for name in self.REPORTS}

    def stop(self) -> None:
        pass


class Analyze:
    """passk -> genloss -> rank at paper scale, then the repeated-split statistics."""

    REPORTS = ("metrics.csv", "genloss.json", "rank.json")
    K = workloads.ANALYZE_KS[-1]
    REPEATS = 2000

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        self.ref = workloads.write_analyze_inputs(self.seed, Path("."))

    def run(self, it: Iteration, tracer) -> None:
        ks = ",".join(map(str, workloads.ANALYZE_KS))
        stages = (
            ("passk", ["passk", "--outcomes", "outcomes.jsonl", "--out", "metrics.csv", "--ks", ks]),
            ("genloss", ["genloss", "--records", "genloss.jsonl", "--out", "genloss.json"]),
            ("rank", ["rank", "--metrics", "metrics.csv", "--k", str(self.K), "--genloss", "genloss.json", "--out", "rank.json"]),
        )
        for stage, argv in stages:
            if not run_stage(it, stage, tracer, cli.main, argv)[0]:
                return
        metrics = read_metrics_csv(Path("metrics.csv"))
        losses = json.loads(Path("genloss.json").read_text())["gen_loss"]
        labels = self.ref["labels"]
        ckpts = sorted(labels)
        x = {
            "pass1": {c: metrics[c]["pass1"] for c in ckpts},
            f"passk:{self.K}": {c: metrics[c][f"pass@{self.K}"] for c in ckpts},
            "genloss": losses,
        }
        points = {
            name: [stats.LabeledPoint(c, values[c], labels[c]) for c in ckpts]
            for name, values in x.items()
        }
        n_fit = len(ckpts) // 2
        for name, pts in points.items():
            ok, result = run_stage(
                it, f"split_eval:{name}", tracer,
                stats.repeated_split_eval, pts, n_fit, self.REPEATS, self.seed,
            )
            if ok:
                it.protocols[name] = result
        combined = {name: points[name] for name in (f"passk:{self.K}", "genloss")}
        ok, result = run_stage(
            it, "split_eval_combined", tracer,
            stats.repeated_split_eval_combined, combined, n_fit, self.REPEATS, self.seed,
        )
        if ok:
            it.protocols[f"avg:passk:{self.K}+genloss"] = result

    def check(self, it: Iteration) -> None:
        if it.failed:
            return
        metrics = read_metrics_csv(Path("metrics.csv"))
        it.errors += check_passk(metrics, self.ref["outcomes"], workloads.ANALYZE_N, workloads.ANALYZE_KS)
        errors, losses = check_genloss(Path("genloss.json"), self.ref["genloss"])
        it.errors += errors
        if not errors:
            it.errors += check_rank(Path("rank.json"), metrics, losses, self.K)
        for name, result in it.protocols.items():
            if result.repeats != self.REPEATS or len(result.per_repeat_r2) + result.skipped != self.REPEATS:
                it.errors.append(f"stats: {name} accounts for {len(result.per_repeat_r2)} + {result.skipped} repeats")
            if not math.isfinite(result.mean_r2):
                it.errors.append(f"stats: {name} mean R² is {result.mean_r2}")
        it.items = sum(len(rows) for rows in self.ref["outcomes"].values()) * workloads.ANALYZE_N
        it.reports = {name: sha256(Path(name)) for name in self.REPORTS}

    def stop(self) -> None:
        pass


WORKLOADS = {"collect": Collect, "score": Score, "analyze": Analyze}


# ------------------------------------------------------------------ metrics


def end_to_end(iterations: list[Iteration], setup_s: float) -> dict[str, float]:
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    return {
        "setup_s": setup_s,
        "wall_s": median(it.wall_s for it in iterations),
        "samples_per_s": median(rate(it.items, it.wall_s) for it in iterations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }


def per_layer(iterations: list[Iteration]) -> dict[str, float]:
    traced = [it for it in iterations if it.traced]
    untraced = [it for it in iterations if not it.traced]

    def durations(name: str, it: Iteration) -> list[float]:
        return [end - start for n, start, end, _, _ in it.spans if n == name]

    def pooled(name: str) -> list[float]:
        return [d for it in traced for d in durations(name, it)]

    def throughput(name: str, scale: float = 1.0, field: int = 0) -> float:
        work = seconds = 0.0
        for it in traced:
            for n, start, end, _, w in it.spans:
                if n == name:
                    work += (w[field] if isinstance(w, (list, tuple)) else w) * scale
                    seconds += end - start
        return rate(work, seconds)

    def growth(it: Iteration) -> float:
        d = durations("records.append", it)
        tenth = len(d) // 10
        return rate(median(d[-tenth:]), median(d[:tenth])) if tenth else 0.0

    def self_s(layer: str, it: Iteration) -> float:
        return sum(s for span, s in zip(it.spans, spans.self_times(it.spans)) if span[0].startswith(layer + "."))

    def mock(it: Iteration, key: str) -> float:
        return it.mock.get(key) or 0.0

    out = {f"cli.{s}_s": median(it.stage_s.get(s, 0.0) for it in traced)
           for s in ("collect", "verify", "passk", "genloss", "rank")}
    out.update({
        "sampler.requests": median(mock(it, "requests") for it in traced),
        "sampler.retry_ratio": median(
            rate(mock(it, "requests") - it.items, it.items) if it.mock else 0.0 for it in traced
        ),
        "sampler.connections_per_request": median(rate(mock(it, "connections"), mock(it, "requests")) for it in traced),
        "sampler.max_in_flight": median(mock(it, "max_in_flight") for it in traced),
        "sampler.first_request_s": median(
            mock(it, "first_request_at") - it.collect_start if it.mock.get("first_request_at") else 0.0
            for it in traced
        ),
        "sampler.backend_busy_share": median(
            rate(mock(it, "busy_s"), CONCURRENCY * it.stage_s.get("collect", 0.0)) for it in traced
        ),
        "records.append_calls": median(len(durations("records.append", it)) for it in traced),
        "records.append_ms_p50": 1e3 * percentile(pooled("records.append"), 0.5),
        "records.append_ms_p90": 1e3 * percentile(pooled("records.append"), 0.9),
        "records.append_growth": median(growth(it) for it in traced),
        "records.load_mb_per_s": throughput("records.load", 1e-6, 0),
        "records.load_records_per_s": throughput("records.load", 1.0, 1),
        "verifier.score_calls": median(len(durations("verifier.score", it)) for it in traced),
        "verifier.score_ms_p50": 1e3 * percentile(pooled("verifier.score"), 0.5),
        "verifier.score_ms_p90": 1e3 * percentile(pooled("verifier.score"), 0.9),
        "verifier.extract_mb_per_s": throughput("verifier.extract_boxed", 1e-6),
        "passk.aggregate_ms_p50": 1e3 * percentile(pooled("passk.aggregate"), 0.5),
        "predict.rank_ms": 1e3 * median(pooled("predict.rank_candidates")),
        "stats.split_eval_repeats_per_s": throughput("stats.repeated_split_eval"),
        "stats.combined_repeats_per_s": throughput("stats.repeated_split_eval_combined"),
    })
    for layer in ("records", "verifier", "passk", "stats", "sampler"):
        out[f"{layer}.self_s"] = median(self_s(layer, it) for it in traced)
    out["trace.overhead_s"] = median(it.wall_s for it in traced) - median(it.wall_s for it in untraced)
    return out


# --------------------------------------------------------------------- main


def check_reports(name: str, seed: int, iterations: list[Iteration]) -> tuple[dict, list[str]]:
    """Reports must be byte-identical across iterations and earlier runs of this seed."""
    first = iterations[0].reports
    errors = [
        f"reports: iteration {i} differs from iteration 0 in {sorted(k for k in first if it.reports.get(k) != first[k])}"
        for i, it in enumerate(iterations)
        if it.reports != first
    ]
    if first and not errors:
        record = WORK / "report-sha256" / f"{name}-{seed}.json"
        if record.exists():
            earlier = json.loads(record.read_text())
            if earlier != first:
                errors.append(f"reports: differ from the earlier run recorded in {record.relative_to(ROOT)}")
        else:
            record.parent.mkdir(parents=True, exist_ok=True)
            record.write_text(json.dumps(first, indent=2, sort_keys=True) + "\n")
    return first, errors


def main() -> int:
    parser = argparse.ArgumentParser(description="rlready benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workdir = WORK / args.workload
    iterations: list[Iteration] = []
    setups: list[float] = []
    try:
        one_time_setup = time.perf_counter() - START
        loop_start = time.perf_counter()
        while True:
            it = Iteration(traced=bool(args.trace) and len(iterations) % 2 == 1)
            it_start = start = time.perf_counter()
            os.chdir(ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            os.chdir(workdir)
            workload.prepare()
            setups.append(time.perf_counter() - start)

            tracer = spans.Tracer() if it.traced else None
            if tracer:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.run(it, tracer)
            finally:
                it.wall_s = time.perf_counter() - start
                if tracer:
                    tracer.uninstall()
                    it.spans = tracer.spans
            workload.check(it)
            iterations.append(it)
            # stop before an iteration that would overrun the measuring time
            now = time.perf_counter()
            enough = now + (now - it_start) - loop_start > args.seconds
            if enough and len(iterations) >= 1 + args.trace:
                break
    finally:
        os.chdir(ROOT)
        workload.stop()

    reports, errors = check_reports(args.workload, args.seed, iterations)
    errors += [e for it in iterations for e in it.errors]
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    if args.trace:
        with open(WORK / f"spans-{args.workload}.jsonl", "w", encoding="utf-8") as fh:
            for i, it in enumerate(iterations):
                for span in it.spans:
                    fh.write(json.dumps([i, *span]) + "\n")
        values = per_layer(iterations)
        section = "per_layer"
    else:
        values = end_to_end(iterations, one_time_setup + median(setups))
        section = "end_to_end"
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in benchmark[section]}
    print(json.dumps({
        "iterations": [[it.traced, round(it.wall_s, 4)] for it in iterations],
        "report_sha256": reports,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(it.attempted for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
