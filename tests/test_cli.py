"""End-to-end checks of the predict and evaluate subcommands through main().

Inputs are a tiny metrics CSV, labels JSONL and genloss JSON written to
tmp_path; the commands must exit 0 and write well-formed reports.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rlready.cli import METRICS_CSV_MARKER, main
from rlready.stats import LabeledPoint, repeated_split_eval, repeated_split_eval_combined

K = 64

# checkpoint -> (pass1, pass@64, gen_loss, post-RL pass1 or None)
CHECKPOINTS = {
    "ckpt-a": (0.10, 0.50, 1.20, 0.20),
    "ckpt-b": (0.15, 0.62, 1.05, 0.28),
    "ckpt-c": (0.22, 0.58, 0.98, 0.31),
    "ckpt-d": (0.30, 0.75, 0.90, 0.40),
    "ckpt-e": (0.35, 0.70, 0.80, 0.44),
    "ckpt-f": (0.41, 0.86, 0.76, 0.52),
    "ckpt-g": (0.25, 0.66, 1.00, None),
    "ckpt-h": (0.38, 0.80, 0.85, None),
}
LABELED = sorted(c for c, row in CHECKPOINTS.items() if row[3] is not None)


@pytest.fixture
def inputs(tmp_path):
    metrics = tmp_path / "metrics.csv"
    lines = [
        METRICS_CSV_MARKER,
        "# {}",
        f"checkpoint_id,n_benchmarks,n_tasks,min_n,max_n,pass1,pass@1,pass@{K}",
    ]
    for ckpt, (pass1, passk, _, _) in sorted(CHECKPOINTS.items()):
        lines.append(f"{ckpt},1,10,{K},{K},{pass1!r},{pass1!r},{passk!r}")
    metrics.write_text("\n".join(lines) + "\n", encoding="utf-8")

    labels = tmp_path / "labels.jsonl"
    labels.write_text(
        "".join(
            json.dumps({"checkpoint_id": c, "post_rl_pass1": CHECKPOINTS[c][3]}) + "\n"
            for c in LABELED
        ),
        encoding="utf-8",
    )

    genloss = tmp_path / "genloss.json"
    genloss.write_text(
        json.dumps({"gen_loss": {c: row[2] for c, row in CHECKPOINTS.items()}}),
        encoding="utf-8",
    )
    return {"metrics": metrics, "labels": labels, "genloss": genloss, "dir": tmp_path}


def run_predict(inputs, metric):
    out = inputs["dir"] / "predict.json"
    code = main(
        [
            "predict",
            "--metrics", str(inputs["metrics"]),
            "--labels", str(inputs["labels"]),
            "--genloss", str(inputs["genloss"]),
            "--metric", metric,
            "--out", str(out),
        ]
    )
    return code, out


@pytest.mark.parametrize("metric", ["pass1", f"avg:passk:{K}+genloss"])
def test_predict_exits_zero_and_reports_every_checkpoint(inputs, metric):
    code, out = run_predict(inputs, metric)
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["metric"] == metric
    assert sorted(report["predictions"]) == sorted(CHECKPOINTS)
    assert sorted(report["residuals"]) == LABELED
    for ckpt, residual in report["residuals"].items():
        expected = CHECKPOINTS[ckpt][3] - report["predictions"][ckpt]
        assert residual == pytest.approx(expected, abs=1e-12)


def test_predict_is_byte_identical_across_runs(inputs):
    _, out = run_predict(inputs, f"avg:passk:{K}+genloss")
    first = out.read_bytes()
    _, out = run_predict(inputs, f"avg:passk:{K}+genloss")
    assert out.read_bytes() == first


def test_evaluate_exits_zero_with_one_entry_per_predictor(inputs):
    out = inputs["dir"] / "evaluate.json"
    code = main(
        [
            "evaluate",
            "--metrics", str(inputs["metrics"]),
            "--labels", str(inputs["labels"]),
            "--genloss", str(inputs["genloss"]),
            "--n-fit", "3",
            "--repeats", "5",
            "--seed", "0",
            "--k", str(K),
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(report["metrics"]) == sorted(
        ["pass1", f"passk:{K}", "genloss", f"avg:passk:{K}+genloss"]
    )
    for entry in report["metrics"].values():
        assert -1.0 <= entry["spearman"] <= 1.0
        assert entry["n_fit"] == 3
        assert entry["n_val"] == len(LABELED) - 3
        assert len(entry["per_repeat_r2"]) + entry["skipped"] == 5


def test_evaluate_scores_every_predictor_out_of_sample(inputs):
    out = inputs["dir"] / "evaluate.json"
    argv = ["evaluate", "--metrics", str(inputs["metrics"]), "--labels", str(inputs["labels"]),
            "--genloss", str(inputs["genloss"]), "--n-fit", "3", "--repeats", "200",
            "--seed", "0", "--k", str(K), "--out", str(out)]
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["metrics"]
    points = {
        name: [LabeledPoint(c, CHECKPOINTS[c][col], CHECKPOINTS[c][3]) for c in LABELED]
        for name, col in (("pass1", 0), (f"passk:{K}", 1), ("genloss", 2))
    }
    expected = {name: repeated_split_eval(pts, 3, 200, 0) for name, pts in points.items()}
    # the composite fits each component on the fit subset only, never on the holdout
    expected[f"avg:passk:{K}+genloss"] = repeated_split_eval_combined(
        {name: points[name] for name in (f"passk:{K}", "genloss")}, 3, 200, 0
    )
    for name, protocol in expected.items():
        entry = report[name]
        assert entry["per_repeat_r2"] == list(protocol.per_repeat_r2), name
        assert entry["mean_r2"] == protocol.mean_r2, name
        assert entry["skipped"] == protocol.skipped, name


TASK = {"task_id": "t0", "problem": "p", "benchmark": "b"}
POINT = {"checkpoint_id": "ckpt-a", "x": 0.1, "y": 0.2}
# case -> (kind, lines of the JSONL input, what the one error line must name)
MALFORMED_LINES = {
    "task line not an object": ("tasks", [[1, 2]], ["line 1"]),
    "null task_id": ("tasks", [TASK, {**TASK, "task_id": None}], ["line 2", "'task_id'"]),
    "int benchmark": ("tasks", [{**TASK, "benchmark": 5}], ["line 1", "'benchmark'"]),
    "duplicate task": ("tasks", [TASK, {**TASK, "problem": "q"}], ["line 2", "line 1"]),
    "no tasks": ("tasks", [], ["no tasks"]),
    "int checkpoint_id": ("points", [{**POINT, "checkpoint_id": 5}], ["line 1", "'checkpoint_id'"]),
    "bool x": ("points", [POINT, {**POINT, "checkpoint_id": "b", "x": True}], ["line 2", "'x'"]),
    "string y": ("points", [{**POINT, "y": "0.2"}], ["line 1", "'y'"]),
    "duplicate checkpoint": ("points", [POINT, POINT], ["line 2", "line 1"]),
    "no points": ("points", [], ["no points"]),
}


@pytest.mark.parametrize("case", [*MALFORMED_LINES, "gen_loss not a map"])
def test_malformed_inputs_exit_one_with_one_error_line(inputs, case, capsys):
    d = inputs["dir"]
    named = []
    if case in MALFORMED_LINES:
        kind, rows, named = MALFORMED_LINES[case]
        path = d / f"{kind}.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        if kind == "tasks":
            config = {"endpoint_url": "http://127.0.0.1:9", "model_name": "m",
                      "tasks_path": str(path), "n": 1}
            (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = ["collect", "--config", str(d / "config.json"), "--store", str(d / "store")]
        else:
            argv = ["plot", "--points", str(path), "--out", str(d / "plot.svg")]
    else:
        (d / "bad-genloss.json").write_text(json.dumps({"gen_loss": [1]}), encoding="utf-8")
        argv = ["rank", "--metrics", str(inputs["metrics"]), "--k", str(K),
                "--genloss", str(d / "bad-genloss.json"), "--out", str(d / "rank.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: validation: "), err
    for part in named:
        assert part in err[0], err


@pytest.mark.parametrize(
    "key,value",
    [("n", "4"), ("endpoint_url", 5), ("temperature", "hot"), ("n", True),
     ("temperature", False), ("max_concurrency", 2.5), ("model_name", None),
     ("tasks_path", 5), ("temperature", float("nan")), ("retry_backoff", -1),
     ("request_timeout", 0), ("endpoint_url", "localhost:8000"), ("endpoint_url", "ftp://x"),
     ("endpoint_url", "http://"), ("endpoint_url", "http://127.0.0.1:9/a b")],
)
def test_collect_config_of_wrong_type_or_range_exits_one_with_one_error_line(
    inputs, key, value, capsys
):
    d = inputs["dir"]
    (d / "tasks.jsonl").write_text(
        json.dumps({"task_id": "t0", "problem": "p", "benchmark": "b"}) + "\n",
        encoding="utf-8",
    )
    config = {"endpoint_url": "http://127.0.0.1:9", "model_name": "m",
              "tasks_path": str(d / "tasks.jsonl"), "n": 1, key: value}
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    argv = ["collect", "--config", str(d / "config.json"), "--store", str(d / "store")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: validation: "), err
    assert key in err[0]
    assert not (d / "store").exists()


# ------------------------------------------------------------ golden pipeline

GOLDEN_K = 4
GOLDEN_N = 8
# checkpoint -> (gen-loss per-token NLL, post-RL pass1 or None)
GOLDEN_CHECKPOINTS = {
    "ckpt-0": (1.31, 0.18),
    "ckpt-1": (1.12, 0.27),
    "ckpt-2": (1.20, 0.22),
    "ckpt-3": (0.97, 0.36),
    "ckpt-4": (1.02, 0.31),
    "ckpt-5": (0.88, 0.45),
    "ckpt-6": (1.25, None),
    "ckpt-7": (0.93, None),
}
GOLDEN_TASKS = [("bench-a", "t0"), ("bench-a", "t1"), ("bench-a", "t2"),
                ("bench-b", "t0"), ("bench-b", "t1")]


def write_golden_inputs():
    """Tiny samples/gold/genloss/labels/points files in the current directory."""
    gold = [
        {"benchmark": b, "task_id": t, "answer": str(10 + i)}
        for i, (b, t) in enumerate(GOLDEN_TASKS)
    ]
    samples = []
    for ci, ckpt in enumerate(sorted(GOLDEN_CHECKPOINTS)):
        for ti, (b, t) in enumerate(GOLDEN_TASKS):
            correct = (ci * 3 + ti * 5 + ci * ti) % (GOLDEN_N + 1)
            for s in range(GOLDEN_N):
                answer = 10 + ti if s < correct else 99
                samples.append(
                    {"checkpoint_id": ckpt, "benchmark": b, "task_id": t,
                     "sample_index": s, "text": f"so the answer is \\boxed{{{answer}}}."}
                )
    genloss = [
        {"checkpoint_id": ckpt, "example_id": f"ex{e}",
         "nll_sum": round(loss * (20 + 7 * e) + 0.1 * e, 6), "token_count": 20 + 7 * e}
        for ckpt, (loss, _) in sorted(GOLDEN_CHECKPOINTS.items())
        for e in range(3)
    ]
    labels = [
        {"checkpoint_id": ckpt, "post_rl_pass1": label}
        for ckpt, (_, label) in sorted(GOLDEN_CHECKPOINTS.items())
        if label is not None
    ]
    points = [
        {"checkpoint_id": ckpt, "x": loss, "y": label}
        for ckpt, (loss, label) in sorted(GOLDEN_CHECKPOINTS.items())
        if label is not None
    ]
    for name, rows in (("samples.jsonl", samples), ("gold.jsonl", gold),
                       ("genloss.jsonl", genloss), ("labels.jsonl", labels),
                       ("points.jsonl", points)):
        with open(name, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)


GOLDEN_STEPS = [
    ["verify", "--samples", "samples.jsonl", "--gold", "gold.jsonl", "--out", "outcomes.jsonl"],
    ["passk", "--outcomes", "outcomes.jsonl", "--out", "metrics.csv", "--ks", f"1,2,{GOLDEN_K}"],
    ["genloss", "--records", "genloss.jsonl", "--out", "genloss.json"],
    ["rank", "--metrics", "metrics.csv", "--k", str(GOLDEN_K), "--genloss", "genloss.json",
     "--out", "rank.json"],
    ["rank", "--metrics", "metrics.csv", "--k", str(GOLDEN_K), "--genloss", "genloss.json",
     "--epsilon", "0.05", "--out", "rank-eps.json"],
    ["predict", "--metrics", "metrics.csv", "--labels", "labels.jsonl", "--genloss", "genloss.json",
     "--metric", f"avg:passk:{GOLDEN_K}+genloss", "--out", "predict-avg.json"],
    ["evaluate", "--metrics", "metrics.csv", "--labels", "labels.jsonl", "--genloss", "genloss.json",
     "--n-fit", "3", "--repeats", "50", "--seed", "0", "--k", str(GOLDEN_K),
     "--out", "evaluate.json"],
    ["plot", "--points", "points.jsonl", "--out", "plot.svg"],
]

GOLDEN_SHA256 = {
    "outcomes.jsonl": "cabf08cfb5da30988b6e2ea6b2938a48704542d6b01024649db7973ade4cc7f3",
    "outcomes.jsonl.meta.json": "37692790a48fdf79e8fc43341afe4803b8e4b4bc649100233eb038aff6299874",
    "metrics.csv": "bdfdb2b46336a4471a5634e4ae6b59ae66b6748681548cad498d8354eb508440",
    "genloss.json": "8cba1767fc838dca3546a8c36972c58dffa440d1e48f69798d3ce7b6beaa6adf",
    "rank.json": "82b77bd3e790cb6f1078d32f920b6e0b7f2a4a99fe5706e904dc9c9cad7396fb",
    "rank-eps.json": "9934b57b03597769e4a10b070a922f92f7d6be7dddc9ead7c1310b407b01f24f",
    "predict-avg.json": "893952055811664e0117659e7a19426ea01e328472fc2ae8b662f9cd7fd5a6a0",
    "evaluate.json": "7e6346b46f690a2152274f2e5dba61ada63ec1b079b3b556a6b694d19a29fd5e",
    "plot.svg": "aa6ccd21f1a554c6be0122af9e955b0524918fe55986562a5bd4d6ba65086ed1",
}


def test_golden_pipeline_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_golden_inputs()
    for argv in GOLDEN_STEPS:
        assert main(argv) == 0, argv
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
