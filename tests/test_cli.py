"""End-to-end checks of the predict and evaluate subcommands through main().

Inputs are a tiny metrics CSV, labels JSONL and genloss JSON written to
tmp_path; the commands must exit 0 and write well-formed reports.
"""

import gc
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

import reference_records as reference
from mockserver import run_server
from rlready import cli, passk, stats
from rlready.cli import main
from rlready.passk import METRICS_CSV_MARKER, TaskOutcome
from rlready.records import dump, load
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


def test_evaluate_draws_each_split_once_for_every_predictor(inputs, monkeypatch):
    drawn = []
    repeat_rng = stats._repeat_rng

    def counting(seed, repeat_index):
        drawn.append((seed, repeat_index))
        return repeat_rng(seed, repeat_index)

    monkeypatch.setattr(stats, "_repeat_rng", counting)
    out = inputs["dir"] / "evaluate.json"
    argv = ["evaluate", "--metrics", str(inputs["metrics"]), "--labels", str(inputs["labels"]),
            "--genloss", str(inputs["genloss"]), "--n-fit", "3", "--repeats", "30",
            "--seed", "4", "--k", str(K), "--out", str(out)]
    assert main(argv) == 0
    assert len(json.loads(out.read_text(encoding="utf-8"))["metrics"]) == 4
    assert drawn == [(4, r) for r in range(30)]


def test_evaluate_reports_a_calibration_error_before_a_bad_n_fit(inputs, capsys):
    # every predictor is calibrated before the splits are drawn, so the
    # genloss predictor's missing checkpoint is named, not the --n-fit range
    inputs["genloss"].write_text(
        json.dumps({"gen_loss": {c: row[2] for c, row in CHECKPOINTS.items() if c != "ckpt-c"}}),
        encoding="utf-8",
    )
    argv = ["evaluate", "--metrics", str(inputs["metrics"]), "--labels", str(inputs["labels"]),
            "--genloss", str(inputs["genloss"]), "--n-fit", "9", "--repeats", "5",
            "--seed", "0", "--k", str(K), "--out", str(inputs["dir"] / "evaluate.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: checkpoint 'ckpt-c' has no gen_loss"
    ]


TASK = {"task_id": "t0", "problem": "p", "benchmark": "b"}
POINT = {"checkpoint_id": "ckpt-a", "x": 0.1, "y": 0.2}
LOSS = {"checkpoint_id": "ckpt-a", "example_id": "e0", "nll_sum": 2.5, "token_count": 3}
HUGE = "1" + "0" * 400  # an integer beyond the float range
# case -> (kind, lines of the JSONL input as objects, raw text or raw bytes,
# what the one error line must name)
MALFORMED_LINES = {
    "task line not an object": ("tasks", [[1, 2]], ["line 1"]),
    "null task_id": ("tasks", [TASK, {**TASK, "task_id": None}], ["line 2", "'task_id'"]),
    "int benchmark": ("tasks", [{**TASK, "benchmark": 5}], ["line 1", "'benchmark'"]),
    "duplicate task": ("tasks", [TASK, {**TASK, "problem": "q"}], ["line 2", "line 1"]),
    "no tasks": ("tasks", [], ["no tasks"]),
    "int checkpoint_id": ("points", [{**POINT, "checkpoint_id": 5}], ["line 1", "'checkpoint_id'"]),
    "bool x": ("points", [POINT, {**POINT, "checkpoint_id": "b", "x": True}], ["line 2", "'x'"]),
    "string y": ("points", [{**POINT, "y": "0.2"}], ["line 1", "'y'"]),
    "infinite x": ("points", ['{"checkpoint_id": "a", "x": Infinity, "y": 0.2}'],
                   ["line 1", "'x'", "finite"]),
    "duplicate checkpoint": ("points", [POINT, POINT], ["line 2", "line 1"]),
    "constant x": ("points", [{**POINT, "checkpoint_id": f"c{i}", "y": i / 4} for i in range(3)],
                   ["degenerate fit", "x=0.1"]),
    "no points": ("points", [], ["no points"]),
    "huge nll_sum": ("genloss", [LOSS, json.dumps(LOSS).replace("2.5", HUGE)],
                     ["line 2", "'nll_sum'", "finite"]),
    "overflowing nll_sum": ("genloss", [json.dumps(LOSS).replace("2.5", "1e400")],
                            ["line 1", "'nll_sum'", "finite"]),
    "infinite nll_sum": ("genloss", [json.dumps(LOSS).replace("2.5", "Infinity")],
                         ["line 1", "'nll_sum'", "finite"]),
    "NaN post_rl_pass1": ("labels", ['{"checkpoint_id": "ckpt-a", "post_rl_pass1": NaN}'],
                          ["line 1", "'post_rl_pass1'", "finite"]),
    "huge post_rl_pass1": ("labels", ['{"checkpoint_id": "ckpt-a", "post_rl_pass1": %s}' % HUGE],
                           ["line 1", "'post_rl_pass1'", "finite"]),
    "byte 0xff in a gold line": ("gold", [b"\xff"], ["gold.jsonl: line 1: not valid UTF-8"]),
    "byte 0xff in a label line": (
        "labels", [b'{"checkpoint_id": "ckpt-\xff", "post_rl_pass1": 0.2}'],
        ["labels.jsonl: line 1: not valid UTF-8"]),
    "byte 0xff in a task line": ("tasks", [TASK, b'{"task_id": "t1", "problem": "\xff"}'],
                                 ["tasks.jsonl: line 2: not valid UTF-8"]),
    "byte 0xff in genloss line 2": (
        "genloss", [LOSS, json.dumps({**LOSS, "example_id": "e1"}).encode() + b"\xff"],
        ["genloss.jsonl: line 2: not valid UTF-8"]),
    # beyond the first buffer the reader decodes, after lines of two-byte characters
    "byte 0xff in genloss line 301": (
        "genloss",
        [json.dumps({**LOSS, "example_id": f"e{i}\u00e9"}, ensure_ascii=False).encode()
         for i in range(300)] + [b"\xff"],
        ["genloss.jsonl: line 301: not valid UTF-8"]),
    "label of an unknown checkpoint": (
        "labels",
        [{"checkpoint_id": "ckpt-a", "post_rl_pass1": 0.2},
         {"checkpoint_id": "ckpt-z", "post_rl_pass1": 0.3}],
        ["labels name unknown checkpoints: ckpt-z"],
    ),
}
# case -> (command, genloss report text, what the one error line must name)
MALFORMED_GENLOSS_REPORTS = {
    "gen_loss not a map": ("rank", json.dumps({"gen_loss": [1]}), []),
    "bool gen_loss": ("rank", json.dumps({"gen_loss": {"ckpt-a": True, "ckpt-b": "0.5"}}),
                      ["'ckpt-a'", "finite number"]),
    "string gen_loss": ("rank", json.dumps({"gen_loss": {"ckpt-a": 1.0, "ckpt-b": "0.5"}}),
                        ["'ckpt-b'"]),
    "overflowing gen_loss": ("rank", '{"gen_loss": {"ckpt-a": 1e400}}', ["'ckpt-a'"]),
    "infinite gen_loss": ("predict", '{"gen_loss": {"ckpt-c": Infinity}}', ["'ckpt-c'"]),
    "huge gen_loss": ("predict", '{"gen_loss": {"ckpt-d": %s}}' % HUGE, ["'ckpt-d'"]),
    "null gen_loss": ("predict", '{"gen_loss": {"ckpt-e": null}}', ["'ckpt-e'"]),
    "negative gen_loss": ("rank", json.dumps({"gen_loss": {"ckpt-b": -1.0}}),
                          ["bad-genloss.json: gen_loss of 'ckpt-b' must be >= 0, got -1.0"]),
    "byte 0xff in the report": ("rank", b'{"gen_loss": {"ckpt-\xff": 1.0}}',
                                ["bad-genloss.json: not valid UTF-8"]),
    # finite, but the squared deviations of 1e200 from the mean overflow
    "overflowing gen_loss spread": (
        "predict",
        json.dumps({"gen_loss": {**dict.fromkeys(CHECKPOINTS, 1.0),
                                 "ckpt-a": 0, "ckpt-b": 1e200, "ckpt-c": 2e200}}),
        ["squared deviations overflows"],
    ),
}


def as_bytes(row) -> bytes:
    """A line or file given as raw bytes, raw text or an object to write as JSON."""
    if isinstance(row, bytes):
        return row
    return (row if isinstance(row, str) else json.dumps(row)).encode("utf-8")


@pytest.mark.parametrize("case", [*MALFORMED_LINES, *MALFORMED_GENLOSS_REPORTS])
def test_malformed_inputs_exit_one_with_one_error_line(inputs, case, capsys):
    d = inputs["dir"]
    if case in MALFORMED_LINES:
        kind, rows, named = MALFORMED_LINES[case]
        path = d / f"{kind}.jsonl"
        path.write_bytes(b"".join(as_bytes(row) + b"\n" for row in rows))
        if kind == "tasks":
            config = {"endpoint_url": "http://127.0.0.1:9", "model_name": "m",
                      "tasks_path": str(path), "n": 1}
            (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
            argv = ["collect", "--config", str(d / "config.json"), "--store", str(d / "store")]
        elif kind == "points":
            argv = ["plot", "--points", str(path), "--out", str(d / "plot.svg")]
        elif kind == "genloss":
            argv = ["genloss", "--records", str(path), "--out", str(d / "out.json")]
        elif kind == "gold":
            argv = ["verify", "--samples", str(d / "samples.jsonl"), "--gold", str(path),
                    "--out", str(d / "out.jsonl")]
        else:
            argv = ["predict", "--metrics", str(inputs["metrics"]), "--labels", str(path),
                    "--metric", "pass1", "--out", str(d / "out.json")]
    else:
        command, text, named = MALFORMED_GENLOSS_REPORTS[case]
        (d / "bad-genloss.json").write_bytes(as_bytes(text))
        argv = [command, "--metrics", str(inputs["metrics"]),
                "--genloss", str(d / "bad-genloss.json"), "--out", str(d / "out.json")]
        if command == "rank":
            argv += ["--k", str(K)]
        else:
            argv += ["--labels", str(inputs["labels"]), "--metric", "genloss"]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: validation: "), err
    for part in named:
        assert part in err[0], err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-1"])
@pytest.mark.parametrize("with_genloss", [True, False])
def test_rank_epsilon_not_finite_or_negative_exits_one(inputs, epsilon, with_genloss, capsys):
    out = inputs["dir"] / "rank.json"
    argv = ["rank", "--metrics", str(inputs["metrics"]), "--k", str(K),
            "--epsilon", epsilon, "--out", str(out)]
    if with_genloss:
        argv += ["--genloss", str(inputs["genloss"])]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: validation: "), err
    assert "epsilon" in err[0]
    assert not out.exists()


def test_evaluate_labels_whose_spread_underflows_exit_one(inputs, capsys):
    # 0 and 1e-200 differ, but every holdout's sum of squares underflows to 0.0
    inputs["labels"].write_text(
        "".join(
            json.dumps({"checkpoint_id": c, "post_rl_pass1": 1e-200 * (i % 2)}) + "\n"
            for i, c in enumerate(LABELED)
        ),
        encoding="utf-8",
    )
    argv = ["evaluate", "--metrics", str(inputs["metrics"]), "--labels", str(inputs["labels"]),
            "--n-fit", "3", "--repeats", "20", "--seed", "0", "--k", str(K),
            "--out", str(inputs["dir"] / "evaluate.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: validation: all 20 repeats drew degenerate splits"]


def test_evaluate_warns_once_per_predictor_that_skipped_repeats(inputs, capsys):
    out = inputs["dir"] / "evaluate.json"
    argv = ["evaluate", "--metrics", str(inputs["metrics"]), "--labels", str(inputs["labels"]),
            "--genloss", str(inputs["genloss"]), "--n-fit", "3", "--repeats", "40",
            "--seed", "0", "--k", str(K), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""  # the fixture's labels draw no degenerate split
    # four labeled checkpoints share a label, so a holdout of three of them
    # has no spread: some repeats are skipped, and every predictor sees them
    inputs["labels"].write_text(
        "".join(
            json.dumps({"checkpoint_id": c, "post_rl_pass1": 0.3 if i < 4 else CHECKPOINTS[c][3]})
            + "\n"
            for i, c in enumerate(LABELED)
        ),
        encoding="utf-8",
    )
    assert main(argv) == 0
    report = json.loads(out.read_text(encoding="utf-8"))["metrics"]
    names = ["pass1", f"passk:{K}", "genloss", f"avg:passk:{K}+genloss"]
    assert all(0 < report[name]["skipped"] < 40 for name in names), report
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {name}: {report[name]['skipped']} of 40 repeats drew degenerate splits "
        "and were skipped"
        for name in names
    ]


@pytest.mark.parametrize(
    "known,error",
    [(LABELED, "labels name unknown checkpoints: ckpt-z"),
     # the count of labeled checkpoints is checked before the label ids
     (LABELED[:3], "need >= 4 labeled checkpoints to evaluate, got 3")],
)
def test_evaluate_labels_of_unknown_checkpoints_exit_one(inputs, known, error, capsys):
    rows = [(c, CHECKPOINTS[c][3]) for c in known] + [("ckpt-z", 0.5)]
    inputs["labels"].write_text(
        "".join(json.dumps({"checkpoint_id": c, "post_rl_pass1": y}) + "\n" for c, y in rows),
        encoding="utf-8",
    )
    argv = ["evaluate", "--metrics", str(inputs["metrics"]), "--labels", str(inputs["labels"]),
            "--n-fit", "3", "--repeats", "5", "--seed", "0", "--out",
            str(inputs["dir"] / "evaluate.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: validation: {error}"]


def test_plot_of_constant_labels_draws_no_r_squared(inputs):
    points = inputs["dir"] / "points.jsonl"
    points.write_text(
        "".join(json.dumps({"checkpoint_id": f"c{i}", "x": i / 4, "y": 0.1}) + "\n"
                for i in range(3)),
        encoding="utf-8",
    )
    out = inputs["dir"] / "plot.svg"
    assert main(["plot", "--points", str(points), "--out", str(out)]) == 0
    svg = out.read_text(encoding="utf-8")
    assert 'stroke="#d62728"' in svg and "R&#178;" not in svg  # a fit line, no R²


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


ENTRY = {"path": "samples.jsonl", "count": 0, "sha256": "0" * 64}


@pytest.mark.parametrize(
    "manifest",
    [[], {}, {"records": {}}, {"metadata": {}}, {"records": [], "metadata": {}},
     {"records": {}, "metadata": []}, {"records": {"samples": []}, "metadata": {}},
     *({"records": {"samples": {k: v for k, v in ENTRY.items() if k != key}}, "metadata": {}}
       for key in ENTRY),
     {"records": {"samples": {**ENTRY, "path": 5}}, "metadata": {}},
     {"records": {"samples": {**ENTRY, "count": "0"}}, "metadata": {}},
     {"records": {"samples": {**ENTRY, "count": True}}, "metadata": {}},
     {"records": {"samples": {**ENTRY, "sha256": None}}, "metadata": {}},
     # a string or bytes is the file's raw content, not valid JSON or not UTF-8
     "{", b'{"records": {}, "metadata": {"\xff": 1}}'],
)
def test_collect_into_a_malformed_manifest_exits_one_with_one_error_line(
    inputs, manifest, capsys
):
    d = inputs["dir"]
    (d / "tasks.jsonl").write_text(json.dumps(TASK) + "\n", encoding="utf-8")
    config = {"endpoint_url": "http://127.0.0.1:9", "model_name": "m",
              "tasks_path": str(d / "tasks.jsonl"), "n": 1}
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    (d / "store").mkdir()
    (d / "store" / "manifest.json").write_bytes(as_bytes(manifest))
    argv = ["collect", "--config", str(d / "config.json"), "--store", str(d / "store")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: validation: "), err
    assert str(d / "store" / "manifest.json") in err[0]
    if isinstance(manifest, bytes):
        assert err[0].endswith("manifest.json: not valid UTF-8"), err


def test_collect_config_that_is_not_utf8_exits_one_with_one_error_line(inputs, capsys):
    config = inputs["dir"] / "config.json"
    config.write_bytes(b'{"model_name": "m\xff"}')
    argv = ["collect", "--config", str(config), "--store", str(inputs["dir"] / "store")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {config}: not valid UTF-8"]
    assert not (inputs["dir"] / "store").exists()


def test_collect_with_an_api_key_holding_a_line_break_exits_one_and_sends_nothing(
    inputs, monkeypatch, capsys
):
    d = inputs["dir"]
    (d / "tasks.jsonl").write_text(json.dumps(TASK) + "\n", encoding="utf-8")
    monkeypatch.setenv("RLREADY_API_KEY", "sk-secret\r\nX-Injected: 1")
    with run_server() as server:
        config = {"endpoint_url": server.url, "model_name": "m",
                  "tasks_path": str(d / "tasks.jsonl"), "n": 1}
        (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = ["collect", "--config", str(d / "config.json"), "--store", str(d / "store")]
        assert main(argv) == 1
        assert server.request_count == 0
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: RLREADY_API_KEY must hold printable ASCII characters only"]
    assert not (d / "store" / "failures.jsonl").exists()
    assert not (d / "store" / "samples.jsonl").exists()


def test_a_metrics_csv_that_is_not_utf8_exits_one_naming_its_line(inputs, capsys):
    metrics = inputs["metrics"]
    lines = metrics.read_bytes().splitlines(keepends=True)
    lines[3] = lines[3].replace(b"ckpt-a", b"ckpt-\xff")  # the first checkpoint row
    metrics.write_bytes(b"".join(lines))
    argv = ["rank", "--metrics", str(metrics), "--k", str(K), "--out", str(inputs["dir"] / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: validation: {metrics}: line 4: not valid UTF-8"]


@pytest.mark.parametrize("first", ["#best", "a\u2028b", "a\x85b"])
def test_rank_reads_back_every_checkpoint_id_that_passk_writes(tmp_path, first):
    # an id may start with # and hold a line break that str.splitlines would cut at
    outcomes = [TaskOutcome(first, "b", "t0", n=4, c=3), TaskOutcome("c", "b", "t0", n=4, c=1)]
    dump("outcomes", outcomes, tmp_path / "outcomes.jsonl")
    assert main(["passk", "--outcomes", str(tmp_path / "outcomes.jsonl"),
                 "--out", str(tmp_path / "metrics.csv"), "--ks", "1,2"]) == 0
    assert main(["rank", "--metrics", str(tmp_path / "metrics.csv"), "--k", "2",
                 "--out", str(tmp_path / "rank.json")]) == 0
    ranked = json.loads((tmp_path / "rank.json").read_text(encoding="utf-8"))["ranked"]
    assert ranked == [[first, 1.0], ["c", 0.5]]


@pytest.mark.parametrize("agg", ["macro", "micro"])
def test_passk_evaluates_each_distinct_n_c_once_across_checkpoints(tmp_path, monkeypatch, agg):
    rng = random.Random(17)
    outcomes = [
        TaskOutcome(f"ckpt-{ck}", bench, f"t{t}", n=rng.choice((16, 20)), c=rng.randint(0, 6))
        for ck in range(6) for bench in "AB" for t in range(20)
    ]
    path = tmp_path / "outcomes.jsonl"
    dump("outcomes", outcomes, path)
    calls = []
    pass_curve = passk.pass_curve

    def counting(outcome, ks):
        calls.append((outcome.n, outcome.c))
        return pass_curve(outcome, ks)

    def run(out):
        argv = ["passk", "--outcomes", str(path), "--out", str(out), "--ks", "2,8,16", "--agg", agg]
        assert main(argv) == 0

    monkeypatch.setattr(passk, "pass_curve", counting)
    run(tmp_path / "shared.csv")
    distinct = sorted({(o.n, o.c) for o in outcomes})
    assert sorted(calls) == distinct
    # each checkpoint with curves of its own, as before they were shared
    monkeypatch.setattr(
        cli, "aggregate", lambda outs, ks, mode, curves: passk.aggregate(outs, ks, mode=mode))
    calls.clear()
    run(tmp_path / "own.csv")
    assert len(calls) > len(distinct)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "own.csv").read_bytes()


# ---------------------------------------------------------- genloss streaming


def write_genloss_lines(path: Path, lines: int, checkpoints: int, seed: int) -> None:
    """genloss.jsonl with the checkpoints interleaved line by line."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(lines):
            row = {"checkpoint_id": f"ckpt-{i % checkpoints}", "example_id": f"ex-{i:06d}",
                   "nll_sum": rng.uniform(0.0, 900.0), "token_count": rng.randint(1, 999)}
            fh.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("mode", ["token_weighted", "per_example"])
def test_genloss_streams_to_the_bits_of_aggregate_genloss(tmp_path, mode):
    records = tmp_path / "genloss.jsonl"
    write_genloss_lines(records, 2000, 7, seed=3)
    out = tmp_path / "genloss.json"
    assert main(["genloss", "--records", str(records), "--mode", mode, "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))["gen_loss"]
    loaded = list(reference.iter_records("genloss", records))
    assert sorted(got) == [f"ckpt-{i}" for i in range(7)]
    for ckpt, value in got.items():
        own = [r for r in loaded if r.checkpoint_id == ckpt]
        # the fold that kept a token_count column, on one checkpoint's records
        assert value.hex() == reference.aggregate_genloss(own, mode).hex(), ckpt


def traced_peak(fn) -> int:
    """Peak bytes that fn allocates, above what was allocated before the call."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_genloss_keeps_two_numbers_per_record_not_the_record(tmp_path):
    records = tmp_path / "genloss.jsonl"
    write_genloss_lines(records, 50_000, 8, seed=5)
    out = tmp_path / "genloss.json"
    genloss = traced_peak(lambda: main(["genloss", "--records", str(records), "--out", str(out)]))
    whole = traced_peak(lambda: load("genloss", records))
    # what remains is one nll_sum and one example id hash per record, and one
    # checkpoint's hashes in a set at a time to find a repeat: about 36 bytes
    # per record, 312 with an index of keys
    assert genloss <= 0.85 * whole, (genloss, whole)
    assert genloss <= 60 * 50_000, genloss


def test_loaded_outcomes_share_their_id_strings(tmp_path):
    # 20 checkpoints x 500 tasks: each id recurs on many lines
    path = write_jsonl(tmp_path / "outcomes.jsonl", (
        {"checkpoint_id": f"ckpt-{ck:02d}", "benchmark": f"bench{t % 3}", "task_id": f"t{t:04d}",
         "n": 256, "c": (ck * t) % 257}
        for ck in range(20) for t in range(500)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        outcomes = load("outcomes", path)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(outcomes) == 10_000
    # a slotted record and its list slot hold about 80 bytes; a record with
    # its own copy of each id string holds 284
    assert held <= 140 * 10_000, held


# ----------------------------------------------------------- verify streaming


def write_jsonl(path: Path, rows) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
    return path


def sample_rows(ckpt, bench, task, indices, correct):
    """One row per index; the indices in correct box the gold answer 7, the rest 5."""
    return [{"checkpoint_id": ckpt, "benchmark": bench, "task_id": task, "sample_index": i,
             "text": f"so \\boxed{{{7 if i in correct else 5}}}"} for i in indices]


def run_verify(d: Path, samples: Path, gold: Path):
    out = d / "outcomes.jsonl"
    code = main(["verify", "--samples", str(samples), "--gold", str(gold), "--out", str(out)])
    return code, out


def test_verify_adds_up_a_task_split_into_runs_to_the_bytes_of_sorted_samples(tmp_path):
    gold = write_jsonl(tmp_path / "gold.jsonl", [
        {"benchmark": "b", "task_id": t, "answer": "7"} for t in ("t0", "t1")])
    # a resumed collect leaves t0 of ckpt-1 in two runs around another task
    runs = [("ckpt-1", "t0", range(0, 3), {0, 2}), ("ckpt-0", "t1", range(4), {1}),
            ("ckpt-1", "t1", range(4), set()), ("ckpt-1", "t0", range(3, 6), {3, 4, 5}),
            ("ckpt-0", "t0", range(4), {0, 1, 2, 3})]
    rows = [row for ckpt, task, idx, ok in runs for row in sample_rows(ckpt, "b", task, idx, ok)]
    ordered = sorted(rows, key=lambda r: (r["checkpoint_id"], r["task_id"], r["sample_index"]))
    code, split_out = run_verify(tmp_path, write_jsonl(tmp_path / "split.jsonl", rows), gold)
    assert code == 0
    split = split_out.read_bytes()
    code, sorted_out = run_verify(tmp_path, write_jsonl(tmp_path / "sorted.jsonl", ordered), gold)
    assert code == 0
    assert sorted_out.read_bytes() == split
    assert [(o.checkpoint_id, o.task_id, o.n, o.c) for o in load("outcomes", sorted_out)] == [
        ("ckpt-0", "t0", 4, 4), ("ckpt-0", "t1", 4, 1), ("ckpt-1", "t0", 6, 5),
        ("ckpt-1", "t1", 4, 0)]


def test_verify_without_gold_names_the_first_task_in_sorted_order(tmp_path, capsys):
    gold = write_jsonl(tmp_path / "gold.jsonl", [
        {"benchmark": "b", "task_id": "t1", "answer": "7"}])
    # the stream meets ckpt-1's t0 first; sorted, ckpt-0's t2 comes first
    rows = (sample_rows("ckpt-1", "b", "t0", range(2), set())
            + sample_rows("ckpt-0", "b", "t2", range(2), set())
            + sample_rows("ckpt-0", "b", "t1", range(2), {0}))
    code, out = run_verify(tmp_path, write_jsonl(tmp_path / "samples.jsonl", rows), gold)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: no gold answer for task ('b', 't2')"]
    assert not out.exists()


def test_verify_reports_a_malformed_line_after_a_task_without_gold(tmp_path, capsys):
    gold = write_jsonl(tmp_path / "gold.jsonl", [
        {"benchmark": "b", "task_id": "t1", "answer": "7"}])
    samples = write_jsonl(tmp_path / "samples.jsonl",
                          sample_rows("ckpt-0", "b", "t0", range(2), set()))
    with open(samples, "a", encoding="utf-8") as fh:
        fh.write('{"checkpoint_id": "ckpt-0",\n')
    code, out = run_verify(tmp_path, samples, gold)
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: validation: {samples}: line 3: malformed JSON"), err
    assert not out.exists()


def test_verify_reports_the_gold_error_when_both_inputs_are_invalid(tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    gold.write_text('{"benchmark": "b", "task_id": "t0", "answer": 7}\n', encoding="utf-8")
    samples = tmp_path / "samples.jsonl"
    samples.write_text("not json\n", encoding="utf-8")
    code, out = run_verify(tmp_path, samples, gold)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: validation: {gold}: line 1: field 'answer': expected string, got int"]
    assert not out.exists()


def write_verify_inputs(d: Path, samples_per_task: int, repeats: tuple[int, int]) -> Path:
    """gold.jsonl and samples.jsonl for 2 checkpoints x 96 tasks, each text
    "so x = y. " repeated a number of times in repeats, then a boxed answer;
    returns the samples path."""
    rng = random.Random(11)
    tasks = [f"t{i:03d}" for i in range(96)]
    write_jsonl(d / "gold.jsonl", [
        {"benchmark": "b", "task_id": t, "answer": str(i)} for i, t in enumerate(tasks)])
    return write_jsonl(d / "samples.jsonl", (
        {"checkpoint_id": f"ckpt-{c}", "benchmark": "b", "task_id": t, "sample_index": s,
         "text": "so x = y. " * rng.randint(*repeats) + f"\\boxed{{{rng.randint(0, 95)}}}"}
        for c in range(2) for t in tasks for s in range(samples_per_task)))


def test_verify_holds_one_task_group_not_the_samples_file(tmp_path):
    samples = write_verify_inputs(tmp_path, 16, (200, 600))
    peak = traced_peak(lambda: run_verify(tmp_path, samples, tmp_path / "gold.jsonl"))
    size = samples.stat().st_size
    assert load("outcomes", tmp_path / "outcomes.jsonl")[-1].n == 16
    # what remains is the reader's index of one hash per key and the (n, c) totals
    assert peak <= 0.25 * size, (peak, size)


def test_verify_of_short_texts_holds_a_small_part_of_the_samples_file(tmp_path):
    # about 1 KB a text, so the per-sample index weighs more against the file
    # than with the long texts above: 0.09x the file with one hash per key,
    # 0.25x with an index of keys
    samples = write_verify_inputs(tmp_path, 64, (80, 110))
    peak = traced_peak(lambda: run_verify(tmp_path, samples, tmp_path / "gold.jsonl"))
    size = samples.stat().st_size
    assert load("outcomes", tmp_path / "outcomes.jsonl")[-1].n == 64
    assert peak <= 0.15 * size, (peak, size)


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
    "outcomes.jsonl.meta.json": "bd24c17e0a8b05512fb11e3118e2270b645e9d44266bf72d9d12ba42b1c0e8c4",
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
