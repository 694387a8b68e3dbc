"""Every output is written whole: a write that raises halfway leaves the last
good file byte for byte and no temp file behind.

Each case tears the write of one output (torn_writes.tear) and runs the
command that writes it again over its last good output.
"""

import json
import os
import stat
import threading

import pytest

from mockserver import run_server
from rlready.cli import main
from test_cli import GOLDEN_STEPS, write_golden_inputs
from torn_writes import tear

LAST_GOOD = b"the last good report\n"
VERIFY = GOLDEN_STEPS[0]
CURATE = ["curate", "--sft", "sft.jsonl", "--strategy", "shortest", "--count", "6", "--seed", "1",
          "--validation-fraction", "0.5", "--out", "subset.jsonl"]
# each output -> the command that writes it
OUTPUTS = {argv[argv.index("--out") + 1]: argv for argv in GOLDEN_STEPS}
OUTPUTS["outcomes.jsonl.meta.json"] = VERIFY
OUTPUTS.update((name, CURATE) for name in (
    "subset.jsonl", "subset.train.jsonl", "subset.val.jsonl", "subset.curation-manifest.json"))


def temp_files(root):
    return sorted(str(p) for p in root.rglob("*.tmp"))


@pytest.fixture
def pipeline(tmp_path, monkeypatch):
    """A directory in which every command has written its outputs once."""
    monkeypatch.chdir(tmp_path)
    write_golden_inputs()
    rows = [{"example_id": f"e{i}", "prompt": "p", "response": "r " * i} for i in range(8)]
    (tmp_path / "sft.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    for argv in [*GOLDEN_STEPS, CURATE]:
        assert main(argv) == 0, argv
    yield tmp_path
    assert temp_files(tmp_path) == []


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_a_torn_report_write_leaves_the_last_good_report(pipeline, monkeypatch, capsys, name):
    outcomes, meta = pipeline / "outcomes.jsonl", pipeline / "outcomes.jsonl.meta.json"
    new_outcomes = outcomes.read_bytes()
    # verify's last good pair, or the last good output of the other commands
    for path in [outcomes, meta] if OUTPUTS[name] is VERIFY else [pipeline / name]:
        path.write_bytes(LAST_GOOD)
    capsys.readouterr()
    tear(monkeypatch, name)
    assert main(OUTPUTS[name]) == 2
    assert capsys.readouterr().err == "error: io: disk full\n"
    assert temp_files(pipeline) == []
    if OUTPUTS[name] is not VERIFY:
        assert (pipeline / name).read_bytes() == LAST_GOOD
    else:
        # the old meta goes before the outcomes are replaced, so it never
        # stands beside the outcomes of another run
        assert not meta.exists()
        assert outcomes.read_bytes() == (LAST_GOOD if name == "outcomes.jsonl" else new_outcomes)


def collect(server_url, store, tasks=2):
    (store.parent / "tasks.jsonl").write_text("".join(
        json.dumps({"task_id": f"t{i}", "problem": f"problem {i}", "benchmark": "b"}) + "\n"
        for i in range(tasks)))
    config = {"endpoint_url": server_url, "model_name": "m", "tasks_path": "tasks.jsonl",
              "n": 2, "max_concurrency": 2, "max_retries": 0, "retry_backoff": 0.01,
              "request_timeout": 10.0}
    (store.parent / "config.json").write_text(json.dumps(config))
    return main(["collect", "--config", "config.json", "--store", str(store)])


def fails_task_0(no, body):
    return "fail" if "problem 0" in body.get("prompt", "") else "ok"


@pytest.mark.parametrize("name, behavior", [("manifest.json", None),
                                            ("failures.jsonl", fails_task_0)])
def test_a_torn_store_write_leaves_the_last_good_file(tmp_path, monkeypatch, capsys, name,
                                                      behavior):
    monkeypatch.chdir(tmp_path)
    store = tmp_path / "store"
    with run_server(behavior=behavior) as server:
        assert collect(server.url, store) == (0 if behavior is None else 2)
        target = store / name
        last_good = target.read_bytes()
        capsys.readouterr()
        tear(monkeypatch, name)
        assert collect(server.url, store, tasks=3) == 2
    assert capsys.readouterr().err == "error: io: disk full\n"
    assert target.read_bytes() == last_good
    assert temp_files(tmp_path) == []


def test_an_out_that_is_a_symlink_writes_its_target(pipeline):
    (pipeline / "target.json").write_bytes(LAST_GOOD)
    (pipeline / "link.json").symlink_to("target.json")
    assert main(["genloss", "--records", "genloss.jsonl", "--out", "link.json"]) == 0
    assert (pipeline / "link.json").is_symlink()
    assert (pipeline / "target.json").read_bytes() == (pipeline / "genloss.json").read_bytes()


def test_an_out_that_is_a_fifo_is_written_in_place(pipeline):
    fifo = pipeline / "report.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["genloss", "--records", "genloss.jsonl", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
    finally:
        if reader.is_alive():  # give the blocked reader an end of file
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    assert not reader.is_alive()
    assert read == [(pipeline / "genloss.json").read_bytes()]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
