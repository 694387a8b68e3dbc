"""Input hashes for report metadata, taken after the command has read its
inputs and before it writes its first output, so that an input the command
writes over is recorded as it was read.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from rlready import cli, records
from rlready.cli import main
from rlready.records import file_sha256

BUFFER = records._HASH_BUFFER
GOLD = '{"benchmark": "b", "task_id": "t0", "answer": "7"}\n'
SAMPLE = ('{"checkpoint_id": "c", "benchmark": "b", "task_id": "t0", "sample_index": %d, '
          '"text": %s}\n')


@pytest.mark.parametrize("size", [0, BUFFER - 1, BUFFER, BUFFER + 1, 3 * BUFFER + 7])
def test_file_sha256_is_the_sha256_of_the_bytes(tmp_path, size):
    path = tmp_path / "data.bin"
    path.write_bytes(os.urandom(size))
    assert file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def verify(*argv):
    return main(["verify", "--samples", "samples.jsonl", "--gold", "gold.jsonl",
                 "--out", "outcomes.jsonl", *argv])


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.jsonl").write_text(GOLD, encoding="utf-8")
    yield tmp_path
    no_child_is_left()


def test_a_bad_line_gives_the_error_line_and_leaves_no_process(workdir, capfd):
    (workdir / "samples.jsonl").write_text(
        SAMPLE % (0, '"\\\\boxed{7}"') + SAMPLE % (1, "5"), encoding="utf-8")
    assert verify() == 1
    no_child_is_left()
    assert capfd.readouterr() == ("", "error: validation: samples.jsonl: line 2: "
                                      "field 'text': expected string, got int\n")


def test_a_missing_gold_file_exits_two(workdir, capfd):
    (workdir / "samples.jsonl").write_text(SAMPLE % (0, '"\\\\boxed{7}"'), encoding="utf-8")
    assert main(["verify", "--samples", "samples.jsonl", "--gold", "none.jsonl",
                 "--out", "outcomes.jsonl"]) == 2
    no_child_is_left()
    assert capfd.readouterr() == (
        "", "error: io: [Errno 2] No such file or directory: 'none.jsonl'\n")


def test_the_report_holds_the_hash_of_each_input(workdir):
    (workdir / "samples.jsonl").write_text(
        "".join(SAMPLE % (i, '"\\\\boxed{%d}"' % i) for i in range(9)), encoding="utf-8")
    assert verify() == 0
    inputs = json.loads((workdir / "outcomes.jsonl.meta.json").read_text())["inputs"]
    assert inputs == {
        role: {"path": f"{role}.jsonl",
               "sha256": hashlib.sha256((workdir / f"{role}.jsonl").read_bytes()).hexdigest()}
        for role in ("gold", "samples")
    }


def test_an_input_written_over_records_the_hash_of_the_input(workdir):
    # curate writing its subset over its own input records the input's hash:
    # the hashes are joined before the first write
    rows = [{"example_id": f"e{i}", "prompt": "p", "response": "r " * i} for i in range(6)]
    (workdir / "sft.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    read = hashlib.sha256((workdir / "sft.jsonl").read_bytes()).hexdigest()
    assert main(["curate", "--sft", "sft.jsonl", "--strategy", "shortest", "--count", "2",
                 "--seed", "1", "--out", "sft.jsonl", "--manifest", "m.json"]) == 0
    manifest = json.loads((workdir / "m.json").read_text())
    assert manifest["metadata"]["inputs"]["sft"]["sha256"] == read
    assert len((workdir / "sft.jsonl").read_text().splitlines()) == 2
    # and so does verify writing its outcomes over its samples
    (workdir / "samples.jsonl").write_text(SAMPLE % (0, '"\\\\boxed{7}"'), encoding="utf-8")
    read = hashlib.sha256((workdir / "samples.jsonl").read_bytes()).hexdigest()
    assert main(["verify", "--samples", "samples.jsonl", "--gold", "gold.jsonl",
                 "--out", "samples.jsonl"]) == 0
    meta = json.loads((workdir / "samples.jsonl.meta.json").read_text())
    assert meta["inputs"]["samples"]["sha256"] == read


def run_cli(workdir, *argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "rlready.cli", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=30, **kwargs)


def test_a_fifo_input_exits_two_with_one_line_before_it_is_read(workdir):
    # read, it would block until a writer came, and then give its bytes once
    os.mkfifo(workdir / "outcomes.fifo")
    done = run_cli(workdir, "passk", "--outcomes", "outcomes.fifo", "--out", "metrics.csv")
    assert (done.returncode, done.stderr) == (2, "error: io: outcomes.fifo: not a regular file\n")
    assert not (workdir / "metrics.csv").exists()


def test_a_piped_input_with_a_duplicate_is_refused(workdir):
    # a pipe gives its bytes once: read again, to confirm the duplicate or to
    # hash it, it would give none
    read, write = os.pipe()
    os.write(write, (SAMPLE % (0, '"\\\\boxed{7}"') * 2).encode())
    os.close(write)
    try:
        done = run_cli(workdir, "verify", "--samples", f"/dev/fd/{read}", "--gold", "gold.jsonl",
                       "--out", "outcomes.jsonl", pass_fds=(read,))
    finally:
        os.close(read)
    assert (done.returncode, done.stderr) == (
        2, f"error: io: /dev/fd/{read}: not a regular file\n")
    assert not (workdir / "outcomes.jsonl").exists()
