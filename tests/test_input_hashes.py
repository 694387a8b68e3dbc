"""Input hashes for report metadata, taken on a helper thread while the
command reads its inputs.

The report bytes, every error line and every exit code must be those of a
hash taken on the calling thread after the work, and no helper thread may
outlive main().
"""

import hashlib
import json
import os
import threading
import time

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


def test_file_sha256_stops_at_its_next_buffer(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(b"x" * (3 * BUFFER))
    asked = []

    def stopped():
        asked.append(None)
        return len(asked) > 2

    assert file_sha256(path, stopped) is None
    assert len(asked) == 3  # asked after each read: two buffers hashed, the third not
    assert file_sha256(path, lambda: False) == file_sha256(path)


def test_a_helper_hashes_the_files_of_a_megabyte_or_more(tmp_path):
    small, large = tmp_path / "small", tmp_path / "large"
    small.write_bytes(b"x" * (cli._HELPER_MIN_BYTES - 1))
    large.write_bytes(b"x" * cli._HELPER_MIN_BYTES)
    for inputs, helped in (({"a": small}, False), ({"a": small, "b": large}, True)):
        hashes = cli._InputHashes(inputs)
        try:
            assert (hashes._thread is not None) == helped
            assert hashes.digests() == {
                role: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                for role, path in inputs.items()}
        finally:
            hashes.close()


def verify(*argv):
    return main(["verify", "--samples", "samples.jsonl", "--gold", "gold.jsonl",
                 "--out", "outcomes.jsonl", *argv])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_HELPER_MIN_BYTES", 0)  # the helper takes these small files
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gold.jsonl").write_text(GOLD, encoding="utf-8")
    return tmp_path


def test_a_bad_line_gives_the_error_line_and_leaves_no_thread(workdir, capsys):
    (workdir / "samples.jsonl").write_text(
        SAMPLE % (0, '"\\\\boxed{7}"') + SAMPLE % (1, "5"), encoding="utf-8")
    before = threading.active_count()
    assert verify() == 1
    assert threading.active_count() == before
    assert capsys.readouterr().err.splitlines() == [
        "error: validation: samples.jsonl: line 2: field 'text': expected string, got int"]


def test_a_missing_gold_file_exits_two(workdir, capsys):
    (workdir / "samples.jsonl").write_text(SAMPLE % (0, '"\\\\boxed{7}"'), encoding="utf-8")
    before = threading.active_count()
    assert main(["verify", "--samples", "samples.jsonl", "--gold", "none.jsonl",
                 "--out", "outcomes.jsonl"]) == 2
    assert threading.active_count() == before
    assert capsys.readouterr().err.splitlines() == [
        "error: io: [Errno 2] No such file or directory: 'none.jsonl'"]


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


def test_an_input_written_over_is_hashed_after_the_work(workdir):
    # curate writing its subset over its own input records the subset's hash,
    # as a hash taken after the work does
    rows = [{"example_id": f"e{i}", "prompt": "p", "response": "r " * i} for i in range(6)]
    (workdir / "sft.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["curate", "--sft", "sft.jsonl", "--strategy", "shortest", "--count", "2",
                 "--seed", "1", "--out", "sft.jsonl", "--manifest", "m.json"]) == 0
    manifest = json.loads((workdir / "m.json").read_text())
    written = hashlib.sha256((workdir / "sft.jsonl").read_bytes()).hexdigest()
    assert manifest["metadata"]["inputs"]["sft"]["sha256"] == written


def test_ctrl_c_during_the_read_stops_the_helper_and_joins_it(workdir, monkeypatch):
    (workdir / "samples.jsonl").write_text(SAMPLE % (0, '"\\\\boxed{7}"'), encoding="utf-8")
    hashing, seen_stop = threading.Event(), []

    def endless_sha256(path, stopped=None):
        # a file that takes the helper until it is stopped, or 10 s at most
        hashing.set()
        deadline = time.monotonic() + 10
        while not stopped() and time.monotonic() < deadline:
            time.sleep(0.001)
        seen_stop.append(stopped())

    def interrupted_read(kind, path):
        hashing.wait(10)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "file_sha256", endless_sha256)
    monkeypatch.setattr(cli, "iter_records", interrupted_read)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        verify()
    assert seen_stop == [True]
    assert threading.active_count() == before
