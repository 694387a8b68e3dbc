"""genloss's fold in parts: one part per usable CPU, each but the first in a
forked worker.

Parts are 1 KiB here, and the CPU count is claimed, so that a file of a few
hundred lines takes the parts path. Its report must be the serial fold's
bytes in both modes. Wherever the parts cannot vouch for the serial result,
the chunks or the serial reader must run and give its report or its error
line. No child process may outlive main(), and none may write to stdout or
stderr.
"""

import builtins
import json
import marshal
import os
import signal
import threading
import time
import tracemalloc

import pytest

from rlready import parts, records
from rlready.cli import main
from test_genloss_chunks import genloss, genloss_lines, replace_line, serial_genloss

MODES = ("token_weighted", "per_example")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(parts, "PART_BYTES", 1024)
    (tmp_path / "genloss.jsonl").write_bytes(b"".join(genloss_lines()))
    yield tmp_path
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, reaped or not


@pytest.fixture
def spies(monkeypatch):
    """Counts of serial reads of the genloss file, of ranges folded in this
    process and of forks, with threading.active_count() at each fork."""
    seen = {"serial": 0, "ranges": 0, "forks": []}
    real_iter, real_fold, real_fork = records.iter_records, records._fold_range, os.fork
    parent = os.getpid()

    def iter_records(kind, path):
        seen["serial"] += 1
        return real_iter(kind, path)

    def fold_range(*args):
        seen["ranges"] += os.getpid() == parent
        return real_fold(*args)

    def fork():
        seen["forks"].append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(records, "iter_records", iter_records)
    monkeypatch.setattr(records, "_fold_range", fold_range)
    monkeypatch.setattr(os, "fork", fork)
    return seen


def cpus(monkeypatch, count):
    monkeypatch.setattr(parts, "usable_cpus", lambda: count)


def in_worker(monkeypatch, action):
    """records._fold_range that runs action first in a forked worker."""
    parent, real = os.getpid(), records._fold_range

    def fold_range(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(records, "_fold_range", fold_range)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("count", [1, 2, 3])
def test_parts_give_the_bytes_of_the_serial_fold(workdir, capsys, monkeypatch, spies, mode, count):
    path = workdir / "genloss.jsonl"
    expected = serial_genloss(path, capsys, monkeypatch, mode)
    assert expected[0] == 0 and spies["serial"] == 1
    cpus(monkeypatch, count)
    assert genloss(path, capsys, mode) == expected
    # one range in this process, each other in a worker; no serial read
    assert spies == {"serial": 1, "ranges": 1, "forks": [1] * (count - 1)}


def test_each_part_holds_lines_of_every_checkpoint(workdir):
    # so every checkpoint's column is joined from every part, in part order
    path = workdir / "genloss.jsonl"
    offsets = parts.part_offsets(path, path.stat().st_size, 3)
    for start, end in zip(offsets, offsets[1:]):
        columns, _ = records._fold_range(path, start, end, True)
        assert sorted(columns) == [f"ckpt-{i}" for i in range(5)]


def lines_at_a_boundary(path, count):
    """The file's lines, and the index of the first line of each part but
    the first when the file is cut into count parts."""
    data = path.read_bytes()
    lines = data.splitlines(keepends=True)
    starts = {len(b"".join(lines[:i])): i for i in range(len(lines))}
    offsets = parts.part_offsets(path, len(data), count)
    return lines, [starts[at] for at in offsets[1:-1]]


# case -> an edit of the lines, given the index of the second part's first line
PLANTED = {
    "invalid line in the second part": lambda lines, at: replace_line(
        lines, at + 5, lines[at + 5].replace(b'"nll_sum": ', b'"nll_sum": -')),
    "invalid line in the first part": lambda lines, at: replace_line(
        lines, at - 5, lines[at - 5].replace(b'"token_count": ', b'"token_count": -')),
    "duplicate key across the boundary": lambda lines, at: replace_line(lines, at, lines[at - 5]),
    "byte that is not UTF-8 in the second part": lambda lines, at: replace_line(
        lines, at + 3, lines[at + 3][:-3] + b"\xff}\n"),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_a_planted_fault_gives_the_serial_error_line(workdir, capsys, monkeypatch, spies, case):
    path = workdir / "genloss.jsonl"
    lines, [at] = lines_at_a_boundary(path, 2)
    path.write_bytes(b"".join(PLANTED[case](lines, at)))
    expected = serial_genloss(path, capsys, monkeypatch)
    code, err = expected
    assert code == 1 and len(err) == 1 and "line " in err[0], err
    cpus(monkeypatch, 2)
    assert genloss(path, capsys) == expected
    # the parts' verdict goes to the serial reader, with no second chunk fold
    assert spies["serial"] == 2 and spies["forks"] == [1] and spies["ranges"] == 1


def test_a_hash_collision_across_parts_gives_the_serial_report(workdir, capsys, monkeypatch,
                                                               spies):
    path = workdir / "genloss.jsonl"
    lines, [at] = lines_at_a_boundary(path, 2)
    # two example ids of one checkpoint, one in each part, hash alike: the
    # fold hashes the id, the serial reader the whole key
    first, second = (json.loads(lines[i]) for i in (at - 5, at + 5))
    assert first["checkpoint_id"] == second["checkpoint_id"]
    pair = {first["example_id"], second["example_id"],
            *((first["checkpoint_id"], e) for e in (first["example_id"], second["example_id"]))}
    monkeypatch.setattr(records, "hash", lambda key: 7 if key in pair else builtins.hash(key),
                        raising=False)
    expected = serial_genloss(path, capsys, monkeypatch)
    assert expected[0] == 0
    cpus(monkeypatch, 2)
    assert genloss(path, capsys) == expected
    # the collision is confirmed by the serial reader
    assert spies["serial"] == 2 and spies["ranges"] == 1


def boom():
    raise RuntimeError("boom")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("action", [lambda: os._exit(1), boom, killed],
                         ids=["exit 1", "raise", "killed"])
def test_a_worker_that_fails_gives_the_serial_report(workdir, capsys, monkeypatch, spies, action,
                                                     mode):
    path = workdir / "genloss.jsonl"
    expected = serial_genloss(path, capsys, monkeypatch, mode)
    in_worker(monkeypatch, action)
    cpus(monkeypatch, 3)
    assert genloss(path, capsys, mode) == expected
    # the parts are dropped, and the chunks are folded again in this process
    assert spies["serial"] == 1 and len(spies["forks"]) == 2 and spies["ranges"] == 2


def test_a_worker_value_cut_short_gives_the_serial_report(workdir, capsys, monkeypatch, spies):
    path = workdir / "genloss.jsonl"
    expected = serial_genloss(path, capsys, monkeypatch)

    class CutShort:
        """marshal whose dumps gives the first half of each value's bytes."""
        load = staticmethod(marshal.load)

        @staticmethod
        def dumps(value):
            data = marshal.dumps(value)
            return data[: len(data) // 2]

    monkeypatch.setattr(parts, "marshal", CutShort)
    cpus(monkeypatch, 2)
    assert genloss(path, capsys) == expected
    assert spies["serial"] == 1 and spies["ranges"] == 2  # the chunks, folded again here


def test_a_live_thread_means_no_fork(workdir, capsys, monkeypatch, spies):
    path = workdir / "genloss.jsonl"
    expected = serial_genloss(path, capsys, monkeypatch)
    cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert genloss(path, capsys) == expected
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert spies == {"serial": 1, "ranges": 1, "forks": []}


def test_ctrl_c_in_the_parent_kills_and_reaps_the_workers(workdir, capfd, monkeypatch):
    parent, real = os.getpid(), records._fold_range

    def fold_range(*args):
        if os.getpid() != parent:
            time.sleep(60)  # a worker that would outlast the test unless killed
        else:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(records, "_fold_range", fold_range)
    cpus(monkeypatch, 4)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["genloss", "--records", str(workdir / "genloss.jsonl"),
              "--out", str(workdir / "genloss.json")])
    assert time.monotonic() - start < 30
    assert capfd.readouterr() == ("", "")
    assert not (workdir / "genloss.json").exists()


def traced_peak(fn) -> int:
    """Peak bytes that fn allocates in this process, above what was
    allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", MODES)
def test_the_parents_peak_in_parts_is_no_higher_than_the_serial_folds(tmp_path, monkeypatch,
                                                                      mode):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines(lines=50_000, checkpoints=8, seed=5)))
    monkeypatch.setattr(parts, "PART_BYTES", 1 << 20)

    def fold(count):
        cpus(monkeypatch, count)
        result = []
        peak = traced_peak(lambda: result.append(records.genloss_file_by_checkpoint(path, mode)))
        return peak, result

    (serial, expected), (in_parts, got) = fold(1), fold(2)
    assert got == expected
    # each part looks for repeats in its own hashes, this process across
    # parts with a set of its own part's hashes alone, and the worker's
    # value is loaded as it is read: no moment holds more than the serial
    # fold's columns and its set of one checkpoint's hashes
    assert in_parts <= serial, (in_parts, serial)
