"""rlready genloss folding its file in parts on separate processes.

Each test shrinks the part size and claims three CPUs, so that a file of a
few hundred lines is cut into three parts: this process folds the first and
two forked workers fold the rest. The report, and every error line, must be
the one the in-process fold gives for the same file.
"""

import concurrent.futures
import json
import os
import random
import threading
from contextlib import contextmanager

import pytest

from rlready import records
from rlready.cli import main

LINES = 300


def genloss_lines(lines: int = LINES, checkpoints: int = 5, seed: int = 11) -> list[bytes]:
    """genloss.jsonl lines, newline included, with the checkpoints interleaved."""
    rng = random.Random(seed)
    return [
        json.dumps({"checkpoint_id": f"ckpt-{i % checkpoints}", "example_id": f"ex-{i:04d}",
                    "nll_sum": rng.uniform(0.0, 900.0), "token_count": rng.randint(1, 999)}
                   ).encode() + b"\n"
        for i in range(lines)
    ]


def genloss(path, capsys, mode="token_weighted"):
    """(exit code, the report's bytes or the stderr lines) of rlready genloss."""
    out = path.with_name("genloss.json")
    out.unlink(missing_ok=True)
    code = main(["genloss", "--records", str(path), "--mode", mode, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    return code, out.read_bytes() if code == 0 else err


@contextmanager
def three_parts(monkeypatch, executor=None, **patches):
    """Cut a file of 3 KiB or more into three parts, with each other name of
    records in patches patched. Yields what was run: the worker count of
    each pool built (by executor if given), and the paths read serially."""
    ran = {"pools": [], "serial": []}
    make = executor or concurrent.futures.ProcessPoolExecutor
    iter_records = records.iter_records

    def counting(workers, **kwargs):
        ran["pools"].append(workers)
        return make(workers, **kwargs)

    def serial(kind, path):
        ran["serial"].append(path)
        return iter_records(kind, path)

    with monkeypatch.context() as m:
        m.setattr(records, "_PART_BYTES", 1024)
        m.setattr(records, "_usable_cpus", lambda: 3)
        for name, value in patches.items():
            m.setattr(records, name, value)
        m.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        m.setattr(records, "iter_records", serial)
        yield ran


def part_of_line(path, index: int) -> int:
    """Which of the three parts holds the line at index (0-based)."""
    size = path.stat().st_size
    bounds = records._cut(path, size, 3)
    assert len(bounds) == 4, bounds
    with open(path, "rb") as fh:
        offset = sum(len(fh.readline()) for _ in range(index))
    return sum(offset >= b for b in bounds[1:-1])


@pytest.mark.parametrize("mode", ["token_weighted", "per_example"])
def test_a_file_in_three_parts_gives_the_bytes_of_the_in_process_fold(tmp_path, capsys,
                                                                       monkeypatch, mode):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines()))
    expected = genloss(path, capsys, mode)
    assert expected[0] == 0
    with three_parts(monkeypatch) as ran:
        assert genloss(path, capsys, mode) == expected
    assert ran == {"pools": [2], "serial": []}


def replace_line(lines, index, line):
    return lines[:index] + [line] + lines[index + 1:]


# case -> (index of the line planted, its part, the line planted from the
# file's lines, the line number the error names)
PLANTED = {
    "malformed JSON in part 2": (270, 2, lambda lines: b'{"checkpoint_id": \n', 271),
    "negative nll_sum in part 1": (
        150, 1, lambda lines: lines[150].replace(b'"nll_sum": ', b'"nll_sum": -'), 151),
    "byte 0xff in part 2": (260, 2, lambda lines: lines[260][:-3] + b"\xff}\n", 261),
    "duplicate key split across parts 0 and 2": (280, 2, lambda lines: lines[10], 281),
    "duplicate key split across parts 1 and 2": (250, 2, lambda lines: lines[150], 251),
    "duplicate key within part 1": (160, 1, lambda lines: lines[140], 161),
    "blank line in part 2": (240, 2, lambda lines: b"\n", 241),
    # the text reader ends a line at a lone \r, so line 122 is " \n"
    "\\r before trailing whitespace in part 1": (
        120, 1, lambda lines: lines[120][:-1] + b" \r \n", 122),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_an_invalid_line_in_any_part_gives_the_serial_error_line(tmp_path, capsys,
                                                                  monkeypatch, case):
    index, part, planted, lineno = PLANTED[case]
    lines = genloss_lines()
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(replace_line(lines, index, planted(lines))))
    assert part_of_line(path, index) == part
    expected = genloss(path, capsys)
    code, err = expected
    assert code == 1 and len(err) == 1 and f"line {lineno}:" in err[0], err
    with three_parts(monkeypatch) as ran:
        assert genloss(path, capsys) == expected
    assert ran == {"pools": [2], "serial": [str(path)]}


# case -> (the file's lines, whether the parts leave it to the serial read);
# each file reads the same through the text reader
ACCEPTED = {
    "\\r\\n line ends": (lambda lines: [line[:-1] + b"\r\n" for line in lines], False),
    "a lone \\r between two records": (
        lambda lines: lines[:200] + [lines[200][:-1] + b"\r" + lines[201]] + lines[202:], True),
    "leading space and a tab in part 2": (
        lambda lines: replace_line(lines, 240, b" " + lines[240][:-1] + b"\t\n"), False),
    "no final newline": (lambda lines: lines[:-1] + [lines[-1][:-1]], False),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_line_breaks_and_whitespace_in_parts_give_the_serial_report(tmp_path, capsys,
                                                                    monkeypatch, case):
    edit, serial = ACCEPTED[case]
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(edit(genloss_lines())))
    expected = genloss(path, capsys)
    assert expected[0] == 0
    with three_parts(monkeypatch) as ran:
        assert genloss(path, capsys) == expected
    assert ran == {"pools": [2], "serial": [str(path)] if serial else []}


def test_keys_whose_hashes_meet_across_parts_give_the_serial_report(tmp_path, capsys,
                                                                    monkeypatch):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines()))
    # a hash with three values: every part repeats one, and the parts' hashes meet
    monkeypatch.setattr(records, "hash", lambda key: len(key[1]) % 3, raising=False)
    expected = genloss(path, capsys)
    assert expected[0] == 0
    with three_parts(monkeypatch) as ran:
        assert genloss(path, capsys) == expected
    assert ran == {"pools": [2], "serial": [str(path)]}


def _exit_at_once(*args):
    os._exit(3)


def _raise(*args):
    raise RuntimeError("a worker that fails")


@pytest.mark.parametrize("worker", [_exit_at_once, _raise])
def test_a_worker_that_fails_still_gives_the_serial_report(tmp_path, capsys, monkeypatch,
                                                           worker):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines()))
    expected = genloss(path, capsys)
    with three_parts(monkeypatch, _fold_part_worker=worker) as ran:
        assert genloss(path, capsys) == expected
    assert ran == {"pools": [2], "serial": [str(path)]}


def test_a_pool_that_cannot_start_gives_the_serial_report(tmp_path, capsys, monkeypatch):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines()))
    expected = genloss(path, capsys)

    def no_processes(workers, **kwargs):
        raise BlockingIOError(11, "Resource temporarily unavailable")

    with three_parts(monkeypatch, executor=no_processes) as ran:
        assert genloss(path, capsys) == expected
    assert ran == {"pools": [2], "serial": [str(path)]}


def no_pool(workers, **kwargs):
    raise AssertionError("a pool was built")


@pytest.mark.parametrize("reason", ["a small file", "one CPU", "another thread"])
def test_no_pool_is_built_where_the_file_is_folded_here(tmp_path, capsys, monkeypatch, reason):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines()))
    expected = genloss(path, capsys)
    patches = {
        "a small file": {"_PART_BYTES": path.stat().st_size // 2 + 1},
        "one CPU": {"_usable_cpus": lambda: 1},
        "another thread": {},
    }[reason]
    done = threading.Event()
    thread = threading.Thread(target=done.wait, args=(10,))
    with three_parts(monkeypatch, executor=no_pool, **patches) as ran:
        if reason == "another thread":
            thread.start()
        try:
            assert genloss(path, capsys) == expected
        finally:
            done.set()
    if reason == "another thread":
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert ran == {"pools": [], "serial": [str(path)]}
