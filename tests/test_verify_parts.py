"""verify's fold in parts: one part per usable CPU, each but the first in a
forked worker.

Parts are 1 KiB here, and the CPU count is claimed, so that small files take
the parts path. Its outcomes must be the serial fold's bytes. Wherever the
parts cannot vouch for the serial result (the anomalies of
cli._fold_in_parts), the serial reader must run and give its report or its
error line. No child process may outlive main(), and none may write to
stdout or stderr.
"""

import builtins
import json
import os
import signal
import threading
import time

import pytest

from rlready import cli, parts, records
from rlready.cli import main
from rlready.parts import part_offsets

GOLD = [{"benchmark": "b", "task_id": f"t{t}", "answer": str(t)} for t in range(4)]


def sample(ckpt, task, index, answer):
    return {"checkpoint_id": ckpt, "benchmark": "b", "task_id": f"t{task}", "sample_index": index,
            "text": f"so the sum is {index} + {task}, hence \\boxed{{{answer}}} at last"}


def rows():
    """3 checkpoints x 4 tasks x 6 samples, about 150 B a line, then a
    resumed collect's 3 more samples of the first task, a second run of its
    key at the end of the file."""
    out = [sample(f"ckpt-{c}", t, i, t if (c + t + i) % 3 else 9)
           for c in range(3) for t in range(4) for i in range(6)]
    return out + [sample("ckpt-0", 0, i, 0) for i in range(6, 9)]


def write(path, lines, end="\n"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + end for line in lines)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(parts, "PART_BYTES", 1024)
    write("gold.jsonl", [json.dumps(g) for g in GOLD])
    write("samples.jsonl", [json.dumps(r) for r in rows()])
    yield tmp_path
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, reaped or not


@pytest.fixture
def spies(monkeypatch):
    """Counts of serial reads of the samples file, of parts folded in this
    process and of forks, with threading.active_count() at each fork."""
    seen = {"serial": 0, "parts": 0, "forks": []}
    real_iter, real_fold, real_fork = cli.iter_records, cli._fold_part, os.fork
    parent = os.getpid()

    def iter_records(kind, path):
        seen["serial"] += kind == "samples"
        return real_iter(kind, path)

    def fold_part(*args):
        seen["parts"] += os.getpid() == parent
        return real_fold(*args)

    def fork():
        seen["forks"].append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(cli, "iter_records", iter_records)
    monkeypatch.setattr(cli, "_fold_part", fold_part)
    monkeypatch.setattr(os, "fork", fork)
    return seen


def verify(monkeypatch, cpus):
    monkeypatch.setattr(parts, "usable_cpus", lambda: cpus)
    return main(["verify", "--samples", "samples.jsonl", "--gold", "gold.jsonl",
                 "--out", "outcomes.jsonl"])


def outputs(workdir):
    return [(workdir / name).read_bytes() if (workdir / name).exists() else None
            for name in ("outcomes.jsonl", "outcomes.jsonl.meta.json")]


def serial_run(workdir, monkeypatch, capfd):
    """exit code, stderr and outputs of the serial fold (one CPU), after
    which the outputs are removed."""
    code = verify(monkeypatch, 1)
    err = capfd.readouterr().err
    result = code, err, outputs(workdir)
    for name in ("outcomes.jsonl", "outcomes.jsonl.meta.json"):
        (workdir / name).unlink(missing_ok=True)
    return result


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_parts_give_the_bytes_of_the_serial_fold(workdir, monkeypatch, capfd, spies, cpus):
    lines = (workdir / "samples.jsonl").read_bytes().splitlines()
    size = (workdir / "samples.jsonl").stat().st_size
    offsets = part_offsets(workdir / "samples.jsonl", size, cpus)
    line_at = {len(b"".join(lines[:i])) + i: i for i in range(len(lines))}
    assert len(set(offsets)) == cpus + 1 and all(at in line_at for at in offsets[1:-1])

    def task(i):
        return json.loads(lines[i])["checkpoint_id"], json.loads(lines[i])["task_id"]

    # some part boundary falls inside a task group
    assert any(task(line_at[at] - 1) == task(line_at[at]) for at in offsets[1:-1])

    serial = serial_run(workdir, monkeypatch, capfd)
    assert spies["serial"] == 1
    assert verify(monkeypatch, cpus) == 0
    assert spies == {"serial": 1, "parts": 1, "forks": [1] * (cpus - 1)}
    assert capfd.readouterr() == ("scored 12 tasks -> outcomes.jsonl\n", "")
    assert serial[:2] == (0, "")
    assert outputs(workdir) == serial[2]
    assert serial[2][0] == expected_outcomes()


def test_crlf_line_ends_are_folded_in_parts(workdir, monkeypatch, capfd, spies):
    serial = serial_run(workdir, monkeypatch, capfd)
    write("samples.jsonl", [json.dumps(r) for r in rows()], end="\r\n")
    assert verify(monkeypatch, 3) == 0
    assert spies["serial"] == 1 and spies["parts"] == 1
    assert outputs(workdir)[0] == serial[2][0]


def test_a_task_with_no_gold_gives_the_serial_error_from_the_parts(workdir, monkeypatch, capfd,
                                                                  spies):
    write("gold.jsonl", [json.dumps(g) for g in GOLD[:2]])
    serial = serial_run(workdir, monkeypatch, capfd)
    assert serial[:2] == (1, "error: validation: no gold answer for task ('b', 't2')\n")
    assert verify(monkeypatch, 3) == 1
    assert spies["serial"] == 1 and spies["parts"] == 1
    assert capfd.readouterr().err == serial[1]
    assert outputs(workdir) == [None, None]


def edit_line(number, edit):
    """Rewrite the samples file with edit applied to the text of one line."""
    def apply(workdir, monkeypatch):
        lines = (workdir / "samples.jsonl").read_bytes().split(b"\n")
        lines[number - 1] = edit(lines[number - 1])
        (workdir / "samples.jsonl").write_bytes(b"\n".join(lines))
    return apply


def lone_cr_line_ends(workdir, monkeypatch):
    write("samples.jsonl", [json.dumps(r) for r in rows()], end="\r")


def colliding_hashes(workdir, monkeypatch):
    # the keys of lines 1 and 60 hash alike: a collision, not a duplicate
    pair = {("ckpt-0", "b", "t0", 0), ("ckpt-2", "b", "t1", 5)}
    monkeypatch.setattr(records, "hash", lambda key: 7 if key in pair else builtins.hash(key),
                        raising=False)


def in_worker(action):
    def apply(workdir, monkeypatch):
        parent, real = os.getpid(), cli._fold_part

        def fold_part(*args):
            if os.getpid() != parent:
                action()
            return real(*args)

        monkeypatch.setattr(cli, "_fold_part", fold_part)
    return apply


def boom():
    raise RuntimeError("boom")


def interrupt():
    raise KeyboardInterrupt


def no_fork(workdir, monkeypatch):
    monkeypatch.delattr(os, "fork")


def one_part(workdir, monkeypatch):
    monkeypatch.setattr(parts, "PART_BYTES", 1 << 20)


def a_directory(workdir, monkeypatch):
    (workdir / "samples.jsonl").unlink()
    (workdir / "samples.jsonl").mkdir()


ANOMALIES = {
    "invalid line": edit_line(
        50, lambda line: line.replace(b'"sample_index": ', b'"sample_index": -')),
    "byte that is not UTF-8": edit_line(60, lambda line: line.replace(b"hence", b"hen\xffce")),
    "lone CR line ends": lone_cr_line_ends,
    "CR inside a line": edit_line(
        40, lambda line: line.replace(b'", "task_id"', b'",\r"task_id"')),
    "duplicate key across parts": edit_line(
        75, lambda line: line.replace(b'"sample_index": 8', b'"sample_index": 1')),
    "colliding hashes": colliding_hashes,
    "worker exits 1": in_worker(lambda: os._exit(1)),
    "worker raises": in_worker(boom),
    "worker interrupted": in_worker(interrupt),
    "no os.fork": no_fork,
    "fewer than 2 parts": one_part,
    "not a regular file": a_directory,
}


# the exit code and error line the serial fold gave before folding in parts
# existed; every other anomaly leaves a valid file, whose outcomes are
# expected_outcomes()
SERIAL_ERRORS = {
    "invalid line": (1, "error: validation: samples.jsonl: line 50: "
                        "sample_index must be >= 0, got -1"),
    "byte that is not UTF-8": (1, "error: validation: samples.jsonl: line 60: not valid UTF-8"),
    "CR inside a line": (1, "error: validation: samples.jsonl: line 40: malformed JSON: "
                            "Expecting property name enclosed in double quotes: "
                            "line 2 column 1 (char 46)"),
    "duplicate key across parts": (1, "error: validation: samples.jsonl: line 75: duplicate "
                                      "samples key ('ckpt-0', 'b', 't0', 1) "
                                      "(first seen at line 2)"),
    "not a regular file": (2, "error: io: [Errno 21] Is a directory: 'samples.jsonl'"),
}


def expected_outcomes() -> bytes:
    """outcomes.jsonl of rows(), counted here."""
    counts = {}
    for r in rows():
        n, c = counts.get((r["checkpoint_id"], r["task_id"]), (0, 0))
        correct = r["text"].endswith(f"\\boxed{{{r['task_id'][1:]}}} at last")
        counts[(r["checkpoint_id"], r["task_id"])] = (n + 1, c + correct)
    return "".join(
        json.dumps({"checkpoint_id": ckpt, "benchmark": "b", "task_id": task, "n": n, "c": c})
        + "\n" for (ckpt, task), (n, c) in sorted(counts.items())).encode()


@pytest.mark.parametrize("anomaly", sorted(ANOMALIES))
def test_an_anomaly_gives_the_serial_report_or_error(workdir, monkeypatch, capfd, spies, anomaly):
    ANOMALIES[anomaly](workdir, monkeypatch)
    serial = serial_run(workdir, monkeypatch, capfd)
    if anomaly in SERIAL_ERRORS:
        code, line = SERIAL_ERRORS[anomaly]
        assert serial == (code, line + "\n", [None, None])
    else:
        assert serial[:2] == (0, "") and serial[2][0] == expected_outcomes()
    assert spies["serial"] == 1
    assert verify(monkeypatch, 3) == serial[0]
    assert capfd.readouterr().err == serial[1]
    assert outputs(workdir) == serial[2]
    assert spies["serial"] == 2


def test_a_live_thread_means_a_serial_fold_and_the_hash_after_the_work(workdir, monkeypatch,
                                                                        capfd, spies):
    serial = serial_run(workdir, monkeypatch, capfd)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    hashed = []
    real = cli.file_sha256
    monkeypatch.setattr(cli, "file_sha256", lambda path: hashed.append(str(path)) or real(path))
    try:
        assert verify(monkeypatch, 3) == 0
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert spies["forks"] == [] and spies["serial"] == 2 and spies["parts"] == 0
    assert hashed == ["gold.jsonl", "samples.jsonl"]  # in this process, after the work
    assert outputs(workdir) == serial[2]


def test_ctrl_c_in_the_parent_kills_and_reaps_the_workers(workdir, monkeypatch, capfd):
    parent, real = os.getpid(), cli._fold_part

    def fold_part(*args):
        if os.getpid() != parent:
            time.sleep(60)  # a worker that would outlast the test unless killed
        else:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(cli, "_fold_part", fold_part)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify(monkeypatch, 4)
    assert time.monotonic() - start < 30
    assert capfd.readouterr() == ("", "")
    assert outputs(workdir) == [None, None]


def sigint_after_fork(monkeypatch, side):
    """os.fork that sends this process a SIGINT as soon as the fork returns
    on one side, the parent's or the child's, of the first fork."""
    real, forks = os.fork, []

    def fork():
        pid = real()
        forks.append(pid)
        if (pid == 0) == (side == "child") and len(forks) == 1:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_ctrl_c_as_a_fork_returns_leaves_no_child(workdir, monkeypatch, capfd):
    forks = sigint_after_fork(monkeypatch, "parent")
    with pytest.raises(KeyboardInterrupt):
        verify(monkeypatch, 3)
    assert len(forks) == 1  # raised once the child was registered, then killed and reaped
    assert capfd.readouterr() == ("", "")
    assert outputs(workdir) == [None, None]


def test_ctrl_c_in_a_child_as_its_fork_returns_stays_in_the_child(workdir, monkeypatch, capfd,
                                                                 spies):
    serial = serial_run(workdir, monkeypatch, capfd)
    sigint_after_fork(monkeypatch, "child")
    parent = os.getpid()
    try:
        code = verify(monkeypatch, 3)
    finally:
        if os.getpid() != parent:  # the interrupt ran up the parent's stack in the child
            (workdir / "escaped").touch()
            os._exit(3)
    assert not (workdir / "escaped").exists()
    assert code == 0 and spies["serial"] == 2  # the child exited 1: the serial fold ran
    assert capfd.readouterr() == ("scored 12 tasks -> outcomes.jsonl\n", "")
    assert outputs(workdir) == serial[2]
