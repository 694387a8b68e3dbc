"""split_eval's repeats in slices: one per usable CPU, each but the first in a
forked worker.

Slices are of 5 repeats here, and the CPU count is claimed, so that a few
dozen repeats take the sliced path. Its results must be the serial loop's,
bit for bit. Wherever the slices cannot vouch for the serial result, the
serial loop must run and give its results or raise its first error. No
child process may outlive the call.
"""

import os
import signal
import threading
import time

import pytest

from rlready import parts, stats

M = 16
YS = [((i * 37) % 11) / 10 for i in range(M)]
NOISY = [y + ((i * 53) % 7 - 3) / 20 for i, y in enumerate(YS)]
SQUARED = [x * x for x in NOISY]
# two-valued columns, each of which admits no line on repeats of its own
LEFT = [float(i < 4) for i in range(M)]
RIGHT = [float(i >= 12) for i in range(M)]
PREDICTORS = [[NOISY], [SQUARED], [NOISY, SQUARED], [LEFT], [LEFT, RIGHT]]
REPEATS = 40


@pytest.fixture(autouse=True)
def sliced(monkeypatch):
    monkeypatch.setattr(stats, "_PART_REPEATS", 5)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no child is left, reaped or not


@pytest.fixture
def spies(monkeypatch):
    """Counts of serial loops, of slices scored in this process and of forks,
    with threading.active_count() at each fork."""
    seen = {"serial": 0, "slices": 0, "forks": []}
    real_scores, real_part, real_fork = stats._scores, stats._part_scores, os.fork
    parent = os.getpid()

    def scores(predictors, ys, n_fit, seed, first, stop):
        seen["serial"] += (first, stop) == (0, REPEATS)
        return real_scores(predictors, ys, n_fit, seed, first, stop)

    def part_scores(*args):
        seen["slices"] += os.getpid() == parent
        return real_part(*args)

    def fork():
        seen["forks"].append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(stats, "_scores", scores)
    monkeypatch.setattr(stats, "_part_scores", part_scores)
    monkeypatch.setattr(os, "fork", fork)
    return seen


def cpus(monkeypatch, count):
    monkeypatch.setattr(parts, "usable_cpus", lambda: count)


def serial(monkeypatch, predictors=PREDICTORS, ys=YS, n_fit=5, repeats=REPEATS):
    """split_eval's results, or the ValueError it raised, on one CPU."""
    cpus(monkeypatch, 1)
    return outcome(predictors, ys, n_fit, repeats)


def outcome(predictors=PREDICTORS, ys=YS, n_fit=5, repeats=REPEATS):
    try:
        return stats.split_eval(predictors, ys, n_fit, repeats, 7)
    except ValueError as exc:
        return f"ValueError: {exc}"


def bits(results):
    return [[v.hex() for v in r.per_repeat_r2] for r in results]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_slices_give_the_results_of_the_serial_loop(monkeypatch, spies, count):
    expected = serial(monkeypatch)
    assert spies["serial"] == 1
    # the two-valued predictors skip repeats of their own
    assert 0 < expected[3].skipped < REPEATS and expected[4].skipped > expected[3].skipped
    cpus(monkeypatch, count)
    got = outcome()
    assert got == expected and bits(got) == bits(expected)
    slices = 1 if count > 1 else 0
    assert spies == {"serial": 1 + (count == 1), "slices": slices, "forks": [1] * (count - 1)}


def test_repeats_are_cut_into_slices_in_repeat_order(monkeypatch):
    drawn = []
    real = stats._repeat_rng
    monkeypatch.setattr(stats, "_repeat_rng", lambda seed, r: drawn.append(r) or real(seed, r))
    cpus(monkeypatch, 3)
    results = stats.split_eval([[NOISY]], YS, 5, 41, 7)
    assert len(results[0].per_repeat_r2) + results[0].skipped == 41
    assert drawn == list(range(13))  # this process drew the first slice only


def test_fewer_repeats_than_two_slices_stay_serial(monkeypatch, spies):
    cpus(monkeypatch, 4)
    assert outcome(repeats=9) == serial(monkeypatch, repeats=9)
    assert spies["forks"] == [] and spies["slices"] == 0


# the fit set {0, 1} gives a slope near 1e160, whose holdout residuals
# overflow when squared; a constant column admits no line on any repeat
OVERFLOW_YS = [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
OVERFLOWING = [[0.0, 1e-160, 1.0, 2.0, 3.0, 4.0]]
CONSTANT = [[0.5] * 6]


def first_draw_of_zero_and_one(repeats):
    return next(r for r in range(repeats)
                if next(stats._draws(7, 6, 2, r, r + 1))[0] == [0, 1])


@pytest.mark.parametrize("predictors", [[OVERFLOWING], [CONSTANT, OVERFLOWING],
                                        [OVERFLOWING, CONSTANT]],
                         ids=["overflowing", "constant first", "overflowing first"])
@pytest.mark.parametrize("repeats", [40, 200])
def test_a_repeat_that_raises_gives_the_serial_error(monkeypatch, spies, predictors, repeats):
    # with 40 repeats the first overflowing draw falls in the worker's slice,
    # with 200 in this process's
    assert (first_draw_of_zero_and_one(repeats) >= repeats // 2) == (repeats == 40)
    expected = serial(monkeypatch, predictors, OVERFLOW_YS, 2, repeats)
    assert expected.startswith("ValueError: ")
    cpus(monkeypatch, 2)
    assert outcome(predictors, OVERFLOW_YS, 2, repeats) == expected
    assert len(spies["forks"]) == 1


def test_the_first_error_in_repeat_order_is_raised(monkeypatch, spies):
    # the second predictor's R² raises on a repeat of the first slice and on
    # every repeat of the second, each error naming its repeat
    fit_rows = {tuple(next(stats._draws(7, M, 5, r, r + 1))[0]): r for r in range(REPEATS)}
    raising = {13, *range(20, REPEATS)}
    real_predict, real_r2 = stats.average_fit_predict, stats._r2

    def average_fit_predict(columns, ys, fit, at):
        r = fit_rows[tuple(fit)]
        if columns is PREDICTORS[1] and r in raising:
            return [-1.0 - r] * len(at)  # a mark that _r2 below raises on
        return real_predict(columns, ys, fit, at)

    def r2(ys, preds):
        if preds[0] <= -1.0:
            raise ValueError(f"planted at repeat {-1 - preds[0]:.0f}")
        return real_r2(ys, preds)

    monkeypatch.setattr(stats, "average_fit_predict", average_fit_predict)
    monkeypatch.setattr(stats, "_r2", r2)
    expected = serial(monkeypatch)
    assert expected == "ValueError: planted at repeat 13"
    cpus(monkeypatch, 2)
    assert outcome() == expected
    assert spies["serial"] == 2


def boom():
    raise RuntimeError("boom")


def killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("action", [lambda: os._exit(1), boom, killed],
                         ids=["exit 1", "raise", "killed"])
def test_a_worker_that_fails_gives_the_serial_results(monkeypatch, spies, action):
    expected = serial(monkeypatch)
    parent, real = os.getpid(), stats._part_scores

    def part_scores(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(stats, "_part_scores", part_scores)
    cpus(monkeypatch, 3)
    assert outcome() == expected
    assert spies["serial"] == 2 and len(spies["forks"]) == 2


def test_a_live_thread_means_no_fork(monkeypatch, spies):
    expected = serial(monkeypatch)
    cpus(monkeypatch, 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert outcome() == expected
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert spies == {"serial": 2, "slices": 0, "forks": []}


def test_ctrl_c_in_the_parent_kills_and_reaps_the_workers(monkeypatch, capfd):
    parent, real = os.getpid(), stats._part_scores

    def part_scores(*args):
        if os.getpid() != parent:
            time.sleep(60)  # a worker that would outlast the test unless killed
        else:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(stats, "_part_scores", part_scores)
    cpus(monkeypatch, 4)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        stats.split_eval(PREDICTORS, YS, 5, REPEATS, 7)
    assert time.monotonic() - start < 30
    assert capfd.readouterr() == ("", "")
