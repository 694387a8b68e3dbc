"""Timing shims the traced run installs around each layer's public functions.

A span is (name, start, end, parent, work): perf_counter seconds, the index
of the enclosing span on the same thread (or -1), and a work quantity the
shim measured (bytes, records, repeats) or 0. Each traced iteration gets its
own Tracer; the spans stay in memory and run.py writes them out once, at the
end of the run.

Each shim is installed under the name its caller looks up, for example
both rlready.records.load and rlready.cli.load, and removed after the timed
section, so set-up and the reference checks are never traced.
"""

from __future__ import annotations

import functools
import os
import threading
import time

from rlready import cli, passk, predict, records, sampler, stats, verifier


def _load_work(args, kwargs, result):
    return os.path.getsize(args[1]), len(result)


def _text_len(args, kwargs, result):
    return len(args[0])


def _repeats(args, kwargs, result):
    return kwargs["repeats"] if "repeats" in kwargs else args[2]


# (owner, attribute, span name, work function); the first owner of each name
# is where the function is defined.
_TARGETS = (
    (records.RecordStore, "append", "records.append", None),
    (records, "load", "records.load", _load_work),
    (cli, "load", "records.load", _load_work),
    (verifier, "score", "verifier.score", None),
    (cli, "score", "verifier.score", None),
    (verifier, "extract_boxed", "verifier.extract_boxed", _text_len),
    (passk, "aggregate", "passk.aggregate", None),
    (cli, "aggregate", "passk.aggregate", None),
    (predict, "rank_candidates", "predict.rank_candidates", None),
    (cli, "rank_candidates", "predict.rank_candidates", None),
    (stats, "repeated_split_eval", "stats.repeated_split_eval", _repeats),
    (stats, "repeated_split_eval_combined", "stats.repeated_split_eval_combined", _repeats),
    (sampler, "sample_completions", "sampler.sample_completions", None),
    (cli, "sample_completions", "sampler.sample_completions", None),
)


class Tracer:
    """Spans of one traced iteration, and the shims that record them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, work=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so that children can name it
        stack.append(index)
        amount, end = 0, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            if work is not None:
                amount = work(args, kwargs, result)
            return result
        finally:
            if end is None:  # fn raised
                end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, amount)

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            return self.call(name, fn, *args, work=work, **kwargs)

        return shim

    def install(self) -> None:
        for owner, attr, name, work in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
