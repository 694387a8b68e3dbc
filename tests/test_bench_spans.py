"""The benchmark reaches into rlready by name, outside the test suite's view.

The traced benchmark patches functions by (owner, attribute) name, and
bench/run.py calls rlready.stats directly. A renamed entry point or a changed
signature only shows up as a broken benchmark run, so check here that every
target bench/spans.py names still resolves and that every call bench/run.py
makes to stats still binds.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from rlready import stats

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans._TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def _stats_calls(tree):
    """(name, positional count, keyword names) of each call to a stats function.

    A call is either stats.f(...) or run_stage(it, stage, tracer, stats.f, ...),
    which calls f with the arguments after it.
    """
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Name) and func.id == "run_stage" and len(args) > 3:
            func, args = args[3], args[4:]
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "stats":
            assert not any(isinstance(a, ast.Starred) for a in args), ast.unparse(node)
            yield func.attr, len(args), [k.arg for k in node.keywords], ast.unparse(node)


def test_bench_calls_to_stats_still_bind():
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    calls = list(_stats_calls(tree))
    assert {name for name, *_ in calls} >= {
        "LabeledPoint", "repeated_split_eval", "repeated_split_eval_combined"
    }
    unbound = []
    for name, n_positional, keywords, source in calls:
        try:
            inspect.signature(getattr(stats, name)).bind(
                *[None] * n_positional, **dict.fromkeys(keywords)
            )
        except TypeError as exc:
            unbound.append(f"{source}: {exc}")
    assert unbound == []
