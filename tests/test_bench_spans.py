"""The traced benchmark patches functions by (owner, attribute) name.

A renamed or removed entry point only shows up as a broken traced run, so
check here that every target bench/spans.py names still resolves.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans._TARGETS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in spans._TARGETS
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
