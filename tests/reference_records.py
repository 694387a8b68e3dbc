"""The per-kind JSONL parsers, key functions and writers that records._SCHEMAS replaced.

Kept verbatim as the oracle for the differential test in test_records.py: for
the six kinds they cover, the table-driven loader must accept and reject the
same lines, build equal records and write identical lines.
"""

from __future__ import annotations

from typing import Any, Callable

from rlready.curate import SftExample
from rlready.passk import TaskOutcome
from rlready.records import GenLossRecord, Label
from rlready.verifier import GoldAnswer, Sample


def _req(obj: dict, field: str) -> Any:
    if field not in obj:
        raise ValueError(f"missing field {field!r}")
    return obj[field]


def _req_str(obj: dict, field: str, allow_empty: bool = False) -> str:
    value = _req(obj, field)
    if not isinstance(value, str):
        raise ValueError(f"field {field!r}: expected string, got {type(value).__name__}")
    if not value and not allow_empty:
        raise ValueError(f"field {field!r}: must be nonempty")
    return value


def _req_int(obj: dict, field: str) -> int:
    value = _req(obj, field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {field!r}: expected integer, got {type(value).__name__}")
    return value


def _req_num(obj: dict, field: str) -> float:
    value = _req(obj, field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {field!r}: expected number, got {type(value).__name__}")
    return float(value)


def _parse_sample(obj: dict) -> Sample:
    finish = obj.get("finish_reason")
    if finish is not None and not isinstance(finish, str):
        raise ValueError("field 'finish_reason': expected string")
    return Sample(
        checkpoint_id=_req_str(obj, "checkpoint_id"),
        benchmark_id=_req_str(obj, "benchmark"),
        task_id=_req_str(obj, "task_id"),
        sample_index=_req_int(obj, "sample_index"),
        text=_req_str(obj, "text", allow_empty=True),
        finish_reason=finish,
    )


def _parse_outcome(obj: dict) -> TaskOutcome:
    return TaskOutcome(
        checkpoint_id=_req_str(obj, "checkpoint_id"),
        benchmark_id=_req_str(obj, "benchmark"),
        task_id=_req_str(obj, "task_id"),
        n=_req_int(obj, "n"),
        c=_req_int(obj, "c"),
    )


def _parse_genloss(obj: dict) -> GenLossRecord:
    return GenLossRecord(
        checkpoint_id=_req_str(obj, "checkpoint_id"),
        example_id=_req_str(obj, "example_id"),
        nll_sum=_req_num(obj, "nll_sum"),
        token_count=_req_int(obj, "token_count"),
    )


def _parse_label(obj: dict) -> Label:
    return Label(
        checkpoint_id=_req_str(obj, "checkpoint_id"),
        post_rl_pass1=_req_num(obj, "post_rl_pass1"),
    )


def _parse_gold(obj: dict) -> GoldAnswer:
    return GoldAnswer(
        benchmark_id=_req_str(obj, "benchmark"),
        task_id=_req_str(obj, "task_id"),
        answer=_req_str(obj, "answer"),
    )


def _parse_sft(obj: dict) -> SftExample:
    return SftExample(
        example_id=_req_str(obj, "example_id"),
        prompt=_req_str(obj, "prompt", allow_empty=True),
        response=_req_str(obj, "response", allow_empty=True),
    )


def _sample_json(r: Sample) -> dict:
    obj = {
        "checkpoint_id": r.checkpoint_id,
        "benchmark": r.benchmark_id,
        "task_id": r.task_id,
        "sample_index": r.sample_index,
        "text": r.text,
    }
    if r.finish_reason is not None:
        obj["finish_reason"] = r.finish_reason
    return obj


_PARSERS: dict[str, Callable[[dict], Any]] = {
    "samples": _parse_sample,
    "outcomes": _parse_outcome,
    "genloss": _parse_genloss,
    "labels": _parse_label,
    "gold": _parse_gold,
    "sft": _parse_sft,
}

_KEYS: dict[str, Callable[[Any], tuple]] = {
    "samples": lambda r: (r.checkpoint_id, r.benchmark_id, r.task_id, r.sample_index),
    "outcomes": lambda r: (r.checkpoint_id, r.benchmark_id, r.task_id),
    "genloss": lambda r: (r.checkpoint_id, r.example_id),
    "labels": lambda r: (r.checkpoint_id,),
    "gold": lambda r: (r.benchmark_id, r.task_id),
    "sft": lambda r: (r.example_id,),
}

_WRITERS: dict[str, Callable[[Any], dict]] = {
    "samples": _sample_json,
    "outcomes": lambda r: {
        "checkpoint_id": r.checkpoint_id,
        "benchmark": r.benchmark_id,
        "task_id": r.task_id,
        "n": r.n,
        "c": r.c,
    },
    "genloss": lambda r: {
        "checkpoint_id": r.checkpoint_id,
        "example_id": r.example_id,
        "nll_sum": r.nll_sum,
        "token_count": r.token_count,
    },
    "labels": lambda r: {
        "checkpoint_id": r.checkpoint_id,
        "post_rl_pass1": r.post_rl_pass1,
    },
    "gold": lambda r: {
        "benchmark": r.benchmark_id,
        "task_id": r.task_id,
        "answer": r.answer,
    },
    "sft": lambda r: {
        "example_id": r.example_id,
        "prompt": r.prompt,
        "response": r.response,
    },
}
