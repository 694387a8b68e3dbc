"""Earlier implementations of records.py, kept verbatim as test oracles.

- The per-kind JSONL parsers, key functions and writers that records._SCHEMAS
  replaced: for the six kinds they cover, the table-driven loader must accept
  and reject the same lines, build equal records and write identical lines.
- iter_records with a {key: line number} index, which the one-hash-per-key
  index replaced: on any file both must yield equal records or raise the
  identical message.
- genloss_by_checkpoint with a token_count column, which the running token
  total replaced, and aggregate_genloss, which no pipeline code calls: the
  genloss command must give the bits of aggregate_genloss per checkpoint.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from rlready.curate import SftExample
from rlready.passk import TaskOutcome
from rlready.records import GenLossRecord, Label, _field_values, _kind
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


def iter_records(kind: str, path: str | Path) -> Iterator:
    """Yield the validated records of one JSONL file of the given kind, in file order.

    Only each record's key is kept, for the duplicate check; a caller that
    folds the stream holds no record it has moved past. The file is rejected
    on the first malformed line, schema violation or duplicate key, with the
    line number and field name, so a caller must not act on what it received
    before the error.
    """
    spec = _kind(kind)
    cls, checks, key_len, order = spec.cls, spec.checks, spec.key_len, spec.order
    seen: dict[tuple, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                raise ValueError(f"{path}: line {lineno}: empty line")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: malformed JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            try:
                values = _field_values(checks, obj)
                record = cls(*values) if order is None else cls(*[values[i] for i in order])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            key = tuple(values[:key_len])
            if key in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate {kind} key {key!r} "
                    f"(first seen at line {seen[key]})"
                )
            seen[key] = lineno
            yield record


def genloss_by_checkpoint(
    records: Iterable[GenLossRecord], mode: str = "token_weighted"
) -> dict[str, float]:
    """Collapse each checkpoint's per-example losses into a scalar, in one pass.

    token_weighted (default) is sum(nll_sum)/sum(token_count), the corpus
    mean per-token NLL a trainer reports as validation loss; per_example is
    the unweighted mean of per-example means. Only the summed columns are
    kept, not the records, so records may be a stream of any length. Each
    sum is the builtin sum of a list in input order, so a stream and a list
    of the same records give the same bits.
    """
    if mode not in ("token_weighted", "per_example"):
        raise ValueError(f"mode must be 'token_weighted' or 'per_example', got {mode!r}")
    # checkpoint -> (nll_sum column, token_count column); per_example keeps
    # the per-example means in the first column and leaves the second empty
    columns: dict[str, tuple[list[float], list[int]]] = {}
    weighted = mode == "token_weighted"
    for r in records:
        entry = columns.get(r.checkpoint_id)
        if entry is None:
            entry = columns[r.checkpoint_id] = ([], [])
        nll, tokens = entry
        if weighted:
            nll.append(r.nll_sum)
            tokens.append(r.token_count)
        else:
            nll.append(r.nll_sum / r.token_count)
    if weighted:
        return {ckpt: sum(nll) / sum(tokens) for ckpt, (nll, tokens) in sorted(columns.items())}
    return {ckpt: sum(means) / len(means) for ckpt, (means, _) in sorted(columns.items())}


def aggregate_genloss(
    records: Sequence[GenLossRecord], mode: str = "token_weighted"
) -> float:
    """One checkpoint's scalar loss (see genloss_by_checkpoint for the modes)."""
    if not records:
        raise ValueError("no genloss records to aggregate")
    scalars = genloss_by_checkpoint(records, mode)
    if len(scalars) > 1:
        raise ValueError(f"genloss records span multiple checkpoints: {list(scalars)}")
    return next(iter(scalars.values()))
