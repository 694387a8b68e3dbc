"""JSONL record schemas, validating loaders, and an append-only record store.

One line schema per record kind:

    samples:  {checkpoint_id, benchmark, task_id, sample_index, text[, finish_reason]}
    outcomes: {checkpoint_id, benchmark, task_id, n, c}
    genloss:  {checkpoint_id, example_id, nll_sum, token_count}
    labels:   {checkpoint_id, post_rl_pass1}
    gold:     {benchmark, task_id, answer}
    sft:      {example_id, prompt, response}

Loaders reject the whole file on the first invalid line, reporting the line
number and offending field, and enforce per-kind uniqueness keys. The store
is append-only with a manifest tracking per-file line counts and whole-file
sha256 hashes, so every derived number can be audited back to raw records.
The store keeps each file's hash running across appends, so an append costs
the bytes it writes, not the size of the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from .curate import SftExample
from .passk import TaskOutcome
from .verifier import GoldAnswer, Sample


@dataclass(frozen=True)
class GenLossRecord:
    """Per-example held-out loss: summed token NLL and the token count."""

    checkpoint_id: str
    example_id: str
    nll_sum: float
    token_count: int

    def __post_init__(self) -> None:
        if not self.nll_sum >= 0.0:
            raise ValueError(f"nll_sum must be >= 0, got {self.nll_sum}")
        if self.token_count < 1:
            raise ValueError(f"token_count must be >= 1, got {self.token_count}")


@dataclass(frozen=True)
class Label:
    """Known post-RL Pass@1 for a calibration checkpoint."""

    checkpoint_id: str
    post_rl_pass1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.post_rl_pass1 <= 1.0:
            raise ValueError(
                f"post_rl_pass1 must be in [0, 1], got {self.post_rl_pass1}"
            )


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

KINDS = tuple(_PARSERS)


def _check_kind(kind: str) -> None:
    if kind not in _PARSERS:
        raise ValueError(f"unknown record kind {kind!r} (expected one of {KINDS})")


def load(kind: str, path: str | Path) -> list:
    """Load and validate one JSONL file of the given kind.

    The whole file is rejected on the first malformed line, schema violation
    or duplicate key; errors carry the line number and field name.
    """
    _check_kind(kind)
    parse = _PARSERS[kind]
    key_of = _KEYS[kind]
    records = []
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
                record = parse(obj)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            key = key_of(record)
            if key in seen:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate {kind} key {key!r} "
                    f"(first seen at line {seen[key]})"
                )
            seen[key] = lineno
            records.append(record)
    return records


def to_json_line(kind: str, record: Any) -> str:
    _check_kind(kind)
    return json.dumps(_WRITERS[kind](record), ensure_ascii=False)


def dump(kind: str, records: Iterable[Any], path: str | Path) -> int:
    """Write records as JSONL with canonical field order; returns the count."""
    _check_kind(kind)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(to_json_line(kind, record) + "\n")
            count += 1
    return count


def aggregate_genloss(
    records: Sequence[GenLossRecord], mode: str = "token_weighted"
) -> float:
    """Collapse one checkpoint's per-example losses into a scalar.

    token_weighted (default) is sum(nll_sum)/sum(token_count), the corpus
    mean per-token NLL a trainer reports as validation loss; per_example is
    the unweighted mean of per-example means.
    """
    if not records:
        raise ValueError("no genloss records to aggregate")
    if mode not in ("token_weighted", "per_example"):
        raise ValueError(f"mode must be 'token_weighted' or 'per_example', got {mode!r}")
    checkpoints = sorted({r.checkpoint_id for r in records})
    if len(checkpoints) > 1:
        raise ValueError(f"genloss records span multiple checkpoints: {checkpoints}")
    if mode == "token_weighted":
        return sum(r.nll_sum for r in records) / sum(r.token_count for r in records)
    return sum(r.nll_sum / r.token_count for r in records) / len(records)


def _sha256_of(path: str | Path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest


def file_sha256(path: str | Path) -> str:
    return _sha256_of(path).hexdigest()


class RecordStore:
    """Append-only JSONL store with a manifest of counts and content hashes.

    Record files live under root as <kind>.jsonl; manifest.json tracks, per
    kind, the file path, line count and sha256 of the whole file, plus
    free-form metadata (for example the frozen sampling request template).
    Files are only ever appended to.

    The sha256 is kept running: the first append of a kind hashes whatever
    the file holds, and every later append feeds the hash exactly the bytes
    it writes. So the store must be the only writer of its files while it is
    open; bytes written behind its back are missing from the manifest's hash,
    and verify() reports the mismatch. The manifest is replaced atomically
    (temp file, then os.replace), so a crashed process leaves the old one or
    the new one, never a torn one.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest_path = self.root / self.MANIFEST
        if self._manifest_path.exists():
            with open(self._manifest_path, encoding="utf-8") as fh:
                self._manifest = json.load(fh)
        else:
            self._manifest = {"records": {}, "metadata": {}}
        self._hashes: dict[str, Any] = {}  # kind -> running sha256 of its file

    def path(self, kind: str) -> Path:
        _check_kind(kind)
        return self.root / f"{kind}.jsonl"

    def count(self, kind: str) -> int:
        _check_kind(kind)
        entry = self._manifest["records"].get(kind)
        return entry["count"] if entry else 0

    def append(self, kind: str, records: Sequence[Any]) -> int:
        """Append records to the kind's file and refresh its manifest entry."""
        _check_kind(kind)
        if not records:
            return 0
        path = self.path(kind)
        digest = self._hashes.get(kind)
        if digest is None:
            digest = _sha256_of(path) if path.exists() else hashlib.sha256()
            self._hashes[kind] = digest
        try:
            # line by line: joining the batch would hold a second copy of it
            with open(path, "ab") as fh:
                for record in records:
                    line = (to_json_line(kind, record) + "\n").encode("utf-8")
                    fh.write(line)
                    digest.update(line)
        except BaseException:
            del self._hashes[kind]  # the next append rehashes what was written
            raise
        self._manifest["records"][kind] = {
            "path": path.name,
            "count": self.count(kind) + len(records),
            "sha256": digest.hexdigest(),
        }
        self._write_manifest()
        return len(records)

    def load(self, kind: str) -> list:
        path = self.path(kind)
        if not path.exists():
            return []
        return load(kind, path)

    def set_metadata(self, key: str, value: Any) -> None:
        self._manifest["metadata"][key] = value
        self._write_manifest()

    @property
    def metadata(self) -> dict:
        return dict(self._manifest["metadata"])

    def verify(self) -> None:
        """Check that manifest counts and hashes match the physical files."""
        for kind, entry in self._manifest["records"].items():
            path = self.root / entry["path"]
            with open(path, "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != entry["count"]:
                raise ValueError(
                    f"{path}: manifest says {entry['count']} lines, file has {lines}"
                )
            actual = file_sha256(path)
            if actual != entry["sha256"]:
                raise ValueError(f"{path}: content hash mismatch")

    def _write_manifest(self) -> None:
        tmp = self._manifest_path.with_name(self.MANIFEST + ".tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(self._manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self._manifest_path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
