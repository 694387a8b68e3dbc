"""JSONL record schemas, validating loaders, and an append-only record store.

One line schema per record kind, fields in file order; the leading fields
before the bar form the kind's uniqueness key:

    samples:  {checkpoint_id, benchmark, task_id, sample_index | text[, finish_reason]}
    outcomes: {checkpoint_id, benchmark, task_id | n, c}
    genloss:  {checkpoint_id, example_id | nll_sum, token_count}
    labels:   {checkpoint_id | post_rl_pass1}
    gold:     {benchmark, task_id | answer}
    sft:      {example_id | prompt, response}
    tasks:    {benchmark, task_id | problem}
    points:   {checkpoint_id | x, y}

All of it lives in the _SCHEMAS table. A field's type is the annotation of
the record dataclass's attribute of that name (the JSON name benchmark is
the attribute benchmark_id): a string, an integer, or a number, where a
float field also takes a JSON integer and stores it as a float, and no
integer or number field takes a boolean. Strings must be nonempty except
text, finish_reason, prompt, response and problem. A str | None field may
be absent, and is left out on write when it is None. Unknown fields are
ignored.

There is one reader, iter_records, which streams a file's validated records
and keeps only their keys, for the per-kind uniqueness check; load is
list(iter_records(...)). The commands that read the large files fold the
stream: genloss keeps two numbers per record, and verify holds one task
group of samples plus one (n, c) per task. A file is rejected on its first invalid line,
reporting the line number and offending field. A number field must be
finite: NaN, infinities and integers beyond the float range are rejected.

The store is append-only with a manifest tracking per-file line counts and
whole-file sha256 hashes, so every derived number can be audited back to raw
records. The store keeps each file's hash running across appends, so an
append costs the bytes it writes, not the size of the file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence, get_args, get_type_hints

from .curate import SftExample
from .passk import TaskOutcome
from .stats import LabeledPoint
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


@dataclass(frozen=True)
class SamplingTask:
    """One problem to sample completions for; its key is (benchmark_id, task_id)."""

    task_id: str
    problem: str
    benchmark_id: str


# the one JSON name that differs from its attribute
_ATTRIBUTE = {"benchmark": "benchmark_id"}
_TYPE_NAMES = {str: "string", int: "integer", float: "number"}


class _Schema(NamedTuple):
    """One kind's line format, each field's checks worked out from its annotation."""

    cls: type
    # per field: (JSON name, accepted classes, optional, nonempty, as float, type name)
    checks: tuple[tuple, ...]
    key_len: int  # how many leading fields form the uniqueness key
    order: tuple[int, ...] | None  # constructor argument order, None if file order
    writes: tuple[tuple[str, str, bool], ...]  # (JSON name, attribute, optional)


def _schema(
    cls: type, names: tuple[str, ...], key_len: int, may_be_empty: tuple[str, ...] = ()
) -> _Schema:
    """The schema of lines holding cls's fields under the JSON names, in file
    order; may_be_empty lists the string fields that accept ""."""
    hints = get_type_hints(cls)
    checks = []
    writes = []
    for name in names:
        attr = _ATTRIBUTE.get(name, name)
        hint = hints[attr]
        optional = type(None) in get_args(hint)
        base = next(t for t in get_args(hint) if t is not type(None)) if optional else hint
        accepted = (int, float) if base is float else (base,)
        if optional:
            accepted += (type(None),)
        nonempty = base is str and name not in may_be_empty
        checks.append((name, accepted, optional, nonempty, base is float, _TYPE_NAMES[base]))
        writes.append((name, attr, optional))
    attrs = [_ATTRIBUTE.get(name, name) for name in names]
    init = [f.name for f in fields(cls) if f.name in attrs]
    order = None if init == attrs else tuple(attrs.index(a) for a in init)
    return _Schema(cls, tuple(checks), key_len, order, tuple(writes))


_SCHEMAS = {
    "samples": _schema(
        Sample,
        ("checkpoint_id", "benchmark", "task_id", "sample_index", "text", "finish_reason"),
        4,
        may_be_empty=("text", "finish_reason"),
    ),
    "outcomes": _schema(TaskOutcome, ("checkpoint_id", "benchmark", "task_id", "n", "c"), 3),
    "genloss": _schema(
        GenLossRecord, ("checkpoint_id", "example_id", "nll_sum", "token_count"), 2
    ),
    "labels": _schema(Label, ("checkpoint_id", "post_rl_pass1"), 1),
    "gold": _schema(GoldAnswer, ("benchmark", "task_id", "answer"), 2),
    "sft": _schema(
        SftExample, ("example_id", "prompt", "response"), 1, may_be_empty=("prompt", "response")
    ),
    "tasks": _schema(
        SamplingTask, ("benchmark", "task_id", "problem"), 2, may_be_empty=("problem",)
    ),
    "points": _schema(LabeledPoint, ("checkpoint_id", "x", "y"), 1),
}

KINDS = tuple(_SCHEMAS)


def _kind(kind: str) -> _Schema:
    try:
        return _SCHEMAS[kind]
    except KeyError:
        raise ValueError(f"unknown record kind {kind!r} (expected one of {KINDS})") from None


def finite_float(value: int | float) -> float | None:
    """value as a float, or None if it is infinite, NaN or an int beyond the float range."""
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _field_values(checks: tuple[tuple, ...], obj: dict) -> list:
    values = []
    for name, accepted, optional, nonempty, as_float, type_name in checks:
        if name in obj:
            value = obj[name]
        elif optional:
            value = None
        else:
            raise ValueError(f"missing field {name!r}")
        # exact classes: a JSON true is a bool, never an int or a float
        if value.__class__ not in accepted:
            raise ValueError(
                f"field {name!r}: expected {type_name}, got {type(value).__name__}"
            )
        if nonempty and value == "":
            raise ValueError(f"field {name!r}: must be nonempty")
        if as_float:
            value = finite_float(value)
            if value is None:
                raise ValueError(f"field {name!r}: must be a finite number")
        values.append(value)
    return values


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


def load(kind: str, path: str | Path) -> list:
    """Load and validate one whole JSONL file of the given kind (see iter_records)."""
    return list(iter_records(kind, path))


def to_json_line(kind: str, record: Any) -> str:
    """One record as a JSON line (no newline), fields in file order."""
    obj = {}
    for name, attr, optional in _kind(kind).writes:
        value = getattr(record, attr)
        if value is not None or not optional:
            obj[name] = value
    return json.dumps(obj, ensure_ascii=False)


def dump(kind: str, records: Iterable[Any], path: str | Path) -> int:
    """Write records as JSONL with canonical field order; returns the count."""
    _kind(kind)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(to_json_line(kind, record) + "\n")
            count += 1
    return count


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


def _sha256_of(path: str | Path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest


def file_sha256(path: str | Path) -> str:
    return _sha256_of(path).hexdigest()


def _read_manifest(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
    # the fields that count, append, verify and set_metadata read
    if not (
        isinstance(manifest, dict)
        and isinstance(manifest.get("records"), dict)
        and isinstance(manifest.get("metadata"), dict)
    ):
        raise ValueError(f"{path}: expected an object whose 'records' and 'metadata' are objects")
    for kind, entry in manifest["records"].items():
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("path"), str)
            and entry.get("count").__class__ is int
            and isinstance(entry.get("sha256"), str)
        ):
            raise ValueError(
                f"{path}: records entry {kind!r} needs a string 'path', "
                "an integer 'count' and a string 'sha256'"
            )
    return manifest


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
            self._manifest = _read_manifest(self._manifest_path)
        else:
            self._manifest = {"records": {}, "metadata": {}}
        self._hashes: dict[str, Any] = {}  # kind -> running sha256 of its file

    def path(self, kind: str) -> Path:
        _kind(kind)
        return self.root / f"{kind}.jsonl"

    def count(self, kind: str) -> int:
        _kind(kind)
        entry = self._manifest["records"].get(kind)
        return entry["count"] if entry else 0

    def append(self, kind: str, records: Sequence[Any]) -> int:
        """Append records to the kind's file and refresh its manifest entry."""
        _kind(kind)
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
