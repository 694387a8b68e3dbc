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
and keeps one hash per key for the per-kind uniqueness check; a hash seen
before is confirmed by reading the file again up to that line, so the check
stays exact. load is list(iter_records(...)). A line is decoded by the JSON
scanner when it holds one value and JSON whitespace after it; any other line
goes to json.loads, which gives the value or the error, so a line is read
and an error worded as json.loads reads and words it. The commands that
read the large files fold the stream: genloss keeps one number per record
and a token total per checkpoint, and verify holds one task group of
samples plus one (n, c) per task. A file is rejected on its first invalid
line, reporting the line number and offending field. A number field must be
finite: NaN, infinities and integers beyond the float range are rejected.

The genloss command reads its file with genloss_file_by_checkpoint, which
cuts a file of 8 MiB or more at line starts into parts of at least 4 MiB,
one per CPU. This process folds the first part and forked workers fold the
rest, each with iter_records' line checks and genloss_by_checkpoint's fold;
the parts' columns join in file order, so the report keeps its bits. Only
fork starts workers, since they must hash keys with this process's hash
secret; without it the file is folded here. An invalid line, a key hash
seen twice or a worker that fails sends the whole file through the serial
fold, which reports the error at its line.

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
import threading
from array import array
from contextlib import closing
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


_scan_once = json.JSONDecoder().scan_once


def _json_object(line: str) -> dict:
    """The JSON object on one line, as json.loads reads it, or a ValueError
    saying that the line is empty, not JSON or not an object."""
    try:
        obj, end = _scan_once(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = -1
    if end < 0 or line[end:].strip(" \t\n\r"):
        # what the scanner could not take whole, json.loads decides and words
        if not line.strip():
            raise ValueError("empty line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    return obj


def _parse(line: str, spec: _Schema) -> tuple[list, Any]:
    """(field values in file order, record) of one line, or a ValueError."""
    values = _field_values(spec.checks, _json_object(line))
    order = spec.order
    return values, spec.cls(*values) if order is None else spec.cls(*[values[i] for i in order])


def _rows(path: str | Path, spec: _Schema) -> Iterator[tuple[int, tuple, Any]]:
    """Yield (line number, key, record) for each line of a JSONL file, in file
    order, raising on the first malformed line or schema violation."""
    key_len = spec.key_len
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                values, record = _parse(line, spec)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            yield lineno, tuple(values[:key_len]), record


def undecodable_line(path: str | Path) -> int:
    """The number of the first line of path that is not valid UTF-8, its lines
    split as the text-mode reader splits them."""
    # surrogateescape turns each byte that does not decode into a lone
    # surrogate, which valid UTF-8 never yields and which cannot be encoded
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return lineno
    raise ValueError(f"{path}: changed while it was read")


def iter_records(kind: str, path: str | Path) -> Iterator:
    """Yield the validated records of one JSONL file of the given kind, in file order.

    The file is rejected on the first malformed line, schema violation, byte
    that is not UTF-8 or duplicate key, with the line number and field name,
    so a caller must not act on what it received before the error. (Bytes
    are decoded a buffer ahead of the lines, so a byte that is not UTF-8 can
    be reported before an invalid line a few kilobytes above it.) A caller
    that folds the stream holds no record it has moved past.

    For the duplicate check the reader keeps one hash per key, not the key.
    A line whose key hashes to a value already seen is confirmed by reading
    the file again up to that line: an earlier line with an equal key makes
    it a duplicate, and no such line makes it a hash collision, which is
    passed over. So the check is exact, and only a duplicate, which ends the
    read, or a collision pays for the second read.
    """
    spec = _kind(kind)
    hashes: set[int] = set()
    try:
        for lineno, key, record in _rows(path, spec):
            digest = hash(key)
            if digest in hashes:
                with closing(_rows(path, spec)) as earlier:
                    for first, other, _ in earlier:
                        if first == lineno:
                            break  # a collision: no earlier line has this key
                        if other == key:
                            raise ValueError(
                                f"{path}: line {lineno}: duplicate {kind} key {key!r} "
                                f"(first seen at line {first})"
                            )
            hashes.add(digest)
            yield record
    except UnicodeDecodeError:
        raise ValueError(f"{path}: line {undecodable_line(path)}: not valid UTF-8") from None


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


def _fold_genloss(records: Iterable[GenLossRecord], weighted: bool) -> dict[str, list]:
    """checkpoint -> [nll_sum column, token_count total], in input order;
    per_example (weighted False) keeps the per-example means in the column
    and leaves the total at 0."""
    columns: dict[str, list] = {}
    for r in records:
        entry = columns.get(r.checkpoint_id)
        if entry is None:
            entry = columns[r.checkpoint_id] = [[], 0]
        if weighted:
            entry[0].append(r.nll_sum)
            entry[1] += r.token_count
        else:
            entry[0].append(r.nll_sum / r.token_count)
    return columns


def _collapse(columns: dict[str, list], weighted: bool) -> dict[str, float]:
    if weighted:
        return {ckpt: sum(nll) / tokens for ckpt, (nll, tokens) in sorted(columns.items())}
    return {ckpt: sum(means) / len(means) for ckpt, (means, _) in sorted(columns.items())}


def _check_mode(mode: str) -> bool:
    """Whether mode is token_weighted; a ValueError if it is no mode."""
    if mode not in ("token_weighted", "per_example"):
        raise ValueError(f"mode must be 'token_weighted' or 'per_example', got {mode!r}")
    return mode == "token_weighted"


def genloss_by_checkpoint(
    records: Iterable[GenLossRecord], mode: str = "token_weighted"
) -> dict[str, float]:
    """Collapse each checkpoint's per-example losses into a scalar, in one pass.

    token_weighted (default) is sum(nll_sum)/sum(token_count), the corpus
    mean per-token NLL a trainer reports as validation loss; per_example is
    the unweighted mean of per-example means. Only a column of nll_sum values
    and a running token total are kept, not the records, so records may be a
    stream of any length. Each float sum is the builtin sum of a list in input
    order, and an integer total is exact, so a stream and a list of the same
    records give the same bits. genloss_file_by_checkpoint runs this fold on
    the parts of a large file at once, and joins the parts' columns in file
    order, so it gives the same bits as well.
    """
    weighted = _check_mode(mode)
    return _collapse(_fold_genloss(records, weighted), weighted)


# a file is cut into parts of at least this many bytes
_PART_BYTES = 4 << 20


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _cut(path: str | Path, size: int, parts: int) -> list[int]:
    """[0, ..., size]: the offsets of the lines that start nearest after each
    of the parts - 1 even cuts of the file, without repeats."""
    bounds = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(i * size // parts - 1)
            fh.readline()
            at = fh.tell()
            if bounds[-1] < at < size:
                bounds.append(at)
    bounds.append(size)
    return bounds


def _part_records(path: str | Path, start: int, end: int, hashes: set[int]) -> Iterator:
    """The genloss records on the lines in bytes [start, end) of path, each
    parsed and validated as iter_records does, with each key's hash added to
    hashes; a ValueError on any line where the result might differ from
    iter_records': an invalid line, a key hash seen before, or a carriage
    return, at which the text reader also ends a line, other than one of a
    closing \\r\\n."""
    spec = _SCHEMAS["genloss"]
    key_len = spec.key_len
    with open(path, "rb") as fh:
        fh.seek(start)
        for raw in fh:
            if b"\r" in raw and not (raw.endswith(b"\r\n") and raw.count(b"\r") == 1):
                raise ValueError("a line break the text reader makes")
            values, record = _parse(raw.decode("utf-8"), spec)
            digest = hash(tuple(values[:key_len]))
            if digest in hashes:
                raise ValueError("a key hash seen before")
            hashes.add(digest)
            yield record
            start += len(raw)
            if start >= end:
                return


def _fold_part(path: str | Path, start: int, end: int, weighted: bool):
    """(columns, key hashes) of the genloss lines in bytes [start, end) of
    path, or None where iter_records must decide (see _part_records)."""
    hashes: set[int] = set()
    try:
        return _fold_genloss(_part_records(path, start, end, hashes), weighted), hashes
    except ValueError:  # UnicodeDecodeError too
        return None


def _fold_part_worker(path: str | Path, start: int, end: int, weighted: bool):
    """_fold_part in a worker process, its hashes packed for the trip back."""
    folded = _fold_part(path, start, end, weighted)
    return None if folded is None else (folded[0], array("q", folded[1]))


def _fold_in_parts(path: str | Path, bounds: list[int], weighted: bool) -> dict | None:
    """The columns of _fold_genloss over the whole file, folded in the parts
    between bounds, the first here and each other one in a forked worker;
    None if a part is invalid, a key hash repeats, or a worker fails."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        # fork: a worker hashes the str keys with this process's hash secret
        with ProcessPoolExecutor(
            len(bounds) - 2, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [
                pool.submit(_fold_part_worker, path, start, end, weighted)
                for start, end in zip(bounds[1:-1], bounds[2:])
            ]
            own = _fold_part(path, bounds[0], bounds[1], weighted)
            results = [future.result() for future in futures]
    except (OSError, RuntimeError):  # the pool did not start, or a worker died
        return None
    if own is None or None in results:
        return None
    columns, seen = own
    for i, (part_columns, hashes) in enumerate(results):
        if not seen.isdisjoint(hashes):
            return None
        if i < len(results) - 1:
            seen.update(hashes)
        for ckpt, (column, tokens) in part_columns.items():
            entry = columns.get(ckpt)
            if entry is None:
                columns[ckpt] = [column, tokens]
            else:
                entry[0] += column
                entry[1] += tokens
    return columns


def genloss_file_by_checkpoint(path: str | Path, mode: str = "token_weighted") -> dict[str, float]:
    """genloss_by_checkpoint(iter_records("genloss", path), mode), with a
    large file folded in parts on separate CPUs.

    The file is cut at line starts into min(usable CPUs, size // 4 MiB)
    parts. This process folds the first while forked workers fold the rest,
    each with iter_records' per-line parse and validation and
    genloss_by_checkpoint's fold. Each part's columns are joined in file
    order, so every sum sees the list of the serial fold and gives its bits.
    Each part keeps one hash per key, and the parts' hashes must not meet.

    With fewer than two parts, without fork (the workers must hash the keys
    with this process's hash secret), or with other threads running, which
    fork cannot take along safely, the file is folded here. Wherever a part
    cannot vouch for the serial result, the serial fold runs instead: on an
    invalid line, a key hash seen twice, a pool that cannot start or a
    worker that dies. So every error is the one iter_records gives, with
    its line number, and a hash collision is confirmed as it confirms one.
    """
    weighted = _check_mode(mode)
    try:
        size = os.path.getsize(path)
    except OSError:
        size = 0  # the serial read reports it
    parts = min(_usable_cpus(), size // _PART_BYTES)
    if parts >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
        bounds = _cut(path, size, parts)
        if len(bounds) > 2:
            columns = _fold_in_parts(path, bounds, weighted)
            if columns is not None:
                return _collapse(columns, weighted)
    return genloss_by_checkpoint(iter_records("genloss", path), mode)


def _sha256_of(path: str | Path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest


def file_sha256(path: str | Path) -> str:
    return _sha256_of(path).hexdigest()


def read_json(path: str | Path) -> Any:
    """The JSON document in path, or a ValueError that names the file if it is
    not UTF-8 or not JSON."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(f"{path}: not valid UTF-8") from None


def _read_manifest(path: Path) -> dict:
    manifest = read_json(path)
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
