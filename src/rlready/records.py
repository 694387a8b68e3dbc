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

The reader is iter_records, which streams a file's validated records and
keeps one hash per key for the per-kind uniqueness check; a hash seen
before is confirmed by reading the file again up to that line, so the check
stays exact. The string fields of a record's key are interned, so the
records read from a file share one string object per distinct id. load is
list(iter_records(...)). iter_part reads the lines of one byte range of a
file, cut at line starts by part_offsets, for a fold in parts; it raises on
any line it might read differently from iter_records, whose read of the
whole file then gives the error. A line is decoded by the JSON scanner when
it holds one value and JSON whitespace after it; any other line goes to
json.loads, which gives the value or the error, so a line is read and an
error worded as json.loads reads and words it. The commands that read the
large files fold the stream: genloss keeps one number per record and a
token total per checkpoint, and verify holds one task group of samples per
process plus one (n, c) per task. A file is rejected on its first invalid
line, reporting the line number and offending field. A number field must be
finite: NaN, infinities and integers beyond the float range are rejected.

The genloss command reads its file with genloss_file_by_checkpoint, which
folds whole lines 64 KiB at a time: a chunk whose lines all hold the four
genloss fields alone, in one key order, is read with one pattern match and
folded column by column, with no record built. The columns hold the serial
fold's values in file order, so the report keeps its bits. A key repeats
only within its checkpoint, so each checkpoint keeps the hashes of its
example ids. A chunk the pattern cannot read (an invalid line, or a valid
one in another layout) or an example id hash seen twice under one
checkpoint sends the whole file through the serial fold, which gives the
report or the error at its line.

The store is append-only with a manifest tracking per-file line counts and
whole-file sha256 hashes, so every derived number can be audited back to raw
records. The store keeps each file's hash running across appends, so an
append costs the bytes it writes, not the size of the file. The manifest
and every report are written whole (write_whole). An input must be a regular
file, as it is read again to confirm a duplicate key or an undecodable line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from array import array
from contextlib import closing
from dataclasses import dataclass, fields
from itertools import groupby
from operator import truediv
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
    interned: tuple[int, ...]  # the positions of the key's string fields
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
    interned = tuple(i for i, check in enumerate(checks[:key_len]) if check[-1] == "string")
    return _Schema(cls, tuple(checks), key_len, interned, order, tuple(writes))


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
    """(field values in file order, record) of one line, or a ValueError; the
    key's strings are interned, so the records of a file share them."""
    values = _field_values(spec.checks, _json_object(line))
    for i in spec.interned:
        values[i] = sys.intern(values[i])
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
    that folds the stream holds no record it has moved past. The string
    fields of each record's key are interned, so the records that a caller
    keeps share one string object per distinct checkpoint, benchmark, task
    or example id.

    For the duplicate check the reader keeps one hash per key, not the key.
    A line whose key hashes to a value already seen is confirmed by reading
    the file again up to that line: an earlier line with an equal key makes
    it a duplicate, and no such line makes it a hash collision, which is
    passed over; a file that ends before the line changed while it was read.
    So the check is exact, and only a duplicate, which ends the read, or a
    collision pays for the second read.
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
                    else:
                        raise ValueError(f"{path}: changed while it was read")
            hashes.add(digest)
            yield record
    except UnicodeDecodeError:
        raise ValueError(f"{path}: line {undecodable_line(path)}: not valid UTF-8") from None


def part_offsets(path: str | Path, size: int, parts: int) -> list[int]:
    """parts + 1 ascending byte offsets that cut the first size bytes of path
    into parts of about equal size: 0, then each at a line start, then size."""
    offsets = [0]
    with open(path, "rb") as fh:
        for i in range(1, parts):
            fh.seek(max(size * i // parts, offsets[-1], 1) - 1)
            fh.readline()  # to the start of the next line
            offsets.append(min(fh.tell(), size))
    offsets.append(size)
    return offsets


def iter_part(kind: str, path: str | Path, start: int, end: int, hashes: array) -> Iterator:
    """Yield the records of the lines in bytes [start, end) of path, which
    part_offsets cut, as iter_records reads them, and append each key's hash
    to hashes; the caller checks the hashes of every part for a repeat.

    The bytes are split at each \\n, so a line that the text reader would
    split elsewhere raises a ValueError here: a \\r that does not close a
    \\r\\n. So does an invalid line, a byte that is not UTF-8, or a file that
    ends before end. Its message is not iter_records's: the caller reads the
    file again with iter_records, which gives the error at its line.
    """
    spec = _kind(kind)
    key_len = spec.key_len
    for chunk in _chunks(path, start, end):
        if b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):
            raise ValueError(f"{path}: a \\r that ends no \\r\\n")
        lines = chunk.decode("utf-8").split("\n")
        if not lines[-1]:
            lines.pop()  # after the chunk's last \n
        for line in lines:
            values, record = _parse(line, spec)
            hashes.append(hash(tuple(values[:key_len])))
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


def write_whole(path: str | Path, parts: Iterable[str]) -> None:
    """Write the text parts to a temp file beside path, then os.replace path
    with it; on any exception the temp file is removed. A symlink is resolved
    first; a path that is not a regular file (a FIFO, /dev/stdout) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
        return
    path = Path(os.path.realpath(path) if os.path.islink(path) else path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)  # one that a killed process of this pid left goes too
        raise


def write_json(path: str | Path, payload: Any) -> None:
    """Write payload whole as sorted JSON indented by 2, and a newline."""
    write_whole(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def dump(kind: str, records: Sequence[Any], path: str | Path) -> int:
    """Write records whole as JSONL with canonical field order; returns the count."""
    _kind(kind)
    write_whole(path, (to_json_line(kind, record) + "\n" for record in records))
    return len(records)


def _fold_genloss(records: Iterable[GenLossRecord], weighted: bool) -> dict[str, list]:
    """checkpoint -> [nll_sum column, token_count total], in input order;
    per_example (weighted False) keeps the per-example means in the column
    and leaves the total at 0."""
    columns: dict[str, list] = {}
    for r in records:
        entry = columns.get(r.checkpoint_id)
        if entry is None:
            entry = columns[r.checkpoint_id] = [array("d"), 0]
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
    the unweighted mean of per-example means. Only an array('d') column of
    nll_sum values and a running token total are kept, not the records, so
    records may be a stream of any length. Each float sum is the builtin sum
    of the column in input order, and an integer total is exact, so a stream
    and a list of the same records give the same bits.
    genloss_file_by_checkpoint builds the same columns from a file in
    chunks, in file order, so it gives the same bits as well.
    """
    weighted = _check_mode(mode)
    return _collapse(_fold_genloss(records, weighted), weighted)


# a genloss field's value on a line of the pattern: each group is text that
# json (for an id with an escape), float and int read as the line's JSON
# reads, and that the record's checks accept (a nonempty id with no raw
# control character, an unsigned number whose float is finite, a count in
# [1, 10**18))
_VALUE = {
    "string": r'"((?=[^"])[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"',
    "number": r"((?:0|[1-9][0-9]{0,99})(?:\.[0-9]{1,100})?(?:[eE][-+]?[0-9]{1,2})?)",
    "integer": r"([1-9][0-9]{0,17})",
}
_GENLOSS_TYPES = {check[0]: check[-1] for check in _SCHEMAS["genloss"].checks}


def _pattern_columns(text: str) -> list | None:
    """The checkpoint ids, example ids, nll_sum floats and token_count ints of
    the lines of text, if each line holds the genloss fields alone, in the
    order of the first line's, with JSON spaces and tabs around the tokens;
    else None."""
    try:
        names = tuple(_json_object(text[: text.find("\n") + 1 or len(text)]))
    except ValueError:
        return None
    if sorted(names) != sorted(_GENLOSS_TYPES):
        return None
    pattern = r"^[ \t]*\{%s\}[ \t]*(?:\r?\n|\Z)" % ",".join(
        rf'[ \t]*"{name}"[ \t]*:[ \t]*{_VALUE[_GENLOSS_TYPES[name]]}[ \t]*' for name in names
    )
    rows = re.findall(pattern, text, re.MULTILINE)  # re keeps the compiled pattern
    if len(rows) != text.count("\n") + (not text.endswith("\n")):
        return None
    columns = dict(zip(names, zip(*rows)))
    ids = [columns["checkpoint_id"], columns["example_id"]]
    if "\\" in text:  # some id has an escape: decode each column at once
        ids = [json.loads('["%s"]' % '","'.join(column)) for column in ids]
    return [*ids, list(map(float, columns["nll_sum"])), list(map(int, columns["token_count"]))]


_CHUNK_BYTES = 1 << 16


def _chunks(path: str | Path, start: int = 0, end: int | None = None) -> Iterator[bytes]:
    """The whole lines of bytes [start, end) of path, or from start to its
    end if end is None, about 64 KiB at a time: a read, then the rest of
    its last line. A ValueError if the file ends before end."""
    with open(path, "rb") as fh:
        fh.seek(start)
        while end is None or start < end:
            chunk = fh.read(_CHUNK_BYTES if end is None else min(_CHUNK_BYTES, end - start))
            if not chunk.endswith(b"\n"):
                chunk += fh.readline(-1 if end is None else end - start - len(chunk))
            if not chunk:
                if end is None:
                    return
                raise ValueError(f"{path}: ends before byte {end}")
            start += len(chunk)
            yield chunk


def _fold_chunks(path: str | Path, weighted: bool) -> dict[str, list] | None:
    """_fold_genloss's columns of the genloss lines of path, each chunk's
    from _pattern_columns; None where iter_records must decide: a chunk
    that the pattern cannot read, or an example id hash seen twice under
    one checkpoint."""
    columns: dict[str, list] = {}
    # a key repeats only within its checkpoint, so each checkpoint keeps the
    # hashes of its example ids, packed: a set would keep an int and a table
    # slot per key alive between the chunks
    hashes: dict[str, array] = {}
    try:
        for chunk in _chunks(path):
            text = chunk.decode("utf-8")
            chunk_columns = _pattern_columns(text)
            if chunk_columns is None:
                return None
            ckpts, examples, nlls, tokens = chunk_columns
            at = 0
            for ckpt, run in groupby(ckpts):
                stop = at + len(list(run))
                entry = columns.get(ckpt)
                if entry is None:
                    entry = columns[ckpt] = [array("d"), 0]
                    hashes[ckpt] = array("q")
                hashes[ckpt].extend(map(hash, examples[at:stop]))
                if weighted:
                    entry[0].extend(nlls[at:stop])
                    entry[1] += sum(tokens[at:stop])
                else:
                    entry[0].extend(map(truediv, nlls[at:stop], tokens[at:stop]))
                at = stop
    except (OSError, ValueError):  # UnicodeDecodeError too
        return None
    if any(len(set(column)) != len(column) for column in hashes.values()):
        return None
    return columns


def genloss_file_by_checkpoint(path: str | Path, mode: str = "token_weighted") -> dict[str, float]:
    """genloss_by_checkpoint(iter_records("genloss", path), mode), folded in
    64 KiB chunks.

    A chunk whose lines all hold the genloss fields alone, in the key order
    of its first line, is read with one pattern match (_pattern_columns),
    which accepts only values that iter_records accepts and reads them as
    it does, and the columns hold the serial fold's values in file order,
    so every sum gives its bits. Wherever the chunks cannot vouch for the
    serial result, the serial fold runs instead, over the whole file: on a
    chunk the pattern cannot read (an invalid line, an extra field, keys in
    mixed orders, an escaped key, a number the pattern leaves to JSON, a
    \\r that does not close a \\r\\n), an example id hash seen twice under
    one checkpoint, or a path that is not a regular file. So every error is
    the one iter_records gives, with its line number, and a hash collision
    is confirmed as it confirms one.
    """
    weighted = _check_mode(mode)
    columns = _fold_chunks(path, weighted) if os.path.isfile(path) else None
    if columns is None:
        return genloss_by_checkpoint(iter_records("genloss", path), mode)
    return _collapse(columns, weighted)


_HASH_BUFFER = 1 << 18


def _sha256_of(path: str | Path):
    """The sha256 object of the bytes of path. The file is read into one
    fixed buffer, and hashlib hashes it without the GIL."""
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(_HASH_BUFFER))
    with open(path, "rb", buffering=0) as fh:
        while size := fh.readinto(buffer):
            digest.update(buffer[:size])
    return digest


def file_sha256(path: str | Path) -> str:
    """The hex sha256 of the bytes of path."""
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
    and verify() reports the mismatch.
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
        write_json(self._manifest_path, self._manifest)
        return len(records)

    def set_metadata(self, key: str, value: Any) -> None:
        self._manifest["metadata"][key] = value
        write_json(self._manifest_path, self._manifest)

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
