import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_records as reference
from rlready import records
from rlready.curate import SftExample
from rlready.passk import TaskOutcome
from rlready.records import (
    GenLossRecord,
    Label,
    RecordStore,
    SamplingTask,
    dump,
    file_sha256,
    genloss_by_checkpoint,
    iter_records,
    load,
    to_json_line,
)
from rlready.stats import LabeledPoint
from rlready.verifier import GoldAnswer, Sample


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestLoad:
    def test_outcomes_round_trip(self, tmp_path):
        path = write_lines(
            tmp_path / "outcomes.jsonl",
            ['{"checkpoint_id":"m1","benchmark":"math500","task_id":"t1","n":64,"c":32}'],
        )
        (record,) = load("outcomes", path)
        assert record == TaskOutcome("m1", "math500", "t1", n=64, c=32)

    def test_invariant_violation_reports_line(self, tmp_path):
        path = write_lines(
            tmp_path / "outcomes.jsonl",
            [
                '{"checkpoint_id":"m1","benchmark":"b","task_id":"t1","n":64,"c":2}',
                '{"checkpoint_id":"m1","benchmark":"b","task_id":"t2","n":64,"c":65}',
            ],
        )
        with pytest.raises(ValueError) as exc:
            load("outcomes", path)
        message = str(exc.value)
        assert "line 2" in message and "c" in message

    def test_duplicate_key_names_both_lines(self, tmp_path):
        line = '{"checkpoint_id":"m1","benchmark":"math500","task_id":"t1","n":4,"c":1}'
        path = write_lines(tmp_path / "outcomes.jsonl", [line, line])
        with pytest.raises(ValueError) as exc:
            load("outcomes", path)
        message = str(exc.value)
        assert "line 2" in message and "first seen at line 1" in message

    def test_malformed_json_reports_line(self, tmp_path):
        path = write_lines(tmp_path / "labels.jsonl", ["{not json"])
        with pytest.raises(ValueError, match="line 1: malformed JSON"):
            load("labels", path)

    def test_missing_field_named(self, tmp_path):
        path = write_lines(tmp_path / "labels.jsonl", ['{"checkpoint_id":"m1"}'])
        with pytest.raises(ValueError, match="missing field 'post_rl_pass1'"):
            load("labels", path)

    def test_wrong_type_named(self, tmp_path):
        path = write_lines(
            tmp_path / "outcomes.jsonl",
            ['{"checkpoint_id":"m1","benchmark":"b","task_id":"t","n":"64","c":1}'],
        )
        with pytest.raises(ValueError, match="field 'n': expected integer"):
            load("outcomes", path)

    def test_bool_is_not_a_count(self, tmp_path):
        path = write_lines(
            tmp_path / "outcomes.jsonl",
            ['{"checkpoint_id":"m1","benchmark":"b","task_id":"t","n":true,"c":0}'],
        )
        with pytest.raises(ValueError, match="field 'n'"):
            load("outcomes", path)

    def test_empty_line_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"checkpoint_id":"m1","post_rl_pass1":0.5}\n\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: empty line"):
            load("labels", path)

    def test_a_byte_that_is_not_utf8_is_reported_at_its_line(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        # the reader reads text, where \r\n and a lone \r also end a line
        path.write_bytes(b'{"checkpoint_id":"a","post_rl_pass1":0.5}\r\n'
                         b'{"checkpoint_id":"b","post_rl_pass1":0.5}\r'
                         b'{"checkpoint_id":"c","post_rl_pass1":0.5}\n'
                         b'{"checkpoint_id":"\xff","post_rl_pass1":0.5}\n')
        with pytest.raises(ValueError) as exc:
            load("labels", path)
        assert str(exc.value) == f"{path}: line 4: not valid UTF-8"

    def test_iter_records_streams_and_stops_at_the_bad_line(self, tmp_path):
        path = write_lines(
            tmp_path / "labels.jsonl",
            ['{"checkpoint_id":"m1","post_rl_pass1":0.5}', '{"checkpoint_id":"m1"}'],
        )
        stream = iter_records("labels", path)
        assert next(stream) == Label("m1", 0.5)
        with pytest.raises(ValueError, match="line 2: missing field"):
            next(stream)
        with pytest.raises(ValueError, match="line 2: missing field"):
            load("labels", path)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown record kind"):
            load("mystery", tmp_path / "x.jsonl")

    def test_sample_with_finish_reason(self, tmp_path):
        path = write_lines(
            tmp_path / "samples.jsonl",
            [
                '{"checkpoint_id":"m1","benchmark":"b","task_id":"t","sample_index":0,'
                '"text":"\\\\boxed{1}","finish_reason":"length"}'
            ],
        )
        (sample,) = load("samples", path)
        assert sample.finish_reason == "length"


LABEL_LINE = '{"checkpoint_id":"m2","post_rl_pass1":0.25}'
# case -> the bytes after a valid first line; the reader decodes with the JSON
# scanner what json.loads would accept, and leaves every other line to it
EDGE_LINES = {
    "leading space": b" " + LABEL_LINE.encode() + b"\n",
    "BOM": "\ufeff".encode() + LABEL_LINE.encode() + b"\n",
    "trailing data": LABEL_LINE.encode() + b" x\n",
    "trailing JSON whitespace": LABEL_LINE.encode() + b" \t \n",
    "\\r before trailing whitespace": LABEL_LINE.encode() + b" \r \n",
    "\\r\\n": LABEL_LINE.encode() + b"\r\n",
    "no final newline": LABEL_LINE.encode(),
    "\\x0c after the object": LABEL_LINE.encode() + b"\x0c\n",
    "\\x0c alone": b"\x0c\n",
    "U+2028 after the object": LABEL_LINE.encode() + "\u2028".encode() + b"\n",
    "U+2028 alone": "\u2028".encode() + b"\n",
    "two objects on one line": (LABEL_LINE + LABEL_LINE).encode() + b"\n",
    "blank line": b"\n",
    "spaces only": b"   \n",
    "not an object": b"[1, 2]\n",
    "a value cut short": b'{"checkpoint_id": }\n',
    "an object cut short": b'{"checkpoint_id": "m2"\n',
}


@pytest.mark.parametrize("case", sorted(EDGE_LINES))
def test_an_edge_line_reads_as_json_loads_reads_it(case, tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_bytes(b'{"checkpoint_id":"m1","post_rl_pass1":0.5}\n' + EDGE_LINES[case])
    # the reader of the earlier revision, which gave every line to json.loads
    expected = _error_of(lambda: list(reference.iter_records("labels", path)))
    assert _error_of(lambda: load("labels", path)) == expected


KIND_EXAMPLES = {
    "samples": [
        Sample("m1", "b1", "t1", 0, "some text"),
        Sample("m1", "b1", "t1", 1, "", finish_reason="length"),
    ],
    "outcomes": [TaskOutcome("m1", "b1", "t1", 64, 10), TaskOutcome("m1", "b1", "t2", 64, 0)],
    "genloss": [GenLossRecord("m1", "e1", 10.5, 42)],
    "labels": [Label("m1", 0.5), Label("m2", 0.75)],
    "gold": [GoldAnswer("b1", "t1", "27")],
    "sft": [SftExample("e1", "prompt", "response")],
    "tasks": [SamplingTask("t1", "problem", "b1"), SamplingTask("t1", "", "b2")],
    "points": [LabeledPoint("m1", 0.25, 0.5), LabeledPoint("m2", -1.0, 0.75)],
}


@pytest.mark.parametrize("kind", sorted(KIND_EXAMPLES))
def test_dump_load_round_trip(kind, tmp_path):
    path = tmp_path / f"{kind}.jsonl"
    originals = KIND_EXAMPLES[kind]
    assert dump(kind, originals, path) == len(originals)
    loaded = load(kind, path)
    if kind == "sft":
        # sft files carry no length; it is computed downstream
        originals = [SftExample(e.example_id, e.prompt, e.response) for e in originals]
    assert loaded == originals
    # and a second round trip is line-identical
    path2 = tmp_path / "again.jsonl"
    dump(kind, loaded, path2)
    assert path.read_text() == path2.read_text()


# The six kinds that reference_records covers: each field's JSON name and what
# the old parsers accepted for it ("str" nonempty, "text" any string, "int",
# "num" int or float, "opt" absent, null or any string); bool is never a number
REFERENCE_FIELDS = {
    "samples": {"checkpoint_id": "str", "benchmark": "str", "task_id": "str",
                "sample_index": "int", "text": "text", "finish_reason": "opt"},
    "outcomes": {"checkpoint_id": "str", "benchmark": "str", "task_id": "str",
                 "n": "int", "c": "int"},
    "genloss": {"checkpoint_id": "str", "example_id": "str", "nll_sum": "num",
                "token_count": "int"},
    "labels": {"checkpoint_id": "str", "post_rl_pass1": "num"},
    "gold": {"benchmark": "str", "task_id": "str", "answer": "str"},
    "sft": {"example_id": "str", "prompt": "text", "response": "text"},
}
ABSENT = object()
FIELD_VALUES = [ABSENT, None, True, 0, -3, 2.5, "", "x", "ü", [], {}]


def _fits(rule, value):
    if value is ABSENT:
        return rule == "opt"
    if rule == "opt":
        return value is None or isinstance(value, str)
    if rule in ("str", "text"):
        return isinstance(value, str) and (value != "" or rule == "text")
    accepted = int if rule == "int" else (int, float)
    return isinstance(value, accepted) and not isinstance(value, bool)


@st.composite
def reference_lines(draw):
    """A line of one kind: every field a value of its type, then up to two redrawn
    from all of FIELD_VALUES, so accepted lines and single bad fields are common."""
    kind = draw(st.sampled_from(sorted(REFERENCE_FIELDS)))
    fields = REFERENCE_FIELDS[kind]
    values = {
        name: draw(st.sampled_from([v for v in FIELD_VALUES if _fits(rule, v)]))
        for name, rule in fields.items()
    }
    for name in draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)):
        values[name] = draw(st.sampled_from(FIELD_VALUES))
    return kind, {name: value for name, value in values.items() if value is not ABSENT}


def _error_of(fn):
    try:
        return fn(), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=400, deadline=None)
@given(reference_lines())
def test_schema_table_matches_the_reference_parsers(case):
    kind, obj = case
    old, old_error = _error_of(lambda: reference._PARSERS[kind](obj))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(Path(tmp) / "in.jsonl", [json.dumps(obj)])
        loaded, new_error = _error_of(lambda: load(kind, path))
        assert (old_error is None) == (new_error is None), (old_error, new_error)
        if old_error is None:
            assert loaded == [old]
            old_line = json.dumps(reference._WRITERS[kind](old), ensure_ascii=False)
            assert to_json_line(kind, loaded[0]) == old_line
            # the same key: a repeated line is a duplicate of that key
            write_lines(path, [old_line, old_line])
            _, duplicate = _error_of(lambda: load(kind, path))
            assert f"key {reference._KEYS[kind](old)!r}" in duplicate
            return
    bad = [name for name, rule in REFERENCE_FIELDS[kind].items()
           if not _fits(rule, obj.get(name, ABSENT))]
    if len(bad) == 1:
        named = f"'{bad[0]}'"
        assert named in old_error and named in new_error.split("line 1: ", 1)[1]


# ------------------------------------------------- the one-hash-per-key index


def _planted_line(kind, checkpoint, i, salt):
    """Line i of a samples or genloss file; the key depends on checkpoint and i
    only, so lines with another salt differ outside the key."""
    if kind == "samples":
        row = {"checkpoint_id": checkpoint, "benchmark": "b", "task_id": f"t{i // 3}",
               "sample_index": i % 3, "text": f"x{salt}"}
    else:
        row = {"checkpoint_id": checkpoint, "example_id": f"e{i}", "nll_sum": salt / 4,
               "token_count": 1 + salt}
    return json.dumps(row)


PLANTS = ("adjacent", "far apart", "other checkpoint", "after a malformed line")


@st.composite
def planted_duplicate_files(draw):
    """A samples or genloss file of distinct keys with up to three planted lines:
    a duplicate right after its first line or further on, the same key under
    another checkpoint (not a duplicate), or a malformed line and then a
    duplicate after it."""
    kind = draw(st.sampled_from(["samples", "genloss"]))
    n = draw(st.integers(1, 30))
    lines = [_planted_line(kind, "m1", i, i) for i in range(n)]
    for plant in draw(st.lists(st.sampled_from(PLANTS), max_size=3)):
        i = draw(st.integers(0, n - 1))
        first = lines.index(_planted_line(kind, "m1", i, i))
        salt = draw(st.integers(0, 99))
        if plant == "adjacent":
            lines.insert(first + 1, _planted_line(kind, "m1", i, salt))
        elif plant == "far apart":
            at = draw(st.integers(first + 1, len(lines)))
            lines.insert(at, _planted_line(kind, "m1", i, salt))
        elif plant == "other checkpoint":
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, _planted_line(kind, "m2", i, salt))
        else:
            at = draw(st.integers(first + 1, len(lines)))
            lines[at:at] = ['{"checkpoint_id": "m1",', _planted_line(kind, "m1", i, salt)]
    return kind, lines


def _few_buckets(key):
    """A hash with three values, so most keys collide with some earlier key."""
    return len(repr(key)) % 3


@settings(max_examples=300, deadline=None)
@given(planted_duplicate_files(), st.booleans())
def test_hash_index_matches_the_key_index(case, coarse):
    kind, lines = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_lines(Path(tmp) / f"{kind}.jsonl", lines)
        expected = _error_of(lambda: list(reference.iter_records(kind, path)))
        if coarse:
            with mock.patch.object(records, "hash", _few_buckets, create=True):
                got = _error_of(lambda: load(kind, path))
        else:
            got = _error_of(lambda: load(kind, path))
    assert got == expected


def test_a_file_whose_keys_all_collide_loads_and_names_the_true_first_line(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(records, "hash", lambda key: 0, raising=False)
    lines = [_planted_line("samples", "m1", i, i) for i in range(40)]
    path = write_lines(tmp_path / "samples.jsonl", lines)
    loaded = load("samples", path)
    assert len(loaded) == 40 and loaded == list(reference.iter_records("samples", path))
    # line 18 holds i = 17: a duplicate of it after every other key names line 18
    write_lines(path, lines + [_planted_line("samples", "m1", 17, 99)])
    with pytest.raises(ValueError) as exc:
        load("samples", path)
    assert str(exc.value) == (
        f"{path}: line 41: duplicate samples key ('m1', 'b', 't5', 2) (first seen at line 18)")


def _scalar(records, mode="token_weighted"):
    """The one checkpoint's loss from genloss_by_checkpoint."""
    (value,) = genloss_by_checkpoint(records, mode).values()
    return value


class TestAggregateGenloss:
    def test_token_weighted(self):
        records = [GenLossRecord("m1", "a", 10, 10), GenLossRecord("m1", "b", 0, 10)]
        assert _scalar(records, "token_weighted") == 0.5

    def test_per_example_same_here(self):
        records = [GenLossRecord("m1", "a", 10, 10), GenLossRecord("m1", "b", 0, 10)]
        assert _scalar(records, "per_example") == 0.5

    def test_modes_differ(self):
        records = [GenLossRecord("m1", "a", 2, 1), GenLossRecord("m1", "b", 2, 3)]
        assert _scalar(records, "token_weighted") == pytest.approx(1.0)
        assert _scalar(records, "per_example") == pytest.approx(4 / 3)

    def test_token_weighted_split_invariant(self):
        whole = [GenLossRecord("m1", "a", 9.0, 12)]
        split = [GenLossRecord("m1", "a1", 4.0, 5), GenLossRecord("m1", "a2", 5.0, 7)]
        assert _scalar(whole) == pytest.approx(_scalar(split), abs=1e-12)

    def test_empty_stream_gives_no_checkpoints(self):
        assert genloss_by_checkpoint([]) == {}
        assert genloss_by_checkpoint([], "per_example") == {}

    def test_mixed_checkpoints_give_one_loss_each(self):
        records = [GenLossRecord("m2", "a", 1, 1), GenLossRecord("m1", "b", 3, 2)]
        assert genloss_by_checkpoint(records) == {"m1": 1.5, "m2": 1.0}

    def test_one_pass_over_interleaved_checkpoints_keeps_the_formulas_bits(self):
        rng = random.Random(13)
        records = [
            GenLossRecord(f"m{i % 3}", f"e{i}", rng.uniform(0.0, 500.0), rng.randint(1, 400))
            for i in range(300)
        ]
        weighted = genloss_by_checkpoint(iter(records), "token_weighted")
        per_example = genloss_by_checkpoint(iter(records), "per_example")
        assert list(weighted) == list(per_example) == ["m0", "m1", "m2"]
        for ckpt in weighted:
            own = [r for r in records if r.checkpoint_id == ckpt]
            # the two expressions, summed over the checkpoint's records in file order
            token_mean = sum(r.nll_sum for r in own) / sum(r.token_count for r in own)
            example_mean = sum(r.nll_sum / r.token_count for r in own) / len(own)
            assert weighted[ckpt].hex() == token_mean.hex()
            assert per_example[ckpt].hex() == example_mean.hex()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be"):
            genloss_by_checkpoint([GenLossRecord("m1", "a", 1, 1)], "median")
        with pytest.raises(ValueError, match="mode must be"):
            genloss_by_checkpoint([], "median")

    def test_validation(self):
        with pytest.raises(ValueError, match="nll_sum"):
            GenLossRecord("m1", "a", -1.0, 1)
        with pytest.raises(ValueError, match="token_count"):
            GenLossRecord("m1", "a", 1.0, 0)


class TestRecordStore:
    def test_append_and_reload(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        samples = [Sample("m1", "b", "t", i, f"text {i}") for i in range(3)]
        assert store.append("samples", samples) == 3
        assert store.count("samples") == 3
        assert store.load("samples") == samples

    def test_append_only_accumulates(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        store.append("samples", [Sample("m1", "b", "t", 0, "a")])
        store.append("samples", [Sample("m1", "b", "t", 1, "b")])
        assert store.count("samples") == 2
        assert [s.sample_index for s in store.load("samples")] == [0, 1]

    def test_manifest_matches_file(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        store.append("samples", [Sample("m1", "b", "t", 0, "a")])
        store.verify()
        manifest = json.loads((tmp_path / "store" / "manifest.json").read_text())
        assert manifest["records"]["samples"]["count"] == 1

    def test_verify_detects_tampering(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        store.append("samples", [Sample("m1", "b", "t", 0, "a")])
        with open(store.path("samples"), "a", encoding="utf-8") as fh:
            fh.write('{"sneaky": true}\n')
        with pytest.raises(ValueError, match="manifest says"):
            store.verify()

    def test_reopen_preserves_state(self, tmp_path):
        root = tmp_path / "store"
        RecordStore(root).append("samples", [Sample("m1", "b", "t", 0, "a")])
        store = RecordStore(root)
        assert store.count("samples") == 1
        store.append("samples", [Sample("m1", "b", "t", 1, "b")])
        assert store.count("samples") == 2
        store.verify()

    def test_metadata_round_trip(self, tmp_path):
        root = tmp_path / "store"
        store = RecordStore(root)
        store.set_metadata("request_template", {"temperature": 1.0})
        assert RecordStore(root).metadata["request_template"] == {"temperature": 1.0}

    def test_empty_append_is_noop(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        assert store.append("samples", []) == 0
        assert store.count("samples") == 0
        assert store.load("samples") == []


    def test_torn_manifest_write_keeps_the_old_manifest(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        store = RecordStore(root)
        store.append("samples", [Sample("m1", "b", "t", 0, "a")])
        before = (root / "manifest.json").read_bytes()

        def torn_dump(obj, fh, **kwargs):
            fh.write('{"records": {"samples": {"co')
            raise OSError("disk full")

        monkeypatch.setattr(records.json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            store.set_metadata("request_template", {"temperature": 1.0})
        monkeypatch.undo()
        assert (root / "manifest.json").read_bytes() == before
        assert sorted(p.name for p in root.iterdir()) == ["manifest.json", "samples.jsonl"]
        reopened = RecordStore(root)
        assert reopened.count("samples") == 1
        reopened.verify()


# text that survives UTF-8: no lone surrogates
_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(st.tuples(_TEXT, st.sampled_from([None, "stop", "length"])),
                           max_size=5),
                  st.booleans()),
        max_size=8,
    )
)
def test_running_hash_matches_the_file_after_every_append(batches):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = RecordStore(root)
        index = 0
        for batch, reopen in batches:
            if reopen:
                store = RecordStore(root)
            samples = []
            for text, finish in batch:
                samples.append(Sample("m1", "b", "t", index, text, finish_reason=finish))
                index += 1
            assert store.append("samples", samples) == len(samples)
            if index:
                manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
                entry = manifest["records"]["samples"]
                assert entry["sha256"] == file_sha256(store.path("samples"))
                assert entry["count"] == index
            store.verify()
        assert [s.sample_index for s in store.load("samples")] == list(range(index))


def test_label_validation():
    with pytest.raises(ValueError, match="post_rl_pass1"):
        Label("m1", 1.5)
