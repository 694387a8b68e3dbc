"""rlready genloss folding its file in 64 KiB chunks.

Most tests shrink the chunk to 1 KiB, so that a file of a few hundred lines
is folded in many chunks. The report, and every error line, must be the one
the serial reader (iter_records) gives for the same file.
"""

import json
import random
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rlready import cli, records
from rlready.cli import main

LINES = 300
FIELDS = ("checkpoint_id", "example_id", "nll_sum", "token_count")


def genloss_lines(lines: int = LINES, checkpoints: int = 5, seed: int = 11, order=FIELDS,
                  suffix: str = "") -> list[bytes]:
    """genloss.jsonl lines, newline included, with the checkpoints interleaved,
    the keys in the given order and suffix after each example id."""
    rng = random.Random(seed)
    records_ = [{"checkpoint_id": f"ckpt-{i % checkpoints}", "example_id": f"ex-{i:04d}{suffix}",
                 "nll_sum": rng.uniform(0.0, 900.0), "token_count": rng.randint(1, 999)}
                for i in range(lines)]
    return [json.dumps({name: r[name] for name in order}).encode() + b"\n" for r in records_]


def genloss(path, capsys, mode="token_weighted"):
    """(exit code, the report's bytes or the stderr lines) of rlready genloss."""
    out = path.with_name("genloss.json")
    out.unlink(missing_ok=True)
    code = main(["genloss", "--records", str(path), "--mode", mode, "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    return code, out.read_bytes() if code == 0 else err


@contextmanager
def chunked(monkeypatch, chunk_bytes=1024, **patches):
    """Fold in chunks of chunk_bytes, with each other name of records in
    patches patched. Yields the list of the paths read serially."""
    serial_reads = []
    iter_records = records.iter_records

    def serial(kind, path):
        serial_reads.append(path)
        return iter_records(kind, path)

    with monkeypatch.context() as m:
        m.setattr(records, "_CHUNK_BYTES", chunk_bytes)
        for name, value in patches.items():
            m.setattr(records, name, value)
        m.setattr(records, "iter_records", serial)
        yield serial_reads


def serial_genloss(path, capsys, monkeypatch, mode="token_weighted"):
    """genloss(...) with the file read by the serial reader alone."""
    def serial(path, mode):
        return records.genloss_by_checkpoint(records.iter_records("genloss", path), mode)

    with monkeypatch.context() as m:
        m.setattr(cli, "genloss_file_by_checkpoint", serial)
        return genloss(path, capsys, mode)


def _no_parse(line, spec):
    raise AssertionError("a line was parsed one by one")


# layout -> genloss_lines' arguments; every one is read by the pattern
LAYOUTS = {
    "canonical": {},
    "keys in another order": {"order": ("token_count", "example_id", "checkpoint_id", "nll_sum")},
    "non-ASCII ids, escaped": {"suffix": "é"},
    "a quote, a backslash, a newline and a surrogate in ids, escaped": {"suffix": '"\\\n\ud800'},
}


@pytest.mark.parametrize("chunk_bytes", [1024, 1 << 16])
@pytest.mark.parametrize("mode", ["token_weighted", "per_example"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_lines_of_one_key_order_are_folded_by_the_pattern_alone(tmp_path, capsys, monkeypatch,
                                                                layout, mode, chunk_bytes):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines(**LAYOUTS[layout])))
    expected = serial_genloss(path, capsys, monkeypatch, mode)
    assert expected[0] == 0
    with chunked(monkeypatch, chunk_bytes, _parse=_no_parse) as serial_reads:
        assert genloss(path, capsys, mode) == expected
    assert serial_reads == []


def replace_line(lines, index, line):
    return lines[:index] + [line] + lines[index + 1:]


# case -> (index of the line planted, the line planted from the file's lines,
# the line number the error names)
PLANTED = {
    "malformed JSON": (270, lambda lines: b'{"checkpoint_id": \n', 271),
    "negative nll_sum": (
        150, lambda lines: lines[150].replace(b'"nll_sum": ', b'"nll_sum": -'), 151),
    "byte 0xff": (260, lambda lines: lines[260][:-3] + b"\xff}\n", 261),
    "duplicate key 270 lines on": (280, lambda lines: lines[10], 281),
    "duplicate key on the next line": (151, lambda lines: lines[150], 152),
    "blank line": (240, lambda lines: b"\n", 241),
    # the text reader ends a line at a lone \r, so line 122 is " \n"
    "\\r before trailing whitespace": (120, lambda lines: lines[120][:-1] + b" \r \n", 122),
}


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_an_invalid_line_gives_the_serial_error_line(tmp_path, capsys, monkeypatch, case):
    index, planted, lineno = PLANTED[case]
    lines = genloss_lines()
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(replace_line(lines, index, planted(lines))))
    expected = serial_genloss(path, capsys, monkeypatch)
    code, err = expected
    assert code == 1 and len(err) == 1 and f"line {lineno}:" in err[0], err
    with chunked(monkeypatch) as serial_reads:
        assert genloss(path, capsys) == expected
    assert serial_reads == [str(path)]


# case -> (the file's lines, whether the chunks leave it to the serial read);
# each file reads the same through the text reader
ACCEPTED = {
    "\\r\\n line ends": (lambda lines: [line[:-1] + b"\r\n" for line in lines], False),
    "an extra field": (lambda lines: [line[:-2] + b', "split": "val"}\n' for line in lines], True),
    "a lone \\r between two records": (
        lambda lines: lines[:200] + [lines[200][:-1] + b"\r" + lines[201]] + lines[202:], True),
    "leading space and a tab": (
        lambda lines: replace_line(lines, 240, b" " + lines[240][:-1] + b"\t\n"), False),
    "no final newline": (lambda lines: lines[:-1] + [lines[-1][:-1]], False),
    # line 11 is of ckpt-1, line 10 of ckpt-0
    "one example id under two checkpoints": (
        lambda lines: replace_line(lines, 11, lines[11].replace(b"ex-0011", b"ex-0010")), False),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_line_breaks_and_whitespace_give_the_serial_report(tmp_path, capsys, monkeypatch, case):
    edit, serial = ACCEPTED[case]
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(edit(genloss_lines())))
    expected = serial_genloss(path, capsys, monkeypatch)
    assert expected[0] == 0
    with chunked(monkeypatch) as serial_reads:
        assert genloss(path, capsys) == expected
    assert serial_reads == ([str(path)] if serial else [])


def test_keys_whose_hashes_meet_give_the_serial_report(tmp_path, capsys, monkeypatch):
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(b"".join(genloss_lines()))
    # a hash of the example id with three values, which every checkpoint
    # repeats: the fold hashes the id, the serial reader the whole key
    def hash_(key):
        return len(key if isinstance(key, str) else key[1]) % 3

    monkeypatch.setattr(records, "hash", hash_, raising=False)
    expected = serial_genloss(path, capsys, monkeypatch)
    assert expected[0] == 0
    with chunked(monkeypatch) as serial_reads:
        assert genloss(path, capsys) == expected
    assert serial_reads == [str(path)]


def test_a_path_that_is_not_a_file_is_read_serially(tmp_path, capsys, monkeypatch):
    path = tmp_path / "genloss.jsonl"
    path.mkdir()
    expected = serial_genloss(path, capsys, monkeypatch)
    assert expected[0] == 2 and len(expected[1]) == 1
    with chunked(monkeypatch) as serial_reads:
        assert genloss(path, capsys) == expected
    assert serial_reads == [str(path)]


def _line(ckpt, example, nll="12.5", tokens="7", ids=json.dumps, order=FIELDS):
    texts = {"checkpoint_id": ids(ckpt), "example_id": ids(example), "nll_sum": nll,
             "token_count": tokens}
    return "{" + ", ".join(f'"{name}": {texts[name]}' for name in order) + "}"


# each takes (checkpoint, example id, a float) and gives one line, no newline
NEAR_MISSES = {
    "escaped ids": lambda c, e, x: _line(c + "é", e + "é"),
    "non-ASCII ids": lambda c, e, x: _line(
        c + "é", e + "é", ids=lambda v: json.dumps(v, ensure_ascii=False)),
    "control character in an id": lambda c, e, x: _line(c, e + "\x01", ids=lambda v: f'"{v}"'),
    "escaped slash and letter in an id": lambda c, e, x: _line(
        c, e + "\\/\\u0041", ids=lambda v: f'"{v}"'),
    "empty id": lambda c, e, x: _line(c, ""),
    "unknown escape in an id": lambda c, e, x: _line(c, e + "\\q", ids=lambda v: f'"{v}"'),
    "escaped key": lambda c, e, x: _line(c, e).replace('"nll_sum"', '"nll\\u005fsum"'),
    "nll_sum -0.0": lambda c, e, x: _line(c, e, "-0.0"),
    "nll_sum -1.5": lambda c, e, x: _line(c, e, "-1.5"),
    "nll_sum 1e400": lambda c, e, x: _line(c, e, "1e400"),
    "nll_sum 01.5": lambda c, e, x: _line(c, e, "01.5"),
    "integer nll_sum": lambda c, e, x: _line(c, e, "12"),
    "nll_sum with an exponent": lambda c, e, x: _line(c, e, f"{x:.6e}"),
    "nll_sum of many digits": lambda c, e, x: _line(c, e, f"1234567890123456789{x:.30f}"),
    "nll_sum true": lambda c, e, x: _line(c, e, "true"),
    "nll_sum NaN": lambda c, e, x: _line(c, e, "NaN"),
    "nll_sum -Infinity": lambda c, e, x: _line(c, e, "-Infinity"),
    "integer nll_sum beyond the float range": lambda c, e, x: _line(c, e, "1" + "0" * 400),
    "null id": lambda c, e, x: _line(c, e, ids=lambda v: "null"),
    "an array": lambda c, e, x: f"[{_line(c, e)}]",
    "token_count 0": lambda c, e, x: _line(c, e, tokens="0"),
    "token_count 1.0": lambda c, e, x: _line(c, e, tokens="1.0"),
    "token_count true": lambda c, e, x: _line(c, e, tokens="true"),
    "reordered keys": lambda c, e, x: json.dumps(
        {"example_id": e, "checkpoint_id": c, "token_count": 3, "nll_sum": x}),
    "extra key": lambda c, e, x: _line(c, e)[:-1] + ', "extra": [1]}',
    "duplicated key": lambda c, e, x: _line(c, e)[:-1] + f', "nll_sum": {x!r}}}',
    "missing key": lambda c, e, x: json.dumps({"checkpoint_id": c, "example_id": e, "nll_sum": x}),
    "blank line": lambda c, e, x: "",
    "BOM": lambda c, e, x: "\ufeff" + _line(c, e),
    "\\r\\n": lambda c, e, x: _line(c, e) + "\r",
    "lone \\r after the object": lambda c, e, x: _line(c, e) + "\r ",
    "lone \\r in an id": lambda c, e, x: _line(c, e + "\r", ids=lambda v: f'"{v}"'),
    "tabs and spaces": lambda c, e, x: "\t " + _line(c, e).replace(": ", " :\t") + " ",
}


@st.composite
def genloss_files(draw):
    """(file bytes, chunk size): lines of one key order, their ids escaped or
    not, with a few near misses among them."""
    count = draw(st.integers(1, 40))
    order = draw(st.permutations(FIELDS))
    ascii_ids = draw(st.booleans())
    tail = draw(st.text(max_size=3))
    misses = draw(st.dictionaries(st.integers(0, count - 1),
                                  st.sampled_from(sorted(NEAR_MISSES) + ["a line again"]),
                                  max_size=3))
    lines = []
    for i in range(count):
        ckpt, example = f"ckpt-{draw(st.integers(0, 2))}", f"ex-{i}{tail}"
        x = draw(st.floats(0.0, 1e3))
        case = misses.get(i)
        if case in NEAR_MISSES:
            line = NEAR_MISSES[case](ckpt, example, x)
        elif case == "a line again" and lines:
            line = lines[draw(st.integers(0, len(lines) - 1))]
        else:
            line = _line(ckpt, example, repr(x), order=order,
                         ids=lambda v: json.dumps(v, ensure_ascii=ascii_ids))
        lines.append(line)
    data = "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r"]))
    return data.encode("utf-8"), draw(st.sampled_from([96, 1 << 16]))


def assert_serial_outcome(path, capsys, monkeypatch, chunk_bytes):
    """The file gives the serial reader's report or error line in both modes,
    folded in chunks of chunk_bytes."""
    for mode in ("token_weighted", "per_example"):
        expected = serial_genloss(path, capsys, monkeypatch, mode)
        with chunked(monkeypatch, chunk_bytes):
            assert genloss(path, capsys, mode) == expected, mode


@pytest.mark.parametrize("case", sorted(NEAR_MISSES) + ["a line again"])
def test_each_near_miss_gives_the_serial_report_or_error(tmp_path, capsys, monkeypatch, case):
    lines = [_line(f"ckpt-{i % 3}", f"ex-{i}", repr(i * 1.25)) for i in range(60)]
    lines[40] = lines[7] if case == "a line again" else NEAR_MISSES[case]("ckpt-1", "ex-40", 3.5)
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    for chunk_bytes in (96, 1 << 16):
        assert_serial_outcome(path, capsys, monkeypatch, chunk_bytes)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(genloss_files())
def test_chunk_fold_gives_the_serial_report_or_error(tmp_path, capsys, monkeypatch, case):
    data, chunk_bytes = case
    path = tmp_path / "genloss.jsonl"
    path.write_bytes(data)
    assert_serial_outcome(path, capsys, monkeypatch, chunk_bytes)
