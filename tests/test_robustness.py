"""The command line's robustness contract, property-tested through ``main``.

Whatever table bytes, flags and ``--spec`` file arrive (the flags
override the file key by key), ``melodify compile`` takes one of two
paths. It exits 0 having written a ``.mid`` that the strict reader
accepts, holding as many notes as its ``notes=`` summary says, and the
``.txt`` asked for. Or it exits 1 with exactly one ``error E_…: message``
line on stderr and no file written. Exit 2 is a bug. Either way the
table and the spec file are left as they were, the call leaves no
reference cycle for the collector, and the exit status, stdout, stderr
and every byte written are those of the reference compiler
(``reference.py``).

``melodify analyze`` takes one of the same two paths: it exits 0 with
a JSON report on stdout, or 1 with one ``error E_…: message`` line. It
writes no file either way, and its exit status, stdout and stderr are
those of the reference (``reference.analyze_command``).
"""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from melodify.cli import USER_ERROR_CODES, main
from melodify.score import MAX_EXPANDED_EVENTS
from melodify.smf import parse_smf_minimal

import reference

COLUMNS = ("k", "v", "t")

# Cells at and just past the magnitude bound, past float range, words
# that are not finite numbers, and other odd spellings of numbers.
EDGE_CELLS = (
    "1e100", "-1e100", "1E+100", "1.0000000000000002e100", "1e101", "-1e400",
    "1e-400", "-0", "nan", "inf", "-Infinity", "0x10", "1_000", " 7 ", "",
)
LABELS = ("a", "b", "north", "Ünïcode", 'say "hi"', "x,y", "two\nlines", "12a")

# Flag values, valid then invalid: odd meters, sharp, flat and unknown
# key names, tempos at and past the bounds, loops up to and past the
# event cap.
IDIOMS = (("bar", "pie", "line", "scatter"), ("sparkline",))
PALETTES = (("positive", "negative", "grey", "exciting", "calm"), ("GREY ", "loud"))
KEYS = (("C", "F#", "Bb", "eb", " g ", "Db", "a#"), ("H", "C##", "Cb", "E#", ""))
TEMPOS = (("20", "72", "120", "300"), ("19", "301", "-5", "1e3"))
TIMES = (
    ("4/4", "3/4", "7/8", "5/16", "13/32", "255/1", "1/32"),
    ("256/4", "3/3", "0/4", "4", "4/4/4", "x/y"),
)
LOOPS = (
    ("1", "2", "3", "64", "1000", str(MAX_EXPANDED_EVENTS // 3 + 1)),
    ("0", "-1", "2.5", str(MAX_EXPANDED_EVENTS), str(10**30)),
)


def rarely(odds: int):
    """True about one time in ``odds``. (Hypothesis draws the ends of an
    integer range far more often than the rest; an element of a sampled
    tuple comes up evenly, and shrinks towards the first.)"""
    return st.sampled_from((False,) * (odds - 1) + (True,))


def mostly(good, bad, odds: int = 15):
    """A value from ``good``, or about one time in ``odds`` from ``bad``."""
    return rarely(odds).flatmap(lambda r: st.sampled_from(bad if r else good))


@st.composite
def columns(draw, name: str, n_rows: int) -> list:
    """A column of labels (most often ``k``) or of numbers, mostly
    integers that are not negative, now and then with an edge cell in it.
    The integers are spread evenly: Hypothesis's integer and float draws
    crowd near zero, where most pie slices round to no sixteenth."""
    if draw(rarely(10)) != (name == "k"):
        values = st.sampled_from(LABELS)
    elif draw(rarely(4)):
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    else:
        values = st.sampled_from(range(-1000 if draw(rarely(4)) else 0, 1001))
    cells = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
    if cells and draw(rarely(15)):
        cells[draw(st.integers(0, n_rows - 1))] = draw(st.sampled_from(EDGE_CELLS))
    return cells


def _csv_text(header: list, rows: list, line_end: str) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=line_end)
    writer.writerow(header)
    writer.writerows([[c if isinstance(c, str) else repr(c) for c in row] for row in rows])
    return buffer.getvalue()


def _json_text(draw, header: list, rows: list) -> str:
    records = [dict(zip(header, row)) for row in rows]
    if records and draw(rarely(12)):
        # A value the table format refuses, or a record with other keys.
        record = draw(st.sampled_from(records))
        record[draw(st.sampled_from(header))] = draw(
            st.sampled_from((None, True, [1], {"n": 1}, float("nan"), 10**400))
        )
        if draw(st.booleans()):
            record.pop(header[0])
    if draw(rarely(20)):
        return json.dumps({"rows": records})
    return json.dumps(records)


@st.composite
def tables(draw) -> tuple[str, bytes]:
    """(file suffix, raw bytes) of a CSV or JSON table, hostile at times:
    no rows, duplicate or empty column names, ragged rows, edge numbers,
    a byte-order mark, bytes that are not UTF-8."""
    header = list(draw(st.permutations(COLUMNS)))
    if draw(rarely(20)):
        header[-1] = draw(st.sampled_from(("", header[0], "w")))
    n_rows = 0 if draw(rarely(25)) else draw(st.sampled_from(range(1, 13)))
    cells = [draw(columns(name, n_rows)) for name in header]
    rows = [list(row) for row in zip(*cells)]
    if rows and draw(rarely(20)):
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(1)

    if draw(st.booleans()):
        # A table named .txt is read as CSV, and a text score would replace it.
        suffix = draw(mostly((".csv",), (".txt",)))
        text = _csv_text(header, rows, draw(st.sampled_from(("\n", "\r\n"))))
    else:
        suffix = ".json"
        text = _json_text(draw, header, rows)

    raw = text.encode("utf-8")
    if draw(rarely(5)):
        raw = b"\xef\xbb\xbf" + raw
    if draw(rarely(20)):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from((b"\xff", b"\xc3(", b"\xed\xa0\x80"))) + raw[at:]
    return suffix, raw


@st.composite
def flag_sets(draw) -> list[str]:
    """Compile flags whose binding mostly suits the idiom: y on ``v``,
    a categorical ``k`` as x of a bar or pie, no x or a numeric ``t``
    for a line or scatter."""
    idiom = draw(mostly(*IDIOMS, odds=20))
    flags = ["--idiom", idiom, "--palette", draw(mostly(*PALETTES, odds=20))]
    if not draw(rarely(25)):
        flags += ["--y", draw(mostly(("v",), COLUMNS))]
    if idiom in ("bar", "pie"):
        x = draw(mostly(("k",), (None, "v", "t")))
    else:
        x = draw(mostly((None, "t"), ("k", "v")))
    if x is not None:
        flags += ["--x", x]
    for flag, values in (("--key", KEYS), ("--tempo", TEMPOS), ("--time", TIMES),
                         ("--loop", LOOPS)):
        if draw(st.booleans()) or (flag == "--loop" and idiom == "pie"):
            flags += [flag, draw(mostly(*values))]
    if draw(st.booleans()):
        flags.append("--histogram")
    return flags + ["--emit", draw(st.sampled_from(("midi", "text", "both")))]


# Spec-file values per key: the flags' valid values as the file writes
# them, then wrong types, integral and non-integral floats, numbers past
# every range, and an empty string.
SPEC_VALUES = {
    "idiom": (IDIOMS[0], (" Pie ", "sparkline", 1, ["bar"])),
    "palette": (PALETTES[0], ("GREY ", "loud", 0)),
    "x": (("k", "t"), ("", "v", 3)),
    "y": (("v",), ("", "k", 0)),
    "key": (KEYS[0], ("H", "", 0, 1.5)),
    "tempo": ((72, 120, 120.0, 300), (19, 72.5, 1e300, 10**30, -(10**25), "120", True)),
    "time_signature": (TIMES[0], ("3/3", "4", 4, [4, 4])),
    "loop": ((1, 2, 3.0, 64), (0, 2.5, 1e300, 10**30, "2", False)),
    "histogram": ((True, False), (1, "yes")),
}
# Whole files that are not one JSON object of keys: other JSON values,
# broken JSON, an integer past Python's digit limit, bytes that are not
# UTF-8.
NOT_A_SPEC = (
    b"[]", b'"bar"', b"null", b"3", b"{", b"", b'{"idiom": "bar",}', b"NaN",
    b'{"loop": 1' + b"0" * 5000 + b"}", b'{"idiom": "\xff"}', b'{"idiom": "bar"\xff}',
)


@st.composite
def spec_files(draw) -> bytes:
    """A ``--spec`` file: mostly a JSON object of spec keys, each mostly
    valid, at times ``null``, of another type or range, or unknown; at
    times with a byte-order mark; now and then not a spec at all."""
    if draw(rarely(12)):
        return draw(st.sampled_from(NOT_A_SPEC))
    mapping = {}
    for key in draw(st.permutations(list(SPEC_VALUES))):
        # The three keys a spec must hold are most often there.
        if not draw(rarely(8)) if key in ("idiom", "palette", "y") else draw(st.booleans()):
            mapping[key] = None if draw(rarely(10)) else draw(mostly(*SPEC_VALUES[key]))
    if draw(rarely(10)):
        mapping[draw(st.sampled_from(("tempo_bpm", "colour", "")))] = 1
    raw = json.dumps(mapping).encode("utf-8")
    return b"\xef\xbb\xbf" + raw if draw(rarely(5)) else raw


def _thinned(draw, flags: list[str]) -> list[str]:
    """About half of ``flags``, so that a spec file's keys show through;
    ``--emit`` is kept."""
    kept, i = [], 0
    while i < len(flags):
        width = 1 if flags[i] == "--histogram" else 2
        if flags[i] == "--emit" or draw(st.booleans()):
            kept += flags[i:i + width]
        i += width
    return kept


def _compile(argv: list[str]):
    """``main(["compile", *argv])``'s exit status, stdout and stderr, and
    how many objects in reference cycles it left to the collector."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.freeze()  # the collection after main scans only what main made
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compile", *argv])
    return code, out.getvalue(), err.getvalue(), gc.collect()


@pytest.fixture(scope="module")
def warm_main(tmp_path_factory):
    """One call first: the first ``main`` of a process builds the argument
    parser, which leaves cycles that no later call makes. The objects
    each call froze are handed back to the collector at the end."""
    _compile(["--data", str(tmp_path_factory.mktemp("warm") / "absent.csv")])
    yield
    gc.unfreeze()


def csv_case(table: bytes, *flags: str):
    """An explicit CSV table and flags, with no spec file."""
    return example(table=(".csv", table), flags=list(flags), spec=None, data=None)


def spec_case(suffix: str, table: bytes, spec: bytes):
    """An explicit table and spec file, with ``--emit midi`` the only flag."""
    return example(table=(suffix, table), flags=["--emit", "midi"], spec=spec, data=None)


BAR_FLAGS = ("--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "v")
SALES_SPEC = b'{"idiom": "bar", "palette": "positive", "x": "region", "y": "sales"}'


@settings(max_examples=200, deadline=None)
@given(table=tables(), flags=flag_sets(), spec=st.none() | spec_files(), data=st.data())
# Outputs next to the table; text alone; values past the magnitude bound
# on a line and a scatter; a pie looped just past the event cap.
@csv_case(b"k,v\na,1\nb,2\nc,3\n", *BAR_FLAGS)
@csv_case(b"k,v\na,1\nb,2\nc,3\n", *BAR_FLAGS, "--emit", "text")
@csv_case(b"v\n1\n1e160\n3\n", "--idiom", "line", "--palette", "positive", "--y", "v")
@csv_case(b"v\n-1e308\n1e308\n", "--idiom", "scatter", "--palette", "positive", "--y", "v")
@csv_case(b"k,v\na,3\nb,1\n", "--idiom", "pie", "--palette", "positive", "--x", "k", "--y", "v",
          "--loop", str(MAX_EXPANDED_EVENTS // 6))
# A JSON table with a JSON spec file; an idiom and a palette padded and in
# capitals.
@spec_case(".json", b'[{"region": "north", "sales": 12}, {"region": "south", "sales": 31}]',
           SALES_SPEC)
@spec_case(".csv", b"region,sales\nnorth,12\nsouth,31\n",
           SALES_SPEC.replace(b'"bar"', b'" Bar "').replace(b'"positive"', b'"POSITIVE"'))
def test_compile_either_writes_a_readable_file_or_fails_with_one_coded_line(
    warm_main, table, flags, spec, data
):
    suffix, raw = table
    with tempfile.TemporaryDirectory() as name:
        table_path = Path(name) / f"table{suffix}"
        table_path.write_bytes(raw)
        inputs = [table_path]
        if spec is not None:
            spec_path = Path(name) / "spec.json"
            spec_path.write_bytes(spec)
            inputs.append(spec_path)
            if data is not None:  # an explicit example's flags are kept whole
                flags = _thinned(data.draw, flags)
            flags = ["--spec", str(spec_path), *flags]
        argv = ["--data", str(table_path), *flags]
        code, out, err, cyclic = _compile(argv)
        written = {
            path: path.read_bytes() for path in table_path.parent.iterdir()
            if path not in inputs
        }

        assert code in (0, 1), err
        # No compile or refusal makes a reference cycle, so pausing the
        # collector while ``main`` runs leaves nothing for it to find.
        assert cyclic == 0
        assert table_path.read_bytes() == raw
        if spec is not None:
            assert spec_path.read_bytes() == spec
        assert (code, out, err, written) == reference.compile_command(argv)
        if code == 0:
            assert err == ""
            notes = int(re.search(r" notes=(\d+) ticks=\d+$", out.splitlines()[0])[1])
            midi = table_path.with_suffix(".mid")
            if midi in written:
                assert len(parse_smf_minimal(written[midi]).notes) == notes
        else:
            assert out == "" and written == {}
            assert len(err.splitlines()) == 1, err
            assert re.fullmatch(r"error (E_[A-Z]+): .*\n", err, re.DOTALL)[1] in USER_ERROR_CODES


def _analyze(argv: list[str]):
    """``main(["analyze", *argv])``'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", *argv])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    table=tables(),
    y=st.sampled_from((*COLUMNS, "absent", "")),
    x=st.none() | st.sampled_from((*COLUMNS, "absent", "")),
)
def test_analyze_either_prints_a_report_or_fails_with_one_coded_line(table, y, x):
    suffix, raw = table
    with tempfile.TemporaryDirectory() as name:
        table_path = Path(name) / f"table{suffix}"
        table_path.write_bytes(raw)
        argv = ["--data", str(table_path), "--y", y] + (["--x", x] if x is not None else [])
        code, out, err = _analyze(argv)

        assert code in (0, 1), err
        assert table_path.read_bytes() == raw
        assert list(table_path.parent.iterdir()) == [table_path]
        assert (code, out, err) == reference.analyze_command(argv)
        if code == 0:
            assert err == ""
        else:
            assert out == ""
            assert len(err.splitlines()) == 1, err
            assert re.fullmatch(r"error (E_[A-Z]+): .*\n", err, re.DOTALL)[1] in USER_ERROR_CODES
