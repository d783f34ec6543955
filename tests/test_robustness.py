"""The command line's robustness contract, property-tested through ``main``.

Whatever table bytes and flags arrive, ``melodify compile`` takes one of
two paths. It exits 0 having written a ``.mid`` that the strict reader
accepts, holding as many notes as its ``notes=`` summary says. Or it
exits 1 with exactly one ``error E_…: message`` line on stderr and no
file written. Exit 2 is a bug.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from melodify.cli import USER_ERROR_CODES, main
from melodify.score import MAX_EXPANDED_EVENTS
from melodify.smf import parse_smf_minimal

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
        suffix = ".csv"
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
    return flags + ["--emit", draw(st.sampled_from(("midi", "both")))]


def _compile(directory: Path, suffix: str, raw: bytes, flags: list[str]):
    data = directory / f"table{suffix}"
    data.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compile", "--data", str(data), *flags])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(table=tables(), flags=flag_sets())
def test_compile_either_writes_a_readable_file_or_fails_with_one_coded_line(table, flags):
    suffix, raw = table
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        code, out, err = _compile(directory, suffix, raw, flags)
        written = sorted(p.name for p in directory.iterdir() if p.suffix != suffix)

        assert code in (0, 1), err
        if code == 0:
            assert err == ""
            notes = int(re.search(r" notes=(\d+) ticks=\d+$", out.splitlines()[0])[1])
            parsed = parse_smf_minimal((directory / "table.mid").read_bytes())
            assert len(parsed.notes) == notes
        else:
            assert out == "" and written == []
            assert len(err.splitlines()) == 1, err
            assert re.fullmatch(r"error (E_[A-Z]+): .*\n", err, re.DOTALL)[1] in USER_ERROR_CODES
