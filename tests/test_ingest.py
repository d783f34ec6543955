"""Table parsing, spec parsing, and binding validation."""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from melodify import ingest
from melodify.errors import BindingError, ParseError
from melodify.ingest import (
    VALUE_MAGNITUDE_MAX,
    ColumnKind,
    Dataset,
    Idiom,
    MelodySpec,
    Palette,
    TableFormat,
    parse_table,
    spec_from_mapping,
    spec_mapping,
    validate_binding,
)

import reference
from reference import spec_of


def csv_table(text: str):
    return parse_table(text.encode(), TableFormat.CSV)


def json_table(records) -> object:
    return parse_table(json.dumps(records).encode(), TableFormat.JSON)


# --- parse_table: CSV ---------------------------------------------------------

def test_csv_basic_kinds():
    ds = csv_table("region,sales\nnorth,10\nsouth,12.5\n")
    assert ds.row_count == 2
    assert ds.column("region").kind is ColumnKind.CATEGORICAL
    assert ds.column("region").values == ("north", "south")
    assert ds.column("sales").kind is ColumnKind.QUANTITATIVE
    assert ds.column("sales").values == (10.0, 12.5)


def test_csv_mixed_column_is_categorical():
    # One unparseable cell makes the whole column categorical.
    ds = csv_table("a\n1\nx\n")
    assert ds.column("a").kind is ColumnKind.CATEGORICAL
    assert ds.column("a").values == ("1", "x")


def test_csv_scientific_and_negative_are_quantitative():
    ds = csv_table("v\n-3\n1e2\n+0.5\n1.\n.5\n+3\n-0\n 12 \n2.5E-3\n")
    assert ds.column("v").kind is ColumnKind.QUANTITATIVE
    assert ds.column("v").values == (-3.0, 100.0, 0.5, 1.0, 0.5, 3.0, 0.0, 12.0, 0.0025)


def test_csv_non_finite_is_not_quantitative():
    # float("nan") parses, but nan is no decimal literal.
    ds = csv_table("v\n1\nnan\n")
    assert ds.column("v").kind is ColumnKind.CATEGORICAL


@pytest.mark.parametrize("cell", ["1_000", "١٢", "１２", "0x10", "1e", "."])
def test_csv_only_ascii_decimal_literals_are_numbers(cell):
    # float() takes digit separators and other scripts' digits; a table
    # cell written that way is text.
    ds = csv_table(f"k,v\na,{cell}\nb,2\n")
    assert ds.column("v").kind is ColumnKind.CATEGORICAL
    assert ds.column("v").values == (cell, "2")


@pytest.mark.parametrize(
    "cell",
    [
        "1" * 100_000 + "x",
        "1" * 50_000 + "." + "1" * 50_000 + "x",
        "." + "1" * 100_000 + "x",
        "1e" + "1" * 100_000 + "x",
    ],
    ids=["digits", "digits-dot-digits", "dot-digits", "exponent-digits"],
)
def test_long_digit_run_ending_in_text_is_categorical(cell):
    # A grammar with two ways to split a digit run would try about N²/2
    # splits here before failing; these cells would then take minutes.
    ds = csv_table(f"k,v\na,{cell}\nb,2\n")
    assert ds.column("v").kind is ColumnKind.CATEGORICAL
    ds = json_table([{"k": "a", "v": cell}, {"k": "b", "v": "2"}])
    assert ds.column("v").kind is ColumnKind.CATEGORICAL
    assert ds.column("v").values == (cell, "2")


@given(
    st.one_of(
        st.integers(-(10**100), 10**100),
        st.floats(-VALUE_MAGNITUDE_MAX, VALUE_MAGNITUDE_MAX, allow_nan=False),
    )
)
def test_json_numbers_stay_numbers(number):
    ds = json_table([{"v": number}])
    assert ds.column("v").kind is ColumnKind.QUANTITATIVE
    assert ds.column("v").values == (float(number),)


def test_value_magnitude_bound_is_inclusive_and_rejects_beyond():
    ds = csv_table(f"v\n1\n{-VALUE_MAGNITUDE_MAX!r}\n")
    assert ds.column("v").values == (1.0, -VALUE_MAGNITUDE_MAX)
    with pytest.raises(ParseError, match="exceeds the magnitude bound"):
        csv_table("v\n1\n1e160\n3\n")
    with pytest.raises(ParseError, match="exceeds the magnitude bound"):
        json_table([{"v": -1e308}, {"v": 1e308}])
    # Literals past float range parse as inf but are numbers; the words stay
    # text. The message names the cell as written, cut to 24 characters.
    with pytest.raises(ParseError, match="exceeds the magnitude bound") as excinfo:
        csv_table("v\n1\n1e400\n")
    assert str(excinfo.value) == (
        "value '1e400' at row 2, column 'v' exceeds the magnitude bound 1e+100"
    )
    with pytest.raises(ParseError, match="exceeds the magnitude bound") as excinfo:
        json_table([{"v": 1}, {"v": 10**400}])
    assert str(excinfo.value) == (
        f"value '{'1' + '0' * 20}...' at row 2, column 'v' exceeds the magnitude "
        "bound 1e+100"
    )
    for word in ("inf", "-Infinity", "+INF"):
        assert csv_table(f"v\n1\n{word}\n").column("v").kind is ColumnKind.CATEGORICAL


def test_text_column_skips_the_magnitude_check():
    for cells in (["abc", "1e400"], ["1e400", "abc"]):
        ds = csv_table("k,v\n" + "".join(f"{c},{i}\n" for i, c in enumerate(cells)))
        assert ds.column("k").kind is ColumnKind.CATEGORICAL
        assert ds.column("k").values == tuple(cells)
    with pytest.raises(ParseError) as excinfo:
        csv_table("k,v\nabc,1\ndef,1e400\n")
    assert str(excinfo.value) == (
        "value '1e400' at row 2, column 'v' exceeds the magnitude bound 1e+100"
    )


def test_text_column_is_parsed_only_to_its_first_non_number(monkeypatch):
    calls = []

    class CountingNumber:
        """The number pattern, recording every cell it is asked to match."""

        def fullmatch(self, cell):
            calls.append(cell)
            return number.fullmatch(cell)

    number = ingest._NUMBER
    monkeypatch.setattr(ingest, "_NUMBER", CountingNumber())
    rows = "".join(f"k{i:05d},{i}\n" for i in range(1000))
    ds = csv_table("label,value\n" + rows)
    assert ds.column("label").kind is ColumnKind.CATEGORICAL
    # One call for the label column, then one per cell of the numbers.
    assert calls[0] == "k00000"
    assert len(calls) == 1 + 1000


NUMBER_CELLS = (
    "0", "12", "-7", "+3", ".5", "5.", "-0.25", "1e5", "2E-3", "1e100", "-1e100",
    " 12 ", "\t4\n", "\x1c7\x1f", "\xa03.5\xa0", "\u20038\u2003",
    "1e101", "-2e100", "1e400", "-1e400", "9" * 120,
)
OTHER_CELLS = (
    "", " ", "abc", "1_000", "\u0661\u0662", "nan", "inf", "-Infinity", "0x1f",
    "1e", "1.2.3", "--1", "\x1c", "1 2",
)
TEXT_CELLS = ("north", "south", " east ", "k1")


@st.composite
def raw_tables(draw):
    """A header and rows of cells, most columns all numbers."""
    header = draw(st.one_of(
        st.lists(st.sampled_from(["a", "b", "v"]), unique=True, min_size=1, max_size=3),
        st.lists(st.sampled_from(["a", "", "a "]), max_size=3),  # mostly refused
    ))
    height = draw(st.integers(0, 6))
    columns = []
    for _ in header:
        pool = draw(st.sampled_from(
            [NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS + OTHER_CELLS, TEXT_CELLS + ("",)]
        ))
        columns.append(draw(st.lists(st.sampled_from(pool), min_size=height, max_size=height)))
    rows = [list(row) for row in zip(*columns)] if header else [[] for _ in range(height)]
    if rows and draw(st.booleans()) and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))].append("extra")  # a ragged row
    return header, rows


def build_or_error(build, header, rows):
    try:
        return build(header, rows)
    except ParseError as exc:
        return f"ParseError: {exc}"


@given(raw_tables())
# A separator str.strip removes and float() refuses: only stripped cells convert.
@example((["v"], [["\x1c7\x1f"], ["8"]]))
def test_column_scans_match_the_per_cell_loop(table):
    header, rows = table
    got = build_or_error(ingest._build_dataset, header, rows)
    expected = build_or_error(reference.build_dataset, header, rows)
    assert got == expected
    if isinstance(expected, Dataset):
        for column, want in zip(got.columns, expected.columns):
            assert column.kind is want.kind
            assert type(column.values) is tuple
            assert [type(v) for v in column.values] == [type(v) for v in want.values]


# Stand-ins for JSON literals json.dumps cannot write: past float range,
# and the words parse_constant refuses.
JSON_LITERALS = {"<inf>": "1e400", "<-inf>": "-1e400", "<NaN>": "NaN"}
JSON_VALUES = st.one_of(
    st.sampled_from([
        "north", "", " 7 ", "\x1c7", "1_000", "nan", 12, -3, 0, 2.5, 1e100, -1e101,
        10**400, 1e308, True, False, None, [], {}, [1], *JSON_LITERALS,
    ]),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def json_tables(draw):
    """JSON text of a table, most records sharing the first one's keys."""
    keys = draw(st.lists(
        st.sampled_from(["a", "b", "v", ""]), unique=True,
        min_size=draw(st.sampled_from([0, 1, 1, 1])), max_size=3,
    ))
    records = []
    for i in range(draw(st.sampled_from([0, 1, 2, 3, 4, 5] * 3 + [40]))):
        shape = draw(st.sampled_from(["same"] * (6 + 12 * (i == 0)) + ["other keys", "not an object"]))
        if shape == "not an object":
            records.append(draw(st.sampled_from([5, "row", [], None])))
            continue
        names = keys if shape == "same" else draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True))
        pool = draw(st.sampled_from([st.integers(-50, 50), st.floats(-1e6, 1e6), JSON_VALUES]))
        records.append({name: draw(pool) for name in names})
    text = json.dumps(draw(st.sampled_from([records] * 18 + [{"a": 1}, 3])))
    for stand_in, literal in JSON_LITERALS.items():
        text = text.replace(json.dumps(stand_in), literal)
    return text


def parse_or_error(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@given(json_tables())
@example('[{"v": 1}, {"v": -1e400}]')
@example('[{"k": "a", "v": 1e400}, {"k": "b", "v": 2}]')
@example('[{"v": 1}, {"v": true}, {"v": -1e400}]')
# Numbers alone go straight to floats: ints past float range, which
# float() refuses, the bound's edges, -0.0 and -0.
@example('[{"v": 1}, {"v": %d}]' % 10**400)
@example('[{"v": %d}, {"v": 1e101}]' % -(10**400))
@example('[{"v": 1e101}, {"v": %d}]' % 10**400)
@example('[{"v": %d}, {"v": 2}]' % (2**1024 - 1))
@example('[{"v": %d}]' % 10**100)
@example('[{"v": %d}]' % (10**100 + 1))
@example('[{"v": 1e100}, {"v": -1e100}, {"v": -0.0}, {"v": -0}]')
@example('[{"v": 1.0000000000000002e100}, {"v": 0}]')
@example('[{"v": 9007199254740993}, {"v": 0.1}]')
# A string among numbers keeps the cell scan.
@example('[{"v": "7"}, {"v": %d}, {"v": -0.0}]' % 10**400)
@example('[{"v": " 1e100 "}, {"v": 1e100}, {"v": -0}]')
@example('[{"v": 3}, {"v": "x"}, {"v": 1e308}]')
@example('[{"v": 1.5}, {"v": true}]')
@example('[{"k": "a", "v": 2}, {"k": true, "v": 3}]')
def test_json_column_passes_match_the_per_record_loop(text):
    got = parse_or_error(lambda t: parse_table(t.encode(), TableFormat.JSON), text)
    expected = parse_or_error(lambda t: reference.parse_table(t.encode(), is_json=True), text)
    assert got == expected
    if isinstance(expected, Dataset):
        for column, want in zip(got.columns, expected.columns):
            assert column.kind is want.kind
            # repr tells -0.0 from 0.0 and each float's last bit.
            assert list(map(repr, column.values)) == list(map(repr, want.values))


def test_json_integer_past_the_digit_limit_is_malformed():
    # json.loads raises a plain ValueError past Python's int digit limit.
    digits = b"9" * 5000
    with pytest.raises(ParseError, match="^json error"):
        parse_table(b'[{"v": ' + digits + b"}]", TableFormat.JSON)
    with pytest.raises(ParseError, match="^spec json error"):
        spec_mapping(b'{"tempo": ' + digits + b"}")


def test_csv_quoted_comma_and_newline():
    ds = csv_table('name,v\n"a,b",1\n"two\nlines",2\n')
    assert ds.column("name").values == ("a,b", "two\nlines")
    assert ds.row_count == 2


def test_csv_crlf_accepted():
    ds = csv_table("a,b\r\n1,2\r\n")
    assert ds.row_count == 1


def test_csv_utf8_byte_order_mark_stripped():
    # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
    ds = parse_table(b"\xef\xbb\xbfregion,sales\nnorth,10\n", TableFormat.CSV)
    assert tuple(c.name for c in ds.columns) == ("region", "sales")


def test_csv_no_content_is_malformed():
    with pytest.raises(ParseError, match="no header row"):
        csv_table("")


def test_csv_duplicate_header_rejected():
    with pytest.raises(ParseError, match="duplicate column names"):
        csv_table("a,a\n1,2\n")


def test_csv_empty_header_name_rejected():
    with pytest.raises(ParseError, match="column names must be non-empty"):
        csv_table("a,\n1,2\n")


def test_csv_empty_categorical_cell_rejected():
    with pytest.raises(ParseError, match="empty cell at row 2"):
        csv_table("a\nx\n\"\"\n")


def test_non_utf8_rejected():
    with pytest.raises(ParseError, match="not valid UTF-8"):
        parse_table(b"a\n\xff\n", TableFormat.CSV)


def test_parse_is_deterministic():
    raw = "k,v\nx,1\ny,2\n".encode()
    assert parse_table(raw, TableFormat.CSV) == parse_table(raw, TableFormat.CSV)


# --- parse_table: JSON --------------------------------------------------------

def test_json_records():
    ds = json_table([{"k": "a", "v": 1}, {"k": "b", "v": 2.5}])
    assert ds.column("k").values == ("a", "b")
    assert ds.column("v").values == (1.0, 2.5)
    assert ds.column("v").kind is ColumnKind.QUANTITATIVE


def test_json_header_order_follows_first_record():
    ds = json_table([{"b": 1, "a": 2}])
    assert tuple(c.name for c in ds.columns) == ("b", "a")


def test_json_empty_array_is_empty_dataset():
    with pytest.raises(ParseError, match="empty array"):
        json_table([])


def test_json_non_array_rejected():
    with pytest.raises(ParseError, match="must be an array of record objects"):
        parse_table(b'{"a": 1}', TableFormat.JSON)


def test_json_key_mismatch_rejected():
    with pytest.raises(ParseError, match="record 2 does not match"):
        json_table([{"a": 1}, {"b": 2}])


def test_json_nested_value_rejected():
    with pytest.raises(ParseError, match="values must be strings or numbers"):
        json_table([{"a": [1, 2]}])


def test_json_null_rejected():
    with pytest.raises(ParseError, match="values must be strings or numbers"):
        json_table([{"a": None}])


def test_json_bool_rejected():
    # Booleans are not numbers here, even though bool subclasses int.
    with pytest.raises(ParseError, match="values must be strings or numbers"):
        json_table([{"a": True}])


def test_json_non_finite_literal_rejected():
    with pytest.raises(ParseError, match="non-finite number 'Infinity'"):
        parse_table(b'[{"a": Infinity}]', TableFormat.JSON)


def test_json_syntax_error_rejected():
    with pytest.raises(ParseError, match="^json error"):
        parse_table(b"[{", TableFormat.JSON)


# --- spec parsing -------------------------------------------------------------

def test_spec_minimal_defaults():
    spec = spec_of()
    assert spec.idiom is Idiom.BAR
    assert spec.palette is Palette.POSITIVE
    assert spec.y_field == "v"
    assert spec.x_field is None
    assert spec.key_root == 0
    assert spec.tempo_bpm is None
    assert spec.time_signature is None
    assert spec.loop_count == 2
    assert spec.histogram is False


def test_spec_case_insensitive_enums():
    spec = spec_of(idiom="Line", palette="NEGATIVE")
    assert spec.idiom is Idiom.LINE
    assert spec.palette is Palette.NEGATIVE
    assert spec_of(idiom=" Line ").idiom is Idiom.LINE


@pytest.mark.parametrize("keys,message", [
    ({"idiom": 3}, "idiom must be a string, got 3"),
    ({"palette": None}, "palette must be a string, got None"),
    ({"idiom": ["bar"], "palette": 1}, "idiom must be a string, got ['bar']"),
])
def test_spec_enum_keys_must_be_strings(keys, message):
    with pytest.raises(ParseError) as exc:
        spec_of(**keys)
    assert str(exc.value) == message


def test_spec_key_names():
    assert spec_of(key="C").key_root == 0
    assert spec_of(key="F#").key_root == 6
    assert spec_of(key="b").key_root == 11


def test_spec_flat_key_names():
    flats = {"Db": 1, "Eb": 3, "Gb": 6, "Ab": 8, "Bb": 10}
    assert {name: spec_of(key=name).key_root for name in flats} == flats
    assert spec_of(key="bb").key_root == 10


def test_spec_time_signature():
    assert spec_of(time_signature="3/4").time_signature == (3, 4)
    assert spec_of(time_signature="7/8").time_signature == (7, 8)


@pytest.mark.parametrize("raw", ["3-4", "0/4", "4/5", "4/4/4", "x/y"])
def test_spec_bad_time_signature(raw):
    with pytest.raises(ParseError, match="time signature"):
        spec_of(time_signature=raw)


def test_spec_tempo_bounds():
    assert spec_of(tempo=20).tempo_bpm == 20
    assert spec_of(tempo=300).tempo_bpm == 300
    assert spec_of(tempo=96.0).tempo_bpm == 96  # integral float accepted
    for bad in (19, 301, 100.5, "fast"):
        with pytest.raises(ParseError, match="tempo must be"):
            spec_of(tempo=bad)


def test_spec_loop_count():
    assert spec_of(loop=1).loop_count == 1
    with pytest.raises(ParseError, match="loop must be a positive integer"):
        spec_of(loop=0)


def test_spec_missing_required():
    with pytest.raises(ParseError, match="spec is missing 'idiom'"):
        spec_from_mapping({"palette": "positive", "y": "v"})
    with pytest.raises(ParseError, match="spec is missing 'palette'"):
        spec_from_mapping({"idiom": "bar", "y": "v"})
    with pytest.raises(ParseError, match="spec is missing 'y'"):
        spec_from_mapping({"idiom": "bar", "palette": "positive"})


def test_spec_unknown_keys_rejected():
    with pytest.raises(ParseError, match="unknown spec keys"):
        spec_of(volume=11)


def test_parse_spec_bytes_roundtrip():
    raw = json.dumps({"idiom": "pie", "palette": "calm", "y": "v", "x": "k"}).encode()
    spec = spec_from_mapping(spec_mapping(raw))
    assert spec.idiom is Idiom.PIE
    assert spec.x_field == "k"


def test_parse_spec_rejects_non_object():
    with pytest.raises(ParseError, match="single JSON object"):
        spec_mapping(b"[1, 2]")


# --- validate_binding ---------------------------------------------------------

def test_binding_bar_needs_categorical_x():
    ds = csv_table("k,v\na,1\nb,2\n")
    spec = MelodySpec(Idiom.BAR, Palette.POSITIVE, "v", x_field="k")
    assert validate_binding(ds, spec) is None

    with pytest.raises(BindingError, match="bar needs a categorical x column"):
        validate_binding(ds, MelodySpec(Idiom.BAR, Palette.POSITIVE, "v"))
    with pytest.raises(BindingError, match="x column 'k' must be categorical for bar"):
        # Quantitative x does not satisfy bar.
        ds2 = csv_table("k,v\n1,1\n2,2\n")
        validate_binding(ds2, MelodySpec(Idiom.BAR, Palette.POSITIVE, "v", x_field="k"))


def test_binding_line_x_must_be_quantitative_when_bound():
    ds = csv_table("k,v\na,1\nb,2\n")
    with pytest.raises(BindingError, match="x column 'k' must be quantitative for line"):
        validate_binding(ds, MelodySpec(Idiom.LINE, Palette.POSITIVE, "v", x_field="k"))
