"""Table parsing, spec parsing, and binding validation."""
from __future__ import annotations

import json

import pytest

from melodify.errors import (
    EmptyDataset,
    InvalidValue,
    KindMismatch,
    MalformedInput,
    MissingField,
    UnknownField,
    UnknownIdiom,
    UnknownPalette,
)
from melodify.ingest import (
    VALUE_MAGNITUDE_MAX,
    ColumnKind,
    Idiom,
    MelodySpec,
    Palette,
    TableFormat,
    parse_spec,
    parse_table,
    spec_from_mapping,
    spec_mapping,
    validate_binding,
)


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
    ds = csv_table("v\n-3\n1e2\n+0.5\n")
    assert ds.column("v").kind is ColumnKind.QUANTITATIVE
    assert ds.column("v").values == (-3.0, 100.0, 0.5)


def test_csv_non_finite_is_not_quantitative():
    # float("nan") parses, but finiteness is required for numbers.
    ds = csv_table("v\n1\nnan\n")
    assert ds.column("v").kind is ColumnKind.CATEGORICAL


def test_value_magnitude_bound_is_inclusive_and_rejects_beyond():
    ds = csv_table(f"v\n1\n{-VALUE_MAGNITUDE_MAX!r}\n")
    assert ds.column("v").values == (1.0, -VALUE_MAGNITUDE_MAX)
    with pytest.raises(InvalidValue):
        csv_table("v\n1\n1e160\n3\n")
    with pytest.raises(InvalidValue):
        json_table([{"v": -1e308}, {"v": 1e308}])
    # Literals past float range parse as inf but are numbers; the words stay
    # text. The message names the cell as written, cut to 24 characters.
    with pytest.raises(InvalidValue) as excinfo:
        csv_table("v\n1\n1e400\n")
    assert str(excinfo.value) == (
        "value '1e400' at row 2, column 'v' exceeds the magnitude bound 1e+100"
    )
    with pytest.raises(InvalidValue) as excinfo:
        json_table([{"v": 1}, {"v": 10**400}])
    assert str(excinfo.value) == (
        f"value '{'1' + '0' * 20}...' at row 2, column 'v' exceeds the magnitude "
        "bound 1e+100"
    )
    for word in ("inf", "-Infinity", "+INF"):
        assert csv_table(f"v\n1\n{word}\n").column("v").kind is ColumnKind.CATEGORICAL


def test_json_integer_past_the_digit_limit_is_malformed():
    # json.loads raises a plain ValueError past Python's int digit limit.
    digits = b"9" * 5000
    with pytest.raises(MalformedInput):
        parse_table(b'[{"v": ' + digits + b"}]", TableFormat.JSON)
    with pytest.raises(MalformedInput):
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
    assert ds.column_names() == ("region", "sales")


def test_csv_header_only_is_empty_dataset():
    with pytest.raises(EmptyDataset):
        csv_table("a,b\n")


def test_csv_no_content_is_malformed():
    with pytest.raises(MalformedInput):
        csv_table("")


def test_csv_ragged_row_rejected():
    with pytest.raises(MalformedInput):
        csv_table("a,b\n1\n")


def test_csv_duplicate_header_rejected():
    with pytest.raises(MalformedInput):
        csv_table("a,a\n1,2\n")


def test_csv_empty_header_name_rejected():
    with pytest.raises(MalformedInput):
        csv_table("a,\n1,2\n")


def test_csv_empty_categorical_cell_rejected():
    with pytest.raises(MalformedInput):
        csv_table("a\nx\n\"\"\n")


def test_non_utf8_rejected():
    with pytest.raises(MalformedInput):
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
    assert ds.column_names() == ("b", "a")


def test_json_empty_array_is_empty_dataset():
    with pytest.raises(EmptyDataset):
        json_table([])


def test_json_non_array_rejected():
    with pytest.raises(MalformedInput):
        parse_table(b'{"a": 1}', TableFormat.JSON)


def test_json_key_mismatch_rejected():
    with pytest.raises(MalformedInput):
        json_table([{"a": 1}, {"b": 2}])


def test_json_nested_value_rejected():
    with pytest.raises(MalformedInput):
        json_table([{"a": [1, 2]}])


def test_json_null_rejected():
    with pytest.raises(MalformedInput):
        json_table([{"a": None}])


def test_json_bool_rejected():
    # Booleans are not numbers here, even though bool subclasses int.
    with pytest.raises(MalformedInput):
        json_table([{"a": True}])


def test_json_non_finite_literal_rejected():
    with pytest.raises(MalformedInput):
        parse_table(b'[{"a": Infinity}]', TableFormat.JSON)


def test_json_syntax_error_rejected():
    with pytest.raises(MalformedInput):
        parse_table(b"[{", TableFormat.JSON)


# --- spec parsing -------------------------------------------------------------

def spec_of(**kw):
    base = {"idiom": "bar", "palette": "positive", "y": "v"}
    base.update(kw)
    return spec_from_mapping(base)


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


def test_spec_key_names():
    assert spec_of(key="C").key_root == 0
    assert spec_of(key="F#").key_root == 6
    assert spec_of(key="b").key_root == 11


def test_spec_flat_key_names():
    flats = {"Db": 1, "Eb": 3, "Gb": 6, "Ab": 8, "Bb": 10}
    assert {name: spec_of(key=name).key_root for name in flats} == flats
    assert spec_of(key="bb").key_root == 10


def test_spec_bad_key_name():
    with pytest.raises(InvalidValue):
        spec_of(key="H")


def test_spec_time_signature():
    assert spec_of(time_signature="3/4").time_signature == (3, 4)
    assert spec_of(time_signature="7/8").time_signature == (7, 8)


@pytest.mark.parametrize("raw", ["3-4", "0/4", "4/5", "4/4/4", "x/y"])
def test_spec_bad_time_signature(raw):
    with pytest.raises(InvalidValue):
        spec_of(time_signature=raw)


def test_spec_tempo_bounds():
    assert spec_of(tempo=20).tempo_bpm == 20
    assert spec_of(tempo=300).tempo_bpm == 300
    assert spec_of(tempo=96.0).tempo_bpm == 96  # integral float accepted
    for bad in (19, 301, 100.5, "fast"):
        with pytest.raises(InvalidValue):
            spec_of(tempo=bad)


def test_spec_loop_count():
    assert spec_of(loop=1).loop_count == 1
    with pytest.raises(InvalidValue):
        spec_of(loop=0)


def test_spec_missing_required():
    with pytest.raises(MissingField):
        spec_from_mapping({"palette": "positive", "y": "v"})
    with pytest.raises(MissingField):
        spec_from_mapping({"idiom": "bar", "y": "v"})
    with pytest.raises(MissingField):
        spec_from_mapping({"idiom": "bar", "palette": "positive"})


def test_spec_unknown_keys_rejected():
    with pytest.raises(InvalidValue):
        spec_of(volume=11)


def test_spec_unknown_idiom_and_palette():
    with pytest.raises(UnknownIdiom):
        spec_of(idiom="area")
    with pytest.raises(UnknownPalette):
        spec_of(palette="magenta")


def test_parse_spec_bytes_roundtrip():
    raw = json.dumps({"idiom": "pie", "palette": "calm", "y": "v", "x": "k"}).encode()
    spec = parse_spec(raw)
    assert spec.idiom is Idiom.PIE
    assert spec.x_field == "k"


def test_parse_spec_rejects_non_object():
    with pytest.raises(MalformedInput):
        parse_spec(b"[1, 2]")


# --- validate_binding ---------------------------------------------------------

def test_binding_bar_needs_categorical_x():
    ds = csv_table("k,v\na,1\nb,2\n")
    spec = MelodySpec(Idiom.BAR, Palette.POSITIVE, "v", x_field="k")
    assert validate_binding(ds, spec) is None

    with pytest.raises(KindMismatch):
        validate_binding(ds, MelodySpec(Idiom.BAR, Palette.POSITIVE, "v"))
    with pytest.raises(KindMismatch):
        # Quantitative x does not satisfy bar.
        ds2 = csv_table("k,v\n1,1\n2,2\n")
        validate_binding(ds2, MelodySpec(Idiom.BAR, Palette.POSITIVE, "v", x_field="k"))


def test_binding_y_must_be_quantitative():
    ds = csv_table("k,v\na,x\nb,y\n")
    with pytest.raises(KindMismatch):
        validate_binding(ds, MelodySpec(Idiom.SCATTER, Palette.POSITIVE, "v"))


def test_binding_unknown_column():
    ds = csv_table("k,v\na,1\n")
    with pytest.raises(UnknownField):
        validate_binding(ds, MelodySpec(Idiom.SCATTER, Palette.POSITIVE, "missing"))


def test_binding_line_x_must_be_quantitative_when_bound():
    ds = csv_table("k,v\na,1\nb,2\n")
    with pytest.raises(KindMismatch):
        validate_binding(ds, MelodySpec(Idiom.LINE, Palette.POSITIVE, "v", x_field="k"))
