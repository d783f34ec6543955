"""Tabular data and melody-spec ingestion.

Tables arrive as UTF-8 CSV (RFC 4180 subset: comma delimiter,
double-quote escaping, mandatory header row, LF or CRLF line ends) or as
a JSON array of flat record objects. Specs are single JSON objects. A
leading byte-order mark is ignored in both. Parsing is strict: anything
inconsistent is rejected instead of silently coerced, and parsing the
same bytes twice always yields the same result.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from operator import countOf
from typing import NamedTuple, Sequence

from .errors import BindingError, ParseError, clipped


class TableFormat(str, Enum):
    CSV = "csv"
    JSON = "json"


class ColumnKind(str, Enum):
    CATEGORICAL = "categorical"
    QUANTITATIVE = "quantitative"


class Idiom(str, Enum):
    BAR = "bar"
    PIE = "pie"
    LINE = "line"
    SCATTER = "scatter"


class Palette(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    GREY = "grey"
    EXCITING = "exciting"
    CALM = "calm"


# Note-name spelling accepted in specs: letter plus optional sharp, or
# the flat spelling of a black key.
PITCH_CLASS_BY_NAME = {
    "C": 0, "C#": 1, "Db": 1, "D": 2, "D#": 3, "Eb": 3, "E": 4, "F": 5,
    "F#": 6, "Gb": 6, "G": 7, "G#": 8, "Ab": 8, "A": 9, "A#": 10, "Bb": 10,
    "B": 11,
}

VALID_DENOMINATORS = (1, 2, 4, 8, 16, 32)

# The SMF time-signature meta event stores the numerator in one byte.
NUMERATOR_MAX = 255

TEMPO_MIN = 20
TEMPO_MAX = 300

# Largest magnitude a quantitative cell may hold. The trend fit sums
# squares and index-weighted products of the values, and the pitch
# mapping takes their range; below this bound all of those stay finite.
VALUE_MAGNITUDE_MAX = 1e100


class Column(NamedTuple):
    """One named column; values are all floats or all non-empty strings."""

    name: str
    kind: ColumnKind
    values: tuple


class Dataset(NamedTuple):
    columns: tuple[Column, ...]
    row_count: int

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise BindingError(f"no column named {name!r}")


class MelodySpec(NamedTuple):
    """What to play: chart idiom, mood palette, field binding, overrides."""

    idiom: Idiom
    palette: Palette
    y_field: str
    x_field: str | None = None
    key_root: int = 0
    tempo_bpm: int | None = None
    time_signature: tuple[int, int] | None = None
    loop_count: int = 2
    histogram: bool = False


# An ASCII decimal literal: no digit separators, no other scripts' digits,
# and no nan or inf words, all of which float() would take. Each digit run
# has one way to match, so a failing match takes time linear in the cell.
_NUMBER = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?", re.ASCII)


def _shortened(cell: str) -> str:
    """The cell as written, cut to 24 characters so that an error naming
    a 400-digit literal stays one short line."""
    return cell if len(cell) <= 24 else cell[:21] + "..."


def _check_header(header: list[str]) -> None:
    if not header:
        raise ParseError("header row is empty")
    for name in header:
        if not isinstance(name, str) or not name:
            raise ParseError("column names must be non-empty strings")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in header")


def _build_dataset(header: list[str], rows: list[list[str]]) -> Dataset:
    """The dataset of a header and its rows of cells, as CSV gives them."""
    _check_header(header)
    if not rows:
        raise ParseError("table has a header but no data rows")
    width = len(header)
    if list(map(len, rows)).count(width) != len(rows):
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ParseError(f"row {i + 1} has {len(rows[i])} cells, expected {width}")
    return Dataset(tuple(map(_typed_column, header, zip(*rows))), len(rows))


def _typed_column(name: str, cells: Sequence[str]) -> Column:
    """Type a column of cells, one C-level scan per check."""
    # Each cell is stripped once, then matched and converted: str.strip
    # removes the separators \x1c-\x1f that float() refuses. A column
    # is text from its first non-number: all() stops there. A literal
    # past float range such as 1e400 is ±inf, over the bound.
    stripped = list(map(str.strip, cells))
    if all(map(_NUMBER.fullmatch, stripped)):
        return _number_column(name, list(map(float, stripped)), cells)
    if "" in cells:
        raise ParseError(f"empty cell at row {cells.index('') + 1}, column {name!r}")
    return Column(name, ColumnKind.CATEGORICAL, tuple(cells))


def _number_column(name: str, numbers: list[float], cells: Sequence) -> Column:
    """The quantitative column of ``numbers``, read from ``cells``; an
    error names a value out of bound by its cell, or by its ``str`` for a
    JSON number, which is its ``repr``. The numbers come as a list: a
    tuple built from a bare iterator is resized every few items, which is
    slower and fragments the heap."""
    if max(map(abs, numbers)) > VALUE_MAGNITUDE_MAX:
        i = next(i for i, x in enumerate(numbers) if abs(x) > VALUE_MAGNITUDE_MAX)
        raise ParseError(
            f"value {_shortened(str(cells[i]))!r} at row {i + 1}, column "
            f"{name!r} exceeds the magnitude bound {VALUE_MAGNITUDE_MAX:g}"
        )
    return Column(name, ColumnKind.QUANTITATIVE, tuple(numbers))


def _rows_from_csv(text: str) -> tuple[list[str], list[list[str]]]:
    # csv and json are imported by the parser that reads them, so a CSV
    # compile never loads json and a JSON one never loads csv.
    import csv
    import io

    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ParseError(f"csv error: {exc}") from exc
    if not records:
        raise ParseError("input contains no header row")
    return records[0], records[1:]


# The value types a JSON table's cell may hold; json.loads makes exactly
# these classes, so a bool is not an int here.
_JSON_CELL_TYPES = frozenset({str, int, float})


def _columns_from_json(text: str) -> tuple[list[str], list[list[str | int | float]]]:
    """The header and the columns of values of a JSON table, each value a
    string, an int or a finite float."""
    import json

    def reject_constant(token):
        raise ParseError(f"non-finite number {token!r} in table")

    try:
        payload = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ParseError(f"json error: {exc}") from exc
    if not isinstance(payload, list):
        raise ParseError("json table must be an array of record objects")
    if not payload:
        raise ParseError("json table is an empty array")
    first = payload[0]
    if not isinstance(first, dict) or not first:
        raise ParseError("json table rows must be non-empty objects")
    header = list(first.keys())
    # Every check is a C-level pass. Only when one fails does the loop
    # below run, to name the first record at fault. json.loads reads a
    # literal past float range as ±inf and never makes a nan, since
    # reject_constant refuses the NaN word, so ±inf is all to look for.
    count, columns = len(payload), []
    if (
        countOf(map(type, payload), dict) == count
        and countOf(map(dict.keys, payload), first.keys()) == count
    ):
        columns = [[record[name] for record in payload] for name in header]
    if not columns or not all(
        _JSON_CELL_TYPES.issuperset(map(type, values))
        and math.inf not in values and -math.inf not in values
        for values in columns
    ):
        key_set = set(header)
        for i, record in enumerate(payload):
            if not isinstance(record, dict) or record.keys() != key_set:
                raise ParseError(f"record {i + 1} does not match the first row's keys")
            for name in header:
                value = record[name]
                if type(value) not in _JSON_CELL_TYPES:
                    raise ParseError(
                        f"record {i + 1}, key {name!r}: values must be strings or numbers"
                    )
                if type(value) is float and not math.isfinite(value):
                    raise ParseError(f"non-finite number in record {i + 1}")
    return header, columns


def _json_column(name: str, values: list[str | int | float]) -> Column:
    """A column of numbers alone goes straight to floats, and an int past
    float range to ±inf, as its digits would. A column with a string in
    it is typed as CSV cells are, each number read as its ``repr``."""
    if str in map(type, values):
        return _typed_column(name, [v if type(v) is str else repr(v) for v in values])
    try:
        numbers = list(map(float, values))
    except OverflowError:
        numbers = list(map(float, map(repr, values)))
    return _number_column(name, numbers, values)


def parse_table(raw: bytes, fmt: TableFormat) -> Dataset:
    """Decode raw bytes into a typed Dataset.

    A column is quantitative exactly when every one of its values is an
    ASCII decimal literal such as ``12``, ``-0.5``, ``.5`` or ``1e5``,
    surrounding whitespace allowed; otherwise it is categorical and every
    value must be a non-empty string. A quantitative value beyond
    ``VALUE_MAGNITUDE_MAX`` in magnitude, even past float range, is rejected.
    """
    try:
        text = raw.decode("utf-8-sig")  # drops the byte-order mark Excel writes
    except UnicodeDecodeError as exc:
        raise ParseError("input is not valid UTF-8") from exc
    if fmt is TableFormat.CSV:
        return _build_dataset(*_rows_from_csv(text))
    header, columns = _columns_from_json(text)
    _check_header(header)  # a key may be ""
    return Dataset(tuple(map(_json_column, header, columns)), len(columns[0]))


def _parse_key_name(name: str) -> int:
    cleaned = name.strip()
    cleaned = cleaned[:1].upper() + cleaned[1:].lower()
    if cleaned not in PITCH_CLASS_BY_NAME:
        raise ParseError(f"unknown key name {name!r}")
    return PITCH_CLASS_BY_NAME[cleaned]


def _parse_time_signature(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise ParseError(f"time signature must look like 4/4, got {text!r}")
    try:
        numerator, denominator = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"time signature must be two integers, got {text!r}") from exc
    if not 1 <= numerator <= NUMERATOR_MAX:
        raise ParseError(f"time signature numerator must be within [1, {NUMERATOR_MAX}]")
    if denominator not in VALID_DENOMINATORS:
        raise ParseError(f"time signature denominator must be one of {VALID_DENOMINATORS}")
    return numerator, denominator


def _require_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ParseError(f"{key} must be an integer")
    return value


SPEC_KEYS = (
    "idiom", "palette", "key", "x", "y", "tempo", "time_signature", "loop",
    "histogram",
)


def _member(enum: type[Enum], key: str, raw: object) -> Enum:
    """The ``enum`` member that spec key ``key`` names, in any case and
    padding."""
    if not isinstance(raw, str):
        raise ParseError(f"{key} must be a string, got {raw!r}")
    try:
        return enum(raw.strip().lower())
    except ValueError:
        raise ParseError(f"unknown {key} {raw!r}") from None


def check_field_names(y_field: object, x_field: object) -> None:
    """Refuse a y that is not a non-empty string, and an x that is given
    (not ``None``) but is not one: the name rule that ``compile``'s spec
    and ``analyze``'s flags share."""
    if not isinstance(y_field, str) or not y_field:
        raise ParseError("y must be a non-empty column name")
    if x_field is not None and (not isinstance(x_field, str) or not x_field):
        raise ParseError("x must be a non-empty column name when given")


def spec_from_mapping(mapping: dict) -> MelodySpec:
    """Build a MelodySpec from a plain dict of spec keys."""
    unknown = set(mapping).difference(SPEC_KEYS)
    if unknown:
        raise ParseError(f"unknown spec keys: {sorted(unknown)}")

    for key in ("idiom", "palette", "y"):
        if key not in mapping:
            raise ParseError(f"spec is missing {key!r}")
    idiom = _member(Idiom, "idiom", mapping["idiom"])
    palette = _member(Palette, "palette", mapping["palette"])

    check_field_names(mapping["y"], mapping.get("x"))

    # An optional key set to null is absent; MelodySpec holds the defaults.
    given = {key: value for key, value in mapping.items() if value is not None}
    fields = {}
    if "x" in given:
        fields["x_field"] = given["x"]

    if "key" in given:
        if not isinstance(given["key"], str):
            raise ParseError("key must be a note name such as C, F# or Bb")
        fields["key_root"] = _parse_key_name(given["key"])

    if "tempo" in given:
        tempo_bpm = fields["tempo_bpm"] = _require_int(given["tempo"], "tempo")
        if not TEMPO_MIN <= tempo_bpm <= TEMPO_MAX:
            raise ParseError(
                f"tempo must be within [{TEMPO_MIN}, {TEMPO_MAX}], got {clipped(tempo_bpm)}"
            )

    if "time_signature" in given:
        if not isinstance(given["time_signature"], str):
            raise ParseError("time_signature must be a string such as 3/4")
        fields["time_signature"] = _parse_time_signature(given["time_signature"])

    if "loop" in given:
        loop_count = fields["loop_count"] = _require_int(given["loop"], "loop")
        if loop_count < 1:
            raise ParseError("loop must be a positive integer")

    if "histogram" in given:
        if not isinstance(given["histogram"], bool):
            raise ParseError("histogram must be true or false")
        fields["histogram"] = given["histogram"]

    return MelodySpec(idiom, palette, mapping["y"], **fields)


def spec_mapping(raw: bytes) -> dict:
    """Decode spec bytes (one JSON object, byte-order mark allowed) into
    the plain dict of spec keys."""
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError("spec is not valid UTF-8") from exc
    import json

    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ParseError(f"spec json error: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("spec must be a single JSON object")
    return payload


def validate_y(dataset: Dataset, y_field: str) -> None:
    """Check that ``y_field`` names a quantitative column: the binding
    check that every idiom and ``melodify analyze`` share."""
    if dataset.column(y_field).kind is not ColumnKind.QUANTITATIVE:
        raise BindingError(f"y column {y_field!r} must be quantitative")


def validate_binding(dataset: Dataset, spec: MelodySpec) -> None:
    """Check that the spec's field bindings suit the chosen idiom.

    Bar and pie need a categorical x column paired with a quantitative y;
    line and scatter need a quantitative y and, when x is bound at all, a
    quantitative x to order the rows by. Raises on the first check that
    fails. A pie's values are checked where they are apportioned, by
    ``stats.proportions``.
    """
    if dataset.row_count == 0:
        raise ParseError("dataset has no rows")

    validate_y(dataset, spec.y_field)
    x_col = dataset.column(spec.x_field) if spec.x_field is not None else None

    if spec.idiom in (Idiom.BAR, Idiom.PIE):
        if x_col is None:
            raise BindingError(
                f"{spec.idiom.value} needs a categorical x column naming each slice"
            )
        if x_col.kind is not ColumnKind.CATEGORICAL:
            raise BindingError(
                f"x column {spec.x_field!r} must be categorical for {spec.idiom.value}"
            )
    else:
        if x_col is not None and x_col.kind is not ColumnKind.QUANTITATIVE:
            raise BindingError(
                f"x column {spec.x_field!r} must be quantitative for {spec.idiom.value}"
            )
