"""Tabular data and melody-spec ingestion.

Tables arrive as UTF-8 CSV (RFC 4180 subset: comma delimiter,
double-quote escaping, mandatory header row, LF or CRLF line ends) or as
a JSON array of flat record objects. Specs are single JSON objects. A
leading byte-order mark is ignored in both. Parsing is strict: anything
inconsistent is rejected instead of silently coerced, and parsing the
same bytes twice always yields the same result.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    EmptyDataset,
    InvalidValue,
    KindMismatch,
    MalformedInput,
    MissingField,
    UnknownField,
    UnknownIdiom,
    UnknownPalette,
)


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


@dataclass(frozen=True)
class Column:
    """One named column; values are all floats or all non-empty strings."""

    name: str
    kind: ColumnKind
    values: tuple


@dataclass(frozen=True)
class Dataset:
    columns: tuple[Column, ...]
    row_count: int

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise UnknownField(f"no column named {name!r}")

    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self.columns)


@dataclass(frozen=True)
class MelodySpec:
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


def _as_number(cell: str) -> float | None:
    """The cell's number, or None for text and the words nan and inf; a
    literal past float range such as ``1e400`` is ±inf, over the bound."""
    try:
        number = float(cell)
    except ValueError:
        return None
    if math.isnan(number) or cell.strip().lstrip("+-").lower() in ("inf", "infinity"):
        return None
    return number


def _shortened(cell: str) -> str:
    """The cell as written, cut to 24 characters so that an error naming
    a 400-digit literal stays one short line."""
    return cell if len(cell) <= 24 else cell[:21] + "..."


def _build_dataset(header: list[str], rows: list[list[str]]) -> Dataset:
    if not header:
        raise MalformedInput("header row is empty")
    for name in header:
        if not isinstance(name, str) or not name:
            raise MalformedInput("column names must be non-empty strings")
    if len(set(header)) != len(header):
        raise MalformedInput("duplicate column names in header")
    if not rows:
        raise EmptyDataset("table has a header but no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise MalformedInput(
                f"row {i + 1} has {len(row)} cells, expected {len(header)}"
            )

    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        numbers = [_as_number(c) for c in cells]
        if all(n is not None for n in numbers):
            for i, number in enumerate(numbers):
                if abs(number) > VALUE_MAGNITUDE_MAX:
                    raise InvalidValue(
                        f"value {_shortened(cells[i])!r} at row {i + 1}, column "
                        f"{name!r} exceeds the magnitude bound {VALUE_MAGNITUDE_MAX:g}"
                    )
            columns.append(Column(name, ColumnKind.QUANTITATIVE, tuple(numbers)))
        else:
            for i, cell in enumerate(cells):
                if cell == "":
                    raise MalformedInput(
                        f"empty cell at row {i + 1}, column {name!r}"
                    )
            columns.append(Column(name, ColumnKind.CATEGORICAL, tuple(cells)))
    return Dataset(tuple(columns), len(rows))


def _rows_from_csv(text: str) -> tuple[list[str], list[list[str]]]:
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise MalformedInput(f"csv error: {exc}") from exc
    if not records:
        raise MalformedInput("input contains no header row")
    return records[0], records[1:]


def _rows_from_json(text: str) -> tuple[list[str], list[list[str]]]:
    def reject_constant(token):
        raise MalformedInput(f"non-finite number {token!r} in table")

    try:
        payload = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise MalformedInput(f"json error: {exc}") from exc
    if not isinstance(payload, list):
        raise MalformedInput("json table must be an array of record objects")
    if not payload:
        raise EmptyDataset("json table is an empty array")
    first = payload[0]
    if not isinstance(first, dict) or not first:
        raise MalformedInput("json table rows must be non-empty objects")
    header = list(first.keys())
    key_set = set(header)
    rows = []
    for i, record in enumerate(payload):
        if not isinstance(record, dict) or set(record.keys()) != key_set:
            raise MalformedInput(f"record {i + 1} does not match the first row's keys")
        cells = []
        for name in header:
            value = record[name]
            if isinstance(value, bool) or value is None or isinstance(value, (dict, list)):
                raise MalformedInput(
                    f"record {i + 1}, key {name!r}: values must be strings or numbers"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise MalformedInput(f"non-finite number in record {i + 1}")
            cells.append(value if isinstance(value, str) else repr(value))
        rows.append(cells)
    return header, rows


def parse_table(raw: bytes, fmt: TableFormat) -> Dataset:
    """Decode raw bytes into a typed Dataset.

    A column is quantitative exactly when every one of its values parses
    as a number other than nan or inf; otherwise it is categorical and
    every value must be a non-empty string. A quantitative value beyond
    ``VALUE_MAGNITUDE_MAX`` in magnitude, even past float range, is rejected.
    """
    try:
        text = raw.decode("utf-8-sig")  # drops the byte-order mark Excel writes
    except UnicodeDecodeError as exc:
        raise MalformedInput("input is not valid UTF-8") from exc
    if fmt is TableFormat.CSV:
        header, rows = _rows_from_csv(text)
    else:
        header, rows = _rows_from_json(text)
    return _build_dataset(header, rows)


def _parse_key_name(name: str) -> int:
    cleaned = name.strip()
    cleaned = cleaned[:1].upper() + cleaned[1:].lower()
    if cleaned not in PITCH_CLASS_BY_NAME:
        raise InvalidValue(f"unknown key name {name!r}")
    return PITCH_CLASS_BY_NAME[cleaned]


def _parse_time_signature(text: str) -> tuple[int, int]:
    parts = text.split("/")
    if len(parts) != 2:
        raise InvalidValue(f"time signature must look like 4/4, got {text!r}")
    try:
        numerator, denominator = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise InvalidValue(f"time signature must be two integers, got {text!r}") from exc
    if not 1 <= numerator <= NUMERATOR_MAX:
        raise InvalidValue(
            f"time signature numerator must be within [1, {NUMERATOR_MAX}]"
        )
    if denominator not in VALID_DENOMINATORS:
        raise InvalidValue(
            f"time signature denominator must be one of {VALID_DENOMINATORS}"
        )
    return numerator, denominator


def _require_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise InvalidValue(f"{key} must be an integer")
    return value


_SPEC_KEYS = {
    "idiom", "palette", "key", "x", "y", "tempo", "time_signature", "loop",
    "histogram",
}


def spec_from_mapping(mapping: dict) -> MelodySpec:
    """Build a MelodySpec from a plain dict of spec keys."""
    unknown = set(mapping) - _SPEC_KEYS
    if unknown:
        raise InvalidValue(f"unknown spec keys: {sorted(unknown)}")

    if "idiom" not in mapping:
        raise MissingField("spec is missing 'idiom'")
    if "palette" not in mapping:
        raise MissingField("spec is missing 'palette'")
    if "y" not in mapping:
        raise MissingField("spec is missing 'y'")

    idiom_raw = mapping["idiom"]
    if not isinstance(idiom_raw, str):
        raise UnknownIdiom(f"idiom must be a string, got {idiom_raw!r}")
    try:
        idiom = Idiom(idiom_raw.strip().lower())
    except ValueError:
        raise UnknownIdiom(f"unknown idiom {idiom_raw!r}") from None

    palette_raw = mapping["palette"]
    if not isinstance(palette_raw, str):
        raise UnknownPalette(f"palette must be a string, got {palette_raw!r}")
    try:
        palette = Palette(palette_raw.strip().lower())
    except ValueError:
        raise UnknownPalette(f"unknown palette {palette_raw!r}") from None

    y_field = mapping["y"]
    if not isinstance(y_field, str) or not y_field:
        raise InvalidValue("y must be a non-empty column name")

    # An optional key set to null is absent; MelodySpec holds the defaults.
    given = {key: value for key, value in mapping.items() if value is not None}
    fields = {}
    if "x" in given:
        if not isinstance(given["x"], str) or not given["x"]:
            raise InvalidValue("x must be a non-empty column name when given")
        fields["x_field"] = given["x"]

    if "key" in given:
        if not isinstance(given["key"], str):
            raise InvalidValue("key must be a note name such as C, F# or Bb")
        fields["key_root"] = _parse_key_name(given["key"])

    if "tempo" in given:
        tempo_bpm = fields["tempo_bpm"] = _require_int(given["tempo"], "tempo")
        if not TEMPO_MIN <= tempo_bpm <= TEMPO_MAX:
            raise InvalidValue(
                f"tempo must be within [{TEMPO_MIN}, {TEMPO_MAX}], got {tempo_bpm}"
            )

    if "time_signature" in given:
        if not isinstance(given["time_signature"], str):
            raise InvalidValue("time_signature must be a string such as 3/4")
        fields["time_signature"] = _parse_time_signature(given["time_signature"])

    if "loop" in given:
        loop_count = fields["loop_count"] = _require_int(given["loop"], "loop")
        if loop_count < 1:
            raise InvalidValue("loop must be a positive integer")

    if "histogram" in given:
        if not isinstance(given["histogram"], bool):
            raise InvalidValue("histogram must be true or false")
        fields["histogram"] = given["histogram"]

    return MelodySpec(idiom, palette, y_field, **fields)


def spec_mapping(raw: bytes) -> dict:
    """Decode spec bytes (one JSON object, byte-order mark allowed) into
    the plain dict of spec keys."""
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedInput("spec is not valid UTF-8") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise MalformedInput(f"spec json error: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedInput("spec must be a single JSON object")
    return payload


def parse_spec(raw: bytes) -> MelodySpec:
    """Parse spec bytes (one JSON object) into a validated MelodySpec."""
    return spec_from_mapping(spec_mapping(raw))


def validate_binding(dataset: Dataset, spec: MelodySpec) -> None:
    """Check that the spec's field bindings suit the chosen idiom.

    Bar and pie need a categorical x column paired with a quantitative y;
    line and scatter need a quantitative y and, when x is bound at all, a
    quantitative x to order the rows by. Raises on the first check that
    fails. A pie's values are checked where they are apportioned, by
    ``stats.proportions``.
    """
    if dataset.row_count == 0:
        raise EmptyDataset("dataset has no rows")

    y_col = dataset.column(spec.y_field)
    if y_col.kind is not ColumnKind.QUANTITATIVE:
        raise KindMismatch(f"y column {spec.y_field!r} must be quantitative")

    x_col = dataset.column(spec.x_field) if spec.x_field is not None else None

    if spec.idiom in (Idiom.BAR, Idiom.PIE):
        if x_col is None:
            raise KindMismatch(
                f"{spec.idiom.value} needs a categorical x column naming each slice"
            )
        if x_col.kind is not ColumnKind.CATEGORICAL:
            raise KindMismatch(
                f"x column {spec.x_field!r} must be categorical for {spec.idiom.value}"
            )
    else:
        if x_col is not None and x_col.kind is not ColumnKind.QUANTITATIVE:
            raise KindMismatch(
                f"x column {spec.x_field!r} must be quantitative for {spec.idiom.value}"
            )
