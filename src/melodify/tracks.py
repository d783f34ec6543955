"""Built-in demonstration tracks.

Nine small datasets chosen so that each chart idiom, palette family,
and data regime (sparse/dense, narrow/wide spread, rising/falling
trends) is heard at least once. Each is a dataset plus spec for
`melodify`; the command line's `tracklist` subcommand compiles and
writes them all out.
"""
from __future__ import annotations

from dataclasses import dataclass

from .ingest import Column, ColumnKind, Dataset, Idiom, MelodySpec, Palette


@dataclass(frozen=True)
class TrackDef:
    slug: str
    dataset: Dataset
    spec: MelodySpec


def _categorical(name: str, values: list[str]) -> Column:
    return Column(name, ColumnKind.CATEGORICAL, tuple(values))


def _quantitative(name: str, values: list[float]) -> Column:
    return Column(name, ColumnKind.QUANTITATIVE, tuple(float(v) for v in values))


def _dataset(*columns: Column) -> Dataset:
    return Dataset(tuple(columns), len(columns[0].values))


_LINE_Y = [0.0, 1.0, 2.0, 3.0, 4.0, 2.0, 0.0, -2.0]

# Dense scatter hugging a flat level: high density, narrow spread.
_STEADY_Y = [
    100, 102, 98, 101, 99, 103, 97, 100, 102, 99, 101, 98, 100, 103, 97, 102,
    99, 101, 100, 98, 102, 97, 103, 100, 99, 101, 98, 102, 100, 97, 103, 99,
]

# Dense scatter sprayed over the full range: high density, wide spread.
_SPRAY_Y = [
    5, 62, 18, 88, 33, 71, 9, 47, 80, 25, 58, 2, 90, 41, 14, 67,
    29, 76, 52, 7, 84, 37, 60, 21, 73, 45, 11, 55, 31, 86, 16, 64,
]


TRACKS: tuple[TrackDef, ...] = (
    TrackDef(
        slug="01-bar-positive",
        dataset=_dataset(
            _categorical("category", ["A", "B", "C", "D", "E"]),
            _quantitative("value", [1, 2, 3, 4, 5]),
        ),
        spec=MelodySpec(Idiom.BAR, Palette.POSITIVE, "value", x_field="category"),
    ),
    TrackDef(
        slug="02-bar-negative",
        dataset=_dataset(
            _categorical("category", ["A", "B", "C", "D", "E"]),
            _quantitative("value", [5, 4, 3, 2, 1]),
        ),
        spec=MelodySpec(Idiom.BAR, Palette.NEGATIVE, "value", x_field="category"),
    ),
    TrackDef(
        slug="03-line-positive",
        dataset=_dataset(_quantitative("value", _LINE_Y)),
        spec=MelodySpec(Idiom.LINE, Palette.POSITIVE, "value"),
    ),
    TrackDef(
        slug="04-line-negative",
        dataset=_dataset(_quantitative("value", _LINE_Y)),
        spec=MelodySpec(Idiom.LINE, Palette.NEGATIVE, "value"),
    ),
    TrackDef(
        slug="05-line-grey",
        dataset=_dataset(_quantitative("value", _LINE_Y)),
        spec=MelodySpec(Idiom.LINE, Palette.GREY, "value"),
    ),
    TrackDef(
        slug="06-pie-positive",
        dataset=_dataset(
            _categorical("category", ["A", "B", "C", "D"]),
            _quantitative("value", [4, 3, 2, 1]),
        ),
        spec=MelodySpec(Idiom.PIE, Palette.POSITIVE, "value", x_field="category"),
    ),
    TrackDef(
        slug="07-scatter-sparse-wide",
        dataset=_dataset(_quantitative("value", [5, 90, 20, 70, 1, 55, 35])),
        spec=MelodySpec(Idiom.SCATTER, Palette.POSITIVE, "value"),
    ),
    TrackDef(
        slug="08-scatter-dense-narrow",
        dataset=_dataset(_quantitative("value", _STEADY_Y)),
        spec=MelodySpec(Idiom.SCATTER, Palette.POSITIVE, "value"),
    ),
    TrackDef(
        slug="09-scatter-grey",
        dataset=_dataset(_quantitative("value", _SPRAY_Y)),
        spec=MelodySpec(Idiom.SCATTER, Palette.GREY, "value"),
    ),
)
