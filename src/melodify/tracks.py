"""Built-in demonstration tracks.

Nine small datasets chosen so that each chart idiom, palette family,
and data regime (sparse/dense, narrow/wide spread, rising/falling
trends) is heard at least once. Each track is a CSV table and a spec
mapping, read by ``parse_table`` and ``spec_from_mapping`` as
``melodify compile`` reads a table and a spec file, so ``ingest`` alone
types the columns and fills in the spec's defaults. The command line's
``tracklist`` subcommand compiles and writes them all out.
"""
from __future__ import annotations

from typing import NamedTuple

from .ingest import Dataset, MelodySpec, TableFormat, parse_table, spec_from_mapping


class TrackDef(NamedTuple):
    slug: str
    dataset: Dataset
    spec: MelodySpec


def _values(*numbers: int) -> str:
    """A one-column CSV table of ``numbers`` under the header ``value``."""
    return "value\n" + "".join(f"{n}\n" for n in numbers)


_LINE = _values(0, 1, 2, 3, 4, 2, 0, -2)

# Dense scatter hugging a flat level: high density, narrow spread.
_STEADY = _values(
    100, 102, 98, 101, 99, 103, 97, 100, 102, 99, 101, 98, 100, 103, 97, 102,
    99, 101, 100, 98, 102, 97, 103, 100, 99, 101, 98, 102, 100, 97, 103, 99,
)

# Dense scatter sprayed over the full range: high density, wide spread.
_SPRAY = _values(
    5, 62, 18, 88, 33, 71, 9, 47, 80, 25, 58, 2, 90, 41, 14, 67,
    29, 76, 52, 7, 84, 37, 60, 21, 73, 45, 11, 55, 31, 86, 16, 64,
)

# Each track: its slug, its table as CSV text and its spec mapping.
TRACKS: tuple[TrackDef, ...] = tuple(
    TrackDef(slug, parse_table(table.encode(), TableFormat.CSV), spec_from_mapping(spec))
    for slug, table, spec in (
        ("01-bar-positive", "category,value\nA,1\nB,2\nC,3\nD,4\nE,5\n",
         {"idiom": "bar", "palette": "positive", "x": "category", "y": "value"}),
        ("02-bar-negative", "category,value\nA,5\nB,4\nC,3\nD,2\nE,1\n",
         {"idiom": "bar", "palette": "negative", "x": "category", "y": "value"}),
        ("03-line-positive", _LINE, {"idiom": "line", "palette": "positive", "y": "value"}),
        ("04-line-negative", _LINE, {"idiom": "line", "palette": "negative", "y": "value"}),
        ("05-line-grey", _LINE, {"idiom": "line", "palette": "grey", "y": "value"}),
        ("06-pie-positive", "category,value\nA,4\nB,3\nC,2\nD,1\n",
         {"idiom": "pie", "palette": "positive", "x": "category", "y": "value"}),
        ("07-scatter-sparse-wide", _values(5, 90, 20, 70, 1, 55, 35),
         {"idiom": "scatter", "palette": "positive", "y": "value"}),
        ("08-scatter-dense-narrow", _STEADY,
         {"idiom": "scatter", "palette": "positive", "y": "value"}),
        ("09-scatter-grey", _SPRAY, {"idiom": "scatter", "palette": "grey", "y": "value"}),
    )
)
