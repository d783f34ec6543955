"""Command line: compile data to music, analyze data, render demos.

Exit status is 0 on success, 1 for problems with the user's inputs
(parse, binding, proportion, and I/O errors), 2 for internal failures
(``E_INTERNAL``: any other exception).
Every failure prints one line to stderr of the form ``error CODE:
message`` so callers can branch on the code without parsing prose.

``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused, and parsing
leaves no state on it. Importing this module loads only what
``compile`` and ``analyze`` run; ``tracklist`` imports the built-in
tracks when it runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import BindingError, MelodifyError, ParseError, ProportionError
from .ingest import (
    ColumnKind,
    Dataset,
    MelodySpec,
    TableFormat,
    parse_table,
    spec_from_mapping,
    spec_mapping,
)
from .melodifier import derive_character, melodify
from .score import NoteEvent, Score, expand_loops, total_duration_ticks
from .smf import require_valid, write_smf, write_text_score

USER_ERROR_CODES = ("E_PARSE", "E_BINDING", "E_PROPORTION", "E_IO")


def _load_dataset(path: str) -> Dataset:
    fmt = (
        TableFormat.JSON
        if Path(path).suffix.lower() == ".json"
        else TableFormat.CSV
    )
    return parse_table(Path(path).read_bytes(), fmt)


def _spec_from_args(args: argparse.Namespace) -> MelodySpec:
    """Spec file first, command-line flags overriding key by key."""
    mapping: dict = {}
    if args.spec is not None:
        mapping = spec_mapping(Path(args.spec).read_bytes())

    for key, value in (
        ("idiom", args.idiom),
        ("palette", args.palette),
        ("y", args.y),
        ("x", args.x),
        ("key", args.key),
        ("tempo", args.tempo),
        ("time_signature", args.time),
        ("loop", args.loop),
    ):
        if value is not None:
            mapping[key] = value
    if args.histogram:
        mapping["histogram"] = True
    return spec_from_mapping(mapping)


def _summary(score: Score) -> str:
    """``notes=... ticks=...`` of the score as played, read from the score
    before loop expansion: each extra repeat adds the notes whose onset
    lies in the loop region, and ``total_duration_ticks`` adds its length."""
    onsets = [ev.onset_tick for ev in score.events if type(ev) is NoteEvent]
    notes = len(onsets)
    if score.loop is not None:
        start, end, count = score.loop
        notes += (count - 1) * sum(start <= tick < end for tick in onsets)
    return f"notes={notes} ticks={total_duration_ticks(score)}"


def _write_score(score: Score, midi_path: Path | None, text_path: Path | None) -> str:
    """Write the score to whichever of the two paths are given and return
    its summary. The loop is expanded once, for the MIDI bytes and the
    ``structural_errors`` gate, which runs once and before any file is
    written; the text score keeps its loop marker."""
    expanded = expand_loops(score)
    if midi_path is not None:
        midi_path.write_bytes(write_smf(expanded))  # write_smf runs the gate
    else:
        require_valid(expanded)
    if text_path is not None:
        text_path.write_text(write_text_score(score), encoding="utf-8")
    return _summary(score)


def _cmd_compile(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data)
    spec = _spec_from_args(args)
    score = melodify(dataset, spec)

    out = Path(args.out) if args.out else Path(args.data)
    midi_path = out.with_suffix(".mid") if args.emit in ("midi", "both") else None
    text_path = out.with_suffix(".txt") if args.emit in ("text", "both") else None
    summary = _write_score(score, midi_path, text_path)

    print(f"{spec.idiom.value} {spec.palette.value} {summary}")
    for path in (midi_path, text_path):
        if path is not None:
            print(f"wrote {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data)
    if dataset.column(args.y).kind is not ColumnKind.QUANTITATIVE:
        raise BindingError(f"y column {args.y!r} must be quantitative")

    character = derive_character(dataset, args.y, args.x or None)
    n = len(character.series)
    try:
        ratios = character.proportions
    except ProportionError:
        ratios = None  # not part-to-whole data, though a bar chart still plays it
    report = {
        "rows": n,
        "segments": [
            {
                "start": seg.start_index,
                "end": seg.end_index,
                "slope": seg.slope,
                "direction": seg.direction.value,
            }
            for seg in (character.segments if n >= 2 else ())
        ],
        "density": {
            "level": character.density.level.value,
            "points_per_bar": character.density.points_per_bar,
        },
        # One row has no spread to measure; compile plays it as narrow.
        "variance": None if n < 2 else {
            "level": character.variance.level.value,
            "semitone_span": character.variance.semitone_span,
        },
        "proportions": None if ratios is None else [
            {"label": label, "ratio": ratio} for label, ratio in ratios
        ],
    }

    print(json.dumps(report, indent=2))
    return 0


def _cmd_tracklist(args: argparse.Namespace) -> int:
    from .tracks import TRACKS

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for track in TRACKS:
        score = melodify(track.dataset, track.spec)
        summary = _write_score(
            score, out_dir / f"{track.slug}.mid", out_dir / f"{track.slug}.txt"
        )
        print(f"{track.slug} {summary}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise E_PARSE instead of exiting 2; subparsers inherit it."""

    def error(self, message: str):
        raise ParseError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: each build
    costs about as much as a small compile."""
    parser = _Parser(
        prog="melodify",
        description="Turn tabular data and a chart intent into a musical score.",
        epilog=(
            "Compilation is deterministic: the same data and spec always "
            "produce byte-identical output."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser(
        "compile", help="compile a table plus melody spec into MIDI or text"
    )
    compile_p.add_argument("--data", required=True, help="CSV or JSON table path")
    compile_p.add_argument("--spec", help="JSON melody-spec path")
    compile_p.add_argument("--idiom", help="bar, pie, line, or scatter")
    compile_p.add_argument(
        "--palette", help="positive, negative, grey, exciting, or calm"
    )
    compile_p.add_argument("--y", help="quantitative column to play")
    compile_p.add_argument("--x", help="category or ordering column")
    compile_p.add_argument("--key", help="key root note name, e.g. C, F# or Bb")
    compile_p.add_argument("--tempo", type=int, help="beats per minute override")
    compile_p.add_argument("--time", help="time signature override, e.g. 3/4")
    compile_p.add_argument("--loop", type=int, help="pie cycle repeat count")
    compile_p.add_argument(
        "--histogram",
        action="store_true",
        help="treat the bar chart as a histogram (blurs sparse bars with pedal)",
    )
    compile_p.add_argument(
        "--emit",
        choices=("midi", "text", "both"),
        default="midi",
        help="output format (default: midi)",
    )
    compile_p.add_argument("--out", help="output path (default: data path with .mid)")
    compile_p.set_defaults(handler=_cmd_compile)

    analyze_p = sub.add_parser(
        "analyze", help="print the data summaries that would drive compilation"
    )
    analyze_p.add_argument("--data", required=True, help="CSV or JSON table path")
    analyze_p.add_argument("--y", required=True, help="quantitative column to analyze")
    analyze_p.add_argument("--x", help="category or ordering column")
    analyze_p.set_defaults(handler=_cmd_analyze)

    tracklist_p = sub.add_parser(
        "tracklist", help="render the built-in demonstration tracks"
    )
    tracklist_p.add_argument(
        "--out", default="tracks", help="output directory (default: ./tracks)"
    )
    tracklist_p.set_defaults(handler=_cmd_tracklist)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except MelodifyError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1 if exc.code in USER_ERROR_CODES else 2
    except OSError as exc:
        print(f"error E_IO: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, not an input problem
        print(f"error E_INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
