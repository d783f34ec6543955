"""Command line: compile data to music, analyze data, render demos.

Exit status is 0 on success, 1 for problems with the user's inputs
(parse, binding, proportion, and I/O errors), 2 for internal failures.
Every failure prints one line to stderr of the form ``error CODE:
message`` so callers can branch on the code without parsing prose.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import KindMismatch, MalformedInput, MelodifyError
from .ingest import (
    ColumnKind,
    Dataset,
    MelodySpec,
    TableFormat,
    parse_table,
    spec_from_mapping,
)
from .melodifier import _ordered_series, melodify
from .score import NoteEvent, Score, expand_loops, total_duration_ticks
from .smf import write_smf, write_text_score
from .stats import (
    compute_density,
    compute_variance,
    proportions,
    segment_trends,
)
from .tracks import TRACKS

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
        try:
            payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedInput(f"spec json error: {exc}") from exc
        if not isinstance(payload, dict):
            raise MalformedInput("spec must be a single JSON object")
        mapping = payload

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


def _write_score(score: Score, midi_path: Path | None, text_path: Path | None) -> str:
    """Write the score to whichever of the two paths are given and return
    its ``notes=... ticks=...`` summary. Loops are expanded once, for both
    the MIDI bytes and the summary; the text score keeps its loop marker."""
    expanded = expand_loops(score)
    if midi_path is not None:
        midi_path.write_bytes(write_smf(expanded))
    if text_path is not None:
        text_path.write_text(write_text_score(score), encoding="utf-8")
    notes = sum(1 for event in expanded.events if isinstance(event, NoteEvent))
    return f"notes={notes} ticks={total_duration_ticks(expanded)}"


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
    y_col = dataset.column(args.y)
    if y_col.kind is not ColumnKind.QUANTITATIVE:
        raise KindMismatch(f"y column {args.y!r} must be quantitative")

    x_field = args.x or None
    series = _ordered_series(dataset, args.y, x_field)
    x_col = dataset.column(x_field) if x_field else None

    n = len(series)
    report: dict = {"rows": n}
    if n >= 2:
        report["segments"] = [
            {
                "start": seg.start_index,
                "end": seg.end_index,
                "slope": seg.slope,
                "direction": seg.direction.value,
            }
            for seg in segment_trends(series)
        ]
    else:
        report["segments"] = []
    density = compute_density(n)
    report["density"] = {
        "level": density.level.value,
        "points_per_bar": density.points_per_bar,
    }
    if n >= 2:
        variance = compute_variance(series)
        report["variance"] = {
            "level": variance.level.value,
            "semitone_span": variance.semitone_span,
        }
    else:
        report["variance"] = None
    if x_col is not None and x_col.kind is ColumnKind.CATEGORICAL:
        ratios = proportions(zip(x_col.values, y_col.values))
        report["proportions"] = [
            {"label": label, "ratio": ratio} for label, ratio in ratios.entries
        ]
    else:
        report["proportions"] = None

    print(json.dumps(report, indent=2))
    return 0


def _cmd_tracklist(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for track in TRACKS:
        score = melodify(track.dataset, track.spec)
        summary = _write_score(
            score, out_dir / f"{track.slug}.mid", out_dir / f"{track.slug}.txt"
        )
        print(f"{track.slug} {summary}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except MelodifyError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return 1 if exc.code in USER_ERROR_CODES else 2
    except OSError as exc:
        print(f"error E_IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
