"""Command line: compile data to music, analyze data, render demos.

Exit status is 0 on success, 1 for problems with the user's inputs
(parse, binding, proportion, and I/O errors), 2 for internal failures
(``E_INTERNAL``: any other exception).
Every failure prints one line to stderr of the form ``error CODE:
message`` so callers can branch on the code without parsing prose.

``main(argv)`` may be called any number of times in one process: the
argument parser is built on the first call and reused, and parsing
leaves no state on it. ``main`` pauses the cyclic garbage collector
while it runs and restores the caller's setting when it returns or
raises: a compile makes no reference cycles, so a collector pass over
its event records would only cost time. Importing this module loads only what
``compile`` and ``analyze`` run; ``tracklist`` imports the built-in
tracks when it runs, and ``csv`` and ``json`` are imported when a
table, a spec or ``analyze``'s report needs them.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from operator import countOf
from pathlib import Path

from .errors import MelodifyError, ParseError, ProportionError
from .ingest import (
    SPEC_KEYS,
    Dataset,
    MelodySpec,
    TableFormat,
    parse_table,
    spec_from_mapping,
    spec_mapping,
    validate_y,
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
    """Spec file first, command-line flags overriding key by key: each
    compile flag stores its value under its spec key."""
    mapping: dict = {}
    if args.spec is not None:
        mapping = spec_mapping(Path(args.spec).read_bytes())
    for key in SPEC_KEYS:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    return spec_from_mapping(mapping)


def _write_score(score: Score, midi_path: Path | None, text_path: Path | None) -> str:
    """Write the score to whichever of the two paths are given and return
    its ``notes=... ticks=...`` summary as played. The score passes the
    ``structural_errors`` gate once, as ``melodify`` built it, before any
    file is written: ``write_smf`` gates it itself, and with no MIDI to
    write it is gated here. The expansion comes first: it refuses a loop
    past ``MAX_EXPANDED_EVENTS`` on every emit, and its notes are counted
    at once, so its copies are freed before either writer runs. Both
    outputs are encoded before either file is opened, and written as
    bytes, so the text keeps its LF line ends on every platform. An
    ``OSError`` from an open, a write or a close removes every output
    this call opened, the MIDI file already written included: a refusal
    or a full disk leaves no output, and no part of one. A path that
    could not be opened is not removed."""
    notes = countOf(map(type, expand_loops(score).events), NoteEvent)
    if midi_path is None:
        require_valid(score)  # write_smf gates the score itself
    outputs = []
    if midi_path is not None:
        outputs.append((midi_path, write_smf(score)))
    if text_path is not None:
        outputs.append((text_path, write_text_score(score).encode("utf-8")))
    opened = []
    try:
        for path, data in outputs:
            with open(path, "wb") as file:
                opened.append(path)
                file.write(data)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise
    return f"notes={notes} ticks={total_duration_ticks(score)}"


def _cmd_compile(args: argparse.Namespace) -> int:
    # An --out that is empty, ends in a separator, or ends in "." or ".."
    # has no file name to give the .mid or .txt suffix.
    if args.out is not None and os.path.basename(args.out) in ("", ".", ".."):
        raise ParseError(f"--out {args.out!r} names no file; give a file path such as song.mid")
    dataset = _load_dataset(args.data)  # read before the spec: its refusals come first
    spec = _spec_from_args(args)
    score = melodify(dataset, spec)
    del dataset  # not held while the outputs are encoded

    out = Path(args.out) if args.out else Path(args.data)
    midi_path = out.with_suffix(".mid") if args.emit in ("midi", "both") else None
    text_path = out.with_suffix(".txt") if args.emit in ("text", "both") else None
    # An output path that names the table or the spec file, by any
    # spelling or link, would destroy the input it was compiled from.
    for path in (midi_path, text_path):
        if path is not None and path.exists():
            for flag, given in (("--data", args.data), ("--spec", args.spec)):
                if given is not None and path.samefile(given):
                    raise ParseError(
                        f"output {path} would overwrite the {flag} file; choose another --out"
                    )
    summary = _write_score(score, midi_path, text_path)

    print(f"{spec.idiom.value} {spec.palette.value} {summary}")
    for path in (midi_path, text_path):
        if path is not None:
            print(f"wrote {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.data)
    validate_y(dataset, args.y)

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

    import json

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
        # Python 3.10's argparse calls this from an ``except`` block whose
        # local ``err`` holds the ArgumentError, and the tracebacks of that
        # error and of the one it chains reach that frame: a cycle only the
        # collector frees. Dropping the tracebacks breaks it.
        handled = sys.exc_info()[1]
        while handled is not None:
            handled.__traceback__ = None
            handled = handled.__context__
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
    compile_p.add_argument(
        "--time", dest="time_signature", metavar="TIME",
        help="time signature override, e.g. 3/4",
    )
    compile_p.add_argument("--loop", type=int, help="pie cycle repeat count")
    compile_p.add_argument(
        "--histogram",
        action="store_const",
        const=True,
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
    """Run one command and return its exit status (see the module docstring).

    The cyclic garbage collector is paused while the command runs and
    switched back on afterwards only if it was on when ``main`` was
    called, so a ``SystemExit`` from ``--help`` or a ``KeyboardInterrupt``
    leaves it as it was too. A compile holds thousands of event records
    until it ends, and each collector pass scans them all, yet no compile
    or refusal builds a reference cycle: ``gc.collect()`` right after a
    warm call finds nothing. The few cycles that do arise are freed by
    the collector's next pass once ``main`` returns: the first call's
    parser build leaves 70 cyclic objects, ``--help`` 22 to 58, and each
    ``analyze`` 33 (``json.dumps(indent=2)``'s pure-Python encoder)."""
    was_enabled = gc.isenabled()
    gc.disable()
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
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
