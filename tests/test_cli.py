"""Command-line surface: exit codes, stderr codes, and emitted files."""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import melodify
from melodify import errors, melodifier, smf, smf_reader
from melodify.cli import USER_ERROR_CODES, _build_parser, _summary, main
from melodify.ingest import Column, ColumnKind, Dataset, Idiom, MelodySpec, Palette
from melodify.score import (
    MAX_EXPANDED_EVENTS,
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    expand_loops,
    total_duration_ticks,
)
from melodify.smf import parse_smf_minimal
from melodify.theory import ScaleMode

REPO = Path(__file__).resolve().parents[1]


def src_env(**extra: str) -> dict[str, str]:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


# sha256 of every MIDI file `melodify tracklist` writes.
TRACK_MIDI_SHA256 = {
    "01-bar-positive": "8a50729f56e1a2d384ee5623cb1a5421253605123ecd94f28fac3ef88a1720e1",
    "02-bar-negative": "e949b0c4e5ae31a2490f17d5a088047607b1f0b86d1554200db020bc20e06cdb",
    "03-line-positive": "a1fffa833306a6342a8cb41a69a450b7019a819fd55dbb8775b815d740efb08e",
    "04-line-negative": "65c14179ff495d3ce8c3184a9fa11aa333caabf136c3446d36a29d9ada15b444",
    "05-line-grey": "fcb2afc29122390dc9aafbd5137012e3be0114611c7eb37761a1829dc71cb377",
    "06-pie-positive": "ea3f1a943b721f0ffb78852cf92528f50c06ed2ce707fdb9936b64b1a081fdd0",
    "07-scatter-sparse-wide": "dcbbdd1adb30e7d43a52409dc95a6f94e28767178e0fbcf529550fed56da3a7e",
    "08-scatter-dense-narrow": "003ed7a73f25c424e27817d7cf3376b229e243ef4a5ec417ce6cc1593c74add8",
    "09-scatter-grey": "248869bb6cf48b8627ee1fea3a6b370be03b14a50dbf45e3ee90ad56f6576e43",
}


@pytest.fixture
def bar_csv(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text("k,v\na,1\nb,2\nc,3\n", encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compile_writes_midi_next_to_data(bar_csv, capsys):
    code, out, err = run(
        capsys, "compile", "--data", str(bar_csv),
        "--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 0 and err == ""
    midi = bar_csv.with_suffix(".mid")
    assert midi.read_bytes()[:4] == b"MThd"
    assert out.splitlines()[0] == "bar positive notes=15 ticks=9600"
    assert f"wrote {midi}" in out


def test_compile_emit_both(bar_csv, tmp_path, capsys):
    out_path = tmp_path / "song.mid"
    code, out, _ = run(
        capsys, "compile", "--data", str(bar_csv), "--idiom", "bar",
        "--palette", "calm", "--x", "k", "--y", "v",
        "--emit", "both", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    text = out_path.with_suffix(".txt")
    assert text.read_text(encoding="utf-8").startswith("tpq 480\ntempo 72\ntime 3/4\n")


def test_compile_emit_text_only(bar_csv, tmp_path, capsys):
    out_path = tmp_path / "song.txt"
    code, _, _ = run(
        capsys, "compile", "--data", str(bar_csv), "--idiom", "bar",
        "--palette", "positive", "--x", "k", "--y", "v",
        "--emit", "text", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    assert not out_path.with_suffix(".mid").exists()


def test_compile_overrides_reach_the_score(bar_csv, tmp_path, capsys):
    out_path = tmp_path / "song.txt"
    code, _, _ = run(
        capsys, "compile", "--data", str(bar_csv), "--idiom", "bar",
        "--palette", "positive", "--x", "k", "--y", "v",
        "--key", "D", "--tempo", "90", "--time", "3/4",
        "--emit", "text", "--out", str(out_path),
    )
    assert code == 0
    head = out_path.read_text(encoding="utf-8").splitlines()[:4]
    assert head == ["tpq 480", "tempo 90", "time 3/4", "key 2 major"]


def test_compile_spec_file_with_flag_override(bar_csv, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"idiom": "bar", "palette": "negative", "x": "k", "y": "v"}),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, "compile", "--data", str(bar_csv),
        "--spec", str(spec_path), "--palette", "positive",
    )
    assert code == 0
    assert out.startswith("bar positive ")


@pytest.mark.parametrize("key", ["x", "key", "tempo", "time_signature", "loop", "histogram"])
def test_compile_spec_null_is_an_absent_key(bar_csv, tmp_path, capsys, key):
    # A line may leave x out; every other optional key rides on a pie.
    spec = {"idiom": "line", "palette": "positive", "y": "v"}
    if key != "x":
        spec.update(idiom="pie", x="k")
    written = []
    for i, variant in enumerate((spec, {**spec, key: None})):
        spec_path, out_path = tmp_path / "spec.json", tmp_path / f"{i}.mid"
        spec_path.write_text(json.dumps(variant), encoding="utf-8")
        code, _, err = run(
            capsys, "compile", "--data", str(bar_csv),
            "--spec", str(spec_path), "--out", str(out_path),
        )
        assert (code, err) == (0, "")
        written.append(out_path.read_bytes())
    assert written[0] == written[1]


def test_compile_missing_data_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "compile", "--data", str(tmp_path / "absent.csv"),
        "--idiom", "bar", "--palette", "positive", "--y", "v",
    )
    assert code == 1
    assert err.startswith("error E_IO:")


def test_compile_unknown_idiom(bar_csv, capsys):
    code, _, err = run(
        capsys, "compile", "--data", str(bar_csv),
        "--idiom", "sparkline", "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 1
    assert err.startswith("error E_PARSE:")


def test_compile_unknown_column(bar_csv, capsys):
    code, _, err = run(
        capsys, "compile", "--data", str(bar_csv),
        "--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "nope",
    )
    assert code == 1
    assert err.startswith("error E_BINDING:")


def test_compile_negative_pie_share(tmp_path, capsys):
    path = tmp_path / "shares.csv"
    path.write_text("k,v\na,3\nb,-1\n", encoding="utf-8")
    code, _, err = run(
        capsys, "compile", "--data", str(path),
        "--idiom", "pie", "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 1
    assert err.startswith("error E_PROPORTION:")


def test_compile_refuses_a_pie_slice_below_one_sixteenth(tmp_path, capsys):
    # A 1/32 cycle is 2 sixteenths, so only the first two of five equal
    # slices could sound; the third is named and nothing is written.
    path = tmp_path / "shares.csv"
    path.write_text("k,v\na,1\nb,1\nc,1\nd,1\ne,1\n", encoding="utf-8")
    code, out, err = run(
        capsys, "compile", "--data", str(path), "--idiom", "pie",
        "--palette", "positive", "--x", "k", "--y", "v",
        "--time", "1/32", "--loop", "1",
    )
    assert code == 1 and out == ""
    assert err == (
        "error E_PROPORTION: pie slice 'c' (share 0.2) rounds to 0 of "
        "the cycle's 2 sixteenth units\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["shares.csv"]


def test_compile_rejects_time_numerator_above_one_byte(bar_csv, capsys):
    code, _, err = run(
        capsys, "compile", "--data", str(bar_csv), "--idiom", "bar",
        "--palette", "positive", "--x", "k", "--y", "v", "--time", "300/4",
    )
    assert code == 1
    assert err.startswith("error E_PARSE:") and len(err.splitlines()) == 1
    assert not bar_csv.with_suffix(".mid").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("idiom", "table"),
    [("line", "v\n1\n1e160\n3\n"), ("scatter", "v\n-1e308\n1e308\n")],
)
def test_compile_rejects_value_beyond_magnitude_bound(tmp_path, capsys, idiom, table):
    path = tmp_path / "huge.csv"
    path.write_text(table, encoding="utf-8")
    code, out, err = run(
        capsys, "compile", "--data", str(path), "--idiom", idiom,
        "--palette", "positive", "--y", "v",
    )
    assert code == 1 and out == ""
    assert err.startswith("error E_PARSE:") and len(err.splitlines()) == 1
    assert not path.with_suffix(".mid").exists()


def test_compile_rejects_loop_beyond_event_cap(tmp_path, capsys):
    path = tmp_path / "shares.csv"
    path.write_text("k,v\na,3\nb,1\n", encoding="utf-8")
    # Two 3-note chords per cycle plus a 6-note cadence: just past the cap,
    # so code without the cap fails quickly instead of exhausting memory.
    loop = MAX_EXPANDED_EVENTS // 6
    code, out, err = run(
        capsys, "compile", "--data", str(path), "--idiom", "pie",
        "--palette", "positive", "--x", "k", "--y", "v", "--loop", str(loop),
    )
    assert code == 1 and out == ""
    assert err == (
        f"error E_PARSE: loop of {loop} repeats would expand to "
        f"{6 + 6 * loop} events, above the cap of {MAX_EXPANDED_EVENTS}\n"
    )
    assert not path.with_suffix(".mid").exists()


def test_compile_spec_file_with_byte_order_mark(bar_csv, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec = {"idiom": "bar", "palette": "positive", "x": "k", "y": "v"}
    spec_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(spec).encode())
    code, out, err = run(capsys, "compile", "--data", str(bar_csv), "--spec", str(spec_path))
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "bar positive notes=15 ticks=9600"


def test_unexpected_exception_is_internal_error(bar_csv, capsys, monkeypatch):
    def broken(dataset, spec):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("melodify.cli.melodify", broken)
    code, out, err = run(
        capsys, "compile", "--data", str(bar_csv),
        "--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 2 and out == ""
    assert err == "error E_INTERNAL: ZeroDivisionError: division by zero\n"
    assert not bar_csv.with_suffix(".mid").exists()


@pytest.fixture
def reversed_bar_body(monkeypatch):
    # melodify trusts each body to write its events in score order;
    # structural_errors must catch one that does not, before any output.
    write_bars = melodifier._BODIES[Idiom.BAR]

    def reversed_bars(spec, plan, character):
        events, body_end = write_bars(spec, plan, character)
        return events[::-1], body_end

    monkeypatch.setitem(melodifier._BODIES, Idiom.BAR, reversed_bars)


def assert_refused_out_of_order(bar_csv, capsys, emit):
    code, out, err = run(
        capsys, "compile", "--data", str(bar_csv), "--emit", emit,
        "--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error E_INTERNAL: score fails validation: ")
    assert "out of order" in line
    assert sorted(path.name for path in bar_csv.parent.iterdir()) == [bar_csv.name]


def test_out_of_order_body_is_internal_error(bar_csv, capsys, reversed_bar_body):
    assert_refused_out_of_order(bar_csv, capsys, "both")


def test_out_of_order_body_writes_no_text_score(bar_csv, capsys, reversed_bar_body):
    # Text-only output passes the same gate as MIDI before it is written.
    assert_refused_out_of_order(bar_csv, capsys, "text")


@pytest.mark.parametrize("idiom", ["bar", "pie"])
@pytest.mark.parametrize("emit", ["midi", "text", "both"])
def test_every_emit_runs_the_gate_once(bar_csv, capsys, monkeypatch, emit, idiom):
    calls = []
    gate = smf.structural_errors
    monkeypatch.setattr(smf, "structural_errors", lambda score: calls.append(score) or gate(score))
    code, _, err = run(
        capsys, "compile", "--data", str(bar_csv), "--emit", emit,
        "--idiom", idiom, "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 0, err
    # Once, on the expanded score that the MIDI bytes are written from.
    (checked,) = calls
    assert checked.loop is None


def expanded_summary(score: Score) -> str:
    expanded = expand_loops(score)
    notes = sum(1 for ev in expanded.events if isinstance(ev, NoteEvent))
    return f"notes={notes} ticks={total_duration_ticks(expanded)}"


@st.composite
def summarised_scores(draw):
    """Looped pies as ``melodify`` writes them, or notes and pedals on
    ticks around a loop region's edges, with or without the loop."""
    if draw(st.booleans()):
        # At most 7 slices of 0-4: every positive slice is above 1/32, the
        # sixteenths in the shortest (2/4) cycle.
        shares = draw(st.lists(st.integers(0, 4), min_size=1, max_size=7))
        assume(any(shares))
        labels = tuple(f"s{i}" for i in range(len(shares)))
        dataset = Dataset(
            (Column("k", ColumnKind.CATEGORICAL, labels),
             Column("v", ColumnKind.QUANTITATIVE, tuple(map(float, shares)))),
            len(shares),
        )
        spec = MelodySpec(
            Idiom.PIE, draw(st.sampled_from(list(Palette))), "v", x_field="k",
            loop_count=draw(st.integers(1, 6)),
        )
        return melodifier.melodify(dataset, spec)
    events = draw(st.lists(
        st.one_of(
            st.builds(
                NoteEvent, st.integers(0, 24).map(lambda t: 60 * t),
                st.integers(1, 240), st.just(60), st.just(80),
                st.just(Articulation.NORMAL),
            ),
            st.builds(
                PedalEvent, st.integers(0, 24).map(lambda t: 60 * t),
                st.sampled_from(list(PedalState)),
            ),
        ),
        max_size=20,
    ))
    start, length = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    loop = draw(st.none() | st.builds(
        Loop, st.just(60 * start), st.just(60 * (start + length)), st.integers(1, 5)))
    return Score(120, (4, 4), (0, ScaleMode.MAJOR), tuple(events), loop)


@given(summarised_scores())
def test_summary_of_the_unexpanded_score_matches_the_expansion(score):
    assert _summary(score) == expanded_summary(score)


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_repeated_main_calls_match_fresh_processes(bar_csv, tmp_path, capsys, monkeypatch):
    # One parser serves every call in a process: nothing one call parses
    # may reach the next. Each step must match a fresh `python -m melodify`.
    monkeypatch.setenv("COLUMNS", "80")  # the same help width in both
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    compile_bar = [
        "compile", "--data", str(bar_csv), "--idiom", "bar", "--palette", "positive",
        "--x", "k", "--y", "v", "--emit", "both", "--out", str(out_dir / "song.mid"),
    ]
    steps = [
        compile_bar + ["--tempo", "90", "--histogram", "--key", "F#", "--time", "3/4"],
        compile_bar + ["--tempo", "fast"],
        ["compile", "--help"],
        compile_bar,
    ]

    def outputs():
        files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        for path in out_dir.iterdir():
            path.unlink()
        return files

    fresh = []
    for argv in steps:
        result = subprocess.run(
            [sys.executable, "-m", "melodify", *argv], capture_output=True, text=True,
            env=src_env(COLUMNS="80"), timeout=120,
        )
        fresh.append((result.returncode, result.stdout, result.stderr, outputs()))

    in_process = []
    for argv in steps:
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err, outputs()))

    assert [step[0] for step in in_process] == [0, 1, 0, 0]
    assert in_process[0][3] != in_process[3][3]  # the overrides reached the files
    assert in_process == fresh


BAR_COMPILE = [
    "compile", "--data", "DATA", "--idiom", "bar", "--palette", "positive",
    "--x", "k", "--y", "v",
]


@pytest.mark.parametrize(
    "argv",
    [
        BAR_COMPILE + ["--tempo", "fast"],
        BAR_COMPILE + ["--loop", "x"],
        BAR_COMPILE + ["--emit", "wav"],
        ["compile", "--idiom", "bar", "--palette", "positive", "--y", "v"],
        [],
        ["play"],
    ],
    ids=["tempo-not-int", "loop-not-int", "emit-unknown", "data-missing",
         "no-subcommand", "unknown-subcommand"],
)
def test_usage_error_is_one_parse_line(bar_csv, capsys, argv):
    argv = [str(bar_csv) if arg == "DATA" else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error E_PARSE: ") and len(err.splitlines()) == 1
    assert [path.name for path in bar_csv.parent.iterdir()] == ["bars.csv"]


BAR_FLAGS = ["--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "v"]
PIE_FLAGS = ["--idiom", "pie", "--palette", "positive", "--x", "k", "--y", "v"]


@pytest.mark.parametrize(
    ("table", "flags", "line"),
    [
        ("k,v\na,1\nb\n", BAR_FLAGS,
         "error E_PARSE: row 2 has 1 cells, expected 2"),
        ("k,v\n", BAR_FLAGS,
         "error E_PARSE: table has a header but no data rows"),
        ("k,v\na,1\n", ["--idiom", "sparkline", "--palette", "positive", "--x", "k", "--y", "v"],
         "error E_PARSE: unknown idiom 'sparkline'"),
        ("k,v\na,1\n", ["--idiom", "bar", "--palette", "loud", "--x", "k", "--y", "v"],
         "error E_PARSE: unknown palette 'loud'"),
        ("k,v\na,1\n", ["--idiom", "bar", "--palette", "positive", "--x", "k"],
         "error E_PARSE: spec is missing 'y'"),
        ("k,v\na,1\n", BAR_FLAGS + ["--key", "H"],
         "error E_PARSE: unknown key name 'H'"),
        ("k,v\na,1\n", ["--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "nope"],
         "error E_BINDING: no column named 'nope'"),
        ("k,v\na,1\n", ["--idiom", "bar", "--palette", "positive", "--x", "k", "--y", "k"],
         "error E_BINDING: y column 'k' must be quantitative"),
        ("v\n5\n", ["--idiom", "line", "--palette", "positive", "--y", "v"],
         "error E_BINDING: need at least 2 points to segment, got 1"),
        ("k,v\na,3\nb,-1\n", PIE_FLAGS,
         "error E_PROPORTION: category 'b' has negative value -1.0"),
        ("k,v\na,0\nb,0\n", PIE_FLAGS,
         "error E_PROPORTION: proportions need at least one positive value"),
        ("k,v\na,1\nb,1\nc,1\nd,1\ne,1\n", PIE_FLAGS + ["--time", "1/32", "--loop", "1"],
         "error E_PROPORTION: pie slice 'c' (share 0.2) rounds to 0 of the "
         "cycle's 2 sixteenth units"),
    ],
    ids=["ragged-row", "no-rows", "unknown-idiom", "unknown-palette", "missing-y",
         "invalid-key", "unknown-column", "categorical-y", "one-point-line",
         "negative-share", "all-zero-shares", "unsounded-slice"],
)
def test_rejection_line_is_pinned(tmp_path, capsys, table, flags, line):
    path = tmp_path / "table.csv"
    path.write_text(table, encoding="utf-8")
    code, out, err = run(capsys, "compile", "--data", str(path), *flags)
    assert code == 1 and out == ""
    assert err == line + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_compile_malformed_spec_json(bar_csv, tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{not json", encoding="utf-8")
    code, _, err = run(
        capsys, "compile", "--data", str(bar_csv), "--spec", str(spec_path),
    )
    assert code == 1
    assert err.startswith("error E_PARSE:")


def test_analyze_ascending_series(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text("v\n1\n2\n3\n4\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--data", str(path), "--y", "v")
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 4
    assert len(report["segments"]) == 1
    seg = report["segments"][0]
    assert seg["direction"] == "ascending"
    assert seg["slope"] == pytest.approx(1.0)
    assert report["density"] == {"level": "low", "points_per_bar": 1.0}
    assert report["variance"]["level"] == "medium"
    assert report["proportions"] is None


def test_analyze_constant_series_is_neutral(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("v\n7\n7\n7\n", encoding="utf-8")
    code, out, _ = run(capsys, "analyze", "--data", str(path), "--y", "v")
    assert code == 0
    report = json.loads(out)
    assert report["segments"][0]["direction"] == "neutral"
    assert report["variance"]["level"] == "narrow"


def test_analyze_categorical_x_reports_proportions(bar_csv, capsys):
    code, out, _ = run(
        capsys, "analyze", "--data", str(bar_csv), "--y", "v", "--x", "k"
    )
    assert code == 0
    report = json.loads(out)
    shares = {p["label"]: p["ratio"] for p in report["proportions"]}
    assert shares == {"a": pytest.approx(1 / 6), "b": pytest.approx(2 / 6), "c": pytest.approx(3 / 6)}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_analyze_negative_share_has_no_proportions(tmp_path, capsys):
    # A bar chart plays this table, so analyze reports it instead of failing.
    path = tmp_path / "bars.csv"
    path.write_text("k,v\na,1\nb,-2\nc,3\n", encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--data", str(path), "--y", "v", "--x", "k")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert list(report) == ["rows", "segments", "density", "variance", "proportions"]
    assert report["rows"] == 3 and len(report["segments"]) == 2
    assert report["proportions"] is None


def test_analyze_rejects_categorical_y(bar_csv, capsys):
    code, _, err = run(capsys, "analyze", "--data", str(bar_csv), "--y", "k")
    assert code == 1
    assert err.startswith("error E_BINDING:")


def test_tracklist_renders_every_track(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    code, out, _ = run(capsys, "tracklist", "--out", str(out_dir))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "01-bar-positive notes=21 ticks=13440"
    assert lines[5] == "06-pie-positive notes=30 ticks=19200"
    for line in lines:
        slug = line.split()[0]
        assert (out_dir / f"{slug}.mid").read_bytes()[:4] == b"MThd"
        assert (out_dir / f"{slug}.txt").read_text(encoding="utf-8").startswith("tpq 480\n")


def test_tracklist_midi_bytes_are_pinned(tmp_path, capsys):
    assert main(["tracklist", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*.mid")
    }
    assert digests == TRACK_MIDI_SHA256


def test_compile_demo_script_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compile_demo.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    summaries = [line for line in result.stdout.splitlines() if not line.startswith("wrote ")]
    assert summaries[0] == "bar positive notes=18 ticks=11520"
    assert len(summaries) == 5
    for midi in tmp_path.glob("revenue-bar-*.mid"):
        parse_smf_minimal(midi.read_bytes())
        assert midi.with_suffix(".txt").read_text(encoding="utf-8").startswith("tpq 480\n")
    assert len(list(tmp_path.glob("revenue-bar-*.mid"))) == 5


def test_analyze_output_is_pinned(tmp_path, capsys):
    line = tmp_path / "line.csv"
    line.write_text(
        "day,price\n1,10\n2,12.5\n3,11\n4,15\n5,19.25\n6,18\n7,9\n8,4.5\n",
        encoding="utf-8",
    )
    bar = tmp_path / "bar.csv"
    bar.write_text("region,sales\nnorth,12\nsouth,31\neast,8\nwest,22\n", encoding="utf-8")
    # One row: no segments, no variance, a single whole share.
    single = tmp_path / "single.csv"
    single.write_text("k,v\na,5\n", encoding="utf-8")
    # Rows out of x order: segments follow the sorted x.
    unordered = tmp_path / "unordered.csv"
    unordered.write_text("t,v\n3,9\n1,7\n5,1\n2,8.5\n4,2\n", encoding="utf-8")
    # A negative share: proportions are null.
    negative = tmp_path / "negative.csv"
    negative.write_text("k,v\na,1\nb,-2\nc,3", encoding="utf-8")
    digests = []
    for path, y, x in (
        (line, "price", "day"),
        (bar, "sales", "region"),
        (single, "v", "k"),
        (unordered, "v", "t"),
        (negative, "v", "k"),
    ):
        code, out, err = run(capsys, "analyze", "--data", str(path), "--y", y, "--x", x)
        assert code == 0 and err == ""
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests == [
        "5d118285c134a8b097f97157d7c08c15471d7a16e76f7e150aef3e3988c21434",
        "b94cf14aa4572b4083e998f6e05c5fb0fc2e89b3b7273617e58d95965da56614",
        "271d8c0000fd287f329e608fa97952c5107664611249c8a0c48853063f6ef3da",
        "b06d5b71f2aa46e9fb3a80f7c57d1eacb83c89460df81e1f37146030fdd2b0f1",
        "3aefe73d94a0810874a62ea82ab46e0e99d597132cc9262bc9bb2e01c682a835",
    ]


# --- numpy, dataclasses and inspect stay off the import path ------------------

IMPORT_PROBE = """
import json, sys
from pathlib import Path
from melodify.cli import main

heavy = ("numpy", "dataclasses", "inspect", "melodify.tracks", "melodify.smf_reader")
tables = {
    "bar": ("bar", "k,v\\na,1\\nb,3\\nc,2\\n", "k"),
    "pie": ("pie", "k,v\\na,1\\nb,3\\nc,2\\n", "k"),
    "scatter": ("scatter", "t,v\\n0,5\\n1,30\\n2,12\\n", "t"),
    # Quartiles summing to zero.
    "bar-straddle": ("bar", "k,v\\na,-10\\nb,0\\nc,10\\n", "k"),
    "line": ("line", "t,v\\n0,1\\n1,2\\n2,4\\n3,3\\n", "t"),
}
loaded = [[m in sys.modules for m in heavy]]
for name in sys.argv[2:]:
    idiom, table, x = tables[name]
    path = Path(sys.argv[1]) / f"{name}.csv"
    path.write_text(table, encoding="utf-8")
    argv = ["compile", "--data", str(path), "--idiom", idiom,
            "--palette", "positive", "--x", x, "--y", "v"]
    assert main(argv) == 0, name
    loaded.append([m in sys.modules for m in heavy])
print(json.dumps(loaded))
"""

NUMPY_PROBE = """
import json, sys
import numpy
print(json.dumps([m in sys.modules for m in ("numpy", "dataclasses", "inspect")]))
"""


def _probe(*args):
    result = subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, env=src_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_numpy_is_loaded_only_to_segment_a_line(tmp_path):
    loaded = _probe(
        IMPORT_PROBE, str(tmp_path), "bar", "pie", "scatter", "bar-straddle", "line"
    )
    # After the import and each of bar, pie, scatter and a bar whose
    # quartiles sum to zero: none of numpy, dataclasses (about 10 ms with
    # the inspect, ast and dis it imports), inspect, the built-in tracks
    # or the MIDI reader.
    assert loaded[:5] == [[False] * 5] * 5
    # The line compile, the positive control, loads numpy, and with it only
    # what numpy imports on its own (inspect, in numpy 2).
    assert loaded[5] == _probe(NUMPY_PROBE) + [False, False]


# Every name `melodify/__init__` imported eagerly before it resolved them lazily.
PUBLIC_NAMES = (
    "MelodifyError",
    "Column", "ColumnKind", "Dataset", "Idiom", "MelodySpec", "Palette", "TableFormat",
    "parse_spec", "parse_table", "spec_from_mapping", "validate_binding",
    "DataCharacter", "TonalPlan", "apply_palette", "derive_character", "melodify",
    "Articulation", "Loop", "NoteEvent", "PedalEvent", "PedalState", "Score",
    "expand_loops", "lint", "structural_errors", "total_duration_ticks",
    "parse_smf_minimal", "write_smf", "write_text_score",
    "compute_density", "compute_variance", "proportions", "segment_trends",
    "ArpeggioDirection", "CadenceKind", "Chord", "ChordQuality", "Scale", "ScaleMode",
    "arpeggiate", "build_scale", "degree_triad", "make_cadence", "quantize_pitch",
    "TRACKS",
)

PACKAGE_PROBE = """
import json, sys
import melodify
print(json.dumps(sorted(m for m in sys.modules if m.startswith("melodify"))))
"""


def test_package_names_resolve_on_first_use():
    assert _probe(PACKAGE_PROBE) == ["melodify"]
    listed = dir(melodify)
    for name in PUBLIC_NAMES:
        assert name in listed, name
        namespace: dict = {}
        exec(f"from melodify import {name}", namespace)
        assert namespace[name] is getattr(melodify, name), name
    assert melodify.melodify is melodifier.melodify
    assert melodify.parse_smf_minimal is smf_reader.parse_smf_minimal
    assert sorted(melodify.__all__) == sorted(PUBLIC_NAMES)


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        melodify.no_such_name
    with pytest.raises(ImportError):
        exec("from melodify import no_such_name", {})
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        smf.no_such_name


def test_smf_still_exposes_the_reader():
    from melodify.smf import ParsedNote, ParsedSmf, parse_smf_minimal

    assert parse_smf_minimal is smf_reader.parse_smf_minimal
    assert (ParsedNote, ParsedSmf) == (smf_reader.ParsedNote, smf_reader.ParsedSmf)


def test_no_module_imports_dataclasses():
    # Records are NamedTuples; a dataclass would put the dataclasses module
    # back on every CLI call's import path.
    for path in sorted((REPO / "src" / "melodify").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, path.name


# --- delta-times stay far inside the variable-length quantity -----------------

def track_delta_times(data: bytes) -> list[int]:
    """Every delta-time of the one track, read without melodify's parser."""

    def quantity(pos):
        value = 0
        while True:
            byte = data[pos]
            pos += 1
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value, pos

    assert data[14:18] == b"MTrk"
    pos, deltas = 22, []
    while pos < len(data):
        delta, pos = quantity(pos)
        deltas.append(delta)
        status = data[pos]
        pos += 1
        if status == 0xFF:
            length, pos = quantity(pos + 1)
            pos += length
        else:
            pos += 1 if status & 0xF0 == 0xC0 else 2
    assert pos == len(data)
    return deltas


@pytest.mark.parametrize("idiom", ["bar", "pie", "line", "scatter"])
def test_longest_meter_keeps_deltas_below_vlq_limit(tmp_path, capsys, idiom):
    # 255/1 is the longest bar the CLI accepts: 489,600 ticks, so a pie
    # cycle is 1,958,400. No delta comes near encode_vlq's 2**28 limit.
    path = tmp_path / "table.csv"
    path.write_text("k,t,v\na,0,5\nb,1,30\nc,2,12\nd,3,1\n", encoding="utf-8")
    x = "k" if idiom in ("bar", "pie") else "t"
    code, out, err = run(
        capsys, "compile", "--data", str(path), "--idiom", idiom,
        "--palette", "positive", "--x", x, "--y", "v",
        "--time", "255/1", "--loop", "1",
    )
    assert code == 0, err
    data = path.with_suffix(".mid").read_bytes()
    parse_smf_minimal(data)
    deltas = track_delta_times(data)
    assert 0 < max(deltas) < 2**28


# --- the README's command-line reference --------------------------------------

README = (REPO / "README.md").read_text(encoding="utf-8")


def compile_options() -> dict[str, argparse.Action]:
    (subparsers,) = (
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        action.option_strings[-1]: action
        for action in subparsers.choices["compile"]._actions
        if action.option_strings and action.option_strings[-1] != "--help"
    }


def test_readme_compile_flag_table_matches_the_parser():
    section = README.split("### `melodify compile`", 1)[1].split("###", 1)[0]
    rows = re.findall(r"^\| `(--[a-z]+)[^`]*` \| (.*) \|$", section, re.MULTILINE)
    documented = dict(rows)
    options = compile_options()
    assert len(documented) == len(rows)
    assert sorted(documented) == sorted(options)
    for flag, action in options.items():
        assert ("(required)" in documented[flag]) == action.required, flag
        for choice in action.choices or ():
            assert f"`{choice}`" in documented[flag], (flag, choice)


def test_readme_exit_codes_match_the_cli():
    paragraph = README.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    success, rest = paragraph.split("`1`", 1)
    inputs, internal = rest.split("`2`", 1)
    assert success.strip() == "`0` success,"
    assert tuple(re.findall(r"E_[A-Z]+", inputs.split(")", 1)[0])) == USER_ERROR_CODES
    assert re.findall(r"E_[A-Z]+", internal.split(")", 1)[0]) == ["E_INTERNAL"]
    # Every code an error class carries is one the README lists.
    carried = {
        cls.code for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.MelodifyError)
    }
    assert carried <= set(USER_ERROR_CODES) | {"E_INTERNAL"}
