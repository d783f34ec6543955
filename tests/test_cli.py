"""Command-line surface: exit codes, stderr codes, and emitted files."""
from __future__ import annotations

import argparse
import ast
import errno
import gc
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
from melodify import cli, errors, melodifier, smf, smf_reader
from melodify.cli import USER_ERROR_CODES, _build_parser, _write_score, main
from melodify.ingest import PITCH_CLASS_BY_NAME, SPEC_KEYS, Idiom, Palette
from melodify.score import (
    MAX_EXPANDED_EVENTS,
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    structural_errors,
)
from melodify.smf import parse_smf_minimal
from melodify.theory import ScaleMode
from melodify.tracks import TRACKS

import reference
from reference import decode_vlq

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


def test_failed_text_write_leaves_no_midi_behind(bar_csv, tmp_path, capsys):
    # The text score's path is a directory, so its write fails after the
    # MIDI file's has succeeded.
    (tmp_path / "song.txt").mkdir()
    argv = ["--data", str(bar_csv), "--idiom", "bar", "--palette", "positive",
            "--x", "k", "--y", "v", "--emit", "both", "--out", str(tmp_path / "song.mid")]
    code, out, err = run(capsys, "compile", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error E_IO: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "song.mid").exists()
    assert reference.compile_command(argv) == (1, "", err, {})


class FullDisk:
    """An output file that fills the disk: half of what is written reaches
    it before ``write`` raises ENOSPC, or all of it before ``close`` does."""

    def __init__(self, path, mode, fail_at):
        self.file, self.path, self.fail_at = open(path, mode), path, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()
        if self.fail_at == "close" and exc_info[0] is None:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        if self.fail_at == "close":
            return self.file.write(data)
        self.file.write(data[:len(data) // 2])
        self.file.flush()
        assert 0 < os.path.getsize(self.path) < len(data)  # a partial file is on disk
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fail_at", ["write", "close"])
@pytest.mark.parametrize("emit, full", [
    ("text", ".txt"), ("both", ".txt"), ("both", ".mid"), ("midi", ".mid"),
])
def test_a_failed_write_leaves_no_partial_output(bar_csv, tmp_path, capsys, monkeypatch,
                                                 emit, full, fail_at):
    # The disk fills while one output is written: with --emit both the
    # MIDI file is already whole when the text score's write fails.
    def patched_open(path, mode="r", *args, **kwargs):
        if Path(path).suffix == full:
            return FullDisk(path, mode, fail_at)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", patched_open, raising=False)
    code, out, err = run(capsys, "compile", "--data", str(bar_csv), *BAR_FLAGS,
                         "--emit", emit, "--out", str(tmp_path / "song.mid"))
    assert (code, out) == (1, "")
    assert err == f"error E_IO: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["bars.csv"]


def test_compile_holds_no_table_or_expansion_while_encoding(bar_csv, capsys, monkeypatch):
    # Once melodify returns, the parsed table is no longer needed, and the
    # expansion only until its notes are counted: neither is held by the
    # command while either writer runs. Each is held here once, as a
    # plain object in a list is, and by nothing else.
    held, control = {}, [object()]
    for name in ("parse_table", "expand_loops"):
        def capture(*args, name=name, call=getattr(cli, name)):
            held[name] = [call(*args)]
            return held[name][0]

        monkeypatch.setattr(cli, name, capture)
    counts = []
    for name in ("write_smf", "write_text_score"):
        def check(score, call=getattr(cli, name)):
            counts.append([sys.getrefcount(held[key][0]) for key in sorted(held)])
            return call(score)

        monkeypatch.setattr(cli, name, check)
    code, _, err = run(capsys, "compile", "--data", str(bar_csv), "--emit", "both",
                       "--idiom", "pie", "--palette", "positive", "--x", "k", "--y", "v")
    assert code == 0, err
    assert held["expand_loops"][0].loop is None  # a looped pie's copies
    assert counts == [[sys.getrefcount(control[0])] * 2] * 2


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


# Per spec key: the spec file's value, the flag that overrides it, and
# the flag's value as a spec file writes it.
FLAG_OVERRIDES = {
    "idiom": ("bar", ["--idiom", "pie"], "pie"),
    "palette": ("negative", ["--palette", "positive"], "positive"),
    "key": ("C", ["--key", "D"], "D"),
    "x": ("w", ["--x", "v"], "v"),
    "y": ("v", ["--y", "w"], "w"),
    "tempo": (90, ["--tempo", "120"], 120),
    "time_signature": ("3/4", ["--time", "6/8"], "6/8"),
    "loop": (2, ["--loop", "3"], 3),
    "histogram": (False, ["--histogram"], True),
}


@pytest.mark.parametrize("key", SPEC_KEYS)
def test_compile_spec_file_with_flag_override(tmp_path, capsys, key):
    # Every compile flag but the four file options stores a spec key.
    commands = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    dests = {action.dest for action in commands.choices["compile"]._actions}
    assert sorted(dests - {"help", "data", "spec", "emit", "out"}) == sorted(SPEC_KEYS)

    data = tmp_path / "t.csv"
    data.write_text("k,v,w\na,1,3\nb,2,1\nc,3,2\n", encoding="utf-8")
    # x orders a scatter and loop repeats a pie; the other keys ride on a bar.
    idiom = {"x": "scatter", "loop": "pie"}.get(key, "bar")
    base = {"idiom": idiom, "palette": "negative", "x": "k", "y": "v"}
    file_value, flag, flag_value = FLAG_OVERRIDES[key]

    def compile_with(spec, *flags):
        spec_path, out_path = tmp_path / "spec.json", tmp_path / "song.mid"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code, out, err = run(
            capsys, "compile", "--data", str(data),
            "--spec", str(spec_path), "--out", str(out_path), *flags,
        )
        assert (code, err) == (0, "")
        return out.splitlines()[0], out_path.read_bytes()

    overridden = compile_with({**base, key: file_value}, *flag)
    assert overridden == compile_with({**base, key: flag_value})
    assert overridden != compile_with({**base, key: file_value})


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


@pytest.mark.parametrize(("key", "value", "line"), [
    ("loop", 1e300, "error E_PARSE: loop of 1.00e+300 repeats would expand to 9.00e+300 "
                    "events, above the cap of 250000"),
    ("loop", -10**25, "error E_PARSE: loop must be a positive integer"),
    ("tempo", 1e300, "error E_PARSE: tempo must be within [20, 300], got 1.00e+300"),
    ("tempo", -10**25, "error E_PARSE: tempo must be within [20, 300], got -1.00e+25"),
    ("tempo", 12345678901234567890, "error E_PARSE: tempo must be within [20, 300], "
                                    "got 12345678901234567890"),
], ids=["loop-1e300", "loop-negative", "tempo-1e300", "tempo-negative", "tempo-20-digits"])
def test_spec_file_refusal_quotes_a_huge_integer_short(bar_csv, tmp_path, capsys,
                                                       key, value, line):
    # A spec integer may be written as an integral float; one past 20
    # characters is quoted as its first three digits and power of ten.
    spec_path = tmp_path / "spec.json"
    spec = {"idiom": "pie", "palette": "positive", "x": "k", "y": "v", key: value}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run(capsys, "compile", "--data", str(bar_csv), "--spec", str(spec_path))
    assert (code, out, err) == (1, "", line + "\n")


def test_spec_file_integer_may_be_an_integral_float_but_a_flag_may_not(
    bar_csv, tmp_path, capsys
):
    written = []
    for tempo in (120, 120.0):
        spec_path, out_path = tmp_path / "spec.json", tmp_path / f"{tempo!r}.mid"
        spec_path.write_text(json.dumps({"idiom": "bar", "palette": "positive", "x": "k",
                                         "y": "v", "tempo": tempo}), encoding="utf-8")
        code, _, err = run(capsys, "compile", "--data", str(bar_csv),
                           "--spec", str(spec_path), "--out", str(out_path))
        assert (code, err) == (0, "")
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
    code, out, err = run(capsys, "compile", "--data", str(bar_csv), *BAR_FLAGS,
                         "--tempo", "120.0", "--out", str(tmp_path / "flag.mid"))
    assert (code, out) == (1, "")
    assert err == "error E_PARSE: argument --tempo: invalid int value: '120.0'\n"
    assert not (tmp_path / "flag.mid").exists()


def test_compile_missing_data_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "compile", "--data", str(tmp_path / "absent.csv"),
        "--idiom", "bar", "--palette", "positive", "--y", "v",
    )
    assert code == 1
    assert err.startswith("error E_IO:")


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


SPEC_TEXT = json.dumps({"idiom": "bar", "palette": "positive", "x": "k", "y": "v"})


@pytest.mark.parametrize(
    ("files", "argv", "output", "flag"),
    [
        (["sales.txt"], ["--data", "sales.txt", "--emit", "text"], "sales.txt", "--data"),
        (["sales.txt"], ["--data", "sales.txt", "--emit", "both"], "sales.txt", "--data"),
        (["sales.mid"], ["--data", "sales.mid"], "sales.mid", "--data"),
        (["sales.csv", "tune.txt"], ["--data", "sales.csv", "--spec", "tune.txt",
                                     "--out", "tune.mid", "--emit", "both"], "tune.txt", "--spec"),
        # One file named relative to the working directory and by its full path.
        (["sales.txt"], ["--data", "./sales.txt", "--out", "DIR/sales.mid", "--emit", "text"],
         "DIR/sales.txt", "--data"),
    ],
    ids=["text-table-text", "text-table-both", "midi-table-midi", "spec", "relative-spelling"],
)
def test_compile_refuses_to_overwrite_its_input(
    tmp_path, capsys, monkeypatch, files, argv, output, flag
):
    monkeypatch.chdir(tmp_path)
    inputs = {name: SPEC_TEXT if name == "tune.txt" else "k,v\na,1\nb,2\n" for name in files}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("DIR", str(tmp_path)) for arg in argv + BAR_FLAGS]
    code, out, err = run(capsys, "compile", *argv)
    assert code == 1 and out == ""
    assert err == (f"error E_PARSE: output {output.replace('DIR', str(tmp_path))} would "
                   f"overwrite the {flag} file; choose another --out\n")
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == inputs
    assert reference.compile_command(argv) == (1, "", err, {})


@pytest.mark.parametrize("out", [".", "/", "..", "", "sub/", "sub/.", "sub/.."])
@pytest.mark.parametrize("emit", ["midi", "both"])
def test_compile_refuses_an_out_that_names_no_file(tmp_path, capsys, monkeypatch, out, emit):
    # "." and "/" have no name to give a suffix, and ".." would become
    # "...mid" in the working directory.
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    (tmp_path / "sub" / "t.csv").write_text("k,v\na,1\nb,2\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    argv = ["--data", "t.csv", *BAR_FLAGS, "--emit", emit, "--out", out]
    code, stdout, err = run(capsys, "compile", *argv)
    assert (code, stdout) == (1, "")
    assert err == (f"error E_PARSE: --out {out!r} names no file; "
                   "give a file path such as song.mid\n")
    assert sorted(tmp_path.rglob("*")) == before
    assert reference.compile_command(argv) == (1, "", err, {})


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


@pytest.mark.parametrize("case, caller_gc, outcome", [
    ("compiles", True, 0),
    ("unknown y column", True, 1),
    ("handler raises", True, 2),
    ("--help", True, SystemExit),
    ("handler interrupted", True, KeyboardInterrupt),
    ("compiles", False, 0),
])
def test_main_pauses_the_collector_and_restores_the_callers_setting(
    bar_csv, capsys, monkeypatch, case, caller_gc, outcome
):
    seen = []  # whether the collector ran while main compiled
    load = cli._load_dataset

    def loading(path):
        seen.append(gc.isenabled())
        return load(path)

    def raising(dataset, spec):
        raise KeyboardInterrupt if outcome is KeyboardInterrupt else ZeroDivisionError

    monkeypatch.setattr(cli, "_load_dataset", loading)
    if case.startswith("handler"):
        monkeypatch.setattr(cli, "melodify", raising)
    argv = ["compile", "--data", str(bar_csv), "--idiom", "bar", "--palette", "positive",
            "--x", "k", "--y", "missing" if case == "unknown y column" else "v"]
    if case == "--help":
        argv = ["compile", "--help"]
    if not caller_gc:
        gc.disable()
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is caller_gc
    finally:
        gc.enable()
    capsys.readouterr()
    assert seen == ([] if case == "--help" else [False])


def reverse_body(monkeypatch, idiom):
    # melodify trusts each body to write its events in score order;
    # structural_errors must catch one that does not, before any output.
    write_body = melodifier._BODIES[idiom]

    def reversed_body(spec, plan, character):
        events, body_end = write_body(spec, plan, character)
        return events[::-1], body_end

    monkeypatch.setitem(melodifier._BODIES, idiom, reversed_body)


@pytest.fixture
def reversed_bar_body(monkeypatch):
    reverse_body(monkeypatch, Idiom.BAR)


def assert_refused_out_of_order(bar_csv, capsys, emit, idiom="bar"):
    code, out, err = run(
        capsys, "compile", "--data", str(bar_csv), "--emit", emit,
        "--idiom", idiom, "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error E_INTERNAL: score fails validation: ")
    assert "out of order" in line
    assert sorted(path.name for path in bar_csv.parent.iterdir()) == [bar_csv.name]
    return line


def test_out_of_order_body_is_internal_error(bar_csv, capsys, reversed_bar_body):
    assert_refused_out_of_order(bar_csv, capsys, "both")


def test_out_of_order_body_writes_no_text_score(bar_csv, capsys, reversed_bar_body):
    # Text-only output passes the same gate as MIDI before it is written.
    assert_refused_out_of_order(bar_csv, capsys, "text")


def test_out_of_order_looped_body_is_refused_alike_on_every_emit(bar_csv, capsys, monkeypatch):
    # A pie loops. The gate sees the fault because it runs on the looped
    # score as melodify built it: expand_loops sorts the events it copies.
    reverse_body(monkeypatch, Idiom.PIE)
    lines = {emit: assert_refused_out_of_order(bar_csv, capsys, emit, "pie")
             for emit in ("midi", "text", "both")}
    assert lines["text"] == lines["both"] == lines["midi"]


@pytest.mark.parametrize("idiom", ["bar", "pie"])
@pytest.mark.parametrize("emit", ["midi", "text", "both"])
def test_every_emit_runs_the_gate_once(bar_csv, capsys, monkeypatch, emit, idiom):
    calls, built = [], []
    gate, build = smf.structural_errors, cli.melodify
    monkeypatch.setattr(smf, "structural_errors", lambda score: calls.append(score) or gate(score))
    monkeypatch.setattr(cli, "melodify", lambda *args: built.append(build(*args)) or built[0])
    code, _, err = run(
        capsys, "compile", "--data", str(bar_csv), "--emit", emit,
        "--idiom", idiom, "--palette", "positive", "--x", "k", "--y", "v",
    )
    assert code == 0, err
    # One call, on the score melodify built: write_smf's own check, or,
    # with no MIDI, the same check made in its place. A pie's is looped.
    (checked,) = calls
    assert checked is built[0]
    assert (checked.loop is not None) == (idiom == "pie")


@st.composite
def summarised_scores(draw):
    """Looped pies as ``melodify`` writes them, or notes and pedals on
    ticks around a loop region's edges, with or without the loop. The
    events are in order and the pedal is pressed and released in turn, so
    the gate passes most scores."""
    if draw(st.booleans()):
        # At most 7 slices of 0-4: every positive slice is above 1/32, the
        # sixteenths in the shortest (2/4) cycle.
        shares = draw(st.lists(st.integers(0, 4), min_size=1, max_size=7))
        assume(any(shares))
        pie = reference.spec(Idiom.PIE, draw(st.sampled_from(list(Palette))),
                             loop_count=draw(st.integers(1, 6)))
        return melodifier.melodify(reference.dataset(shares, reference.labels(shares)), pie)
    ticks = st.integers(0, 24).map(lambda t: 60 * t)
    notes = draw(st.lists(
        st.builds(NoteEvent, ticks, st.integers(1, 240), st.just(60), st.just(80),
                  st.just(Articulation.NORMAL)),
        max_size=16,
    ))
    presses = sorted(draw(st.lists(ticks, max_size=6)))
    pedals = [PedalEvent(tick, list(PedalState)[i % 2])
              for i, tick in enumerate(presses[:len(presses) // 2 * 2])]
    events = reference.sort_events(notes + pedals)
    start, length = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    loop = draw(st.none() | st.builds(
        Loop, st.just(60 * start), st.just(60 * (start + length)), st.integers(1, 5)))
    return Score(120, (4, 4), (0, ScaleMode.MAJOR), events, loop)


@given(summarised_scores())
def test_summary_of_the_unexpanded_score_matches_the_expansion(tmp_path_factory, score):
    # The output tail counts the notes of the expansion and the ticks of
    # the looped score.
    assume(not structural_errors(score))
    text_path = tmp_path_factory.mktemp("summary") / "score.txt"
    assert _write_score(score, None, text_path) == reference.summary(score)


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
        ("k,v\na,1\n", BAR_FLAGS + ["--time", "300/4"],
         "error E_PARSE: time signature numerator must be within [1, 255]"),
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
        # Two 3-note chords per cycle plus a 6-note cadence, just past the
        # cap: the expansion refuses it before any file, on every emit.
        ("k,v\na,3\nb,1\n", PIE_FLAGS + ["--loop", "41666", "--emit", "text"],
         "error E_PARSE: loop of 41666 repeats would expand to 250002 events, "
         "above the cap of 250000"),
        ("k,v\na,3\nb,1\n", PIE_FLAGS + ["--loop", "41666", "--emit", "both"],
         "error E_PARSE: loop of 41666 repeats would expand to 250002 events, "
         "above the cap of 250000"),
    ],
    ids=["ragged-row", "no-rows", "unknown-idiom", "unknown-palette", "missing-y",
         "invalid-key", "numerator-above-byte", "unknown-column", "categorical-y", "one-point-line",
         "negative-share", "all-zero-shares", "unsounded-slice", "loop-cap-text", "loop-cap-both"],
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


@pytest.fixture(scope="module")
def tracklist_dir(tmp_path_factory):
    """The files ``melodify tracklist`` writes, rendered once."""
    out_dir = tmp_path_factory.mktemp("tracklist")
    assert main(["tracklist", "--out", str(out_dir)]) == 0
    return out_dir


@pytest.mark.parametrize("track", TRACKS, ids=lambda track: track.slug)
def test_compile_writes_the_bytes_tracklist_writes(track, tracklist_dir, tmp_path, capsys):
    # The track's table as a CSV file and every spec field under its
    # spec key in a --spec file, null where the spec leaves it unset.
    columns = track.dataset.columns
    table = tmp_path / "table.csv"
    table.write_text(
        ",".join(column.name for column in columns) + "\n"
        + "".join(",".join(map(str, row)) + "\n" for row in zip(*(c.values for c in columns))),
        encoding="utf-8",
    )
    spec = track.spec
    key_names = {root: name for name, root in PITCH_CLASS_BY_NAME.items()}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "idiom": spec.idiom.value, "palette": spec.palette.value, "y": spec.y_field,
        "x": spec.x_field, "key": key_names[spec.key_root], "tempo": spec.tempo_bpm,
        "time_signature": spec.time_signature and "{}/{}".format(*spec.time_signature),
        "loop": spec.loop_count, "histogram": spec.histogram,
    }), encoding="utf-8")
    code, _, err = run(capsys, "compile", "--data", str(table), "--spec", str(spec_file),
                       "--emit", "both", "--out", str(tmp_path / "song.mid"))
    assert (code, err) == (0, "")
    for suffix in (".mid", ".txt"):
        assert (tmp_path / "song").with_suffix(suffix).read_bytes() \
            == (tracklist_dir / track.slug).with_suffix(suffix).read_bytes()


# A 2000-row bar table whose values cycle through seven numbers: 2002
# chords, nearly all of them copies of a few. The CI console-script step
# writes the same table and checks the same MIDI digest.
CYCLING_BAR_SHA256 = {
    ".mid": "7de6bad01df69773067d6737dd137b7946b4f3f639b195a068b25d160f50915e",
    ".txt": "d556aa4c950745269d5e9b61f1dce5d78fb8f68e6b23fa1fbfc0e5fa64f69698",
}


def test_cycling_bar_table_bytes_are_pinned(tmp_path, capsys):
    table = tmp_path / "bars.csv"
    table.write_text(
        "k,v\n" + "".join(f"c{i},{(3, 8, 1, 5, 9, 2, 6)[i % 7]}\n" for i in range(2000)),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "compile", "--data", str(table), *BAR_FLAGS,
                         "--emit", "both", "--out", str(tmp_path / "bars.mid"))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "bar positive notes=6006 ticks=3843840"
    digests = {
        suffix: hashlib.sha256(table.with_suffix(suffix).read_bytes()).hexdigest()
        for suffix in CYCLING_BAR_SHA256
    }
    assert digests == CYCLING_BAR_SHA256


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


# --- numpy, dataclasses, inspect, json, csv and the DP stay off the import path

# json is imported only once the modules are recorded, to print them.
IMPORT_PROBE = """
import sys
from pathlib import Path
from melodify.cli import main

heavy = ("numpy", "dataclasses", "inspect", "melodify.tracks", "melodify.smf_reader",
         "json", "csv", "melodify.trend_dp")
tables = {
    "bar": ("bar", "k,v\\na,1\\nb,3\\nc,2\\n", "k"),
    "pie": ("pie", "k,v\\na,1\\nb,3\\nc,2\\n", "k"),
    "scatter": ("scatter", "t,v\\n0,5\\n1,30\\n2,12\\n", "t"),
    # Quartiles summing to zero.
    "bar-straddle": ("bar", "k,v\\na,-10\\nb,0\\nc,10\\n", "k"),
    "line": ("line", "t,v\\n0,1\\n1,2\\n2,4\\n3,3\\n", "t"),
    # Lines at the pure-Python DP's largest size and one point above it.
    **{f"line-{n}": ("line", "t,v\\n" + "".join(f"{i},{i * i % 17}\\n" for i in range(n)), "t")
       for n in (256, 257)},
    # The bar as a JSON table, compiled with a JSON spec file.
    "bar-json": ("bar", '[{"k": "a", "v": 1}, {"k": "b", "v": 3}, {"k": "c", "v": 2}]', "k"),
}
loaded = [[m in sys.modules for m in heavy]]
for name in sys.argv[2:]:
    idiom, table, x = tables[name]
    suffix = ".json" if table.startswith("[") else ".csv"
    path = Path(sys.argv[1]) / f"{name}{suffix}"
    path.write_text(table, encoding="utf-8")
    argv = ["compile", "--data", str(path), "--idiom", idiom,
            "--palette", "positive", "--x", x, "--y", "v"]
    if suffix == ".json":
        spec = path.with_name(f"{name}-spec.json")
        spec.write_text(
            '{"idiom": "%s", "palette": "positive", "x": "%s", "y": "v"}' % (idiom, x),
            encoding="utf-8",
        )
        argv = ["compile", "--data", str(path), "--spec", str(spec)]
    assert main(argv) == 0, name
    loaded.append([m in sys.modules for m in heavy])
import json
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
        IMPORT_PROBE, str(tmp_path),
        "bar", "pie", "scatter", "bar-straddle", "line", "line-256", "line-257",
    )
    modules = [row[:5] for row in loaded]
    # After the import and each of bar, pie, scatter, a bar whose quartiles
    # sum to zero, and lines of 4 and 256 points: none of numpy,
    # dataclasses (about 10 ms with the inspect, ast and dis it imports),
    # inspect, the built-in tracks or the MIDI reader.
    assert modules[:7] == [[False] * 5] * 7
    # The 257-point line, the positive control, loads numpy, and with it
    # only what numpy imports on its own (inspect, in numpy 2).
    assert modules[7] == _probe(NUMPY_PROBE) + [False, False]
    # Neither json nor csv on import; the CSV reader loads csv, and no CSV
    # compile, the long line's numpy included, loads json.
    assert [row[5:7] for row in loaded] == [[False, False]] + [[False, True]] * 7
    # Only a line loads the segmentation DP, whatever its length.
    assert [row[7] for row in loaded] == [False] * 5 + [True] * 3


def test_a_json_compile_never_loads_csv(tmp_path):
    # A JSON table and a JSON spec load json, the positive control, and
    # nothing else on the list.
    assert _probe(IMPORT_PROBE, str(tmp_path), "bar-json") == [
        [False] * 8, [False] * 5 + [True, False, False]
    ]


# The public API: every name `melodify/__init__` resolves on first use.
PUBLIC_NAMES = (
    "MelodifyError",
    "Column", "ColumnKind", "Dataset", "Idiom", "MelodySpec", "Palette", "TableFormat",
    "parse_table", "spec_from_mapping", "validate_binding",
    "DataCharacter", "TonalPlan", "apply_palette", "derive_character", "melodify",
    "Articulation", "Loop", "NoteEvent", "PedalEvent", "PedalState", "Score",
    "expand_loops", "structural_errors", "total_duration_ticks",
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
    assert data[14:18] == b"MTrk"
    pos, deltas = 22, []
    while pos < len(data):
        delta, pos = decode_vlq(data, pos)
        deltas.append(delta)
        status = data[pos]
        pos += 1
        if status == 0xFF:
            length, pos = decode_vlq(data, pos + 1)
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
    # A spec file's keys are named too: --time is `time_signature` there.
    for key in SPEC_KEYS:
        assert f"`{key}`" in section, key


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
