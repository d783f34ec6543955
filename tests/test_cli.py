"""Command-line surface: exit codes, stderr codes, and emitted files."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from melodify.cli import main
from melodify.score import MAX_EXPANDED_EVENTS
from melodify.smf import parse_smf_minimal

REPO = Path(__file__).resolve().parents[1]

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
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "compile_demo.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    summaries = [line for line in result.stdout.splitlines() if not line.startswith("wrote ")]
    assert summaries[0] == "bar positive notes=18 ticks=11520"
    assert len(summaries) == 5
    for midi in tmp_path.glob("revenue-bar-*.mid"):
        parse_smf_minimal(midi.read_bytes())
        assert midi.with_suffix(".txt").read_text(encoding="utf-8").startswith("tpq 480\n")
    assert len(list(tmp_path.glob("revenue-bar-*.mid"))) == 5
