"""Acceptance suite: ten end-to-end guarantees, one test each.

Every test ends by printing ``ACCEPTANCE n <name>: PASS``; run with
``pytest tests/test_acceptance.py -s`` to see the checklist. Oracles
here are independent reimplementations (quartiles and fits via numpy,
largest-remainder and degree rules restated from scratch, a separate
variable-length-quantity decoder), not calls back into the code under
test.
"""
from __future__ import annotations

import random
import struct
from pathlib import Path

import numpy as np
import pytest

from melodify.cli import main
from melodify.errors import ProportionError
from melodify.ingest import Idiom, Palette
from melodify.melodifier import melodify
from melodify.score import (
    TICKS_PER_QUARTER,
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    expand_loops,
    total_duration_ticks,
)
from melodify.smf import encode_vlq, parse_smf_minimal, write_smf
from melodify.stats import segment_trends
from melodify.theory import ScaleMode, build_scale, quantize_pitch
from melodify.tracks import TRACKS

from reference import chords_of, dataset, decode_vlq, gate, labels, notes_of, pedals_of, spec

MAJOR_OFFSETS = (0, 2, 4, 5, 7, 9, 11)
MINOR_OFFSETS = (0, 2, 3, 5, 7, 8, 10)
BAR_TICKS = 1920
CYCLE_TICKS = 4 * BAR_TICKS
SIXTEENTH = 120

GOLDEN_DIR = Path(__file__).parent / "golden"


def _pass(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def classes(pitches):
    return {p % 12 for p in pitches}


def _oracle_largest_remainder(ratios, total):
    exact = [r * total for r in ratios]
    floors = [int(e) for e in exact]
    order = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[: total - sum(floors)]:
        floors[i] += 1
    return floors


# Sixteenths in the four-bar pie cycle, from each palette's meter.
PIE_UNITS = {
    Palette.POSITIVE: 64,
    Palette.NEGATIVE: 64,
    Palette.GREY: 64,
    Palette.EXCITING: 32,
    Palette.CALM: 48,
}


def unsounded_slice(values, palette):
    """Whether the oracle gives some positive pie slice no sixteenth of
    the cycle, which melodify must refuse with E_PROPORTION."""
    ratios = [v / sum(values) for v in values]
    units = _oracle_largest_remainder(ratios, PIE_UNITS[palette])
    return any(v > 0 and u == 0 for v, u in zip(values, units))


# --- 1: closing cadences ------------------------------------------------------

def test_criterion_01_cadences():
    data_for = {
        Idiom.BAR: dataset([3, 1, 2], labels([3, 1, 2])),
        Idiom.PIE: dataset([3, 1, 2], labels([3, 1, 2])),
        Idiom.LINE: dataset([0, 1, 2, 3, 4, 2, 0, -2]),
        Idiom.SCATTER: dataset([5, 30, 12]),
    }
    for idiom, table in data_for.items():
        for key in range(12):
            # Positive endings: dominant then tonic of the major key.
            score = melodify(table, spec(idiom, Palette.POSITIVE, key_root=key))
            five, one = chords_of(score)[-2:]
            assert classes(five) == {(key + 7) % 12, (key + 11) % 12, (key + 2) % 12}
            assert five[0] % 12 == (key + 7) % 12
            assert (five[1] - five[0], five[2] - five[1]) == (4, 3)
            assert classes(one) == {key % 12, (key + 4) % 12, (key + 7) % 12}
            assert one[0] % 12 == key % 12
            assert (one[1] - one[0], one[2] - one[1]) == (4, 3)

            # Negative endings: the deceptive pair borrowed from the
            # relative major; its sixth degree is the tonic minor triad.
            score = melodify(table, spec(idiom, Palette.NEGATIVE, key_root=key))
            rel = (key + 3) % 12
            five, six = chords_of(score)[-2:]
            assert classes(five) == {(rel + 7) % 12, (rel + 11) % 12, (rel + 2) % 12}
            assert five[0] % 12 == (rel + 7) % 12
            assert (five[1] - five[0], five[2] - five[1]) == (4, 3)
            assert classes(six) == {key % 12, (key + 3) % 12, (key + 7) % 12}
            assert six[0] % 12 == key % 12
            assert (six[1] - six[0], six[2] - six[1]) == (3, 4)

            for cadence_pitches in (five, six):
                cadence_notes = [
                    n for n in notes_of(score) if n.pitch in cadence_pitches
                    and n.velocity == 96
                ]
                assert cadence_notes
    _pass(1, "cadences")


# --- 2: slope-to-degree arpeggios ---------------------------------------------

def test_criterion_02_slope_degrees():
    score = melodify(
        dataset([0, 1, 2, 3, 4, 2, 0, -2]), spec(Idiom.LINE, Palette.POSITIVE)
    )
    body = notes_of(score)[:9]
    # Slope +1 walks the first degree upward from the anchor.
    assert [n.pitch for n in body[:5]] == [48, 52, 55, 60, 64]
    # Slope -2 walks the second degree downward, voiced major.
    assert [n.pitch for n in body[5:]] == [62, 57, 54, 50]
    accented = [i for i, n in enumerate(body) if n.articulation is Articulation.ACCENT]
    assert accented == [5]
    assert body[5].velocity == 112
    _pass(2, "slope degrees")


# --- 3: scale conformance -----------------------------------------------------

def _line_body_oracle(series, key, palette):
    """Chord pitch-classes allowed for each point of a line body."""
    segments = segment_trends(series)
    differences = [b - a for a, b in zip(series, series[1:])]
    integer_stepped = all(abs(d - round(d)) <= 1e-9 for d in differences)
    span = max(series) - min(series)
    unit = 1.0 if integer_stepped or span == 0 else span / (len(series) - 1)
    degree_offsets = MAJOR_OFFSETS if palette is Palette.POSITIVE else MINOR_OFFSETS
    quality = (0, 4, 7) if palette is Palette.POSITIVE else (0, 3, 7)
    allowed = []
    for seg in segments:
        degree = min(7, max(1, int(abs(seg.slope) / unit + 0.5)))
        root = (key + degree_offsets[degree - 1]) % 12
        chord = {(root + interval) % 12 for interval in quality}
        allowed.extend([chord] * (seg.end_index - seg.start_index + 1))
    return allowed


def test_criterion_03_scale_conformance():
    rng = random.Random(35501)
    checked = 0
    for idiom in (Idiom.BAR, Idiom.PIE, Idiom.LINE, Idiom.SCATTER):
        for trial in range(200):
            palette = Palette.POSITIVE if trial % 2 == 0 else Palette.NEGATIVE
            key = rng.randrange(12)
            if idiom is Idiom.BAR:
                values = [rng.uniform(-50, 100) for _ in range(rng.randint(1, 12))]
                table = dataset(values, labels(values))
            elif idiom is Idiom.PIE:
                values = [rng.uniform(0.05, 10) for _ in range(rng.randint(1, 12))]
                table = dataset(values, labels(values))
                if unsounded_slice(values, palette):
                    with pytest.raises(ProportionError, match="rounds to 0 of the cycle"):
                        melodify(table, spec(idiom, palette, key_root=key))
                    continue
            elif idiom is Idiom.LINE:
                n = rng.randint(2, 40)
                if trial % 3 == 0:
                    table = dataset([rng.randint(-10, 10) for _ in range(n)])
                else:
                    table = dataset([rng.uniform(-20, 20) for _ in range(n)])
            else:
                table = dataset(
                    [rng.uniform(0, 100) for _ in range(rng.randint(1, 64))]
                )

            score = melodify(table, spec(idiom, palette, key_root=key))
            offsets = MAJOR_OFFSETS if palette is Palette.POSITIVE else MINOR_OFFSETS
            scale_classes = {(key + o) % 12 for o in offsets}
            notes = notes_of(score)
            if idiom is Idiom.LINE:
                # Line segments modulate to their slope's degree, so the
                # body is checked against each segment's own chord; the
                # cadence must sit inside the home scale.
                series = [float(v) for v in table.column("v").values]
                allowed = _line_body_oracle(series, key, palette)
                body = [n for n in notes if n.velocity != 96]
                assert len(body) == len(allowed)
                for note, chord in zip(body, allowed):
                    assert note.pitch % 12 in chord
                for note in notes:
                    if note.velocity == 96:
                        assert note.pitch % 12 in scale_classes
            else:
                for note in notes:
                    assert note.pitch % 12 in scale_classes
            checked += len(notes)
    assert checked > 10_000
    _pass(3, "scale conformance")


# --- 4: spread-to-span bounds -------------------------------------------------

def test_criterion_04_span_bounds():
    rng = random.Random(91210)

    def body_pitches(values):
        score = melodify(dataset(values), spec(Idiom.SCATTER, Palette.POSITIVE))
        return [
            n.pitch for n in notes_of(score)
            if n.articulation is Articulation.STACCATO
        ]

    reached_over_24 = False
    for _ in range(100):
        half = rng.randint(2, 20)
        values = [rng.uniform(0, 10) for _ in range(half)]
        values += [rng.uniform(60, 100) for _ in range(half)]
        rng.shuffle(values)
        quartile_1, quartile_3 = np.percentile(values, [25, 75])
        assert (quartile_3 - quartile_1) / (quartile_3 + quartile_1) >= 0.4
        pitches = body_pitches(values)
        assert max(pitches) <= 48 + 36
        if max(pitches) > 48 + 24:
            reached_over_24 = True
    assert reached_over_24

    for _ in range(100):
        base = rng.uniform(50, 500)
        values = [base * (1 + rng.uniform(0, 0.04)) for _ in range(rng.randint(2, 40))]
        quartile_1, quartile_3 = np.percentile(values, [25, 75])
        assert (quartile_3 - quartile_1) / (quartile_3 + quartile_1) < 0.1
        assert max(body_pitches(values)) <= 48 + 12
    _pass(4, "span bounds")


# --- 5: sustain pedal only for sparse scatter ---------------------------------

def test_criterion_05_scatter_pedal():
    rng = random.Random(5150)
    for _ in range(100):
        n = rng.randint(1, 7)
        values = [rng.uniform(0, 50) for _ in range(n)]
        palette = rng.choice([Palette.POSITIVE, Palette.NEGATIVE, Palette.CALM])
        score = melodify(dataset(values), spec(Idiom.SCATTER, palette, key_root=rng.randrange(12)))
        pedals = pedals_of(score)
        assert [p.state for p in pedals] == [PedalState.DOWN, PedalState.UP]
        assert pedals[0].tick < pedals[1].tick
    for _ in range(100):
        n = rng.randint(8, 64)
        values = [rng.uniform(0, 50) for _ in range(n)]
        score = melodify(dataset(values), spec(Idiom.SCATTER, Palette.POSITIVE))
        assert pedals_of(score) == []
    _pass(5, "scatter pedal")


# --- 6: pie conservation ------------------------------------------------------

def test_criterion_06_pie_conservation():
    rng = random.Random(64064)
    refused = 0
    for _ in range(200):
        k = rng.randint(1, 12)
        values = [rng.uniform(0.01, 10) for _ in range(k)]
        ratios = [v / sum(values) for v in values]

        # A positive slice that rounds to no sixteenth is refused, never
        # dropped from the cycle.
        if unsounded_slice(values, Palette.GREY):
            with pytest.raises(ProportionError, match="rounds to 0 of the cycle"):
                melodify(dataset(values, labels(values)), spec(Idiom.PIE, Palette.GREY))
            refused += 1
            continue

        # Grey has no closing chords, so the loop doubles the whole
        # score exactly.
        score = melodify(dataset(values, labels(values)), spec(Idiom.PIE, Palette.GREY))
        assert score.loop == Loop(0, CYCLE_TICKS, 2)
        durations = {
            n.onset_tick: n.duration_ticks
            for n in notes_of(score)
            if n.onset_tick < CYCLE_TICKS
        }
        rendered = [durations[onset] for onset in sorted(durations)]
        assert sum(rendered) == CYCLE_TICKS
        units = _oracle_largest_remainder(ratios, CYCLE_TICKS // SIXTEENTH)
        assert rendered == [u * SIXTEENTH for u in units]
        for ratio, unit in zip(ratios, units):
            assert abs(unit * SIXTEENTH - ratio * CYCLE_TICKS) <= SIXTEENTH
        single_pass_end = max(
            n.onset_tick + n.duration_ticks for n in notes_of(score)
        )
        assert single_pass_end == CYCLE_TICKS
        assert total_duration_ticks(expand_loops(score)) == 2 * single_pass_end
        # The loop-aware total agrees with the expanded one.
        assert total_duration_ticks(score) == total_duration_ticks(expand_loops(score))
    assert 0 < refused < 100

    # With a cadence the repeats still double the cycle; the closing
    # bars land once, after the last repetition.
    for _ in range(20):
        values = [rng.uniform(0.01, 10) for _ in range(rng.randint(1, 12))]
        if unsounded_slice(values, Palette.POSITIVE):
            with pytest.raises(ProportionError, match="rounds to 0 of the cycle"):
                melodify(dataset(values, labels(values)), spec(Idiom.PIE, Palette.POSITIVE))
            continue
        score = melodify(dataset(values, labels(values)), spec(Idiom.PIE, Palette.POSITIVE))
        assert total_duration_ticks(expand_loops(score)) == 2 * CYCLE_TICKS + 2 * BAR_TICKS
        cadence_onsets = {
            n.onset_tick for n in notes_of(expand_loops(score)) if n.velocity == 96
        }
        assert cadence_onsets == {2 * CYCLE_TICKS, 2 * CYCLE_TICKS + BAR_TICKS}
    _pass(6, "pie conservation")


# --- 7: quantization monotonicity and bar ordering ----------------------------

def test_criterion_07_monotone_mapping():
    rng = random.Random(77007)
    for _ in range(10_000):
        mode = rng.choice([ScaleMode.MAJOR, ScaleMode.NATURAL_MINOR, ScaleMode.CHROMATIC])
        root = rng.randrange(12)
        scale = build_scale(root, mode)
        span = rng.choice([12, 24, 36])
        anchor = 48 + root
        low = rng.uniform(-100, 100)
        high = low if rng.random() < 0.02 else low + rng.uniform(0.001, 200)
        value_1, value_2 = sorted(
            rng.uniform(low - 20, high + 20) for _ in range(2)
        )
        pitch_1 = quantize_pitch(value_1, (low, high), scale, span, anchor)
        pitch_2 = quantize_pitch(value_2, (low, high), scale, span, anchor)
        assert pitch_1 <= pitch_2
        for pitch in (pitch_1, pitch_2):
            assert anchor <= pitch <= anchor + span
            assert scale.contains(pitch)

    for _ in range(1_000):
        k = rng.randint(1, 12)
        values = [rng.uniform(-50, 100) for _ in range(k)]
        palette = rng.choice([Palette.POSITIVE, Palette.NEGATIVE])
        score = melodify(dataset(values, labels(values)), spec(Idiom.BAR, palette, key_root=rng.randrange(12)))
        roots = [pitches[0] for pitches in chords_of(score)[:k]]
        top = int(np.argmax(values))
        assert roots[top] == max(roots)
    _pass(7, "monotone mapping")


# --- 8: trend segmentation against brute force --------------------------------

def _oracle_two_segment_fit(series):
    ys = np.asarray(series, dtype=float)
    n = len(ys)

    def sse(a, b):
        xs = np.arange(b - a + 1, dtype=float)
        piece = ys[a : b + 1]
        coeffs = np.polyfit(xs, piece, 1)
        residual = piece - np.polyval(coeffs, xs)
        return float(residual @ residual), float(coeffs[0])

    one_cost, one_slope = sse(0, n - 1)
    if n < 4:
        candidates = [1] if n == 3 else []
    else:
        candidates = range(1, n - 1)
    best = None
    for j in candidates:
        left_cost, left_slope = sse(0, j)
        right_cost, right_slope = sse(j, n - 1)
        cost = left_cost + right_cost
        if best is None or cost < best[0]:
            best = (cost, j, left_slope, right_slope)
    if best is not None and one_cost > 1.05 * best[0]:
        _, j, left_slope, right_slope = best
        return [(0, j, left_slope), (j, n - 1, right_slope)]
    return [(0, n - 1, one_slope)]


def test_criterion_08_segmentation_brute_force():
    rng = random.Random(88332)
    for _ in range(500):
        n = rng.randint(2, 12)
        series = [rng.uniform(-10, 10) for _ in range(n)]
        expected = _oracle_two_segment_fit(series)
        got = segment_trends(series, max_segments=2)
        assert [(s.start_index, s.end_index) for s in got] == [
            (a, b) for a, b, _ in expected
        ]
        for seg, (_, _, slope) in zip(got, expected):
            assert seg.slope == pytest.approx(slope, abs=1e-9)
    _pass(8, "segmentation")


# --- 9: MIDI bytes round-trip -------------------------------------------------

def _expected_parsed_notes(score):
    notes = notes_of(score)
    return sorted(
        (n.onset_tick, max(1, int(gate(notes, i) * n.duration_ticks)), n.pitch, n.velocity)
        for i, n in enumerate(notes)
    )


def _assert_round_trip(score):
    data = write_smf(score)
    assert struct.unpack(">I", data[4:8])[0] == 6
    assert struct.unpack(">I", data[18:22])[0] == len(data) - 22
    parsed = parse_smf_minimal(data)
    assert parsed == parse_smf_minimal(bytes(data))  # lengths re-slice cleanly
    assert parsed.ticks_per_quarter == TICKS_PER_QUARTER
    assert parsed.tempo_us == round(60_000_000 / score.tempo_bpm)
    assert parsed.time_signature == score.time_signature

    root, mode = score.key_signature
    if mode is ScaleMode.CHROMATIC:
        expected_key = (0, 0)
    else:
        major_root = root if mode is ScaleMode.MAJOR else (root + 3) % 12
        sharps = (7 * major_root) % 12
        if sharps > 6:
            sharps -= 12
        expected_key = (sharps, 0 if mode is ScaleMode.MAJOR else 1)
    assert parsed.key_signature == expected_key

    got_notes = sorted(
        (n.onset_tick, n.duration_ticks, n.pitch, n.velocity) for n in parsed.notes
    )
    assert got_notes == _expected_parsed_notes(score)
    assert parsed.pedals == tuple((p.tick, p.state) for p in pedals_of(score))


def test_criterion_09_smf_round_trip():
    for value in range(1 << 16):
        encoded = encode_vlq(value)
        decoded, used = decode_vlq(encoded)
        assert (decoded, used) == (value, len(encoded))
        expected_length = 1 if value < (1 << 7) else 2 if value < (1 << 14) else 3
        assert len(encoded) == expected_length
        assert all(b & 0x80 for b in encoded[:-1]) and not encoded[-1] & 0x80

    for track in TRACKS:
        _assert_round_trip(expand_loops(melodify(track.dataset, track.spec)))

    rng = random.Random(99123)
    for _ in range(40):
        idiom = rng.choice(list(Idiom))
        palette = rng.choice(list(Palette))
        key = rng.randrange(12)
        n = rng.randint(2, 24)
        if idiom in (Idiom.BAR, Idiom.PIE):
            values = [rng.uniform(0.1, 50) for _ in range(n)]
            table = dataset(values, labels(values))
            if idiom is Idiom.PIE and unsounded_slice(values, palette):
                with pytest.raises(ProportionError, match="rounds to 0 of the cycle"):
                    melodify(table, spec(idiom, palette, key_root=key))
                continue
        else:
            table = dataset([rng.uniform(-30, 70) for _ in range(n)])
        score = melodify(table, spec(idiom, palette, key_root=key))
        _assert_round_trip(expand_loops(score))

    handmade = Score(
        tempo_bpm=88,
        time_signature=(3, 4),
        key_signature=(9, ScaleMode.NATURAL_MINOR),
        events=(
            PedalEvent(0, PedalState.DOWN),
            NoteEvent(0, 480, 57, 80, Articulation.STACCATO),
            NoteEvent(480, 480, 60, 112, Articulation.ACCENT),
            NoteEvent(960, 480, 64, 80, Articulation.LEGATO),
            NoteEvent(1440, 480, 57, 96, Articulation.NORMAL),
            PedalEvent(1920, PedalState.UP),
        ),
    )
    _assert_round_trip(handmade)
    _pass(9, "smf round trip")


# --- 10: demonstration tracks against committed texts -------------------------

def test_criterion_10_tracklist_golden(tmp_path, capsys):
    assert main(["tracklist", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for track in TRACKS:
        rendered = (tmp_path / f"{track.slug}.txt").read_bytes()
        golden = (GOLDEN_DIR / f"{track.slug}.txt").read_bytes()
        assert rendered == golden, f"{track.slug} text score drifted"

    # test_melodifier.py and criterion 2 check tracks 03, 04, 05 and 07 by
    # hand, on the same series.
    by_slug = {track.slug: melodify(track.dataset, track.spec) for track in TRACKS}

    # Rising bars close dominant-to-tonic in C major.
    chords = chords_of(by_slug["01-bar-positive"])
    assert chords[-2:] == [(55, 59, 62), (48, 52, 55)]

    # Falling bars close deceptively: B-flat major into C minor.
    chords = chords_of(by_slug["02-bar-negative"])
    assert chords[-2:] == [(58, 62, 65), (48, 51, 55)]

    # Pie slices hold their share of the four-bar cycle and repeat.
    pie = by_slug["06-pie-positive"]
    slice_durations = {
        n.onset_tick: n.duration_ticks
        for n in notes_of(pie)
        if n.onset_tick < CYCLE_TICKS
    }
    assert [slice_durations[o] for o in sorted(slice_durations)] == [3120, 2280, 1560, 720]
    assert total_duration_ticks(expand_loops(pie)) == 2 * CYCLE_TICKS + 2 * BAR_TICKS

    # Dense narrow scatter stays within one octave, dry.
    scatter = by_slug["08-scatter-dense-narrow"]
    staccato = [n for n in notes_of(scatter) if n.articulation is Articulation.STACCATO]
    assert pedals_of(scatter) == []
    assert max(n.pitch for n in staccato) <= 48 + 12
    assert all(n.duration_ticks == SIXTEENTH for n in staccato)

    # Grey scatter leaves the diatonic set and never cadences.
    grey = by_slug["09-scatter-grey"]
    assert pedals_of(grey) == []
    assert any(n.pitch % 12 not in MAJOR_OFFSETS for n in notes_of(grey))
    assert all(n.velocity != 96 for n in notes_of(grey))
    _pass(10, "tracklist golden")
