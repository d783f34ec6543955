"""MIDI byte emission: VLQ coding, header layout, gates, round-trips."""
from __future__ import annotations

import struct
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from melodify.errors import MalformedSmf, StructuralViolation, UnexpandedLoop
from melodify.ingest import Column, ColumnKind, Dataset, Idiom, MelodySpec, Palette
from melodify.melodifier import melodify
from melodify.score import (
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    expand_loops,
    sorted_events,
)
from melodify.smf import (
    CHANNEL,
    GATE_BY_ARTICULATION,
    META_END_OF_TRACK,
    META_KEY_SIGNATURE,
    META_TEMPO,
    META_TIME_SIGNATURE,
    PROGRAM,
    SUSTAIN_CONTROLLER,
    encode_vlq,
    key_signature_bytes,
    parse_smf_minimal,
    sounding_durations,
    write_smf,
    write_text_score,
)
from melodify.theory import ScaleMode


def decode_vlq_oracle(data: bytes) -> int:
    """Independent decoder: big-endian 7-bit groups, high bit continues."""
    value = 0
    for byte in data:
        value = (value << 7) | (byte & 0x7F)
    assert not data[-1] & 0x80
    return value


def note(onset, dur=480, pitch=60, vel=80, art=Articulation.NORMAL):
    return NoteEvent(onset, dur, pitch, vel, art)


def make_score(events, loop=None, tempo=120, timesig=(4, 4), key=(0, ScaleMode.MAJOR)):
    return Score(
        tempo_bpm=tempo,
        time_signature=timesig,
        key_signature=key,
        events=sorted_events(events),
        loop=loop,
    )


# --- VLQ ----------------------------------------------------------------------

def test_vlq_known_encodings():
    # Reference byte patterns from the SMF delta-time definition.
    assert encode_vlq(0) == bytes([0x00])
    assert encode_vlq(0x40) == bytes([0x40])
    assert encode_vlq(0x7F) == bytes([0x7F])
    assert encode_vlq(0x80) == bytes([0x81, 0x00])
    assert encode_vlq(0x2000) == bytes([0xC0, 0x00])
    assert encode_vlq(0x3FFF) == bytes([0xFF, 0x7F])
    assert encode_vlq(0x4000) == bytes([0x81, 0x80, 0x00])
    assert encode_vlq(0x0FFFFFFF) == bytes([0xFF, 0xFF, 0xFF, 0x7F])


def test_vlq_bounds():
    with pytest.raises(OverflowError):
        encode_vlq(-1)
    with pytest.raises(OverflowError):
        encode_vlq(1 << 28)


@given(st.integers(min_value=0, max_value=(1 << 28) - 1))
def test_vlq_roundtrip_against_oracle(n):
    encoded = encode_vlq(n)
    assert decode_vlq_oracle(encoded) == n
    assert len(encoded) <= 4
    # Shortest form: no leading 0x80 continuation of an all-zero group.
    if len(encoded) > 1:
        assert encoded[0] != 0x80


# --- key signatures -----------------------------------------------------------

def test_key_signature_major_accidentals():
    assert key_signature_bytes(0, ScaleMode.MAJOR) == struct.pack(">bB", 0, 0)
    assert key_signature_bytes(7, ScaleMode.MAJOR) == struct.pack(">bB", 1, 0)
    assert key_signature_bytes(5, ScaleMode.MAJOR) == struct.pack(">bB", -1, 0)
    assert key_signature_bytes(2, ScaleMode.MAJOR) == struct.pack(">bB", 2, 0)
    assert key_signature_bytes(10, ScaleMode.MAJOR) == struct.pack(">bB", -2, 0)


def test_key_signature_minor_uses_relative_major():
    # A minor shares C major's empty signature.
    assert key_signature_bytes(9, ScaleMode.NATURAL_MINOR) == struct.pack(">bB", 0, 1)
    # C minor -> E-flat major, three flats.
    assert key_signature_bytes(0, ScaleMode.NATURAL_MINOR) == struct.pack(">bB", -3, 1)


def test_key_signature_chromatic_is_neutral():
    assert key_signature_bytes(4, ScaleMode.CHROMATIC) == struct.pack(">bB", 0, 0)


# --- articulation gates -------------------------------------------------------

def test_gate_ratios():
    notes = [
        note(0, art=Articulation.NORMAL),
        note(480, art=Articulation.STACCATO),
        note(960, art=Articulation.LEGATO),
    ]
    assert sounding_durations(notes)[0] == 408  # 0.85 * 480
    assert sounding_durations(notes)[1] == 240  # 0.50 * 480
    assert sounding_durations(notes)[2] == 480  # 1.00 * 480


def test_gate_minimum_one_tick():
    notes = [note(0, dur=1, art=Articulation.STACCATO)]
    assert sounding_durations(notes)[0] == 1


def test_accent_inherits_previous_gate():
    notes = [
        note(0, art=Articulation.STACCATO),
        note(480, art=Articulation.ACCENT),
    ]
    assert sounding_durations(notes)[1] == 240


def test_accent_inherits_forward_when_first():
    notes = [
        note(0, art=Articulation.ACCENT),
        note(480, art=Articulation.LEGATO),
    ]
    assert sounding_durations(notes)[0] == 480


def test_accent_alone_defaults_to_normal_gate():
    notes = [note(0, art=Articulation.ACCENT)]
    assert sounding_durations(notes)[0] == 408


# --- write_smf ----------------------------------------------------------------

def test_header_bytes_exact():
    data = write_smf(make_score([note(0)]))
    assert data[:14] == bytes(
        [0x4D, 0x54, 0x68, 0x64, 0, 0, 0, 6, 0, 0, 0, 1, 0x01, 0xE0]
    )
    assert data[14:18] == b"MTrk"
    (length,) = struct.unpack(">I", data[18:22])
    assert len(data) == 22 + length


def test_track_contains_note_on_and_off():
    data = write_smf(make_score([note(0, pitch=0x3C, vel=0x50)]))
    assert bytes([0x90, 0x3C, 0x50]) in data
    assert bytes([0x80, 0x3C, 0x00]) in data


def test_tempo_meta_value():
    data = write_smf(make_score([note(0)], tempo=88))
    # 60e6 / 88 rounds to 681818 = 0x0A675A.
    assert bytes([0xFF, 0x51, 0x03, 0x0A, 0x67, 0x5A]) in data


def test_time_signature_meta_uses_log2_denominator():
    data = write_smf(make_score([note(0)], timesig=(3, 4)))
    assert bytes([0xFF, 0x58, 0x04, 3, 2, 24, 8]) in data


def test_pedal_bytes():
    score = make_score(
        [PedalEvent(0, PedalState.DOWN), note(0, dur=400), PedalEvent(480, PedalState.UP)]
    )
    data = write_smf(score)
    assert bytes([0xB0, 64, 127]) in data
    assert bytes([0xB0, 64, 0]) in data


def test_write_rejects_unexpanded_loop():
    score = make_score([note(0, dur=960)], loop=Loop(0, 960, 2))
    with pytest.raises(UnexpandedLoop):
        write_smf(score)


def test_write_rejects_invalid_score():
    score = make_score([note(0, pitch=200)])
    with pytest.raises(StructuralViolation):
        write_smf(score)


def test_write_is_deterministic():
    score = make_score([note(0), note(480, pitch=64)])
    assert write_smf(score) == write_smf(score)


def _gate_oracle(notes, index):
    """Nearest plainly articulated note's gate, searched back then forward."""
    if notes[index].articulation is not Articulation.ACCENT:
        return GATE_BY_ARTICULATION[notes[index].articulation]
    for j in [*range(index - 1, -1, -1), *range(index + 1, len(notes))]:
        if notes[j].articulation is not Articulation.ACCENT:
            return GATE_BY_ARTICULATION[notes[j].articulation]
    return GATE_BY_ARTICULATION[Articulation.NORMAL]


def sort_based_smf_oracle(score):
    """Every message in one list, stably sorted by (tick, kind): the
    encoder as it was before it streamed."""
    tempo_us = round(60_000_000 / score.tempo_bpm)
    numerator, denominator = score.time_signature
    root, mode = score.key_signature
    messages = [
        (0, 0, bytes([0xFF, META_TEMPO, 0x03]) + struct.pack(">I", tempo_us)[1:]),
        (0, 0, bytes([0xFF, META_TIME_SIGNATURE, 0x04, numerator,
                      denominator.bit_length() - 1, 24, 8])),
        (0, 0, bytes([0xFF, META_KEY_SIGNATURE, 0x02]) + key_signature_bytes(root, mode)),
        (0, 0, bytes([0xC0 | CHANNEL, PROGRAM])),
    ]
    notes = [ev for ev in score.events if isinstance(ev, NoteEvent)]
    note_index = 0
    for ev in score.events:
        if isinstance(ev, PedalEvent):
            value = 127 if ev.state is PedalState.DOWN else 0
            messages.append((ev.tick, 1, bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, value])))
        else:
            gate = _gate_oracle(notes, note_index)
            held = max(1, int(gate * ev.duration_ticks))
            note_index += 1
            messages.append((ev.onset_tick, 3, bytes([0x90 | CHANNEL, ev.pitch, ev.velocity])))
            messages.append((ev.onset_tick + held, 2, bytes([0x80 | CHANNEL, ev.pitch, 0])))
    messages.sort(key=lambda m: (m[0], m[1]))
    body = bytearray()
    cursor = 0
    for tick, _, data in messages:
        body += encode_vlq(tick - cursor) + data
        cursor = tick
    body += encode_vlq(0) + bytes([0xFF, META_END_OF_TRACK, 0x00])
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


ARTICULATIONS = st.sampled_from(list(Articulation))


@st.composite
def writable_scores(draw):
    # Ticks on a coarse grid times a unit, so notes, pedals and note-offs
    # often share a tick; units of 97 and 1000 make multi-byte deltas.
    unit = draw(st.sampled_from([1, 2, 97, 1000]))
    all_accent = draw(st.booleans())
    notes = [
        note(
            unit * onset,
            dur=dur,
            pitch=pitch,
            vel=vel,
            art=Articulation.ACCENT if all_accent else art,
        )
        for onset, dur, pitch, vel, art in draw(
            st.lists(
                st.tuples(
                    st.integers(0, 12),
                    st.one_of(st.just(1), st.integers(1, 4).map(lambda k: k * unit)),
                    st.integers(0, 127),
                    st.integers(1, 127),
                    st.one_of(st.just(Articulation.ACCENT), ARTICULATIONS),
                ),
                max_size=30,
            )
        )
    ]
    presses = sorted(unit * t for t in draw(st.lists(st.integers(0, 14), max_size=8)))
    if len(presses) % 2:
        presses.pop()
    pedals = [
        PedalEvent(tick, PedalState.DOWN if i % 2 == 0 else PedalState.UP)
        for i, tick in enumerate(presses)
    ]
    return make_score(pedals + notes)


@given(writable_scores())
def test_streamed_encoder_matches_sort_based_oracle(score):
    assert write_smf(score) == sort_based_smf_oracle(score)


def test_write_smf_memory_stays_small_on_a_long_loop():
    # A 32-slice pie looped 128 times expands to about 12k events. A list
    # of every message, sorted, peaked near 4.4 MB here.
    shares = [80 + (i * 37) % 41 for i in range(32)]
    dataset = Dataset(
        (
            Column("k", ColumnKind.CATEGORICAL, tuple(f"c{i}" for i in range(32))),
            Column("v", ColumnKind.QUANTITATIVE, tuple(float(v) for v in shares)),
        ),
        32,
    )
    spec = MelodySpec(Idiom.PIE, Palette.POSITIVE, "v", x_field="k", loop_count=128)
    score = expand_loops(melodify(dataset, spec))
    assert len(score.events) > 12_000
    tracemalloc.start()
    try:
        write_smf(score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- parse_smf_minimal --------------------------------------------------------

def test_roundtrip_notes_and_pedals():
    score = make_score(
        [
            PedalEvent(0, PedalState.DOWN),
            note(0, dur=480, pitch=60, vel=80),
            note(480, dur=240, pitch=64, vel=112, art=Articulation.STACCATO),
            PedalEvent(720, PedalState.UP),
        ],
        tempo=72,
        timesig=(3, 4),
    )
    parsed = parse_smf_minimal(write_smf(score))
    assert parsed.ticks_per_quarter == 480
    assert parsed.tempo_us == round(60_000_000 / 72)
    assert parsed.time_signature == (3, 4)
    assert parsed.key_signature == (0, 0)
    assert parsed.pedals == ((0, PedalState.DOWN), (720, PedalState.UP))
    got = sorted((n.onset_tick, n.pitch, n.velocity, n.duration_ticks) for n in parsed.notes)
    assert got == [(0, 60, 80, 408), (480, 64, 112, 120)]


def test_roundtrip_repeated_pitch_legato():
    # Legato holds the full duration; back-to-back same-pitch notes need
    # off-before-on ordering at the shared tick to stay paired.
    score = make_score(
        [
            note(0, dur=480, pitch=60, art=Articulation.LEGATO),
            note(480, dur=480, pitch=60, art=Articulation.LEGATO),
        ]
    )
    parsed = parse_smf_minimal(write_smf(score))
    got = sorted((n.onset_tick, n.duration_ticks) for n in parsed.notes)
    assert got == [(0, 480), (480, 480)]


def test_roundtrip_overlapping_chord():
    score = make_score([note(0, pitch=60), note(0, pitch=64), note(0, pitch=67)])
    parsed = parse_smf_minimal(write_smf(score))
    assert sorted(n.pitch for n in parsed.notes) == [60, 64, 67]
    assert {n.onset_tick for n in parsed.notes} == {0}


def test_parse_rejects_garbage():
    with pytest.raises(MalformedSmf):
        parse_smf_minimal(b"not midi at all")
    with pytest.raises(MalformedSmf):
        parse_smf_minimal(b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480))


def test_parse_rejects_truncated_track():
    data = write_smf(make_score([note(0)]))
    with pytest.raises(MalformedSmf):
        parse_smf_minimal(data[:-1])


def test_parse_rejects_trailing_bytes():
    data = write_smf(make_score([note(0)]))
    with pytest.raises(MalformedSmf):
        parse_smf_minimal(data + b"\x00")


def test_parse_rejects_wrong_track_length():
    data = bytearray(write_smf(make_score([note(0)])))
    # Inflate the declared MTrk length so it overruns the file.
    (length,) = struct.unpack(">I", data[18:22])
    data[18:22] = struct.pack(">I", length + 1)
    with pytest.raises(MalformedSmf):
        parse_smf_minimal(bytes(data))


# --- write_text_score ---------------------------------------------------------

def test_text_score_layout():
    score = make_score(
        [
            PedalEvent(0, PedalState.DOWN),
            note(0, dur=480, pitch=60, vel=80),
            PedalEvent(480, PedalState.UP),
        ],
        key=(0, ScaleMode.NATURAL_MINOR),
        tempo=88,
    )
    text = write_text_score(score)
    assert text == (
        "tpq 480\n"
        "tempo 88\n"
        "time 4/4\n"
        "key 0 minor\n"
        "0 PEDAL down\n"
        "0 60 480 80 normal\n"
        "480 PEDAL up\n"
    )


def test_text_score_includes_loop_line():
    score = make_score([note(0, dur=960)], loop=Loop(0, 960, 2))
    text = write_text_score(score)
    assert "loop 0 960 2\n" in text
