"""MIDI byte emission: VLQ coding, header layout, gates, round-trips."""
from __future__ import annotations

import math
import re
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from melodify import smf
from melodify.errors import MelodifyError, ParseError
from melodify.ingest import Idiom
from melodify.melodifier import melodify
from melodify.score import (
    MAX_EXPANDED_EVENTS,
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    expand_loops,
    structural_errors,
    total_duration_ticks,
)
from melodify.smf import (
    SUSTAIN_CONTROLLER,
    encode_vlq,
    key_signature_bytes,
    parse_smf_minimal,
    write_smf,
    write_text_score,
)
from melodify.theory import ScaleMode

import reference
from reference import dataset, decode_vlq, labels, make_score, note, spec


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
    assert decode_vlq(encoded) == (n, len(encoded))
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

_ACCENT, _LEGATO, _STACCATO = Articulation.ACCENT, Articulation.LEGATO, Articulation.STACCATO


@pytest.mark.parametrize("notes, held", [
    pytest.param([note(0, art=Articulation.NORMAL), note(480, art=_STACCATO),
                  note(960, art=_LEGATO)], [408, 240, 480], id="gate-ratios"),
    pytest.param([note(0, dur=1, art=_STACCATO)], [1], id="one-tick-minimum"),
    pytest.param([note(0, art=_STACCATO), note(480, art=_ACCENT)], [240, 240],
                 id="accent-after-plain"),
    pytest.param([note(0, art=_ACCENT), note(480, art=_LEGATO)], [480, 480],
                 id="leading-accent"),
    pytest.param([note(0, art=_ACCENT)], [408], id="lone-accent"),
])
def test_notes_sound_for_their_gated_length(notes, held):
    parsed = parse_smf_minimal(write_smf(make_score(notes)))
    assert [n.duration_ticks for n in parsed.notes] == held


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


@pytest.mark.parametrize(
    "tempo, timesig, problem",
    [
        (3, (4, 4), "tempo 3 bpm is below 4, the slowest SMF can encode"),
        (120, (256, 4), "time signature numerator 256 above 255"),
        (120, (4, 2**256), "time signature denominator 2**256 above 2**255"),
    ],
)
def test_write_refuses_a_tempo_or_meter_smf_cannot_encode(tempo, timesig, problem):
    # Past the gate, 3 bpm's 20,000,000 µs would lose its top byte and
    # read back as 3,222,784, and a 256 numerator or exponent would raise
    # a bare ValueError.
    with pytest.raises(MelodifyError, match=re.escape(problem)):
        write_smf(make_score([note(0)], tempo=tempo, timesig=timesig))


def test_write_encodes_the_slowest_tempo_and_the_widest_meter():
    data = write_smf(make_score([note(0)], tempo=4, timesig=(255, 2**255)))
    assert bytes([0xFF, 0x58, 0x04, 255, 255, 24, 8]) in data
    parsed = parse_smf_minimal(data)
    assert parsed.tempo_us == 15_000_000
    assert parsed.time_signature == (255, 2**255)


LONGEST_DELTA = (1 << 28) - 1


def gap_scores(gap):
    """Three scores the gate passes whose longest gap between two messages
    is ``gap`` ticks: a first note-on that late after the program change, a
    legato note held that long, and a loop whose repeats of an empty region
    push the tail's note-on that far after the first note-off."""
    legato = Articulation.LEGATO
    return {
        "late onset": make_score([note(gap)]),
        "long note": make_score([note(0, dur=gap, art=legato)]),
        "looped tail": make_score(
            [note(0, dur=1, art=legato), note(2, dur=1, art=legato)],
            loop=Loop(1, 2, gap),
        ),
    }


def test_write_encodes_the_longest_gap_a_delta_time_holds():
    played = {  # (onset, held) of each note
        "late onset": [(LONGEST_DELTA, 408)],
        "long note": [(0, LONGEST_DELTA)],
        "looped tail": [(0, 1), (LONGEST_DELTA + 1, 1)],
    }
    for name, score in gap_scores(LONGEST_DELTA).items():
        data = write_smf(score)
        assert bytes([0xFF, 0xFF, 0xFF, 0x7F]) in data, name
        notes = parse_smf_minimal(data).notes
        assert [(n.onset_tick, n.duration_ticks) for n in notes] == played[name]


def test_write_refuses_a_gap_no_delta_time_can_hold():
    # Past it, encode_vlq would raise a bare OverflowError.
    for name, score in gap_scores(LONGEST_DELTA + 1).items():
        assert structural_errors(score) == [], name
        with pytest.raises(MelodifyError, match=re.escape(
            f"score fails validation: {LONGEST_DELTA + 1} ticks between two "
            f"messages, above the {LONGEST_DELTA} a delta-time can hold"
        )):
            write_smf(score)


def test_pedal_bytes():
    score = make_score(
        [PedalEvent(0, PedalState.DOWN), note(0, dur=400), PedalEvent(480, PedalState.UP)]
    )
    data = write_smf(score)
    assert bytes([0xB0, 64, 127]) in data
    assert bytes([0xB0, 64, 0]) in data


def test_write_encodes_a_loop_as_its_expansion():
    score = make_score([note(0, dur=960)], loop=Loop(0, 960, 2))
    assert write_smf(score) == write_smf(expand_loops(score))
    # Played twice, this region would press the pedal it never releases.
    pedal = make_score(
        [PedalEvent(0, PedalState.DOWN), note(0, dur=960), PedalEvent(960, PedalState.UP)],
        loop=Loop(0, 960, 2),
    )
    with pytest.raises(MelodifyError, match=re.escape(
        "loop region [0, 960) changes the pedal, so a repeat would press or release it twice"
    )):
        write_smf(pedal)
    with pytest.raises(MelodifyError, match="pedal pressed twice"):
        write_smf(expand_loops(pedal))
    once = pedal._replace(loop=Loop(0, 960, 1))
    assert write_smf(once) == write_smf(expand_loops(once))


@pytest.mark.parametrize("tempo, tempo_us", [(119_999_999, 1), (120_000_000, None)])
def test_fastest_tempo_smf_can_encode(tempo, tempo_us):
    # 60,000,000 µs over 120,000,000 beats is 0.5 µs, which rounds to 0.
    score = make_score([note(0)], tempo=tempo)
    if tempo_us is None:
        problem = "tempo 120000000 bpm is above 119999999, the fastest SMF can encode"
        assert structural_errors(score) == [problem]
        with pytest.raises(MelodifyError, match=problem):
            write_smf(score)
    else:
        assert structural_errors(score) == []
        assert parse_smf_minimal(write_smf(score)).tempo_us == tempo_us


def test_write_rejects_invalid_score():
    score = make_score([note(0, pitch=200)])
    with pytest.raises(MelodifyError, match="score fails validation"):
        write_smf(score)


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


# Gaps and durations that land deltas on each side of the one- and
# two-byte VLQ limits, plus 0 and 1 so that messages share ticks.
VLQ_EDGES = st.sampled_from([0, 1, 127, 128, 16383, 16384])


@st.composite
def dense_scores(draw):
    # Legato notes (and accents that borrow a legato gate) end exactly at
    # onset + duration, so their note-offs meet later note-ons and pedals
    # drawn at the same ticks; the rest of the notes overlap them.
    notes, tick = [], 0
    for gap, dur, pitch, vel, art in draw(
        st.lists(
            st.tuples(
                VLQ_EDGES,
                VLQ_EDGES.map(lambda d: max(d, 1)),
                st.integers(0, 127),
                st.integers(1, 127),
                st.sampled_from(
                    [Articulation.ACCENT, Articulation.ACCENT, Articulation.LEGATO]
                )
                | ARTICULATIONS,
            ),
            max_size=24,
        )
    ):
        tick += gap
        notes.append(note(tick, dur=dur, pitch=pitch, vel=vel, art=art))
    ticks = sorted({t for n in notes for t in (n.onset_tick, n.onset_tick + n.duration_ticks)})
    presses = sorted(draw(st.lists(st.sampled_from(ticks), max_size=6))) if ticks else []
    if len(presses) % 2:
        presses.pop()
    pedals = [
        PedalEvent(t, PedalState.DOWN if i % 2 == 0 else PedalState.UP)
        for i, t in enumerate(presses)
    ]
    return make_score(pedals + notes)


@given(dense_scores() | writable_scores())
def test_streamed_encoder_matches_sort_based_oracle(score):
    got = write_smf(score)
    assert type(got) is bytes  # a bytearray would compare equal
    assert got == reference.write_smf(score)


def test_delta_times_at_each_vlq_length_boundary():
    # Legato notes sound their whole duration, so each gap between two
    # messages below is one delta: the largest one-, two- and three-byte
    # VLQs and the smallest two-, three- and four-byte ones, on note-ons,
    # note-offs and a pedal.
    legato = Articulation.LEGATO
    c_on = 255 + 16383 + 16384
    c_off = c_on + 2**21 - 1
    score = make_score(
        [
            PedalEvent(0, PedalState.DOWN),
            note(0, dur=127, pitch=60, art=legato),
            note(255, dur=16383, pitch=62, art=legato),
            note(c_on, dur=2**21 - 1, pitch=64, art=legato),
            PedalEvent(c_off + 2**21, PedalState.UP),
        ]
    )
    data = write_smf(score)
    assert data == reference.write_smf(score)
    messages = [
        (0, [0xB0, SUSTAIN_CONTROLLER, 127]),
        (0, [0x90, 60, 80]),
        (127, [0x80, 60, 0]),
        (128, [0x90, 62, 80]),
        (16383, [0x80, 62, 0]),
        (16384, [0x90, 64, 80]),
        (2**21 - 1, [0x80, 64, 0]),
        (2**21, [0xB0, SUSTAIN_CONTROLLER, 0]),
    ]
    assert b"".join(encode_vlq(delta) + bytes(m) for delta, m in messages) in data
    parsed = parse_smf_minimal(data)
    assert [(n.onset_tick, n.duration_ticks, n.pitch) for n in parsed.notes] == [
        (0, 127, 60), (255, 16383, 62), (c_on, 2**21 - 1, 64),
    ]
    assert parsed.pedals == ((0, PedalState.DOWN), (c_off + 2**21, PedalState.UP))


def _pie(loop_count):
    """A 32-slice pie, every slice above 1/64 of the cycle."""
    shares = [80 + (i * 37) % 41 for i in range(32)]
    return melodify(dataset(shares, labels(shares)), spec(Idiom.PIE, loop_count=loop_count))


def test_write_smf_memory_stays_small_on_a_long_loop():
    # A 32-slice pie looped 128 times expands to about 12k events. A list
    # of every message, sorted, peaked near 4.4 MB here.
    score = expand_loops(_pie(128))
    assert len(score.events) > 12_000
    tracemalloc.start()
    try:
        write_smf(score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- looped scores ------------------------------------------------------------

# Gaps between onsets: shared ticks, and deltas on each side of the one-
# and two-byte VLQ limits.
LOOP_GAPS = st.sampled_from([0, 1, 127, 128, 16383, 16384]) | st.integers(0, 6)


@st.composite
def looped_scores(draw, faults=False):
    """Notes and pedals before, inside and after a loop region, on and one
    tick either side of both its edges. Durations include multiples of
    the region's length, so notes cross several seams and legato ones end
    on a seam tick; accents often open the region or the score. With
    ``faults``, some scores have an unbalanced pedal or a bad velocity."""
    walk, tick = [], 0
    for gap in draw(st.lists(LOOP_GAPS, min_size=1, max_size=8)):
        tick += gap
        walk.append(tick)
    start = max(0, draw(st.sampled_from(walk)) + draw(st.integers(-1, 1)))
    length = draw(st.sampled_from([1, 2, 127, 128, 480, 16384]) | st.integers(1, 40))
    end = start + length
    ticks = sorted({*walk, *range(max(0, start - 1), start + 2), end - 1, end, end + 1})
    durations = (
        VLQ_EDGES.map(lambda d: max(d, 1))
        | st.integers(1, 4)
        | st.builds(lambda k, d: k * length + d, st.integers(1, 3), st.integers(-1, 1))
        .filter(lambda d: d >= 1)
    )
    articulations = (
        st.sampled_from([Articulation.ACCENT, Articulation.ACCENT, Articulation.LEGATO])
        | ARTICULATIONS
    )
    velocities = st.integers(0 if faults else 1, 127)
    notes = [
        note(onset, dur=dur, pitch=pitch, vel=vel, art=art)
        for onset, dur, pitch, vel, art in draw(st.lists(
            st.tuples(
                st.sampled_from(ticks), durations, st.integers(0, 127), velocities,
                articulations,
            ),
            max_size=14,
        ))
    ]
    # A note on or next to the region's end keeps the region inside the score.
    notes.append(note(end + draw(st.integers(-1, 1)), dur=draw(durations),
                      art=draw(articulations)))
    presses = sorted(draw(st.lists(st.sampled_from(ticks), max_size=6)))
    if len(presses) % 2 and not (faults and draw(st.booleans())):
        presses.pop()
    pedals = [
        PedalEvent(t, PedalState.DOWN if i % 2 == 0 else PedalState.UP)
        for i, t in enumerate(presses)
    ]
    return make_score(pedals + notes, loop=Loop(start, end, draw(st.integers(1, 6))))


_STACCATO_PAIR = make_score(
    [note(0, dur=100, art=_STACCATO), note(100, dur=100, art=_STACCATO)],
    loop=Loop(100, 200, 4),
)


@given(looped_scores())
# Repeats 1 and 2 open with an accent that borrows the staccato gate of
# the repeat before them, not the legato one before the region.
@example(make_score(
    [note(0, art=_LEGATO), note(480, art=_ACCENT), note(960, art=_STACCATO),
     note(1440, art=_ACCENT)],
    loop=Loop(480, 1440, 3),
))
# A leading accent with no plain note before it gates from the tail.
@example(make_score([note(0, art=_ACCENT), note(480, art=_STACCATO)], loop=Loop(0, 480, 4)))
# A legato note three regions long ends on a seam, where a note starts.
@example(make_score(
    [note(10, dur=300, art=_LEGATO), note(110, dur=1, pitch=61)], loop=Loop(10, 110, 5),
))
# A note before the region outlasts three repeats: the seams match late.
@example(make_score([note(0, dur=350, art=_LEGATO), note(5, dur=3)], loop=Loop(5, 105, 8)))
# The seam before repeat 0 already matches the one after it.
@example(_STACCATO_PAIR)
# The last repeat's note and the tail's lower note end on one tick: the
# tail comes later in the score as played, so its note-off goes second.
@example(make_score([note(0, dur=960, art=_LEGATO), note(480, pitch=55, art=_LEGATO)],
                    loop=Loop(0, 480, 2)))
def test_looped_write_matches_the_write_of_its_expansion(score):
    assume(not structural_errors(score))
    got, want = write_smf(score), write_smf(expand_loops(score))
    assert type(got) is bytes
    assert got == want


def _refuses(write, score) -> bool:
    try:
        write(score)
    except MelodifyError:
        return True
    return False


@given(looped_scores(faults=True))
def test_looped_write_refuses_exactly_when_its_expansion_does(score):
    assert _refuses(write_smf, score) == _refuses(
        lambda looped: write_smf(expand_loops(looped)), score
    )


@pytest.mark.parametrize("over", [0, 1])
def test_looped_write_and_its_expansion_share_the_event_cap(over):
    # Two events in the region and four around it: the last count within
    # the cap, and the first past it.
    events = [PedalEvent(0, PedalState.DOWN), note(0), note(1), note(2, art=_ACCENT),
              note(481), PedalEvent(600, PedalState.UP)]
    count = (MAX_EXPANDED_EVENTS - len(events)) // 2 + 1 + over
    score = make_score(events, loop=Loop(1, 481, count))
    if over:
        with pytest.raises(ParseError, match="above the cap") as looped:
            write_smf(score)
        with pytest.raises(ParseError) as expanded:
            expand_loops(score)
        assert str(looped.value) == str(expanded.value)
    else:
        assert write_smf(score) == write_smf(expand_loops(score))


@pytest.fixture
def walked(monkeypatch):
    """The number of events in each ``_encode`` call, in order."""
    sizes = []
    encode = smf._encode

    def counting(out, pending, cursor, events, *rest):
        sizes.append(len(events))
        return encode(out, pending, cursor, events, *rest)

    monkeypatch.setattr(smf, "_encode", counting)
    return sizes


def test_looped_write_walks_the_same_events_at_any_loop_count(walked):
    # Repeats after the first two seams that match are copied as bytes.
    sizes = {}
    for loop_count in (3, 128, 1024):
        walked.clear()
        write_smf(_pie(loop_count))
        sizes[loop_count] = sum(walked)
    assert sizes[3] == sizes[128] == sizes[1024]


def test_looped_write_walks_a_steady_region_once(walked):
    # Repeat 0 leaves the encoder in the state it found it in, so the
    # encoder walks the part before the region, one repeat and the tail.
    write_smf(_STACCATO_PAIR)
    assert walked == [1, 1, 1]


@pytest.mark.parametrize("loop_count", [128, 1024])
def test_looped_write_memory_does_not_grow_with_the_loop(loop_count):
    # Beyond its output and the copy returned, the encoder keeps about one
    # cycle: no expanded events, no list of messages.
    score = _pie(loop_count)
    tracemalloc.start()
    try:
        data = write_smf(score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(data)


# --- the chord cache ----------------------------------------------------------

@st.composite
def chord_scores(draw):
    """Chords (two to four notes at one onset) drawn from a pool of at
    most four records, on a grid whose unit makes one- to three-byte
    deltas. Durations land a chord's note-offs before, on and one tick
    past the next onset. Between the chords: a long note that overlaps
    the next ones, a pedal change and an accented note. Some scores loop."""
    unit = draw(st.sampled_from([1, 2, 120, 480, 16384]))
    durations = st.sampled_from([1, unit - 1, unit, unit + 1, 2 * unit]).filter(lambda d: d >= 1)
    pool = draw(st.lists(
        st.tuples(durations, st.integers(40, 44), st.sampled_from([1, 80, 127]), ARTICULATIONS),
        min_size=1, max_size=4,
    ))
    events, pedal_ticks, tick = [], [], 0
    for gap, chord, extra in draw(st.lists(
        st.tuples(
            st.integers(0, 2),
            st.lists(st.sampled_from(pool), min_size=2, max_size=4),
            st.sampled_from([None, None, "overlap", "pedal", "accent"]),
        ),
        min_size=1, max_size=14,
    )):
        tick += gap * unit
        events += [note(tick, dur, pitch, vel, art) for dur, pitch, vel, art in chord]
        if extra == "overlap":
            events.append(note(tick + unit // 2, dur=3 * unit + 1, pitch=50))
        elif extra == "pedal":
            pedal_ticks.append(tick + draw(st.sampled_from([0, unit])))
        elif extra == "accent":
            events.append(note(tick + unit, dur=unit, pitch=51, art=_ACCENT))
    if len(pedal_ticks) % 2:
        pedal_ticks.pop()
    events += [PedalEvent(t, PedalState.DOWN if i % 2 == 0 else PedalState.UP)
               for i, t in enumerate(sorted(pedal_ticks))]
    loop = None
    if tick and draw(st.booleans()):
        start = draw(st.integers(0, tick - 1))
        loop = Loop(start, draw(st.integers(start + 1, tick)), draw(st.integers(1, 4)))
    return make_score(events, loop=loop)


_CHORD = [note(0, pitch=60), note(0, pitch=64), note(0, pitch=67)]


def _chords(*onsets, **fields):
    return [ev._replace(onset_tick=onset, **fields) for onset in onsets for ev in _CHORD]


@given(chord_scores())
# A repeated chord after a long note that overlaps it, after a pedal
# change and after an accent, each followed by more repeats.
@example(make_score([*_chords(0, 480, 960, 1440, 1920), note(240, dur=960, pitch=50)]))
@example(make_score([*_chords(0, 480, 960, 1440), PedalEvent(480, PedalState.DOWN),
                     PedalEvent(1440, PedalState.UP)]))
@example(make_score([*_chords(0, 480, 1440, 1920), *_chords(960, articulation=_ACCENT)]))
# Legato note-offs on the next onset leave before it: the chord may be
# copied. One tick later they are still pending at the next chord, and
# on a pedal's own tick they leave after it: neither may be copied.
@example(make_score(_chords(0, 480, 960, 1440, duration_ticks=480, articulation=_LEGATO)))
@example(make_score(_chords(0, 480, 960, 1440, duration_ticks=481, articulation=_LEGATO)))
@example(make_score([*_chords(0, 480, 960, duration_ticks=480, articulation=_LEGATO),
                     PedalEvent(1440, PedalState.DOWN), PedalEvent(1441, PedalState.UP),
                     *_chords(1440, duration_ticks=480, articulation=_LEGATO)]))
# Accented chords at the same delta after a staccato and a legato chord
# that end alike: the carried gate tells them apart.
@example(make_score([*_chords(0, duration_ticks=960, articulation=_STACCATO),
                     *_chords(960, 2400, articulation=_ACCENT),
                     *_chords(1440, articulation=_LEGATO), note(2880)]))
# A copied staccato chord leaves its gate to the accent after it.
@example(make_score([*_chords(0, 960, articulation=_LEGATO),
                     *_chords(480, 1440, articulation=_STACCATO),
                     note(1920, art=_ACCENT)]))
# A chord whose velocity equals a copied chord's but is a float.
@example(make_score([*_chords(0, 480, 960), *_chords(1440, velocity=80.0)]))
# The loop region's last chord keeps its note-offs pending at the seam.
@example(make_score(_chords(0, 480, 960, 1440), loop=Loop(480, 1440, 3)))
def test_chord_cache_matches_the_oracle(score):
    with mock.patch.object(smf, "CHORD_CACHE_MIN_EVENTS", 0):
        if reference.structural_errors(score):
            with pytest.raises(MelodifyError, match="score fails validation"):
                write_smf(score)
        else:
            assert write_smf(score) == reference.write_smf(reference.expand_loops(score))


@pytest.mark.parametrize("over", [-1, 0])
def test_chord_cache_starts_at_its_event_count(over, monkeypatch):
    # Repeats of one chord, one event short of the count and at it: the
    # same bytes either way, and only the second keeps chords.
    kept = []
    encode = smf._encode

    def keeping(*args):
        kept.append(args[-1])
        return encode(*args)

    monkeypatch.setattr(smf, "_encode", keeping)
    size = smf.CHORD_CACHE_MIN_EVENTS + over
    events = [note(i // 4 * 480, pitch=60 + i % 4) for i in range(size)]
    score = make_score(events)
    assert write_smf(score) == reference.write_smf(score)
    if over < 0:
        assert kept == [None, None]
    else:
        # One dict for the whole score, keyed on the first chord's delta
        # from tick 0 and on every later one's.
        assert kept[0] is kept[1] and len(kept[0]) == 2


@pytest.mark.parametrize("event, problem", [
    (note(0, vel=80.0), "event 0: velocity is float, not int"),
    (note(0.0), "event 0: onset_tick is float, not int"),
    (note(0, pitch=True), "event 0: pitch is bool, not int"),
    (note(0, dur="480"), "event 0: duration_ticks is str, not int"),
    (note(0, art="accent"), "event 0: articulation is str, not Articulation"),
    (PedalEvent(0, "down"), "event 0: state is str, not PedalState"),
    (PedalEvent(False, PedalState.DOWN), "event 0: tick is bool, not int"),
    ((0, PedalState.DOWN), "event 0 is tuple, not NoteEvent or PedalEvent"),
    (make_score([note(0)], tempo=120.0), "tempo_bpm is float, not int"),
    (make_score([note(0)], timesig=(4.0, 4)), "time_signature numerator is float, not int"),
    (make_score([note(0)], timesig=(4, True)), "time_signature denominator is bool, not int"),
    (make_score([note(0)], timesig=[4, 4]), "time_signature is list, not tuple"),
    (make_score([note(0)], key=(0.0, ScaleMode.MAJOR)), "key_signature root is float, not int"),
    # Written unrefused, "major" would have given an E-flat major signature.
    (make_score([note(0)], key=(0, "major")), "key_signature mode is str, not ScaleMode"),
    (make_score([note(0)], key=(0, ScaleMode.MAJOR, 0)), "key_signature has 3 parts, not 2"),
    (make_score([note(0)], loop=Loop(0, 480, 2.0)), "loop count is float, not int"),
    (make_score([note(0)], loop=Loop(0.0, 480, 2)), "loop start_tick is float, not int"),
    (make_score([note(0)], loop=(0, 480, 2)), "loop is tuple, not Loop"),
    (make_score([note(0)])._replace(events=[note(0)]), "events is list, not tuple"),
    (make_score([note(0)], loop=Loop(0, 480, 2))._replace(events=None),
     "events is NoneType, not tuple"),
])
def test_write_refuses_a_field_not_of_its_exact_type(event, problem):
    # Each equals a valid field (80.0 == 80, True == 1, "accent" ==
    # Articulation.ACCENT) or record, so only its type can refuse it.
    # A ``Score`` in place of an event stands for the score's own fields.
    if type(event) is Score:
        score = event
    else:
        score = Score(120, (4, 4), (0, ScaleMode.MAJOR), (event, note(960)))
    assert structural_errors(score) == reference.structural_errors(score)
    assert structural_errors(score)[0] == problem
    with pytest.raises(MelodifyError, match=problem):
        write_smf(score)


# Past Python's 4300-digit int-to-str limit: a refusal quotes it all the same.
BIG = 10**5000


class _ShortBig:
    """Drawn in place of ``BIG``: Hypothesis reports a failing draw with
    ``repr``, which refuses an int past the int-to-str limit. Its own
    ``repr`` names it, so a reported draw can be pasted as an ``@example``."""

    def __repr__(self):
        return "SHORT_BIG"


SHORT_BIG = _ShortBig()


def with_big(value):
    """``value`` with each ``SHORT_BIG`` in it swapped for ``BIG``, every
    tuple, list and record rebuilt as its own type."""
    if value is SHORT_BIG:
        return BIG
    if type(value) in (tuple, list):
        return type(value)(map(with_big, value))
    if isinstance(value, tuple):  # a NamedTuple record
        return type(value)._make(map(with_big, value))
    return value


# Values that equal a valid field but are of another type, values of no
# use, and ints past every range, float range and the int-to-str limit
# included.
ODD_VALUES = st.sampled_from(
    (80.0, 4.0, 0.0, True, False, "480", None, math.nan, math.inf, (4, 4),
     2**1030, -(2**1030), 2**28, 10**30, SHORT_BIG)
)


def rarely(odds: int):
    """True about one time in ``odds``."""
    return st.sampled_from((False,) * (odds - 1) + (True,))


def mostly(good):
    """A value from ``good``, else any int or a value of another type."""
    return st.one_of(good, good, good, st.integers(-(2**70), 2**70), ODD_VALUES)


@st.composite
def any_scores(draw):
    """Scores a library caller could build: every field of the right type
    and range, or in about one score of three mostly so and at times of
    another type, shape or range, the events at times in a list or
    none; events in order or not; pedals balanced or not; a loop
    anywhere or none. ``BIG`` is drawn as ``SHORT_BIG``."""
    field = mostly if draw(rarely(3)) else (lambda good: good)
    ticks = field(st.integers(0, 2000))
    notes = st.builds(
        NoteEvent, ticks, field(st.integers(1, 960)), field(st.integers(0, 127)),
        field(st.integers(1, 127)), field(st.sampled_from(list(Articulation))),
    )
    pedals = st.builds(PedalEvent, ticks, field(st.sampled_from(list(PedalState))))
    records = notes | pedals
    if field is mostly:
        records |= st.tuples(ticks, ticks)
    events = draw(st.lists(records, max_size=12))
    if not draw(rarely(4)):
        events.sort(key=lambda ev: (
            tick if type(tick := with_big(ev[0])) is int else 0, type(ev) is NoteEvent))
    if not draw(rarely(4)):  # press and release in turn, ending released
        pedal_at = [i for i, ev in enumerate(events) if type(ev) is PedalEvent]
        if len(pedal_at) % 2:
            del events[pedal_at.pop()]
        for n, i in enumerate(pedal_at):
            events[i] = PedalEvent(events[i][0], list(PedalState)[n % 2])
    meter = st.tuples(field(st.integers(1, 16)), field(st.sampled_from([1, 2, 4, 8, 16])))
    key = st.tuples(field(st.integers(0, 11)), field(st.sampled_from(list(ScaleMode))))
    # Loop ends mostly at event ticks, so that a region often lies inside.
    edges = st.sampled_from([0, 480, *(ev[0] for ev in events)]) | st.integers(0, 3000)
    loop = st.builds(Loop, field(edges), field(edges), field(st.integers(1, 4)))
    if field is mostly:
        odd = st.sampled_from(([4, 4], (4,), (4, 4, 4), "4/4", None))
        meter, key, loop = meter | odd, key | odd, loop | st.just((0, 480, 2))
    events = tuple(events)
    if field is mostly:
        events = draw(st.sampled_from((events, events, list(events), None)))
    return Score(
        draw(field(st.integers(4, 400))), draw(meter), draw(key), events,
        draw(st.none() | loop),
    )


@settings(max_examples=200, deadline=None)
@given(any_scores())
@example(Score(120, (4, 4), (0, ScaleMode.MAJOR), (note(0, dur=2**1030),)))
@example(make_score([note(0, dur=960)], loop=Loop(480, 960, 2**1030)))
@example(make_score([], loop=Loop(0, 480, 2))._replace(events=None))
@example(Score(120, (4, 4), (0, ScaleMode.MAJOR), None))
@example(make_score([note(0)], loop=(0, 480, 2)))
@example(make_score([note(0.0, dur=2**1030)]))
@example(make_score([note(0), note(2000.0)], loop=Loop(960, 1000, 10**400)))
def test_any_score_is_refused_by_the_gate_or_written_and_read_back(score):
    assert_refused_or_written(with_big(score))


# Hypothesis prints each @example with repr, which refuses an int past
# the int-to-str limit, so these scores are passed by pytest instead.
@pytest.mark.parametrize("score", [
    make_score([note(0)], tempo=BIG),
    make_score([note(0, pitch=BIG)]),
    make_score([note(BIG)]),
    make_score([note(0, dur=960)], loop=Loop(0, 480, BIG)),
], ids=["tempo", "pitch", "onset", "loop-count"])
def test_an_int_past_the_str_limit_is_refused_or_written(score):
    assert_refused_or_written(score)


def assert_refused_or_written(score):
    """The gate lists the reference's problems. The text writer returns
    the reference's text or refuses with a reason, ``expand_loops`` and
    ``total_duration_ticks`` raise nothing but ``MelodifyError``, the
    latter giving the reference's ticks for a score the gate passes, and
    ``write_smf`` refuses what the gate refuses, else writes a file that
    reads back as the score played."""
    problems = structural_errors(score)
    assert problems == reference.structural_errors(score)
    # The text writer formats what it can and refuses the rest with the
    # gate's problems, or else with each int too long for str().
    try:
        text = write_text_score(score)
    except MelodifyError as exc:
        expected = reference.text_problems(score)
        assert expected and str(exc) == "score fails validation: " + "; ".join(expected)
    else:
        assert text == reference.write_text_score(score)
    try:
        expand_loops(score)
    except ParseError as exc:
        assert "above the cap of" in str(exc)
    except MelodifyError:
        assert problems  # a score it cannot read, or an empty or inverted region
    try:
        ticks = total_duration_ticks(score)
    except MelodifyError as exc:
        assert problems and str(exc) == "score fails validation: " + "; ".join(problems)
    else:
        assert problems or ticks == reference.total_duration_ticks(score)
    if problems:
        with pytest.raises(MelodifyError, match="score fails validation"):
            write_smf(score)
        return
    try:
        data = write_smf(score)
    except MelodifyError as exc:
        # The refusals the gate leaves to the writer: a gap no delta-time
        # holds, a loop past the expansion cap, a number past float range.
        assert re.search(
            "ticks between two messages|above the cap of|past float range", str(exc)
        ), exc
        return
    played = reference.notes_of(reference.expand_loops(score))
    assert sorted((n.onset_tick, n.pitch, n.velocity) for n in parse_smf_minimal(data).notes) \
        == sorted((n.onset_tick, n.pitch, n.velocity) for n in played)


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
    with pytest.raises(MelodifyError, match="missing MThd magic"):
        parse_smf_minimal(b"not midi at all")
    with pytest.raises(MelodifyError, match="expected format 0 with 1 track"):
        parse_smf_minimal(b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480))


def test_parse_rejects_truncated_track():
    data = write_smf(make_score([note(0)]))
    with pytest.raises(MelodifyError, match="track chunk longer than the file"):
        parse_smf_minimal(data[:-1])


def test_parse_rejects_trailing_bytes():
    data = write_smf(make_score([note(0)]))
    with pytest.raises(MelodifyError, match="trailing bytes after the track chunk"):
        parse_smf_minimal(data + b"\x00")


def test_parse_rejects_wrong_track_length():
    data = bytearray(write_smf(make_score([note(0)])))
    # Inflate the declared MTrk length so it overruns the file.
    (length,) = struct.unpack(">I", data[18:22])
    data[18:22] = struct.pack(">I", length + 1)
    with pytest.raises(MelodifyError, match="track chunk longer than the file"):
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


@st.composite
def text_scores(draw):
    """Scores whose records after the tick repeat heavily (a few drawn
    once and reused) or are each drawn afresh, at ticks up to past 2**14,
    with pedals, all four articulations and often a loop marker."""
    tails = st.tuples(st.integers(1, 2**15), st.integers(0, 127), st.integers(1, 127),
                      ARTICULATIONS)
    if draw(st.booleans()):
        tails = st.sampled_from(draw(st.lists(tails, min_size=1, max_size=3)))
    ticks = st.integers(0, 40) | st.integers(2**14 - 2, 2**14 + 2) | st.integers(0, 2**20)
    notes = [note(tick, dur, pitch, vel, art) for tick, (dur, pitch, vel, art) in draw(
        st.lists(st.tuples(ticks, tails), max_size=40)
    )]
    pedals = [PedalEvent(tick, state) for tick, state in draw(
        st.lists(st.tuples(ticks, st.sampled_from(list(PedalState))), max_size=6)
    )]
    loop = draw(st.none() | st.builds(Loop, ticks, ticks, st.integers(1, 300)))
    return make_score(
        pedals + notes, loop=loop, tempo=draw(st.integers(20, 300)),
        timesig=draw(st.sampled_from([(4, 4), (3, 4), (2, 4), (7, 8), (255, 32)])),
        key=(draw(st.integers(0, 11)), draw(st.sampled_from(list(ScaleMode)))),
    )


def test_text_score_memory_stays_near_its_length():
    # 3000 chords of three notes: the pieces of one join, an onset text
    # per chord and a shared tail per record, peak near 2.4 times the
    # text on Python 3.10-3.13.
    values = [1 + i * 7919 % 1000 for i in range(3000)]
    score = melodify(dataset(values, labels(values)), spec(Idiom.BAR))
    text = write_text_score(score)
    tracemalloc.start()
    try:
        write_text_score(score)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


@given(text_scores())
def test_text_score_matches_the_reference_writer(score):
    assert write_text_score(score) == reference.write_text_score(score)


def test_text_score_writes_equal_fields_of_other_types_as_they_are():
    # 480.0 equals 480 and True equals 1, but each prints as itself.
    score = make_score([
        note(0, dur=480, vel=1), note(480, dur=480.0, vel=1),
        note(960, dur=480, vel=True), note(1440, dur=480.0, vel=True),
        note(1920, dur=480, pitch=60.0, vel=1),
    ])
    text = write_text_score(score)
    assert text == reference.write_text_score(score)
    assert text.endswith(
        "0 60 480 1 normal\n480 60 480.0 1 normal\n"
        "960 60 480 True normal\n1440 60 480.0 True normal\n"
        "1920 60.0 480 1 normal\n"
    )
    # Consecutive onsets that are equal but not the same object: each
    # prints as itself, and equal ints past the small-int cache alike. A
    # first onset of None is written as the reference writes it, unsorted.
    big, same_big = int("70000"), int("70000")
    assert big == same_big and big is not same_big
    score = Score(120, (4, 4), (0, ScaleMode.MAJOR), [
        note(None), note(1), note(True), note(480), note(480.0), note(big), note(same_big),
    ], None)
    text = write_text_score(score)
    assert text == reference.write_text_score(score)
    assert text.endswith(
        "None 60 480 80 normal\n1 60 480 80 normal\nTrue 60 480 80 normal\n"
        "480 60 480 80 normal\n480.0 60 480 80 normal\n"
        "70000 60 480 80 normal\n70000 60 480 80 normal\n"
    )
