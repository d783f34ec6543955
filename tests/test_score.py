"""Score timeline invariants, structural checks, lint, and loop expansion."""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from melodify.errors import InvalidValue
from melodify.score import (
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    expand_loops,
    lint,
    sorted_events,
    structural_errors,
    total_duration_ticks,
)
from melodify.theory import ScaleMode


def note(onset, dur=480, pitch=60, vel=80, art=Articulation.NORMAL):
    return NoteEvent(onset, dur, pitch, vel, art)


def make_score(events, loop=None, key=(0, ScaleMode.MAJOR)):
    return Score(
        tempo_bpm=120,
        time_signature=(4, 4),
        key_signature=key,
        events=sorted_events(events),
        loop=loop,
    )


# --- ordering -----------------------------------------------------------------

def test_sorted_events_puts_pedal_before_notes_at_same_tick():
    events = sorted_events(
        [note(0), PedalEvent(0, PedalState.DOWN), note(0, pitch=64)]
    )
    assert isinstance(events[0], PedalEvent)


def test_sorted_events_is_stable_for_equal_notes():
    a, b = note(0, pitch=60), note(0, pitch=64)
    assert sorted_events([a, b]) == (a, b)
    assert sorted_events([b, a]) == (b, a)


# --- structural_errors and lint ----------------------------------------------

def test_valid_score_has_no_errors():
    score = make_score(
        [
            PedalEvent(0, PedalState.DOWN),
            note(0),
            note(480, pitch=64),
            PedalEvent(960, PedalState.UP),
        ]
    )
    assert structural_errors(score) == []


def test_out_of_order_events_flagged():
    score = make_score([])
    score = replace(score, events=(note(480), note(0)))
    assert any("out of order" in m for m in structural_errors(score))


def test_bad_pitch_velocity_duration_flagged():
    assert any("pitch" in m for m in structural_errors(make_score([note(0, pitch=128)])))
    assert any("velocity" in m for m in structural_errors(make_score([note(0, vel=0)])))
    assert any("duration" in m for m in structural_errors(make_score([note(0, dur=0)])))
    assert any("onset" in m for m in structural_errors(make_score([note(-1)])))


def test_unbalanced_pedal_flagged():
    down_only = make_score([PedalEvent(0, PedalState.DOWN)])
    assert any("pedal" in m for m in structural_errors(down_only))
    up_first = make_score([PedalEvent(0, PedalState.UP)])
    assert any("pedal" in m for m in structural_errors(up_first))
    double_down = make_score(
        [PedalEvent(0, PedalState.DOWN), PedalEvent(10, PedalState.DOWN)]
    )
    assert any("twice" in m for m in structural_errors(double_down))


def test_bad_time_signature_flagged():
    score = replace(make_score([note(0)]), time_signature=(4, 6))
    assert any("time signature" in m for m in structural_errors(score))


def test_loop_bounds_checked():
    good = make_score([note(0, dur=960)], loop=Loop(0, 960, 2))
    assert structural_errors(good) == []
    past_end = make_score([note(0, dur=960)], loop=Loop(0, 2000, 2))
    assert any("loop" in m for m in structural_errors(past_end))
    inverted = make_score([note(0, dur=960)], loop=Loop(500, 400, 2))
    assert any("loop" in m for m in structural_errors(inverted))


def test_out_of_scale_pitch_is_warning_not_error():
    score = make_score([note(0, pitch=61)])  # C# against C major
    assert any("scale" in m for m in lint(score))
    assert structural_errors(score) == []


def test_chromatic_key_never_warns_about_scale():
    score = make_score([note(0, pitch=61)], key=(0, ScaleMode.CHROMATIC))
    assert not any("scale" in m for m in lint(score))


def test_cosounding_tritone_is_warning():
    score = make_score([note(0, pitch=60), note(240, pitch=66, dur=120)])
    assert any("tritone" in m for m in lint(score))
    assert structural_errors(score) == []
    # Sequential tritone pitches never overlap, so no warning.
    apart = make_score([note(0, pitch=60, dur=240), note(240, pitch=66)])
    assert not any("tritone" in m for m in lint(apart))


@given(
    st.lists(
        # Onsets and durations on a coarse grid, so notes often end
        # exactly where another starts.
        st.tuples(st.integers(0, 16), st.integers(1, 8), st.integers(54, 66)),
        max_size=30,
    )
)
def test_tritone_lint_matches_all_pairs_oracle(specs):
    # Chromatic key: no scale warnings, so lint reports only tritones.
    notes = sorted_events(note(120 * on, dur=120 * dur, pitch=p) for on, dur, p in specs)
    expected = [
        f"tritone between pitches {a.pitch} and {b.pitch} "
        f"sounding together at tick {b.onset_tick}"
        for i, a in enumerate(notes)
        for b in notes[i + 1 :]
        if b.onset_tick < a.onset_tick + a.duration_ticks and abs(a.pitch - b.pitch) % 12 == 6
    ]
    assert lint(make_score(notes, key=(0, ScaleMode.CHROMATIC))) == expected


# --- durations and loops ------------------------------------------------------

def test_total_duration_simple():
    assert total_duration_ticks(make_score([note(0), note(480)])) == 960
    assert total_duration_ticks(make_score([])) == 0


def test_total_duration_counts_trailing_pedal():
    score = make_score(
        [PedalEvent(0, PedalState.DOWN), note(0, dur=400), PedalEvent(500, PedalState.UP)]
    )
    assert total_duration_ticks(score) == 500


def test_total_duration_with_loop_and_tail():
    # Loop [0, 7680) twice plus a cadence tail of 2 bars at the old end.
    events = [note(0, dur=7680), note(7680, dur=1920), note(9600, dur=1920)]
    score = make_score(events, loop=Loop(0, 7680, 2))
    assert total_duration_ticks(score) == 7680 * 2 + 3840


def test_expand_loops_identity_without_marker():
    score = make_score([note(0)])
    assert expand_loops(score) is score


def test_expand_loops_doubles_region_and_shifts_tail():
    events = [note(0, dur=960), note(960, dur=480)]
    score = make_score(events, loop=Loop(0, 960, 2))
    out = expand_loops(score)
    assert out.loop is None
    onsets = [e.onset_tick for e in out.events]
    assert onsets == [0, 960, 1920]
    assert total_duration_ticks(out) == total_duration_ticks(score)


def test_expand_loops_preserves_events_before_region():
    events = [note(0, dur=100), note(480, dur=480), note(960, dur=100)]
    score = make_score(events, loop=Loop(480, 960, 3))
    out = expand_loops(score)
    onsets = [e.onset_tick for e in out.events]
    # Pre-region untouched; region tripled; tail shifted by 2*480.
    assert onsets == [0, 480, 960, 1440, 1920]


def test_expand_loops_refuses_past_the_event_cap_before_copying():
    # Sized arithmetically: a copy of 10**12 repeats would never finish.
    score = make_score([note(0), note(480)], loop=Loop(0, 480, 10**12))
    with pytest.raises(InvalidValue, match="cap"):
        expand_loops(score)


def test_expand_loops_cap_counts_events_outside_the_region(monkeypatch):
    monkeypatch.setattr("melodify.score.MAX_EXPANDED_EVENTS", 10)
    events = [note(0, dur=100), note(480), note(960, dur=100)]
    # One event before, one repeated, one after: 2 + count events.
    assert len(expand_loops(make_score(events, loop=Loop(480, 960, 8))).events) == 10
    with pytest.raises(InvalidValue):
        expand_loops(make_score(events, loop=Loop(480, 960, 9)))


def test_expanded_loop_is_structurally_valid():
    events = [note(0, dur=960), note(960, dur=480)]
    score = make_score(events, loop=Loop(0, 960, 2))
    assert structural_errors(expand_loops(score)) == []
