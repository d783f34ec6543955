"""Score timeline invariants, structural checks, and loop expansion."""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import melodify.score as score_module
from melodify.errors import MelodifyError, ParseError
from melodify.score import (
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
from melodify.theory import ScaleMode

import reference
from reference import assert_same_events, make_score, note


# --- ordering -----------------------------------------------------------------

def _played_once(events):
    """The events as ``expand_loops`` orders them, under a loop played once."""
    score = Score(120, (4, 4), (0, ScaleMode.MAJOR), tuple(events), Loop(0, 480, 1))
    return expand_loops(score).events


def test_sorted_events_puts_pedal_before_notes_at_same_tick():
    events = _played_once([note(0), PedalEvent(0, PedalState.DOWN), note(0, pitch=64)])
    assert isinstance(events[0], PedalEvent)


def test_sorted_events_is_stable_for_equal_notes():
    a, b = note(0, pitch=60), note(0, pitch=64)
    assert _played_once([a, b]) == (a, b)
    assert _played_once([b, a]) == (b, a)


@pytest.mark.parametrize(
    "record,field",
    [(note(0), "pitch"), (make_score([note(0)]), "events")],
)
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


# --- structural_errors --------------------------------------------------------

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
    score = score._replace(events=(note(480), note(0)))
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
    score = make_score([note(0)])._replace(time_signature=(4, 6))
    assert any("time signature" in m for m in structural_errors(score))


def test_loop_bounds_checked():
    good = make_score([note(0, dur=960)], loop=Loop(0, 960, 2))
    assert structural_errors(good) == []
    past_end = make_score([note(0, dur=960)], loop=Loop(0, 2000, 2))
    assert any("loop" in m for m in structural_errors(past_end))
    inverted = make_score([note(0, dur=960)], loop=Loop(500, 400, 2))
    assert any("loop" in m for m in structural_errors(inverted))


def _faulty(events=(), loop=None, time_signature=(4, 4), tempo=120, root=0):
    return Score(tempo, time_signature, (root, ScaleMode.MAJOR), tuple(events), loop)


# Ticks from -2 to 12 with few events, so ties between notes and pedals
# are common; every range check has values on both sides of its bound.
GATE_EVENTS = st.one_of(
    st.builds(
        NoteEvent,
        st.integers(-2, 12),
        st.integers(-1, 4),
        st.integers(-1, 128),
        st.integers(0, 128),
        st.sampled_from(list(Articulation)),
    ),
    st.builds(PedalEvent, st.integers(-2, 12), st.sampled_from(list(PedalState))),
)
# Numbers that equal an int but are not exactly one, and an articulation
# or pedal state written as its str value or as something else.
NOT_INTS = st.sampled_from([0.0, 1.0, 80.0, 2.5, True, False])
NOT_MEMBERS = st.sampled_from(["accent", "normal", "down", "up", None, 0])
MISTYPED_EVENTS = st.one_of(
    st.builds(
        NoteEvent,
        st.integers(-2, 12) | NOT_INTS,
        st.integers(-1, 4) | NOT_INTS,
        st.integers(-1, 128) | NOT_INTS,
        st.integers(0, 128) | NOT_INTS,
        st.sampled_from(list(Articulation)) | NOT_MEMBERS,
    ),
    st.builds(
        PedalEvent,
        st.integers(-2, 12) | NOT_INTS,
        st.sampled_from(list(PedalState)) | NOT_MEMBERS,
    ),
)


@st.composite
def gate_scores(draw):
    events = draw(st.lists(GATE_EVENTS | MISTYPED_EVENTS if draw(st.booleans())
                           else GATE_EVENTS, max_size=12))
    if draw(st.booleans()):
        events = reference.sort_events(events)  # in order, so the other faults show alone
    loop = draw(
        st.none()
        | st.builds(Loop, st.integers(-3, 20), st.integers(-3, 20), st.integers(-1, 3))
    )
    return _faulty(
        events,
        loop,
        (draw(st.integers(-1, 5)), draw(st.integers(-1, 9))),
        draw(st.integers(-1, 200)),
        draw(st.integers(-1, 12)),
    )


@given(gate_scores())
@example(_faulty([note(480), note(0)]))  # out of order
@example(_faulty([note(0), PedalEvent(0, PedalState.DOWN), PedalEvent(0, PedalState.UP)]))
@example(_faulty([note(-1), PedalEvent(-5, PedalState.DOWN)]))  # negative ticks
@example(_faulty([note(0, pitch=128, vel=0, dur=0), note(1, pitch=-1, vel=128)]))
@example(_faulty([PedalEvent(0, PedalState.DOWN), PedalEvent(1, PedalState.DOWN)]))
@example(_faulty([PedalEvent(0, PedalState.UP), PedalEvent(1, PedalState.UP)]))
@example(_faulty([PedalEvent(0, PedalState.DOWN)]))  # left pressed
@example(_faulty([note(0, dur=960)], loop=Loop(500, 400, 0)))
@example(_faulty([note(-9, dur=2)], loop=Loop(0, 2, 2)))  # score ends below 0
@example(_faulty([note(0)], time_signature=(0, 6), tempo=0, root=12))
# Fields equal to a valid int, or to a member's value, that are not one;
# each names its event and field, and its event leaves the other checks.
@example(_faulty([note(0, vel=80.0), note(480, pitch=True, art="accent")]))
@example(_faulty([PedalEvent(0.0, PedalState.DOWN), PedalEvent(1, "up")],
                 loop=Loop(0, 1, 2)))
def test_one_pass_gate_matches_two_pass_oracle(score):
    assert structural_errors(score) == reference.structural_errors(score)
    assert total_duration_ticks(score) == reference.total_duration_ticks(score)


@pytest.mark.parametrize(
    "tempo, time_signature, problems",
    [
        (4, (4, 4), []),
        (3, (4, 4), ["tempo 3 bpm is below 4, the slowest SMF can encode"]),
        (120, (255, 4), []),
        (120, (256, 4), ["time signature numerator 256 above 255"]),
        (120, (4, 2**255), []),
        (120, (4, 2**256), ["time signature denominator 2**256 above 2**255"]),
        (
            1,
            (256, 2**256),
            [
                "tempo 1 bpm is below 4, the slowest SMF can encode",
                "time signature numerator 256 above 255",
                "time signature denominator 2**256 above 2**255",
            ],
        ),
    ],
)
def test_gate_refuses_a_tempo_or_meter_smf_cannot_encode(tempo, time_signature, problems):
    # SMF stores microseconds per quarter in 24 bits (15,000,000 at 4 bpm,
    # 20,000,000 at 3), and the numerator and log2 of the denominator in
    # a byte each.
    score = _faulty([note(0)], time_signature=time_signature, tempo=tempo)
    assert structural_errors(score) == problems


# Musical choices are not structural faults: the gate lets both of these pass.

def test_out_of_scale_pitch_is_warning_not_error():
    score = make_score([note(0, pitch=61)])  # C# against C major
    assert structural_errors(score) == []


def test_cosounding_tritone_is_warning():
    score = make_score([note(0, pitch=60), note(240, pitch=66, dur=120)])
    assert structural_errors(score) == []


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
    with pytest.raises(ParseError, match="cap"):
        expand_loops(score)


def test_expand_loops_cap_counts_events_outside_the_region(monkeypatch):
    monkeypatch.setattr("melodify.score.MAX_EXPANDED_EVENTS", 10)
    events = [note(0, dur=100), note(480), note(960, dur=100)]
    # One event before, one repeated, one after: 2 + count events.
    assert len(expand_loops(make_score(events, loop=Loop(480, 960, 8))).events) == 10
    with pytest.raises(ParseError, match="11 events, above the cap of 10"):
        expand_loops(make_score(events, loop=Loop(480, 960, 9)))


def test_expand_loops_refuses_an_empty_or_inverted_region():
    for loop in (Loop(480, 480, 2), Loop(960, 480, 2), Loop(0, 960, 0)):
        with pytest.raises(MelodifyError, match="cannot be expanded") as exc:
            expand_loops(make_score([note(0, dur=960), note(480)], loop=loop))
        # No user input reaches this branch, so it is a bug, not E_PARSE.
        assert exc.value.code == "E_INTERNAL"


def test_expanded_score_compares_by_value():
    score = make_score([note(0, dur=240), note(240, pitch=64)], loop=Loop(0, 480, 2))
    expected = make_score(
        [note(0, dur=240), note(240, pitch=64), note(480, dur=240), note(720, pitch=64)]
    )
    assert expand_loops(score) == expected
    assert hash(expand_loops(score)) == hash(expected)
    assert expand_loops(score) != expected._replace(tempo_bpm=121)


def assert_same_records(new, old):
    """Equal scores of the same record types down to each event's fields."""
    assert type(new) is type(old)
    assert new._replace(events=()) == old._replace(events=())
    assert_same_events(new.events, old.events)


def _expand_or_refusal(expand, score):
    try:
        return expand(score)
    except ParseError as exc:
        return str(exc)


@st.composite
def looped_scores(draw):
    # The region [start, end) on a 60-tick grid; events sit before it,
    # inside it and after it, and one tick either side of each edge,
    # in the order drawn, sorted, or sorted and reversed.
    start = 60 * draw(st.integers(0, 4))
    end = start + 60 * draw(st.integers(1, 4))
    tick = st.one_of(
        st.sampled_from([start - 1, start, start + 1, end - 1, end, end + 1]),
        st.integers(0, end // 60 + 4).map(lambda k: 60 * k),
    ).filter(lambda t: t >= 0)
    events = draw(
        st.lists(
            st.one_of(
                st.builds(
                    NoteEvent,
                    tick,
                    st.integers(1, 200),
                    st.integers(0, 127),
                    st.integers(1, 127),
                    st.sampled_from(list(Articulation)),
                ),
                st.builds(PedalEvent, tick, st.sampled_from(list(PedalState))),
            ),
            max_size=16,
        )
    )
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order != "drawn":
        events = reference.sort_events(events)[:: 1 if order == "sorted" else -1]
    count = draw(st.integers(1, 6))
    score = Score(120, (4, 4), (0, ScaleMode.MAJOR), tuple(events), Loop(start, end, count))
    # The cap at, one below or one above the expanded size, or left as is.
    repeated = sum(start <= reference.tick_of(ev) < end for ev in events)
    expanded = len(events) + repeated * (count - 1)
    cap = draw(st.sampled_from([None, expanded - 1, expanded, expanded + 1]))
    return score, cap


@given(looped_scores())
def test_expand_loops_matches_per_copy_oracle(case):
    score, cap = case
    cap = score_module.MAX_EXPANDED_EVENTS if cap is None else cap
    with mock.patch.object(score_module, "MAX_EXPANDED_EVENTS", cap):
        got = _expand_or_refusal(expand_loops, score)
        want = _expand_or_refusal(reference.expand_loops, score)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_records(got, want)
