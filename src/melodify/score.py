"""Score intermediate representation.

A Score is an immutable, fully deterministic timeline: note and pedal
events sorted by tick, plus the metadata a MIDI writer needs (tempo,
time signature, key signature) and an optional loop marker describing a
repeated region. Every score counts time at ``TICKS_PER_QUARTER``.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Union

from .errors import InvalidValue
from .theory import ScaleMode, build_scale, is_tritone

TICKS_PER_QUARTER = 480

# Most events a looped score may expand to. A 4/4 pie cycle holds at
# most 192 notes, so this still allows over a thousand repeats.
MAX_EXPANDED_EVENTS = 250_000


class Articulation(str, Enum):
    NORMAL = "normal"
    STACCATO = "staccato"
    LEGATO = "legato"
    ACCENT = "accent"


class PedalState(str, Enum):
    DOWN = "down"
    UP = "up"


@dataclass(frozen=True)
class NoteEvent:
    onset_tick: int
    duration_ticks: int
    pitch: int
    velocity: int
    articulation: Articulation


@dataclass(frozen=True)
class PedalEvent:
    tick: int
    state: PedalState


Event = Union[NoteEvent, PedalEvent]


@dataclass(frozen=True)
class Loop:
    """Half-open region [start_tick, end_tick) played ``count`` times."""

    start_tick: int
    end_tick: int
    count: int


@dataclass(frozen=True)
class Score:
    tempo_bpm: int
    time_signature: tuple[int, int]
    key_signature: tuple[int, ScaleMode]
    events: tuple[Event, ...] = ()
    loop: Loop | None = None


def event_tick(event: Event) -> int:
    return event.onset_tick if isinstance(event, NoteEvent) else event.tick


def event_sort_key(event: Event) -> tuple[int, int]:
    # Pedal changes land before notes that share their tick.
    return (event_tick(event), 1 if isinstance(event, NoteEvent) else 0)


def sorted_events(events: Iterable[Event]) -> tuple[Event, ...]:
    return tuple(sorted(events, key=event_sort_key))


def _base_end_tick(events: Iterable[Event]) -> int:
    end = 0
    for ev in events:
        if isinstance(ev, NoteEvent):
            end = max(end, ev.onset_tick + ev.duration_ticks)
        else:
            end = max(end, ev.tick)
    return end


def total_duration_ticks(score: Score) -> int:
    """Ticks from zero to the last event end, loop repetitions included."""
    if score.loop is None:
        return _base_end_tick(score.events)
    shift = (score.loop.count - 1) * (score.loop.end_tick - score.loop.start_tick)
    end = 0
    for ev in score.events:
        ev_end = (
            ev.onset_tick + ev.duration_ticks if isinstance(ev, NoteEvent) else ev.tick
        )
        if event_tick(ev) >= score.loop.start_tick:
            ev_end += shift
        end = max(end, ev_end)
    return end


def structural_errors(score: Score) -> list[str]:
    """Problems that make a score unwritable; ``write_smf`` refuses any
    score with one."""
    problems: list[str] = []
    error = problems.append

    if score.tempo_bpm < 1:
        error(f"tempo must be positive, got {score.tempo_bpm}")
    numerator, denominator = score.time_signature
    if numerator < 1 or denominator < 1 or denominator & (denominator - 1):
        error(f"bad time signature {numerator}/{denominator}")

    previous_key = None
    for i, ev in enumerate(score.events):
        key = event_sort_key(ev)
        if previous_key is not None and key < previous_key:
            error(f"event {i} out of order (tick {event_tick(ev)})")
        previous_key = key
        if isinstance(ev, NoteEvent):
            if ev.onset_tick < 0:
                error(f"event {i}: negative onset {ev.onset_tick}")
            if ev.duration_ticks < 1:
                error(f"event {i}: duration must be at least 1 tick")
            if not 0 <= ev.pitch <= 127:
                error(f"event {i}: pitch {ev.pitch} outside 0..127")
            if not 1 <= ev.velocity <= 127:
                error(f"event {i}: velocity {ev.velocity} outside 1..127")
        else:
            if ev.tick < 0:
                error(f"event {i}: negative pedal tick {ev.tick}")

    pedal_down = False
    for ev in score.events:
        if isinstance(ev, PedalEvent):
            if ev.state is PedalState.DOWN:
                if pedal_down:
                    error("pedal pressed twice without a release")
                pedal_down = True
            else:
                if not pedal_down:
                    error("pedal released without a press")
                pedal_down = False
    if pedal_down:
        error("pedal left pressed at end of score")

    if score.loop is not None:
        base_end = _base_end_tick(score.events)
        if score.loop.count < 1:
            error(f"loop count must be positive, got {score.loop.count}")
        if not 0 <= score.loop.start_tick < score.loop.end_tick <= max(base_end, 1):
            error(
                f"loop region [{score.loop.start_tick}, {score.loop.end_tick}) "
                f"outside score of {base_end} ticks"
            )

    root, _ = score.key_signature
    if not 0 <= root <= 11:
        error(f"key signature root {root} outside 0..11")
    return problems


def lint(score: Score) -> list[str]:
    """Advisory musical warnings: pitches outside the key's scale and
    tritones sounding together. Nothing here stops a score being written."""
    warnings: list[str] = []
    warn = warnings.append

    root, mode = score.key_signature
    if 0 <= root <= 11 and mode is not ScaleMode.CHROMATIC:
        scale = build_scale(root, mode)
        for ev in score.events:
            if isinstance(ev, NoteEvent) and not scale.contains(ev.pitch):
                warn(
                    f"pitch {ev.pitch} at tick {ev.onset_tick} outside the "
                    f"{ScaleMode(mode).value} scale on {root}"
                )

    notes = [ev for ev in score.events if isinstance(ev, NoteEvent)]
    for i, first in enumerate(notes):
        first_end = first.onset_tick + first.duration_ticks
        j = i + 1
        while j < len(notes) and notes[j].onset_tick < first_end:
            second = notes[j]
            if is_tritone(first.pitch, second.pitch):
                warn(
                    f"tritone between pitches {first.pitch} and {second.pitch} "
                    f"sounding together at tick {second.onset_tick}"
                )
            j += 1
    return warnings


def _shifted(event: Event, by: int) -> Event:
    if by == 0:
        return event
    if isinstance(event, NoteEvent):
        return NoteEvent(
            event.onset_tick + by,
            event.duration_ticks,
            event.pitch,
            event.velocity,
            event.articulation,
        )
    return PedalEvent(event.tick + by, event.state)


def expand_loops(score: Score) -> Score:
    """Materialize the loop region as literal repeats.

    Events inside the region are copied once per repetition; events after
    it shift right by the added length. Idempotent: a score without a
    loop marker comes back unchanged. The expanded size is checked
    against ``MAX_EXPANDED_EVENTS`` before anything is copied.

    Only the unexpanded events are sorted. Each repetition's ticks lie
    after the previous one's, so emitting the events before the region,
    the repeats in order, then the shifted tail gives sorted output. An
    empty or inverted region, or a count below one, is refused.
    """
    if score.loop is None:
        return score
    start, end, count = score.loop.start_tick, score.loop.end_tick, score.loop.count
    if count < 1 or end <= start:
        raise InvalidValue(
            f"loop region [{start}, {end}) with {count} repeats cannot be expanded"
        )
    events = sorted_events(score.events)
    ticks = [event_tick(ev) for ev in events]
    first, after = bisect_left(ticks, start), bisect_left(ticks, end)
    region = events[first:after]
    expanded = len(events) + len(region) * (count - 1)
    if expanded > MAX_EXPANDED_EVENTS:
        raise InvalidValue(
            f"loop of {count} repeats would expand to {expanded} events, "
            f"above the cap of {MAX_EXPANDED_EVENTS}"
        )
    length = end - start
    out = list(events[:first])
    for i in range(count):
        out.extend([_shifted(ev, i * length) for ev in region])
    out.extend([_shifted(ev, (count - 1) * length) for ev in events[after:]])
    return replace(score, events=tuple(out), loop=None)
