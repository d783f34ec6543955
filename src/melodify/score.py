"""Score intermediate representation.

A Score is an immutable, fully deterministic timeline: note and pedal
events sorted by tick, plus the metadata a MIDI writer needs (tempo,
time signature, key signature) and an optional loop marker describing a
repeated region. Every score counts time at ``TICKS_PER_QUARTER``.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import MelodifyError, ParseError, clipped
from .theory import ScaleMode

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


class NoteEvent(NamedTuple):
    onset_tick: int
    duration_ticks: int
    pitch: int
    velocity: int
    articulation: Articulation


class PedalEvent(NamedTuple):
    tick: int
    state: PedalState


Event = Union[NoteEvent, PedalEvent]


class Loop(NamedTuple):
    """Half-open region [start_tick, end_tick) played ``count`` times."""

    start_tick: int
    end_tick: int
    count: int


class Score(NamedTuple):
    tempo_bpm: int
    time_signature: tuple[int, int]
    key_signature: tuple[int, ScaleMode]
    events: tuple[Event, ...] = ()
    loop: Loop | None = None


def _base_end_tick(events: Iterable[Event]) -> int:
    """The latest note end or pedal tick, and never below 0."""
    ends = (
        ev.onset_tick + ev.duration_ticks if type(ev) is NoteEvent else ev.tick
        for ev in events
    )
    return max(0, max(ends, default=0))


def total_duration_ticks(score: Score) -> int:
    """Ticks from zero to the last event end, loop repetitions included.
    A score it cannot read is refused with the gate's problems."""
    try:
        if score.loop is None:
            return _base_end_tick(score.events)
        start = score.loop.start_tick
        shift = (score.loop.count - 1) * (score.loop.end_tick - start)
        end = 0
        for ev in score.events:
            if type(ev) is NoteEvent:
                tick = ev.onset_tick
                ev_end = tick + ev.duration_ticks
            else:
                tick = ev_end = ev.tick
            if tick >= start:
                ev_end += shift
            end = max(end, ev_end)
        return end
    except (AttributeError, OverflowError, TypeError):
        raise _refusal(score) from None


def _refusal(score: Score) -> MelodifyError:
    """The refusal of a score that cannot be read: the gate's problems say why."""
    return MelodifyError("score fails validation: " + "; ".join(structural_errors(score)))


def structural_errors(score: Score) -> list[str]:
    """Problems that make a score unwritable; ``write_smf`` refuses any
    score with one.

    One pass over the events checks their order (by tick, with a pedal
    change before the notes at its tick), each event's types and ranges,
    and the pedal's balance. Each field must be exactly of its type: an
    ``int`` for a tick, duration, pitch or velocity (a ``bool`` or an
    integral float is not one), and an ``Articulation`` or
    ``PedalState`` member, not its str value. The score's own fields are
    held to the same rule: the tempo, both parts of the time signature,
    the key root and each ``Loop`` field are ints, the events, time and
    key signatures tuples (the signatures of two), the mode a
    ``ScaleMode`` member and the loop a ``Loop``. A field of another
    type reports only that and is left out of the range checks; an event
    of another type is also left out of the order and pedal checks, and
    the loop is then not checked. Events not held in a tuple are one
    problem, and none of them is checked. Pedal problems are listed
    after every per-event problem. A looped score passes exactly when
    its expansion would, provided its events are in order and its region
    lies inside it."""
    problems: list[str] = []
    error = problems.append

    tempo = score.tempo_bpm
    if type(tempo) is not int:
        error(f"tempo_bpm is {type(tempo).__name__}, not int")
    elif tempo < 1:
        error(f"tempo must be positive, got {clipped(tempo)}")
    else:
        # SMF stores whole microseconds per quarter in 24 bits, and
        # ``write_smf`` rounds to them.
        tempo_us = round(60_000_000 / tempo)
        if tempo_us > 0xFFFFFF:
            error(f"tempo {tempo} bpm is below 4, the slowest SMF can encode")
        elif tempo_us < 1:
            error(f"tempo {clipped(tempo)} bpm is above 119999999, the fastest SMF can encode")
    meter = _pair_errors("time_signature", score.time_signature, ("numerator", int),
                         ("denominator", int))
    if meter:
        problems += meter
    else:
        numerator, denominator = score.time_signature
        if numerator < 1 or denominator < 1 or denominator & (denominator - 1):
            error(f"bad time signature {clipped(numerator)}/{clipped(denominator)}")
        else:
            # SMF stores the numerator and log2 of the denominator in a byte each.
            if numerator > 255:
                error(f"time signature numerator {clipped(numerator)} above 255")
            if denominator.bit_length() > 256:
                error(
                    f"time signature denominator 2**{denominator.bit_length() - 1} "
                    "above 2**255"
                )

    pedal_problems: list[str] = []
    pedal_down = False
    events = score.events
    mistyped = type(events) is not tuple
    if mistyped:
        error(f"events is {type(events).__name__}, not tuple")
        events = ()
    # The previous event's sort key, (tick, 1 for a note, 0 for a pedal).
    previous_tick, previous_is_note = -math.inf, False
    for i, ev in enumerate(events):
        if type(ev) is NoteEvent:
            onset, duration, pitch, velocity, articulation = ev
            if not (type(onset) is type(duration) is type(pitch) is type(velocity) is int
                    and type(articulation) is Articulation):
                problems += _type_errors(i, ev)
                mistyped = True
                continue
            if onset < previous_tick:
                error(f"event {i} out of order (tick {clipped(onset)})")
            previous_tick, previous_is_note = onset, True
            if onset < 0:
                error(f"event {i}: negative onset {clipped(onset)}")
            if duration < 1:
                error(f"event {i}: duration must be at least 1 tick")
            if not 0 <= pitch <= 127:
                error(f"event {i}: pitch {clipped(pitch)} outside 0..127")
            if not 1 <= velocity <= 127:
                error(f"event {i}: velocity {clipped(velocity)} outside 1..127")
        elif type(ev) is PedalEvent and type(ev[0]) is int and type(ev[1]) is PedalState:
            tick, state = ev
            if tick < previous_tick or (previous_is_note and tick == previous_tick):
                error(f"event {i} out of order (tick {clipped(tick)})")
            previous_tick, previous_is_note = tick, False
            if tick < 0:
                error(f"event {i}: negative pedal tick {clipped(tick)}")
            if state is PedalState.DOWN:
                if pedal_down:
                    pedal_problems.append("pedal pressed twice without a release")
                pedal_down = True
            else:
                if not pedal_down:
                    pedal_problems.append("pedal released without a press")
                pedal_down = False
        else:
            problems += _type_errors(i, ev)
            mistyped = True
    problems += pedal_problems
    if pedal_down:
        error("pedal left pressed at end of score")

    loop = score.loop
    if loop is None:
        pass
    elif type(loop) is not Loop:
        error(f"loop is {type(loop).__name__}, not Loop")
    elif not type(loop[0]) is type(loop[1]) is type(loop[2]) is int:
        problems += [
            f"loop {name} is {type(value).__name__}, not int"
            for name, value in zip(Loop._fields, loop)
            if type(value) is not int
        ]
    elif not mistyped:
        start, end, count = loop
        base_end = _base_end_tick(events)
        region = f"loop region [{clipped(start)}, {clipped(end)})"
        if count < 1:
            error(f"loop count must be positive, got {clipped(count)}")
        if not 0 <= start < end <= max(base_end, 1):
            error(f"{region} outside score of {clipped(base_end)} ticks")
        # Each repeat finds the pedal as the one before it left it.
        if count > 1 and _pedal_down_before(events, start) != _pedal_down_before(events, end):
            error(f"{region} changes the pedal, so a repeat would press or release it twice")

    key = _pair_errors("key_signature", score.key_signature, ("root", int),
                       ("mode", ScaleMode))
    if key:
        problems += key
    elif not 0 <= score.key_signature[0] <= 11:
        error(f"key signature root {clipped(score.key_signature[0])} outside 0..11")
    return problems


def _pair_errors(field: str, pair: object, *parts: tuple[str, type]) -> list[str]:
    """A problem if the score's ``field`` is not a tuple of two, else one
    for each part not exactly of its type."""
    if type(pair) is not tuple:
        return [f"{field} is {type(pair).__name__}, not tuple"]
    if len(pair) != 2:
        return [f"{field} has {len(pair)} parts, not 2"]
    return [
        f"{field} {name} is {type(value).__name__}, not {kind.__name__}"
        for (name, kind), value in zip(parts, pair)
        if type(value) is not kind
    ]


def _type_errors(i: int, ev: Event) -> list[str]:
    """A problem for each field of event ``i`` not exactly of its type: an
    ``int`` for a number (a ``bool`` is not one), an enum member for the
    articulation or pedal state. An event that is neither record is one
    problem."""
    if type(ev) is NoteEvent:
        enum = Articulation
    elif type(ev) is PedalEvent:
        enum = PedalState
    else:
        return [f"event {i} is {type(ev).__name__}, not NoteEvent or PedalEvent"]
    return [
        f"event {i}: {name} is {type(value).__name__}, not {kind.__name__}"
        for name, value, kind in zip(ev._fields, ev, (*(int,) * (len(ev) - 1), enum))
        if type(value) is not kind
    ]


def _pedal_down_before(events: Iterable[Event], tick: int) -> bool:
    """Whether the last pedal event before ``tick`` pressed the pedal."""
    down = False
    for ev in events:
        if type(ev) is PedalEvent and ev.tick < tick:
            down = ev.state is PedalState.DOWN
    return down


def loop_region(events: Sequence[Event], loop: Loop) -> tuple[int, int]:
    """Indices ``[first, after)`` of the sorted ``events`` that lie in the
    loop region, once the score as played is known to stay within
    ``MAX_EXPANDED_EVENTS``: past the cap, a ``ParseError`` refuses the
    loop before anything is built from it."""
    ticks = [ev[0] for ev in events]  # every event's tick is its field 0
    first, after = bisect_left(ticks, loop.start_tick), bisect_left(ticks, loop.end_tick)
    expanded = len(events) + (after - first) * (loop.count - 1)
    if expanded > MAX_EXPANDED_EVENTS:
        raise ParseError(
            f"loop of {clipped(loop.count)} repeats would expand to "
            f"{clipped(expanded)} events, above the cap of {MAX_EXPANDED_EVENTS}"
        )
    return first, after


def expand_loops(score: Score) -> Score:
    """Materialize the loop region as literal repeats: the score as
    played, for inspection and for counting what it plays. ``write_smf``
    and the gate take the looped score itself.

    Events inside the region are copied once per repetition; events after
    it shift right by the added length. Idempotent: a score without a
    loop marker comes back unchanged. The expanded size is checked
    against ``MAX_EXPANDED_EVENTS`` before anything is copied.

    Only the unexpanded events are sorted. Each repetition's ticks lie
    after the previous one's, so emitting the events before the region,
    the repeats in order, then the shifted tail gives sorted output.

    A score past the cap is a user error (``E_PARSE``). An empty or
    inverted region, or a count below one, is ``E_INTERNAL``: the spec
    parser rejects such a count and ``melodify`` never builds such a
    region, so reaching it is a bug. So is a loop or event the expansion
    cannot read, such as a tick given as a str or a float tick that the
    repeats push past float range: the gate's problems say why.
    """
    if score.loop is None:
        return score
    try:
        start, end, count = score.loop.start_tick, score.loop.end_tick, score.loop.count
        if count < 1 or end <= start:
            raise MelodifyError(
                f"loop region [{clipped(start)}, {clipped(end)}) with {clipped(count)} "
                "repeats cannot be expanded"
            )
        events = sorted(score.events, key=lambda ev: (
            (ev.onset_tick, 1) if isinstance(ev, NoteEvent) else (ev.tick, 0)))
        first, after = loop_region(events, score.loop)
        region = events[first:after]
        length = end - start
        # Repeat 0 is the region's own events. Every record's tick is its
        # field 0, so a copy is (tick + shift,) + the rest of its fields. A
        # NamedTuple's __new__ only packs its fields and checks nothing, so
        # tuple.__new__ builds the same record without a Python frame.
        new = tuple.__new__
        split = [(type(ev), ev[0], ev[1:]) for ev in region]
        out = events[:after]
        if split:  # an empty region adds nothing, however many its repeats
            for shift in range(length, count * length, length):
                out += [new(cls, (tick + shift,) + rest) for cls, tick, rest in split]
        shift = (count - 1) * length
        out += [new(type(ev), (ev[0] + shift,) + ev[1:]) for ev in events[after:]]
        return score._replace(events=tuple(out), loop=None)
    except (AttributeError, OverflowError, TypeError):
        raise _refusal(score) from None
