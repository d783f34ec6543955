"""Standard MIDI File (format 0) serialization.

One header chunk, one track chunk, no running status: every event
carries its own status byte, which keeps the output trivially seekable
and byte-stable. A plain-text dump provides a diffable rendering of a
score for golden tests. The strict reader that serves as a round-trip
oracle lives in ``smf_reader``; its names resolve here on first use.
"""
from __future__ import annotations

import math
import struct
from heapq import heappop, heappush
from itertools import islice
from operator import itemgetter
from typing import Sequence

from .errors import clipped
from .score import (
    TICKS_PER_QUARTER,
    Articulation,
    Event,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    loop_region,
    structural_errors,
    validation_error,
)
from .theory import ScaleMode

VLQ_LIMIT = 1 << 28

# Fewest events for which ``write_smf`` caches the bytes of repeated
# chords; below it, keying each chord costs more than the copies save.
CHORD_CACHE_MIN_EVENTS = 256

# Fraction of the written duration that actually sounds.
GATE_BY_ARTICULATION = {
    Articulation.NORMAL: 0.85,
    Articulation.STACCATO: 0.5,
    Articulation.LEGATO: 1.0,
}

SUSTAIN_CONTROLLER = 64

# Every file plays General MIDI program 0 (acoustic grand) on channel 0.
CHANNEL = 0
PROGRAM = 0

META_TEMPO = 0x51
META_TIME_SIGNATURE = 0x58
META_KEY_SIGNATURE = 0x59
META_END_OF_TRACK = 0x2F


def encode_vlq(value: int) -> bytes:
    """Variable-length quantity: big-endian base-128 groups, continuation
    bit on every byte but the last, shortest form only."""
    if value < 0 or value >= VLQ_LIMIT:
        raise OverflowError(f"value {value} outside the 28-bit VLQ range")
    groups = [value & 0x7F]
    value >>= 7
    while value:
        groups.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(groups))


def key_signature_bytes(root: int, mode: ScaleMode) -> bytes:
    """Accidental count on the circle of fifths plus the minor flag.

    A chromatic key is written as C major, the neutral signature.
    """
    if mode is ScaleMode.CHROMATIC:
        return struct.pack(">bB", 0, 0)
    major_root = root if mode is ScaleMode.MAJOR else (root + 3) % 12
    sharps = (7 * major_root) % 12
    if sharps > 6:
        sharps -= 12
    return struct.pack(">bB", sharps, 1 if mode is ScaleMode.NATURAL_MINOR else 0)


# Both chunk headers; the track's length is filled in once it is written.
_HEADER = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER) + b"MTrk\0\0\0\0"
_TEMPO = bytes([0, 0xFF, META_TEMPO, 0x03])
_PROGRAM_CHANGE = bytes([0, 0xC0 | CHANNEL, PROGRAM])
_END_OF_TRACK = bytes([0, 0xFF, META_END_OF_TRACK, 0x00])
_NOTE_ON = bytes([0x90 | CHANNEL])
_NOTE_OFF = tuple(bytes([0x80 | CHANNEL, pitch, 0]) for pitch in range(128))
_PEDAL = {
    PedalState.DOWN: bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, 127]),
    PedalState.UP: bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, 0]),
}
# Past every event: ``write_smf`` walks it last to flush the note-offs.
_END = PedalEvent(math.inf, PedalState.UP)
_ACCENT = Articulation.ACCENT
_RECORD = itemgetter(slice(1, None))  # an event's fields after its tick


def require_valid(score: Score) -> None:
    """Refuse a score with ``structural_errors``: the gate every output
    passes before a file is written. ``write_smf`` runs it itself."""
    problems = structural_errors(score)
    if problems:
        raise validation_error(problems)


def _long_delta(delta: int) -> bytes:
    """The VLQ of a delta-time of 2**14 ticks or more. A gap of 2**28
    ticks or more between two messages refuses the score: only the
    encoder knows when each note-off falls, so the gate leaves it here."""
    if delta >= VLQ_LIMIT:
        raise validation_error([f"{clipped(delta)} ticks between two messages, above "
                                f"the {VLQ_LIMIT - 1} a delta-time can hold"])
    return encode_vlq(delta)


def _encode(
    out: bytearray,
    pending: list[tuple[int, int, int]],
    cursor: int,
    events: Sequence[Event],
    shift: int,
    index: int,
    gate: float,
    chords: dict | None,
) -> tuple[int, float]:
    """Append ``events``, each played ``shift`` ticks late, to ``out`` and
    return the tick of the last message written and the gate then.

    ``cursor`` is the tick of the message before them, ``index`` the
    first event's index in the score as played, and ``gate`` the fraction
    of its written length the last plainly articulated note held. Each
    note sounds ``int(gate * duration) or 1`` ticks at its own
    articulation's gate; an accent keeps the one before it. Note-offs
    wait in the ``pending`` heap, keyed (off tick, event index, pitch),
    and leave it before a pedal at a later tick or a note-on at the same
    or a later tick; ``_END`` flushes the rest. A delta below 2**14 is
    written inline as its one- or two-byte VLQ, with no function call
    per message; ``_long_delta`` writes longer ones.

    ``chords``, when given, caches the bytes of a chord: two or more
    notes at one onset, met with no note-off pending and followed by
    another event in ``events``. When every note-off of such a chord
    leaves the heap before that next event, its bytes (the delta, the
    note-ons and the note-offs) depend only on the delta from the
    cursor, the gate and its records after the tick (``ev[1:]``). Its
    first occurrence is encoded as any other notes and its bytes are
    then kept under that key, with the cursor and gate after it; a
    later chord with the same key copies them and skips its notes. The
    gate has checked that every field is exactly an int or a member, so
    equal keys mean equal bytes.
    """
    append = out.append
    first, last = index, len(events) - 1
    # A chord met for the first time: its key, start in ``out`` and tick,
    # and the index of the event after it, where its bytes are kept if
    # its note-offs have all been written.
    chord, chord_end = None, -1
    walk = enumerate(events, index)
    for index, ev in walk:
        tick = due = ev[0] + shift
        is_note = type(ev) is NoteEvent
        if is_note:
            due += 1  # a note-off at the note-on's own tick goes first
        while pending and pending[0][0] < due:
            off, _, pitch = heappop(pending)
            delta = off - cursor
            if delta < 0x80:
                append(delta)
            elif delta < 0x4000:
                append(0x80 | delta >> 7)
                append(delta & 0x7F)
            else:
                out += _long_delta(delta)
            out += _NOTE_OFF[pitch]
            cursor = off
        if index == chord_end:
            if not pending:  # the chord's note-offs all came before this event
                key, mark, chord_tick = chord
                chords[key] = out[mark:], cursor - chord_tick, gate
            chord_end = -1
        if ev is _END:
            break
        if is_note and not pending and chords is not None:
            at = index - first
            onset = ev[0]
            if at < last and events[at + 1][0] == onset:
                after = at + 2
                while after <= last and events[after][0] == onset:
                    after += 1
                if after <= last:
                    key = tick - cursor, gate, tuple(map(_RECORD, events[at:after]))
                    cached = chords.get(key)
                    if cached is None:
                        chord, chord_end = (key, len(out), tick), first + after
                    else:
                        body, held, gate_then = cached
                        nxt = events[after]
                        if tick + held < nxt[0] + shift + (type(nxt) is NoteEvent):
                            out += body
                            cursor, gate = tick + held, gate_then
                            skip = after - at - 1  # the chord's other notes
                            next(islice(walk, skip, skip), None)
                            continue
        delta = tick - cursor
        if delta < 0x80:
            append(delta)
        elif delta < 0x4000:
            append(0x80 | delta >> 7)
            append(delta & 0x7F)
        else:
            out += _long_delta(delta)
        cursor = tick
        if is_note:
            _, duration, pitch, velocity, articulation = ev
            if articulation is not _ACCENT:
                gate = GATE_BY_ARTICULATION[articulation]
            out += _NOTE_ON
            append(pitch)
            append(velocity)
            heappush(pending, (tick + (int(gate * duration) or 1), index, pitch))
        else:
            out += _PEDAL[ev[1]]
    return cursor, gate


def write_smf(score: Score) -> bytes:
    """Serialize a structurally valid score to SMF format 0, as played.

    A looped score gives the same bytes as ``write_smf(expand_loops(score))``
    without building or walking the copies. Messages sharing a tick go
    meta, pedal, note-off, note-on, each group in score order.

    One walk writes the events before the loop region, then the region
    once per repeat, then the rest. It carries the gate of the last
    plainly articulated note, so an accent borrows the gate of the
    nearest plain note before it as played. The gate starts as the first
    plain note's, which an accent before every plain note borrows, or
    the normal gate when every note is an accent. At each seam before a
    repeat the encoder's state is taken relative to the seam: the last
    message's tick, the pending note-offs and the gate. Once two seams
    in a row match, every later repeat writes the bytes of the one just
    written, so those bytes are repeated and the state is shifted by
    arithmetic. A loop-free score is all "before". The score passes
    ``structural_errors`` and the ``MAX_EXPANDED_EVENTS`` cap
    (``loop_region``) before any bytes are built; a gap of 2**28 ticks
    or more between two messages, which no delta-time can hold, or a
    duration or loop length past float range, refuses it as it is met.

    A score of ``CHORD_CACHE_MIN_EVENTS`` events or more also encodes
    each repeated chord once (see ``_encode``): a bar chart is thousands
    of copies of a few chords. Every part of the walk shares one cache,
    and the bytes are the same as without it.
    """
    require_valid(score)
    events, loop = score.events, score.loop
    first, after = (len(events),) * 2 if loop is None else loop_region(events, loop)
    before, region, tail = events[:first], events[first:after], events[after:]
    gate = GATE_BY_ARTICULATION[Articulation.NORMAL]  # if every note is an accent
    for ev in events:
        if type(ev) is NoteEvent and ev[4] is not _ACCENT:
            gate = GATE_BY_ARTICULATION[ev[4]]
            break

    numerator, denominator = score.time_signature
    root, mode = score.key_signature

    out = bytearray(_HEADER)
    out += _TEMPO
    out += round(60_000_000 / score.tempo_bpm).to_bytes(3, "big")
    out += bytes([0, 0xFF, META_TIME_SIGNATURE, 0x04, numerator,
                  denominator.bit_length() - 1, 24, 8, 0, 0xFF, META_KEY_SIGNATURE, 0x02])
    out += key_signature_bytes(root, mode)
    out += _PROGRAM_CHANGE

    pending: list[tuple[int, int, int]] = []  # (off tick, event index, pitch)
    chords = {} if len(events) >= CHORD_CACHE_MIN_EVENTS else None
    try:
        cursor, gate = _encode(out, pending, 0, before, 0, 0, gate, chords)
        shift = added = 0  # ticks and events the repeats put before the tail
        if loop is not None:
            length, size, count = loop.end_tick - loop.start_tick, len(region), loop.count
            shift, added = (count - 1) * length, (count - 1) * size
        if region:  # only a loop has one; an empty one writes nothing
            seam = None
            for r in range(count):
                tick, index = r * length, first + r * size
                state = cursor - tick, gate, sorted(
                    (off - tick, i - index, pitch) for off, i, pitch in pending
                )
                if state == seam:
                    # Repeat r - 1 left the encoder as it found it, so every
                    # repeat from r on writes the same bytes.
                    skip = count - r
                    out += out[mark:] * skip
                    cursor += skip * length
                    pending[:] = [
                        (off + skip * length, i + skip * size, pitch)
                        for off, i, pitch in pending
                    ]
                    break
                seam, mark = state, len(out)
                cursor, gate = _encode(out, pending, cursor, region, tick, index, gate, chords)
        _encode(out, pending, cursor, (*tail, _END), shift, after + added, gate, chords)
    except OverflowError:
        # Each note's sounding length is a float times its duration, and
        # the flush past the last event is a float tick plus the ticks
        # the repeats add: only a number past float range lands here.
        raise validation_error(["a duration or a loop's added length past float range "
                                "(about 2**1024 ticks) cannot be encoded"]) from None
    out += _END_OF_TRACK

    struct.pack_into(">I", out, len(_HEADER) - 4, len(out) - len(_HEADER))
    return bytes(out)


# An enum's ``.value`` is a property; a dict lookup hashes the str.
_ARTICULATION_TEXT = {articulation: articulation.value for articulation in Articulation}


def write_text_score(score: Score) -> str:
    """Line-per-event dump: headers, then ``tick pitch dur vel art`` for
    notes and ``tick PEDAL state`` for pedal changes. UTF-8, LF ends.

    The text is one join of pieces, each ending its line or starting
    one. A note's onset is formatted once per onset object and reused
    while the next note's onset is that same object, so ``480`` and
    ``480.0`` never share a text. The text after it is formatted once
    per distinct record after the tick (``ev[1:]``) and looked up for
    every repeat of it. A record with a field that is not exactly an int
    is formatted on its own: ``480.0`` equals ``480`` and ``True`` equals
    ``1`` as dict keys, but each prints as itself.

    A score that formats is written without the gate. One that does not,
    such as a mode given as ``"major"``, raises ``MelodifyError`` with
    the gate's problems, or, if the gate finds none, with its largest
    int, which is past Python's int-to-str digit limit
    (``sys.get_int_max_str_digits()``, 4300 digits by default)."""
    try:
        numerator, denominator = score.time_signature
        root, mode = score.key_signature
        pieces = [
            f"tpq {TICKS_PER_QUARTER}\n"
            f"tempo {score.tempo_bpm}\n"
            f"time {numerator}/{denominator}\n"
            f"key {root} {mode.value}\n"
        ]
        if score.loop is not None:
            pieces.append(
                f"loop {score.loop.start_tick} {score.loop.end_tick} {score.loop.count}\n"
            )
        append = pieces.append
        tails: dict[tuple, str] = {}
        last_onset, last_text = object(), ""  # an onset no event has
        for ev in score.events:
            if type(ev) is not NoteEvent:
                append(f"{ev.tick} PEDAL {ev.state.value}\n")
                continue
            onset, duration, pitch, velocity, articulation = ev
            if onset is not last_onset:
                last_onset, last_text = onset, f"{onset}"
            append(last_text)
            if type(duration) is int and type(pitch) is int and type(velocity) is int:
                record = ev[1:]
                tail = tails.get(record)
                if tail is None:
                    tail = tails[record] = (
                        f" {pitch} {duration} {velocity} {_ARTICULATION_TEXT[articulation]}\n"
                    )
            else:
                tail = f" {pitch} {duration} {velocity} {_ARTICULATION_TEXT[articulation]}\n"
            append(tail)
        return "".join(pieces)
    except (AttributeError, KeyError, TypeError, ValueError):
        problems = structural_errors(score)
        if not problems:
            # The gate bounds every field but the loop's and each event's
            # ticks and duration: the largest int is one str() refuses.
            ints = [*(score.loop or ()), *(n for ev in score.events for n in ev if type(n) is int)]
            problems = [f"{clipped(max(ints))} is past the int-to-str digit limit"]
    raise validation_error(problems)


_READER_NAMES = frozenset({"ParsedNote", "ParsedSmf", "parse_smf_minimal"})


def __getattr__(name: str):
    # No command reads MIDI, so the reader is imported only when asked for.
    if name in _READER_NAMES:
        from . import smf_reader

        return getattr(smf_reader, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
