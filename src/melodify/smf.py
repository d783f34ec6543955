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
from typing import Sequence

from .errors import MelodifyError
from .score import (
    TICKS_PER_QUARTER,
    Articulation,
    NoteEvent,
    PedalState,
    Score,
    structural_errors,
)
from .theory import ScaleMode

VLQ_LIMIT = 1 << 28

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


def sounding_durations(notes: Sequence[NoteEvent]) -> list[int]:
    """Ticks each note actually holds once its articulation gate applies.

    An accent borrows its gate from the nearest plainly articulated note
    before it, or from the first one after it when none comes before; a
    run of accents alone plays at the normal gate.
    """
    accent, gates = Articulation.ACCENT, GATE_BY_ARTICULATION
    gate = next(
        (gates[n.articulation] for n in notes if n.articulation is not accent),
        gates[Articulation.NORMAL],
    )
    held = []
    for n in notes:
        if n.articulation is not accent:
            gate = gates[n.articulation]
        held.append(int(gate * n.duration_ticks) or 1)  # at least one tick
    return held


_NOTE_ON = bytes([0x90 | CHANNEL])
_NOTE_OFF = tuple(bytes([0x80 | CHANNEL, pitch, 0]) for pitch in range(128))
_PEDAL = {
    PedalState.DOWN: bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, 127]),
    PedalState.UP: bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, 0]),
}


def require_valid(score: Score) -> None:
    """Refuse a score with ``structural_errors``: the gate every output
    passes before a file is written. ``write_smf`` runs it itself."""
    problems = structural_errors(score)
    if problems:
        raise MelodifyError("score fails validation: " + "; ".join(problems))


def write_smf(score: Score) -> bytes:
    """Serialize a loop-free, structurally valid score to SMF format 0.

    Messages sharing a tick go meta, pedal, note-off, note-on, each group
    in score order. The events are walked once, in the order
    ``structural_errors`` guarantees; note-offs wait in a heap keyed
    (off tick, event index) and leave it before a pedal at a later tick
    or a note-on at the same or a later tick. A delta time below 2**14
    is written inline as its one- or two-byte VLQ; ``encode_vlq`` writes
    longer ones.
    """
    if score.loop is not None:
        raise MelodifyError("expand the score's loop before writing MIDI")
    require_valid(score)

    tempo_us = round(60_000_000 / score.tempo_bpm)
    numerator, denominator = score.time_signature
    root, mode = score.key_signature

    out = bytearray(b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER))
    out += b"MTrk\0\0\0\0"  # length filled in once the track is written
    track_start = len(out)
    out += bytes([0, 0xFF, META_TEMPO, 0x03]) + struct.pack(">I", tempo_us)[1:]
    out += bytes([0, 0xFF, META_TIME_SIGNATURE, 0x04, numerator,
                  denominator.bit_length() - 1, 24, 8])
    out += bytes([0, 0xFF, META_KEY_SIGNATURE, 0x02]) + key_signature_bytes(root, mode)
    out += bytes([0, 0xC0 | CHANNEL, PROGRAM])

    append = out.append
    pending: list[tuple[int, int, int]] = []  # (off tick, event index, pitch)
    cursor = 0

    def write_delta(tick: int) -> None:
        nonlocal cursor
        delta = tick - cursor
        if delta < 0x80:
            append(delta)
        elif delta < 0x4000:
            append(0x80 | delta >> 7)
            append(delta & 0x7F)
        else:
            out.extend(encode_vlq(delta))
        cursor = tick

    def release_before(due: float) -> None:
        while pending and pending[0][0] < due:
            tick, _, pitch = heappop(pending)
            write_delta(tick)
            out.extend(_NOTE_OFF[pitch])

    notes = [ev for ev in score.events if type(ev) is NoteEvent]
    held = iter(sounding_durations(notes))
    for index, ev in enumerate(score.events):
        if type(ev) is NoteEvent:
            tick = ev.onset_tick
            release_before(tick + 1)
            write_delta(tick)
            out += _NOTE_ON
            append(ev.pitch)
            append(ev.velocity)
            heappush(pending, (tick + next(held), index, ev.pitch))
        else:
            release_before(ev.tick)
            write_delta(ev.tick)
            out += _PEDAL[ev.state]
    release_before(math.inf)
    out += bytes([0, 0xFF, META_END_OF_TRACK, 0x00])

    struct.pack_into(">I", out, track_start - 4, len(out) - track_start)
    return bytes(out)


# An enum's ``.value`` is a property; a dict lookup hashes the str.
_ARTICULATION_TEXT = {articulation: articulation.value for articulation in Articulation}


def write_text_score(score: Score) -> str:
    """Line-per-event dump: headers, then ``tick pitch dur vel art`` for
    notes and ``tick PEDAL state`` for pedal changes. UTF-8, LF ends."""
    numerator, denominator = score.time_signature
    root, mode = score.key_signature
    lines = [
        f"tpq {TICKS_PER_QUARTER}",
        f"tempo {score.tempo_bpm}",
        f"time {numerator}/{denominator}",
        f"key {root} {mode.value}",
    ]
    if score.loop is not None:
        lines.append(
            f"loop {score.loop.start_tick} {score.loop.end_tick} {score.loop.count}"
        )
    for ev in score.events:
        if type(ev) is NoteEvent:
            onset, duration, pitch, velocity, articulation = ev
            lines.append(
                f"{onset} {pitch} {duration} {velocity} {_ARTICULATION_TEXT[articulation]}"
            )
        else:
            lines.append(f"{ev.tick} PEDAL {ev.state.value}")
    return "\n".join(lines) + "\n"


_READER_NAMES = frozenset({"ParsedNote", "ParsedSmf", "parse_smf_minimal"})


def __getattr__(name: str):
    # No command reads MIDI, so the reader is imported only when asked for.
    if name in _READER_NAMES:
        from . import smf_reader

        return getattr(smf_reader, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
