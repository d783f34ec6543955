"""Standard MIDI File (format 0) serialization.

One header chunk, one track chunk, no running status: every event
carries its own status byte, which keeps the output trivially seekable
and byte-stable. A strict reader for the same subset serves as a
round-trip oracle, and a plain-text dump provides a diffable rendering
of a score for golden tests.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .errors import MalformedSmf, StructuralViolation, UnexpandedLoop
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


# Shared encodings: a delta below 128 is its own one-byte VLQ.
_SHORT_VLQ = tuple(bytes([delta]) for delta in range(128))
_NOTE_ON = bytes([0x90 | CHANNEL])
_NOTE_OFF = tuple(bytes([0x80 | CHANNEL, pitch, 0]) for pitch in range(128))
_PEDAL = {
    PedalState.DOWN: bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, 127]),
    PedalState.UP: bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, 0]),
}


def write_smf(score: Score) -> bytes:
    """Serialize a loop-free, structurally valid score to SMF format 0.

    Messages sharing a tick go meta, pedal, note-off, note-on, each group
    in score order. The events are walked once, in the order
    ``structural_errors`` guarantees; note-offs wait in a heap keyed
    (off tick, event index) and leave it before a pedal at a later tick
    or a note-on at the same or a later tick.
    """
    if score.loop is not None:
        raise UnexpandedLoop("expand the score's loop before writing MIDI")
    problems = structural_errors(score)
    if problems:
        raise StructuralViolation(
            "score fails validation: " + "; ".join(problems)
        )

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

    def release_before(due: float) -> None:
        nonlocal cursor
        while pending and pending[0][0] < due:
            tick, _, pitch = heappop(pending)
            delta = tick - cursor
            out.extend(_SHORT_VLQ[delta] if delta < 128 else encode_vlq(delta))
            out.extend(_NOTE_OFF[pitch])
            cursor = tick

    notes = [ev for ev in score.events if isinstance(ev, NoteEvent)]
    held = iter(sounding_durations(notes))
    for index, ev in enumerate(score.events):
        if isinstance(ev, NoteEvent):
            tick = ev.onset_tick
            release_before(tick + 1)
        else:
            tick = ev.tick
            release_before(tick)
        delta = tick - cursor
        out += _SHORT_VLQ[delta] if delta < 128 else encode_vlq(delta)
        cursor = tick
        if isinstance(ev, NoteEvent):
            out += _NOTE_ON
            append(ev.pitch)
            append(ev.velocity)
            heappush(pending, (tick + next(held), index, ev.pitch))
        else:
            out += _PEDAL[ev.state]
    release_before(math.inf)
    out += bytes([0, 0xFF, META_END_OF_TRACK, 0x00])

    struct.pack_into(">I", out, track_start - 4, len(out) - track_start)
    return bytes(out)


@dataclass(frozen=True)
class ParsedNote:
    onset_tick: int
    duration_ticks: int
    pitch: int
    velocity: int


@dataclass(frozen=True)
class ParsedSmf:
    ticks_per_quarter: int
    tempo_us: int | None
    time_signature: tuple[int, int] | None
    key_signature: tuple[int, int] | None
    notes: tuple[ParsedNote, ...]
    pedals: tuple[tuple[int, PedalState], ...]


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise MalformedSmf("unexpected end of data")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            b = self.byte()
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise MalformedSmf("variable-length quantity longer than 4 bytes")


def parse_smf_minimal(data: bytes) -> ParsedSmf:
    """Strict reader for the files this package writes.

    Rejects anything outside the expected subset (format 0, one track,
    explicit status bytes) so tests can trust a successful parse.
    """
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise MalformedSmf("missing MThd magic")
    header_length, fmt, n_tracks, division = struct.unpack(">IHHH", reader.take(10))
    if header_length != 6:
        raise MalformedSmf(f"header length {header_length}, expected 6")
    if fmt != 0 or n_tracks != 1:
        raise MalformedSmf(f"expected format 0 with 1 track, got {fmt}/{n_tracks}")
    if division & 0x8000:
        raise MalformedSmf("SMPTE divisions not supported")
    if reader.take(4) != b"MTrk":
        raise MalformedSmf("missing MTrk magic")
    (track_length,) = struct.unpack(">I", reader.take(4))
    track_end = reader.pos + track_length
    if track_end > len(data):
        raise MalformedSmf("track chunk longer than the file")

    tempo_us = None
    time_signature = None
    key_signature = None
    notes: list[ParsedNote] = []
    pedals: list[tuple[int, PedalState]] = []
    open_notes: dict[int, list[tuple[int, int]]] = {}
    tick = 0
    ended = False

    while not ended:
        if reader.pos >= track_end:
            raise MalformedSmf("track ended without an end-of-track meta")
        tick += reader.vlq()
        status = reader.byte()
        if status < 0x80:
            raise MalformedSmf(f"running status byte {status:#x} not supported")
        kind = status & 0xF0
        if status == 0xFF:
            meta = reader.byte()
            length = reader.vlq()
            payload = reader.take(length)
            if meta == META_END_OF_TRACK:
                ended = True
            elif meta == META_TEMPO:
                if length != 3:
                    raise MalformedSmf("tempo meta must carry 3 bytes")
                tempo_us = int.from_bytes(payload, "big")
            elif meta == META_TIME_SIGNATURE:
                if length != 4:
                    raise MalformedSmf("time signature meta must carry 4 bytes")
                time_signature = (payload[0], 1 << payload[1])
            elif meta == META_KEY_SIGNATURE:
                if length != 2:
                    raise MalformedSmf("key signature meta must carry 2 bytes")
                sf = struct.unpack(">b", payload[:1])[0]
                key_signature = (sf, payload[1])
            else:
                raise MalformedSmf(f"unexpected meta type {meta:#x}")
        elif kind == 0x90:
            pitch, velocity = reader.byte(), reader.byte()
            if velocity == 0:
                _close_note(open_notes, notes, pitch, tick)
            else:
                open_notes.setdefault(pitch, []).append((tick, velocity))
        elif kind == 0x80:
            pitch, _ = reader.byte(), reader.byte()
            _close_note(open_notes, notes, pitch, tick)
        elif kind == 0xB0:
            controller, value = reader.byte(), reader.byte()
            if controller != SUSTAIN_CONTROLLER:
                raise MalformedSmf(f"unexpected controller {controller}")
            pedals.append((tick, PedalState.DOWN if value >= 64 else PedalState.UP))
        elif kind == 0xC0:
            reader.byte()
        else:
            raise MalformedSmf(f"unexpected status byte {status:#x}")

    if reader.pos != track_end:
        raise MalformedSmf("track length does not match its contents")
    if reader.pos != len(data):
        raise MalformedSmf("trailing bytes after the track chunk")
    if any(open_notes.values()):
        raise MalformedSmf("note on without a matching note off")

    return ParsedSmf(
        ticks_per_quarter=division,
        tempo_us=tempo_us,
        time_signature=time_signature,
        key_signature=key_signature,
        notes=tuple(notes),
        pedals=tuple(pedals),
    )


def _close_note(
    open_notes: dict[int, list[tuple[int, int]]],
    notes: list[ParsedNote],
    pitch: int,
    tick: int,
) -> None:
    stack = open_notes.get(pitch)
    if not stack:
        raise MalformedSmf(f"note off for pitch {pitch} with no open note")
    onset, velocity = stack.pop(0)
    notes.append(ParsedNote(onset, tick - onset, pitch, velocity))


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
        if isinstance(ev, NoteEvent):
            lines.append(
                f"{ev.onset_tick} {ev.pitch} {ev.duration_ticks} "
                f"{ev.velocity} {ev.articulation.value}"
            )
        else:
            lines.append(f"{ev.tick} PEDAL {ev.state.value}")
    return "\n".join(lines) + "\n"
