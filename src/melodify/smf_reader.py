"""Strict reader for the Standard MIDI Files that ``smf.write_smf`` writes.

The tests and the benchmark's output check use it as a round-trip
oracle; no command runs it, so it lives apart from the writer and is
loaded only when asked for (``melodify.smf`` still resolves its names).
"""
from __future__ import annotations

import struct
from typing import NamedTuple

from .errors import MelodifyError
from .score import PedalState
from .smf import (
    META_END_OF_TRACK,
    META_KEY_SIGNATURE,
    META_TEMPO,
    META_TIME_SIGNATURE,
    SUSTAIN_CONTROLLER,
)


class ParsedNote(NamedTuple):
    onset_tick: int
    duration_ticks: int
    pitch: int
    velocity: int


class ParsedSmf(NamedTuple):
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
            raise MelodifyError("unexpected end of data")
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
        raise MelodifyError("variable-length quantity longer than 4 bytes")


def parse_smf_minimal(data: bytes) -> ParsedSmf:
    """Strict reader for the files this package writes.

    Rejects anything outside the expected subset (format 0, one track,
    explicit status bytes) so tests can trust a successful parse.
    """
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise MelodifyError("missing MThd magic")
    header_length, fmt, n_tracks, division = struct.unpack(">IHHH", reader.take(10))
    if header_length != 6:
        raise MelodifyError(f"header length {header_length}, expected 6")
    if fmt != 0 or n_tracks != 1:
        raise MelodifyError(f"expected format 0 with 1 track, got {fmt}/{n_tracks}")
    if division & 0x8000:
        raise MelodifyError("SMPTE divisions not supported")
    if reader.take(4) != b"MTrk":
        raise MelodifyError("missing MTrk magic")
    (track_length,) = struct.unpack(">I", reader.take(4))
    track_end = reader.pos + track_length
    if track_end > len(data):
        raise MelodifyError("track chunk longer than the file")

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
            raise MelodifyError("track ended without an end-of-track meta")
        tick += reader.vlq()
        status = reader.byte()
        if status < 0x80:
            raise MelodifyError(f"running status byte {status:#x} not supported")
        kind = status & 0xF0
        if status == 0xFF:
            meta = reader.byte()
            length = reader.vlq()
            payload = reader.take(length)
            if meta == META_END_OF_TRACK:
                ended = True
            elif meta == META_TEMPO:
                if length != 3:
                    raise MelodifyError("tempo meta must carry 3 bytes")
                tempo_us = int.from_bytes(payload, "big")
            elif meta == META_TIME_SIGNATURE:
                if length != 4:
                    raise MelodifyError("time signature meta must carry 4 bytes")
                time_signature = (payload[0], 1 << payload[1])
            elif meta == META_KEY_SIGNATURE:
                if length != 2:
                    raise MelodifyError("key signature meta must carry 2 bytes")
                sf = struct.unpack(">b", payload[:1])[0]
                key_signature = (sf, payload[1])
            else:
                raise MelodifyError(f"unexpected meta type {meta:#x}")
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
                raise MelodifyError(f"unexpected controller {controller}")
            pedals.append((tick, PedalState.DOWN if value >= 64 else PedalState.UP))
        elif kind == 0xC0:
            reader.byte()
        else:
            raise MelodifyError(f"unexpected status byte {status:#x}")

    if reader.pos != track_end:
        raise MelodifyError("track length does not match its contents")
    if reader.pos != len(data):
        raise MelodifyError("trailing bytes after the track chunk")
    if any(open_notes.values()):
        raise MelodifyError("note on without a matching note off")

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
        raise MelodifyError(f"note off for pitch {pitch} with no open note")
    onset, velocity = stack.pop(0)
    notes.append(ParsedNote(onset, tick - onset, pitch, velocity))
