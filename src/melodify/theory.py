"""Pitch, scale, and chord primitives.

Pitches are plain MIDI numbers (60 is middle C). A scale is an ordered
tuple of pitch classes starting at its root; chords are root-position
triads described by the semitone stack above the root: major (4, 3),
minor (3, 4), diminished (3, 3).
"""
from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .errors import MelodifyError

MIDI_MAX = 127


class ScaleMode(str, Enum):
    MAJOR = "major"
    NATURAL_MINOR = "minor"
    CHROMATIC = "chromatic"


MODE_OFFSETS = {
    ScaleMode.MAJOR: (0, 2, 4, 5, 7, 9, 11),
    ScaleMode.NATURAL_MINOR: (0, 2, 3, 5, 7, 8, 10),
    ScaleMode.CHROMATIC: tuple(range(12)),
}


class ChordQuality(str, Enum):
    MAJOR = "major"
    MINOR = "minor"
    DIMINISHED = "diminished"


QUALITY_BY_INTERVALS = {
    (4, 3): ChordQuality.MAJOR,
    (3, 4): ChordQuality.MINOR,
    (3, 3): ChordQuality.DIMINISHED,
}
INTERVALS_BY_QUALITY = {q: iv for iv, q in QUALITY_BY_INTERVALS.items()}


class CadenceKind(str, Enum):
    PERFECT = "perfect"
    DECEPTIVE = "deceptive"
    NONE = "none"


class ArpeggioDirection(str, Enum):
    UP = "up"
    DOWN = "down"


class Scale(NamedTuple):
    root: int
    mode: ScaleMode
    member_classes: tuple[int, ...]

    def contains(self, pitch: int) -> bool:
        return pitch % 12 in self.member_classes


class Chord(NamedTuple):
    """Root-position triad."""

    quality: ChordQuality
    pitches: tuple[int, int, int]

    @property
    def root(self) -> int:
        return self.pitches[0]


def build_scale(root: int, mode: ScaleMode) -> Scale:
    if not 0 <= root <= 11:
        raise ValueError(f"scale root must be a pitch class 0..11, got {root}")
    members = tuple((root + offset) % 12 for offset in MODE_OFFSETS[mode])
    return Scale(root, mode, members)


def _check_range(pitches: Sequence[int]) -> None:
    for p in pitches:
        if not 0 <= p <= MIDI_MAX:
            raise MelodifyError(f"pitch {p} outside MIDI range 0..{MIDI_MAX}")


def degree_triad(scale: Scale, degree: int, octave_anchor: int) -> Chord:
    """Diatonic triad on a scale degree, rooted at or above
    ``octave_anchor``: third and fifth are the next scale members two and
    four steps up."""
    if scale.mode is ScaleMode.CHROMATIC:
        raise MelodifyError("a chromatic scale has no functional degrees")
    if not 1 <= degree <= 7:
        raise MelodifyError(f"degree must be 1..7, got {degree}")
    root_class = scale.member_classes[degree - 1]
    root = octave_anchor + ((root_class - octave_anchor) % 12)
    third_class = scale.member_classes[(degree + 1) % 7]
    fifth_class = scale.member_classes[(degree + 3) % 7]
    third = root + ((third_class - root) % 12)
    fifth = third + ((fifth_class - third) % 12)
    pitches = (root, third, fifth)
    _check_range(pitches)
    return Chord(QUALITY_BY_INTERVALS[(third - root, fifth - third)], pitches)


def triad_on_pitch(root: int, quality: ChordQuality) -> Chord:
    """Fixed-quality triad at an arbitrary root, outside any key."""
    first, second = INTERVALS_BY_QUALITY[quality]
    pitches = (root, root + first, root + first + second)
    _check_range(pitches)
    return Chord(quality, pitches)


def make_cadence(kind: CadenceKind, scale: Scale, octave_anchor: int) -> list[Chord]:
    """Closing chord pair on a major scale: V then I for a perfect
    cadence, V then vi for a deceptive one, nothing for none.

    A minor-mode piece closes through its relative major, so callers
    pass that major scale.
    """
    if kind is CadenceKind.NONE:
        return []
    if scale.mode is ScaleMode.CHROMATIC:
        raise MelodifyError("cadences need a functional scale, not chromatic")
    if kind is CadenceKind.PERFECT:
        return [degree_triad(scale, 5, octave_anchor), degree_triad(scale, 1, octave_anchor)]
    return [degree_triad(scale, 5, octave_anchor), degree_triad(scale, 6, octave_anchor)]


def quantize_pitch(
    value: float,
    domain: tuple[float, float],
    scale: Scale,
    span_semitones: int,
    anchor: int,
) -> int:
    """Map a value linearly onto scale members within a span above anchor.

    The value's position in ``domain`` picks a real-valued semitone
    offset in [0, span]; the result is the nearest scale member pitch,
    ties snapping downward. A degenerate domain maps everything to the
    anchor. Monotone: larger values never map to lower pitches.
    """
    low, high = domain
    if high < low:
        raise ValueError("domain must be ordered (min, max)")
    if anchor < 0 or anchor + span_semitones > MIDI_MAX:
        raise MelodifyError(
            f"span {span_semitones} above anchor {anchor} leaves MIDI range"
        )
    if high == low:
        return anchor
    # A value outside the domain needs no clamp to [0, span]: a target
    # below the first member or above the last bisects to it, as the
    # clamped target would, and a nan target (inf / inf) bisects to 0.
    target = anchor + (value - low) / (high - low) * span_semitones
    members = _members_in_span(scale, anchor, span_semitones)
    if not members:
        raise ValueError(
            f"no scale member within {span_semitones} semitones above {anchor}"
        )
    above = bisect_left(members, target)
    if above == 0:
        return members[0]
    if above == len(members):
        return members[-1]
    lower, upper = members[above - 1], members[above]
    return upper if upper - target < target - lower else lower


@lru_cache(maxsize=256)
def _members_in_span(scale: Scale, anchor: int, span_semitones: int) -> tuple[int, ...]:
    """Scale member pitches from anchor to anchor + span, ascending."""
    return tuple(
        p for p in range(anchor, anchor + span_semitones + 1) if scale.contains(p)
    )


def arpeggiate(
    chord: Chord,
    direction: ArpeggioDirection,
    note_count: int,
    *,
    max_octaves: int,
) -> list[int]:
    """Walk chord tones: root, third, fifth, then the same an octave up.

    Down is the reverse of the generated walk, starting from its highest
    tone. After ``max_octaves`` octaves the walk wraps back to the root
    octave, which keeps long walks inside the MIDI range.
    """
    if note_count < 1:
        raise ValueError("note_count must be positive")
    if max_octaves < 1:
        raise ValueError("max_octaves must be positive")
    tones = chord.pitches
    walk = []
    for i in range(note_count):
        octave, position = divmod(i, 3)
        pitch = tones[position] + 12 * (octave % max_octaves)
        if pitch > MIDI_MAX:
            raise MelodifyError(f"arpeggio tone {pitch} above MIDI range")
        walk.append(pitch)
    if direction is ArpeggioDirection.DOWN:
        walk.reverse()
    return walk
