"""Mapping engine: dataset plus intent in, score out.

Each chart idiom gets its own melodic shape. Bar charts become one
chord per category, pie charts a looped cycle of chords whose durations
split the cycle by value, line charts legato arpeggios that follow the
fitted trend segments, scatter plots a stream of detached staccato
notes. The palette fixes scale mode, tempo, meter, and the closing
cadence; the data's own spread, density, and trend shape everything
else.
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import ProportionError
from .ingest import ColumnKind, Dataset, Idiom, MelodySpec, Palette, validate_binding
from .score import (
    TICKS_PER_QUARTER,
    Articulation,
    Event,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
)
from .stats import (
    DensityClass,
    DensityLevel,
    SPAN_BY_LEVEL,
    TrendDirection,
    TrendSegment,
    VarianceClass,
    VarianceLevel,
    compute_density,
    compute_variance,
    proportions,
    segment_trends,
)
from .theory import (
    ArpeggioDirection,
    CadenceKind,
    Chord,
    ChordQuality,
    Scale,
    ScaleMode,
    arpeggiate,
    build_scale,
    degree_triad,
    make_cadence,
    quantize_pitch,
    triad_on_pitch,
)

# Lowest pitch of the mapped range: one octave below middle C, then up
# by the key root.
BASS_ANCHOR = 48

PIE_CYCLE_BARS = 4

VELOCITY_NORMAL = 80
VELOCITY_ACCENT = 112
VELOCITY_CADENCE = 96

# palette -> (scale mode, tempo, time signature, cadence)
PALETTE_PRESETS = {
    Palette.POSITIVE: (ScaleMode.MAJOR, 120, (4, 4), CadenceKind.PERFECT),
    Palette.NEGATIVE: (ScaleMode.NATURAL_MINOR, 88, (4, 4), CadenceKind.DECEPTIVE),
    Palette.GREY: (ScaleMode.CHROMATIC, 100, (4, 4), CadenceKind.NONE),
    Palette.EXCITING: (ScaleMode.MAJOR, 160, (2, 4), CadenceKind.PERFECT),
    Palette.CALM: (ScaleMode.MAJOR, 72, (3, 4), CadenceKind.PERFECT),
}

SUBDIVISION_BY_DENSITY = {
    DensityLevel.LOW: 1,
    DensityLevel.MEDIUM: 2,
    DensityLevel.HIGH: 4,
}


class TonalPlan(NamedTuple):
    """Palette rendered concrete: the scale and performance parameters,
    plus the bass anchor pitch and the bar length every idiom plays to."""

    scale: Scale
    tempo_bpm: int
    time_signature: tuple[int, int]
    cadence: CadenceKind
    anchor: int
    bar_ticks: int


class DataCharacter:
    """Summaries the data dictates regardless of idiom and palette, and
    the y series in playing order that they summarize. Trend segments and
    proportions are computed on first use, so only a line segments and
    only a pie apportions."""

    def __init__(
        self,
        series: tuple[float, ...],
        labels: tuple[str, ...] | None,
        density: DensityClass,
        variance: VarianceClass,
    ):
        self.series = series
        self.labels = labels
        self.density = density
        self.variance = variance

    @cached_property
    def segments(self) -> tuple[TrendSegment, ...]:
        return tuple(segment_trends(self.series))

    @cached_property
    def proportions(self) -> tuple[tuple[str, float], ...] | None:
        if self.labels is None:
            return None
        return proportions(zip(self.labels, self.series))


def bar_ticks(time_signature: tuple[int, int]) -> int:
    numerator, denominator = time_signature
    return numerator * 4 * TICKS_PER_QUARTER // denominator


def apply_palette(spec: MelodySpec) -> TonalPlan:
    """Resolve the palette presets, honoring spec-level overrides."""
    mode, tempo, meter, cadence = PALETTE_PRESETS[spec.palette]
    time_signature = spec.time_signature if spec.time_signature is not None else meter
    return TonalPlan(
        scale=build_scale(spec.key_root, mode),
        tempo_bpm=spec.tempo_bpm if spec.tempo_bpm is not None else tempo,
        time_signature=time_signature,
        cadence=cadence,
        anchor=BASS_ANCHOR + spec.key_root,
        bar_ticks=bar_ticks(time_signature),
    )


def derive_character(
    dataset: Dataset, y_field: str, x_field: str | None
) -> DataCharacter:
    """Summarize the y series in playing order: sorted by x when x is a
    quantitative column, dataset row order otherwise. A categorical x
    labels the rows; a single point has no spread to measure and counts
    as narrow."""
    series = dataset.column(y_field).values
    labels = None
    if x_field is not None:
        x_col = dataset.column(x_field)
        if x_col.kind is ColumnKind.QUANTITATIVE:
            order = sorted(range(len(series)), key=lambda i: x_col.values[i])
            series = tuple(series[i] for i in order)
        else:
            labels = x_col.values
    if len(series) >= 2:
        variance = compute_variance(series)
    else:
        variance = VarianceClass(VarianceLevel.NARROW, SPAN_BY_LEVEL[VarianceLevel.NARROW])
    return DataCharacter(series, labels, compute_density(len(series)), variance)


def largest_remainder_allocation(ratios: list[float], total_units: int) -> list[int]:
    """Integer units per ratio, summing exactly to ``total_units``.

    Everyone gets the floor of their exact share; leftover units go to
    the largest fractional remainders, earlier entries winning ties.
    """
    exact = [r * total_units for r in ratios]
    units = [math.floor(e) for e in exact]
    leftover = total_units - sum(units)
    by_remainder = sorted(
        range(len(ratios)), key=lambda i: (-(exact[i] - units[i]), i)
    )
    for i in by_remainder[:leftover]:
        units[i] += 1
    return units


# Enough for every MIDI root under each of the 36 scales build_scale makes.
@lru_cache(maxsize=128 * 36)
def _chord_on_root(root: int, scale: Scale) -> Chord:
    """The diatonic triad on a scale member. A diminished triad gives way
    to the dominant so bar charts never land on a bare tritone. In a
    chromatic plan every root carries a plain major triad, a local key of
    its own."""
    if scale.mode is ScaleMode.CHROMATIC:
        return triad_on_pitch(root, ChordQuality.MAJOR)
    degree = scale.member_classes.index(root % 12) + 1
    chord = degree_triad(scale, degree, root)
    if chord.quality is ChordQuality.DIMINISHED:
        chord = _dominant_substitute(scale, root)
    return chord


def _dominant_substitute(scale: Scale, near_pitch: int) -> Chord:
    """The dominant triad voiced at the octave closest to the pitch it
    replaces, lower on a tie."""
    dominant_class = scale.member_classes[4]
    above = near_pitch + ((dominant_class - near_pitch) % 12)
    below = above - 12
    if below >= 0 and (near_pitch - below) <= (above - near_pitch):
        root = below
    else:
        root = above
    return degree_triad(scale, 5, root)


def _cadence_chords(plan: TonalPlan) -> list[Chord]:
    """Closing chords for the plan. A minor-mode piece cadences through
    its relative major, which keeps every cadence tone inside the plan
    scale while still closing V to vi."""
    if plan.scale.mode is ScaleMode.MAJOR:
        cadence_scale = plan.scale
    else:
        cadence_scale = build_scale((plan.scale.root + 3) % 12, ScaleMode.MAJOR)
    return make_cadence(plan.cadence, cadence_scale, plan.anchor)


def _chord_events(
    chord: Chord, onset: int, duration: int, velocity: int
) -> list[NoteEvent]:
    # tuple.__new__ builds the same record as NoteEvent(...), whose
    # __new__ checks nothing, without its Python frame.
    new, normal = tuple.__new__, Articulation.NORMAL
    return [
        new(NoteEvent, (onset, duration, pitch, velocity, normal))
        for pitch in chord.pitches
    ]


def _pitch_of(plan: TonalPlan, character: DataCharacter) -> dict[float, int]:
    """The value-to-pitch rule: each distinct y value quantized once, in
    the order the values first occur, so a refusal meets the value a
    per-row loop would meet first."""
    values = character.series
    domain = (min(values), max(values))
    scale, anchor = plan.scale, plan.anchor
    span = character.variance.semitone_span
    return {
        value: quantize_pitch(value, domain, scale, span, anchor)
        for value in dict.fromkeys(values)
    }


def _grid_events(
    values: tuple[float, ...],
    voicing: dict[float, tuple[int, ...]],
    step: int,
    articulation: Articulation,
    pedal: bool,
) -> tuple[list[Event], int]:
    """One sound per value every ``step`` ticks, the value's voicing
    held for the whole step, inside one optional sustain-pedal stroke."""
    events: list[Event] = [PedalEvent(0, PedalState.DOWN)] if pedal else []
    new, velocity = tuple.__new__, VELOCITY_NORMAL
    body_end = len(values) * step
    events += [
        new(NoteEvent, (onset, step, pitch, velocity, articulation))
        for onset, value in zip(range(0, body_end, step), values)
        for pitch in voicing[value]
    ]
    if pedal:
        events.append(PedalEvent(body_end, PedalState.UP))
    return events, body_end


def _bar_body(
    spec: MelodySpec, plan: TonalPlan, character: DataCharacter
) -> tuple[list[Event], int]:
    """One chord per category, each a full bar, roots tracking the values."""
    scale = plan.scale
    voicing = {
        value: _chord_on_root(root, scale).pitches
        for value, root in _pitch_of(plan, character).items()
    }
    pedal = spec.histogram and character.density.level is DensityLevel.LOW
    return _grid_events(
        character.series, voicing, plan.bar_ticks, Articulation.NORMAL, pedal
    )


def _pie_body(
    spec: MelodySpec, plan: TonalPlan, character: DataCharacter
) -> tuple[list[Event], int]:
    """A chord cycle over four bars, each chord holding its share of the
    cycle (snapped to the sixteenth grid); the cycle is the loop region.
    A zero-valued slice is silent; a positive one that rounds to no unit
    is refused rather than dropped."""
    cycle = PIE_CYCLE_BARS * plan.bar_ticks
    grid = TICKS_PER_QUARTER // 4
    entries = character.proportions
    total_units = cycle // grid
    units = largest_remainder_allocation([ratio for _, ratio in entries], total_units)
    pitch_of = _pitch_of(plan, character)

    events: list[Event] = []
    cursor = 0
    for (name, ratio), value, unit_count in zip(entries, character.series, units):
        if unit_count == 0:
            if ratio > 0:
                raise ProportionError(
                    f"pie slice {name!r} (share {ratio:.3g}) rounds to 0 of "
                    f"the cycle's {total_units} sixteenth units"
                )
            continue
        duration = unit_count * grid
        chord = _chord_on_root(pitch_of[value], plan.scale)
        events.extend(_chord_events(chord, cursor, duration, VELOCITY_NORMAL))
        cursor += duration
    return events, cycle


def _slope_unit(series: tuple[float, ...]) -> float:
    """Slope normalizer for degree mapping: 1 when the data moves in
    integer steps, otherwise the average step of the full range."""
    differences = [b - a for a, b in zip(series, series[1:])]
    integer_stepped = all(abs(d - round(d)) <= 1e-9 for d in differences)
    span = max(series) - min(series)
    if integer_stepped or span == 0:
        return 1.0
    return span / (len(series) - 1)


def _segment_degree(segment: TrendSegment, unit: float) -> int:
    normalized = abs(segment.slope) / unit
    return min(7, max(1, int(normalized + 0.5)))


def _line_body(
    spec: MelodySpec, plan: TonalPlan, character: DataCharacter
) -> tuple[list[Event], int]:
    """Legato arpeggios, one per trend segment.

    The segment's normalized slope picks a scale degree; the arpeggio
    walks a triad rooted there, major in bright palettes and minor in
    the negative one, rising, falling, or holding the root to match the
    trend. In the grey palette a chromatic passing tone slips in between
    tones more than two semitones apart. The first note of each new
    segment after the first is accented.
    """
    unit = _slope_unit(character.series)
    duration = TICKS_PER_QUARTER // SUBDIVISION_BY_DENSITY[
        character.density.level
    ]

    chromatic_plan = plan.scale.mode is ScaleMode.CHROMATIC
    if chromatic_plan:
        degree_scale = build_scale(plan.scale.root, ScaleMode.MAJOR)
    else:
        degree_scale = plan.scale
    quality = (
        ChordQuality.MINOR
        if spec.palette is Palette.NEGATIVE
        else ChordQuality.MAJOR
    )

    events: list[Event] = []
    cursor = 0
    for index, segment in enumerate(character.segments):
        root_class = degree_scale.member_classes[_segment_degree(segment, unit) - 1]
        root = plan.anchor + (root_class - plan.anchor) % 12  # at or above the anchor
        chord = triad_on_pitch(root, quality)
        count = segment.end_index - segment.start_index + 1
        if segment.direction is TrendDirection.NEUTRAL:
            pitches = [chord.root] * count
        else:
            window = (127 - chord.pitches[2]) // 12 + 1
            walk_direction = (
                ArpeggioDirection.UP
                if segment.direction is TrendDirection.ASCENDING
                else ArpeggioDirection.DOWN
            )
            pitches = arpeggiate(chord, walk_direction, count, max_octaves=window)

        specs = [[pitch, duration] for pitch in pitches]
        if chromatic_plan:
            specs = _with_passing_tones(specs)
        for position, (pitch, ticks) in enumerate(specs):
            accented = index > 0 and position == 0
            events.append(
                NoteEvent(
                    cursor,
                    ticks,
                    pitch,
                    VELOCITY_ACCENT if accented else VELOCITY_NORMAL,
                    Articulation.ACCENT if accented else Articulation.LEGATO,
                )
            )
            cursor += ticks
    return events, cursor


def _with_passing_tones(specs: list[list[int]]) -> list[list[int]]:
    """Slip a chromatic passing tone in front of any tone approached by
    a leap of more than two semitones, borrowing half the previous
    note's duration so the segment keeps its length."""
    out: list[list[int]] = []
    for i, (pitch, duration) in enumerate(specs):
        if i + 1 < len(specs) and abs(specs[i + 1][0] - pitch) > 2:
            target = specs[i + 1][0]
            step = 1 if target > pitch else -1
            half = duration // 2
            out.append([pitch, duration - half])
            out.append([target - step, half])
        else:
            out.append([pitch, duration])
    return out


def _scatter_body(
    spec: MelodySpec, plan: TonalPlan, character: DataCharacter
) -> tuple[list[Event], int]:
    """A staccato note per point on an even grid, sixteenths when dense,
    quarters when sparse; sparse scatters get one sustain-pedal stroke
    across the phrase."""
    voicing = {value: (pitch,) for value, pitch in _pitch_of(plan, character).items()}
    step = TICKS_PER_QUARTER // SUBDIVISION_BY_DENSITY[character.density.level]
    pedal = character.density.level is DensityLevel.LOW
    return _grid_events(character.series, voicing, step, Articulation.STACCATO, pedal)


_BODIES = {
    Idiom.BAR: _bar_body,
    Idiom.PIE: _pie_body,
    Idiom.LINE: _line_body,
    Idiom.SCATTER: _scatter_body,
}


def melodify(dataset: Dataset, spec: MelodySpec) -> Score:
    """Full pipeline: validate the binding, summarize the data, resolve
    the palette, let the idiom write the body, then close it with the
    palette's cadence from the next bar line. A pie's body is its loop.

    Every body writes its events in score order: by tick, with a pedal
    change before the notes at its tick. The cadence starts at or after the body's end, so the events
    need no sort; ``structural_errors`` proves the order before any
    bytes are written."""
    validate_binding(dataset, spec)
    plan = apply_palette(spec)
    character = derive_character(dataset, spec.y_field, spec.x_field)
    events, body_end = _BODIES[spec.idiom](spec, plan, character)

    bar = plan.bar_ticks
    cadence_start = -(-body_end // bar) * bar
    for i, chord in enumerate(_cadence_chords(plan)):
        events.extend(
            _chord_events(chord, cadence_start + i * bar, bar, VELOCITY_CADENCE)
        )
    return Score(
        tempo_bpm=plan.tempo_bpm,
        time_signature=plan.time_signature,
        key_signature=(plan.scale.root, plan.scale.mode),
        events=tuple(events),
        loop=Loop(0, body_end, spec.loop_count) if spec.idiom is Idiom.PIE else None,
    )
