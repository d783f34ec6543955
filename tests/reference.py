"""The reference compiler: the simplest correct ``melodify compile``.

Each layer that a fast path in ``src/`` rewrote has one plain copy here,
written the obvious way: per-cell CSV and per-record JSON ingest,
per-value bar, pie and scatter bodies on uncached chords, one sort, a
literal loop expansion, a two-pass gate, a sort-based MIDI encoder, the
text writer and the ``notes=… ticks=…`` summary. Layers no fast path
touched (palette presets, theory, stats, the line body, cadence chords,
flag and spec parsing) are called from ``src/``, whose own tests pin
them. ``compile_command`` runs the whole command without writing a
file, so a test can hold ``melodify.cli.main`` to it byte for byte;
the per-layer tests hold each fast path to its layer here.

The test builders (events, scores, tables, specs and the filters that
read them back) live here too, so that every test module builds its
inputs the same way.
"""
from __future__ import annotations

import csv
import decimal
import errno
import io
import json
import math
import os
import struct
import sys
from pathlib import Path

from melodify import cli, ingest, melodifier
from melodify import score as score_module
from melodify.errors import MelodifyError, ParseError, ProportionError
from melodify.ingest import (
    VALUE_MAGNITUDE_MAX,
    Column,
    ColumnKind,
    Dataset,
    Idiom,
    MelodySpec,
    Palette,
    spec_from_mapping,
)
from melodify.score import (
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
)
from melodify.smf import GATE_BY_ARTICULATION, VLQ_LIMIT, encode_vlq, key_signature_bytes
from melodify.stats import DensityLevel
from melodify.theory import ChordQuality, ScaleMode, degree_triad, quantize_pitch, triad_on_pitch

# melodify's fixed resolution and the SMF bytes it writes, as the
# standard numbers them: written out here, not imported, so that a change
# to the package's constants shows as a difference from this reference.
TICKS_PER_QUARTER = 480
META_TEMPO, META_TIME_SIGNATURE, META_KEY_SIGNATURE, META_END_OF_TRACK = 0x51, 0x58, 0x59, 0x2F
CHANNEL, PROGRAM, SUSTAIN_CONTROLLER = 0, 0, 64

# --- builders -----------------------------------------------------------------


def note(onset, dur=480, pitch=60, vel=80, art=Articulation.NORMAL):
    return NoteEvent(onset, dur, pitch, vel, art)


def make_score(events, loop=None, tempo=120, timesig=(4, 4), key=(0, ScaleMode.MAJOR)):
    return Score(tempo, timesig, key, sort_events(events), loop)


def labels(values):
    """A category label per value: c0, c1, ..."""
    return [f"c{i}" for i in range(len(values))]


def dataset(values, categories=None):
    """A quantitative column ``v`` of the values, after a categorical
    column ``k`` when categories are given."""
    cols = []
    if categories is not None:
        cols.append(Column("k", ColumnKind.CATEGORICAL, tuple(categories)))
    cols.append(Column("v", ColumnKind.QUANTITATIVE, tuple(float(v) for v in values)))
    return Dataset(tuple(cols), len(values))


def spec(idiom, palette=Palette.POSITIVE, x=..., **fields):
    """A spec playing ``v``; x is ``k`` for a bar or pie and none
    otherwise, unless given."""
    if x is ...:
        x = "k" if idiom in (Idiom.BAR, Idiom.PIE) else None
    return MelodySpec(idiom, palette, "v", x_field=x, **fields)


def spec_of(**keys):
    """A spec parsed from a mapping: a bar in the positive palette on
    ``v``, with the given keys added or replaced."""
    return spec_from_mapping({"idiom": "bar", "palette": "positive", "y": "v", **keys})


def notes_of(score):
    return [e for e in score.events if type(e) is NoteEvent]


def pedals_of(score):
    return [e for e in score.events if type(e) is PedalEvent]


def assert_same_events(got, expected):
    """Equal events of the same record classes, with the same field types
    and the same Articulation and PedalState members: a NamedTuple
    compares equal to a plain tuple, and a str enum member to its value."""
    assert list(got) == list(expected)
    for ev, want in zip(got, expected):
        assert type(ev) is type(want)
        assert [type(field) for field in ev] == [type(field) for field in want]
        assert ev[-1] is want[-1]  # the articulation or pedal state member


def chords_of(score):
    """Notes grouped by onset, in onset order, pitches ascending."""
    by_onset: dict[int, list[int]] = {}
    for n in notes_of(score):
        by_onset.setdefault(n.onset_tick, []).append(n.pitch)
    return [tuple(sorted(pitches)) for _, pitches in sorted(by_onset.items())]


# --- ingest: one cell, one record at a time -----------------------------------

ASCII_DIGITS = frozenset("0123456789")


def _unsigned(text):
    return text[1:] if text[:1] in ("+", "-") else text


def is_decimal_literal(text):
    """README's number: an optional sign, ASCII digits with at most one
    decimal point (and at least one digit), then optionally ``e`` or
    ``E``, an optional sign and ASCII digits."""
    mantissa, marker, exponent = _unsigned(text).replace("E", "e").partition("e")
    digits = mantissa.replace(".", "", 1)
    exponent = _unsigned(exponent)
    return (
        bool(digits) and set(digits) <= ASCII_DIGITS
        and (not marker or bool(exponent) and set(exponent) <= ASCII_DIGITS)
    )


def build_dataset(header, rows):
    """The dataset of a header and its rows of cells, checked and typed
    cell by cell."""
    if not header:
        raise ParseError("header row is empty")
    for name in header:
        if not isinstance(name, str) or not name:
            raise ParseError("column names must be non-empty strings")
    if len(set(header)) != len(header):
        raise ParseError("duplicate column names in header")
    if not rows:
        raise ParseError("table has a header but no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(f"row {i + 1} has {len(row)} cells, expected {len(header)}")

    columns = []
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        numbers = []
        for cell in cells:
            if not is_decimal_literal(cell.strip()):
                break
            numbers.append(float(cell.strip()))
        if len(numbers) == len(cells):
            for i, number in enumerate(numbers):
                if abs(number) > VALUE_MAGNITUDE_MAX:
                    raise ParseError(
                        f"value {ingest._shortened(cells[i])!r} at row {i + 1}, column "
                        f"{name!r} exceeds the magnitude bound {VALUE_MAGNITUDE_MAX:g}"
                    )
            columns.append(Column(name, ColumnKind.QUANTITATIVE, tuple(numbers)))
        else:
            for i, cell in enumerate(cells):
                if cell == "":
                    raise ParseError(f"empty cell at row {i + 1}, column {name!r}")
            columns.append(Column(name, ColumnKind.CATEGORICAL, tuple(cells)))
    return Dataset(tuple(columns), len(rows))


def rows_from_json(text):
    """The header and rows of cells of a JSON table, checked record by
    record; a number's cell is its ``repr``."""

    def reject_constant(token):
        raise ParseError(f"non-finite number {token!r} in table")

    try:
        payload = json.loads(text, parse_constant=reject_constant)
    except ValueError as exc:
        raise ParseError(f"json error: {exc}") from exc
    if not isinstance(payload, list):
        raise ParseError("json table must be an array of record objects")
    if not payload:
        raise ParseError("json table is an empty array")
    first = payload[0]
    if not isinstance(first, dict) or not first:
        raise ParseError("json table rows must be non-empty objects")
    header = list(first.keys())
    rows = []
    for i, record in enumerate(payload):
        if not isinstance(record, dict) or set(record.keys()) != set(header):
            raise ParseError(f"record {i + 1} does not match the first row's keys")
        cells = []
        for name in header:
            value = record[name]
            if isinstance(value, bool) or value is None or isinstance(value, (dict, list)):
                raise ParseError(
                    f"record {i + 1}, key {name!r}: values must be strings or numbers"
                )
            if isinstance(value, float) and not math.isfinite(value):
                raise ParseError(f"non-finite number in record {i + 1}")
            cells.append(value if isinstance(value, str) else repr(value))
        rows.append(cells)
    return header, rows


def parse_table(raw, is_json):
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError("input is not valid UTF-8") from exc
    if is_json:
        return build_dataset(*rows_from_json(text))
    try:
        records = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise ParseError(f"csv error: {exc}") from exc
    if not records:
        raise ParseError("input contains no header row")
    return build_dataset(records[0], records[1:])


# --- mapping: one value at a time ---------------------------------------------


def uncached_quantized_chord(value, domain, scale, span_semitones, anchor):
    """The chord for one value: its quantized root's diatonic triad, a
    diminished one replaced by the dominant, a major triad on every root
    of a chromatic scale."""
    root = quantize_pitch(value, domain, scale, span_semitones, anchor)
    if scale.mode is ScaleMode.CHROMATIC:
        return triad_on_pitch(root, ChordQuality.MAJOR)
    degree = scale.member_classes.index(root % 12) + 1
    chord = degree_triad(scale, degree, root)
    if chord.quality is ChordQuality.DIMINISHED:
        chord = melodifier._dominant_substitute(scale, root)
    return chord


def _chord_notes(chord, onset, duration, velocity):
    return [NoteEvent(onset, duration, p, velocity, Articulation.NORMAL) for p in chord.pitches]


def bar_body(melody_spec, plan, character):
    values = character.series
    domain = (min(values), max(values))
    bar = plan.bar_ticks
    span = character.variance.semitone_span

    pedal = melody_spec.histogram and character.density.level is DensityLevel.LOW
    events = [PedalEvent(0, PedalState.DOWN)] if pedal else []
    for i, value in enumerate(values):
        chord = uncached_quantized_chord(value, domain, plan.scale, span, plan.anchor)
        events += _chord_notes(chord, i * bar, bar, melodifier.VELOCITY_NORMAL)
    body_end = len(values) * bar
    if pedal:
        events.append(PedalEvent(body_end, PedalState.UP))
    return events, body_end


def pie_body(melody_spec, plan, character):
    values = character.series
    domain = (min(values), max(values))
    span = character.variance.semitone_span
    cycle = melodifier.PIE_CYCLE_BARS * plan.bar_ticks
    grid = TICKS_PER_QUARTER // 4
    entries = character.proportions
    units = melodifier.largest_remainder_allocation(
        [ratio for _, ratio in entries], cycle // grid
    )
    events, cursor = [], 0
    for (name, ratio), value, unit_count in zip(entries, values, units):
        if unit_count == 0 and ratio > 0:
            raise ProportionError(
                f"pie slice {name!r} (share {ratio:.3g}) rounds to 0 of "
                f"the cycle's {cycle // grid} sixteenth units"
            )
        if unit_count:
            chord = uncached_quantized_chord(value, domain, plan.scale, span, plan.anchor)
            events += _chord_notes(chord, cursor, unit_count * grid, melodifier.VELOCITY_NORMAL)
            cursor += unit_count * grid
    return events, cycle


def scatter_body(melody_spec, plan, character):
    series = character.series
    domain = (min(series), max(series))
    span = character.variance.semitone_span
    step = TICKS_PER_QUARTER // melodifier.SUBDIVISION_BY_DENSITY[character.density.level]

    pedal = character.density.level is DensityLevel.LOW
    events = [PedalEvent(0, PedalState.DOWN)] if pedal else []
    for i, value in enumerate(series):
        pitch = quantize_pitch(value, domain, plan.scale, span, plan.anchor)
        events.append(
            NoteEvent(i * step, step, pitch, melodifier.VELOCITY_NORMAL, Articulation.STACCATO)
        )
    body_end = len(series) * step
    if pedal:
        events.append(PedalEvent(body_end, PedalState.UP))
    return events, body_end


BODIES = {
    Idiom.BAR: bar_body,
    Idiom.PIE: pie_body,
    Idiom.LINE: melodifier._line_body,
    Idiom.SCATTER: scatter_body,
}


def melodify(data, melody_spec):
    """The body, then the palette's cadence from the next bar line, all
    sorted once."""
    ingest.validate_binding(data, melody_spec)
    plan = melodifier.apply_palette(melody_spec)
    character = melodifier.derive_character(data, melody_spec.y_field, melody_spec.x_field)
    events, body_end = BODIES[melody_spec.idiom](melody_spec, plan, character)
    bar = plan.bar_ticks
    cadence_start = -(-body_end // bar) * bar
    for i, chord in enumerate(melodifier._cadence_chords(plan)):
        events += _chord_notes(chord, cadence_start + i * bar, bar, melodifier.VELOCITY_CADENCE)
    is_pie = melody_spec.idiom is Idiom.PIE
    return Score(
        plan.tempo_bpm,
        plan.time_signature,
        (plan.scale.root, plan.scale.mode),
        sort_events(events),
        Loop(0, body_end, melody_spec.loop_count) if is_pie else None,
    )


# --- the score: order, expansion, gate ----------------------------------------


def tick_of(event):
    return event.onset_tick if type(event) is NoteEvent else event.tick


def sort_events(events):
    """Events by tick, a pedal change before the notes at its tick, ties
    kept in input order."""
    return tuple(sorted(events, key=lambda ev: (tick_of(ev), type(ev) is NoteEvent)))


def _shifted(event, by):
    if by == 0:
        return event
    if type(event) is NoteEvent:
        return event._replace(onset_tick=event.onset_tick + by)
    return event._replace(tick=event.tick + by)


def expand_loops(score):
    """The score as played: each event in the loop region once per
    repeat, each event after it shifted by the added length, then one
    sort. The size is counted, and checked against the cap, before any
    copy is made; the cap is read from ``melodify.score``, so a test can
    move it."""
    if score.loop is None:
        return score
    start, end, count = score.loop
    if count < 1 or end <= start:
        raise MelodifyError(
            f"loop region [{short_int(start)}, {short_int(end)}) with {short_int(count)} "
            "repeats cannot be expanded"
        )
    repeated = sum(start <= tick_of(ev) < end for ev in score.events)
    expanded = len(score.events) + repeated * (count - 1)
    if expanded > score_module.MAX_EXPANDED_EVENTS:
        raise ParseError(
            f"loop of {short_int(count)} repeats would expand to {short_int(expanded)} "
            f"events, above the cap of {score_module.MAX_EXPANDED_EVENTS}"
        )
    length = end - start
    out = []
    for ev in score.events:
        if tick_of(ev) < start:
            out.append(ev)
        elif tick_of(ev) < end:
            out += [_shifted(ev, i * length) for i in range(count)]
        else:
            out.append(_shifted(ev, (count - 1) * length))
    return score._replace(events=sort_events(out), loop=None)


def short_int(value):
    """An integer as a refusal quotes it: in full up to 20 characters,
    else its sign, first digit, next two and power of ten. The digits
    come from ``decimal``, which reads an int of any length."""
    sign, digits, _ = decimal.Decimal(value).as_tuple()
    if sign + len(digits) <= 20:
        return str(value)
    return "-" * sign + "{}.{}{}e+".format(*digits[:3]) + str(len(digits) - 1)


def past_str_limit(value):
    """Whether ``str`` refuses ``value``: an int of more digits than
    Python's int-to-str limit, where a limit of 0 means none."""
    limit = sys.get_int_max_str_digits()
    return type(value) is int and 0 < limit < len(decimal.Decimal(value).as_tuple().digits)


def total_duration_ticks(score):
    """Ticks from zero to the last note end or pedal tick, never below 0;
    with a loop, everything from the region's start on ends later by the
    length the repeats add."""
    added = 0 if score.loop is None else (score.loop.count - 1) * (score.loop.end_tick - score.loop.start_tick)
    last = 0
    for ev in score.events:
        ev_end = ev.onset_tick + ev.duration_ticks if type(ev) is NoteEvent else ev.tick
        if score.loop is not None and tick_of(ev) >= score.loop.start_tick:
            ev_end += added
        last = max(last, ev_end)
    return last


def structural_errors(score):
    """The gate in two passes: one walk for order and ranges, a second
    for the pedal's balance."""
    problems = []
    error = problems.append

    if type(score.tempo_bpm) is not int:
        error(f"tempo_bpm is {type(score.tempo_bpm).__name__}, not int")
    elif score.tempo_bpm < 1:
        error(f"tempo must be positive, got {short_int(score.tempo_bpm)}")
    elif round(60_000_000 / score.tempo_bpm) >= 1 << 24:
        error(f"tempo {score.tempo_bpm} bpm is below 4, the slowest SMF can encode")
    elif round(60_000_000 / score.tempo_bpm) < 1:
        error(f"tempo {short_int(score.tempo_bpm)} bpm is above 119999999, the fastest SMF can encode")
    meter_problems = pair_problems(
        "time_signature", score.time_signature, [("numerator", int), ("denominator", int)]
    )
    problems += meter_problems
    if not meter_problems:
        numerator, denominator = score.time_signature
        if numerator < 1 or denominator < 1 or denominator & (denominator - 1):
            error(f"bad time signature {short_int(numerator)}/{short_int(denominator)}")
        else:
            if numerator > 255:
                error(f"time signature numerator {short_int(numerator)} above 255")
            if denominator > 2**255:
                error(
                    f"time signature denominator 2**{denominator.bit_length() - 1} "
                    "above 2**255"
                )

    # A field that is not exactly an int (a bool is not one), or an
    # articulation or pedal state that is not a member, is the only
    # problem its event reports; the event is left out of every other check.
    # Events not held in a tuple are one problem, and none is checked.
    events, mistyped = score.events, set()
    if type(events) is not tuple:
        error(f"events is {type(events).__name__}, not tuple")
        events, mistyped = (), {"events"}
    previous_key = None
    for i, ev in enumerate(events):
        if type(ev) is NoteEvent:
            kinds = [int, int, int, int, Articulation]
        elif type(ev) is PedalEvent:
            kinds = [int, PedalState]
        else:
            error(f"event {i} is {type(ev).__name__}, not NoteEvent or PedalEvent")
            mistyped.add(i)
            continue
        for name, value, kind in zip(ev._fields, ev, kinds):
            if type(value) is not kind:
                error(f"event {i}: {name} is {type(value).__name__}, not {kind.__name__}")
                mistyped.add(i)
        if i in mistyped:
            continue
        key = (tick_of(ev), type(ev) is NoteEvent)
        if previous_key is not None and key < previous_key:
            error(f"event {i} out of order (tick {short_int(tick_of(ev))})")
        previous_key = key
        if type(ev) is NoteEvent:
            if ev.onset_tick < 0:
                error(f"event {i}: negative onset {short_int(ev.onset_tick)}")
            if ev.duration_ticks < 1:
                error(f"event {i}: duration must be at least 1 tick")
            if not 0 <= ev.pitch <= 127:
                error(f"event {i}: pitch {short_int(ev.pitch)} outside 0..127")
            if not 1 <= ev.velocity <= 127:
                error(f"event {i}: velocity {short_int(ev.velocity)} outside 1..127")
        elif ev.tick < 0:
            error(f"event {i}: negative pedal tick {short_int(ev.tick)}")

    pedal_down = False
    for i, ev in enumerate(events):
        if type(ev) is NoteEvent or i in mistyped:
            continue
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

    loop_problems = []
    if score.loop is not None and type(score.loop) is not Loop:
        loop_problems.append(f"loop is {type(score.loop).__name__}, not Loop")
    elif score.loop is not None:
        for name, value in zip(Loop._fields, score.loop):
            if type(value) is not int:
                loop_problems.append(f"loop {name} is {type(value).__name__}, not int")
    problems += loop_problems
    if score.loop is not None and not loop_problems and not mistyped:
        start, end, count = score.loop
        base_end = total_duration_ticks(score._replace(loop=None))
        if count < 1:
            error(f"loop count must be positive, got {short_int(count)}")
        if not 0 <= start < end <= max(base_end, 1):
            error(f"loop region [{short_int(start)}, {short_int(end)}) outside score of "
                  f"{short_int(base_end)} ticks")

        def pedal_down_before(tick):
            pedals = [ev for ev in pedals_of(score) if ev.tick < tick]
            return bool(pedals) and pedals[-1].state is PedalState.DOWN

        if count > 1 and pedal_down_before(start) != pedal_down_before(end):
            error(
                f"loop region [{short_int(start)}, {short_int(end)}) changes the pedal, "
                "so a repeat would press or release it twice"
            )

    key_problems = pair_problems(
        "key_signature", score.key_signature, [("root", int), ("mode", ScaleMode)]
    )
    problems += key_problems
    if not key_problems and not 0 <= score.key_signature[0] <= 11:
        error(f"key signature root {short_int(score.key_signature[0])} outside 0..11")
    return problems


def pair_problems(field, value, parts):
    """The score's time or key signature must be a tuple of two parts,
    each exactly of its type."""
    if type(value) is not tuple:
        return [f"{field} is {type(value).__name__}, not tuple"]
    if len(value) != 2:
        return [f"{field} has {len(value)} parts, not 2"]
    return [
        f"{field} {name} is {type(part).__name__}, not {kind.__name__}"
        for (name, kind), part in zip(parts, value)
        if type(part) is not kind
    ]


# --- encoding -----------------------------------------------------------------


def decode_vlq(data, pos=0):
    """The variable-length quantity at ``pos`` and the position after it:
    big-endian 7-bit groups, the high bit set on every byte but the last."""
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def gate(notes, index):
    """Nearest plainly articulated note's gate, searched back then forward."""
    if notes[index].articulation is not Articulation.ACCENT:
        return GATE_BY_ARTICULATION[notes[index].articulation]
    for j in [*range(index - 1, -1, -1), *range(index + 1, len(notes))]:
        if notes[j].articulation is not Articulation.ACCENT:
            return GATE_BY_ARTICULATION[notes[j].articulation]
    return GATE_BY_ARTICULATION[Articulation.NORMAL]


def write_smf(score):
    """Every message of a loop-free score in one list, stably sorted by
    (tick, kind): meta, pedal, note-off, note-on."""
    tempo_us = round(60_000_000 / score.tempo_bpm)
    numerator, denominator = score.time_signature
    root, mode = score.key_signature
    messages = [
        (0, 0, bytes([0xFF, META_TEMPO, 0x03]) + struct.pack(">I", tempo_us)[1:]),
        (0, 0, bytes([0xFF, META_TIME_SIGNATURE, 0x04, numerator,
                      denominator.bit_length() - 1, 24, 8])),
        (0, 0, bytes([0xFF, META_KEY_SIGNATURE, 0x02]) + key_signature_bytes(root, mode)),
        (0, 0, bytes([0xC0 | CHANNEL, PROGRAM])),
    ]
    notes = notes_of(score)
    for ev in pedals_of(score):
        value = 127 if ev.state is PedalState.DOWN else 0
        messages.append((ev.tick, 1, bytes([0xB0 | CHANNEL, SUSTAIN_CONTROLLER, value])))
    for i, ev in enumerate(notes):
        held = max(1, int(gate(notes, i) * ev.duration_ticks))
        messages.append((ev.onset_tick, 3, bytes([0x90 | CHANNEL, ev.pitch, ev.velocity])))
        messages.append((ev.onset_tick + held, 2, bytes([0x80 | CHANNEL, ev.pitch, 0])))
    messages.sort(key=lambda m: (m[0], m[1]))
    body, cursor = bytearray(), 0
    for tick, _, data in messages:
        if tick - cursor >= VLQ_LIMIT:
            raise MelodifyError(
                f"score fails validation: {short_int(tick - cursor)} ticks between two "
                f"messages, above the {VLQ_LIMIT - 1} a delta-time can hold"
            )
        body += encode_vlq(tick - cursor) + data
        cursor = tick
    body += encode_vlq(0) + bytes([0xFF, META_END_OF_TRACK, 0x00])
    header = b"MThd" + struct.pack(">IHHH", 6, 0, 1, TICKS_PER_QUARTER)
    return header + b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def write_text_score(score):
    numerator, denominator = score.time_signature
    root, mode = score.key_signature
    lines = [f"tpq {TICKS_PER_QUARTER}", f"tempo {score.tempo_bpm}",
             f"time {numerator}/{denominator}", f"key {root} {mode.value}"]
    if score.loop is not None:
        lines.append("loop {} {} {}".format(*score.loop))
    for ev in score.events:
        if type(ev) is NoteEvent:
            lines.append(f"{ev.onset_tick} {ev.pitch} {ev.duration_ticks} "
                         f"{ev.velocity} {ev.articulation.value}")
        else:
            lines.append(f"{ev.tick} PEDAL {ev.state.value}")
    return "\n".join(lines) + "\n"


def text_problems(score):
    """What the text writer's refusal lists: the gate's problems, or for
    a score the gate passes, the largest of its ints that ``str`` refuses."""
    problems = structural_errors(score)
    if problems:
        return problems
    fields = [*(score.loop or ())] + [value for ev in score.events for value in ev]
    too_long = [value for value in fields if past_str_limit(value)]
    return [f"{short_int(max(too_long))} is past the int-to-str digit limit"] if too_long else []


def summary(score):
    """``notes=… ticks=…`` of the score as played."""
    played = expand_loops(score)  # a loop-free score as it is
    return f"notes={len(notes_of(played))} ticks={total_duration_ticks(played)}"


# --- the command --------------------------------------------------------------


def compile_command(argv):
    """``melodify compile`` on ``argv``, without writing a file: the exit
    status, stdout, stderr, and the bytes each output path would get, or
    none of them if the command fails."""
    try:
        args = cli._build_parser().parse_args(["compile", *argv])
        if args.out is not None and args.out.split("/")[-1] in ("", ".", ".."):
            raise ParseError(
                f"--out {args.out!r} names no file; give a file path such as song.mid"
            )
        data = parse_table(Path(args.data).read_bytes(), Path(args.data).suffix.lower() == ".json")
        melody_spec = cli._spec_from_args(args)
        score = melodify(data, melody_spec)
        out = Path(args.out or args.data)
        paths = [out.with_suffix(".mid")] if args.emit in ("midi", "both") else []
        paths += [out.with_suffix(".txt")] if args.emit in ("text", "both") else []
        for path in paths:
            for flag, given in (("--data", args.data), ("--spec", args.spec)):
                if given is not None and path.resolve() == Path(given).resolve():
                    raise ParseError(
                        f"output {path} would overwrite the {flag} file; choose another --out"
                    )
        played = expand_loops(score)
        problems = structural_errors(played)
        if problems:
            raise MelodifyError("score fails validation: " + "; ".join(problems))
        files = {
            path: write_smf(played) if path.suffix == ".mid"
            else write_text_score(score).encode("utf-8")
            for path in paths
        }
        # Every output is encoded before any is written, and a failed write
        # leaves none: a directory in an output's place is the failure
        # tests set up.
        for path in files:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    except MelodifyError as exc:
        return 1 if exc.code in cli.USER_ERROR_CODES else 2, "", f"error {exc.code}: {exc}\n", {}
    except OSError as exc:
        return 1, "", f"error E_IO: {exc}\n", {}
    stdout = f"{melody_spec.idiom.value} {melody_spec.palette.value} {summary(played)}\n"
    return 0, stdout + "".join(f"wrote {path}\n" for path in files), "", files


def analyze_command(argv):
    """``melodify analyze`` on ``argv``: the exit status, stdout and
    stderr. The table is read as ``compile_command`` reads it, and the
    summaries come from ``derive_character``, as ``melodify`` takes
    them; the report follows README's rules: with a single row,
    segments are ``[]`` and the spread is ``null``, and proportions are
    ``null`` without a categorical x or when a y value is negative or
    all are zero."""
    try:
        args = cli._build_parser().parse_args(["analyze", *argv])
        data = parse_table(Path(args.data).read_bytes(), Path(args.data).suffix.lower() == ".json")
        ingest.check_field_names(args.y, args.x)
        ingest.validate_y(data, args.y)
        character = melodifier.derive_character(data, args.y, args.x)
    except MelodifyError as exc:
        return 1 if exc.code in cli.USER_ERROR_CODES else 2, "", f"error {exc.code}: {exc}\n"
    except OSError as exc:
        return 1, "", f"error E_IO: {exc}\n"
    series = character.series
    spread = len(series) >= 2
    shares = character.labels is not None and min(series) >= 0 and any(series)
    report = {
        "rows": len(series),
        "segments": [
            {"start": seg.start_index, "end": seg.end_index, "slope": seg.slope,
             "direction": seg.direction.value}
            for seg in (character.segments if spread else ())
        ],
        "density": {
            "level": character.density.level.value,
            "points_per_bar": character.density.points_per_bar,
        },
        "variance": {
            "level": character.variance.level.value,
            "semitone_span": character.variance.semitone_span,
        } if spread else None,
        "proportions": [
            {"label": label, "ratio": ratio} for label, ratio in character.proportions
        ] if shares else None,
    }
    return 0, json.dumps(report, indent=2) + "\n", ""
