"""Mapping engine: palettes, idiom shapes, and their invariants.

Expected pitches here are worked out by hand from the mapping rules
(linear quantization onto scale members, diatonic triads) before
running, then asserted exactly.
"""
from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from melodify import melodifier
from melodify.errors import MelodifyError, ParseError, ProportionError
from melodify.ingest import Column, ColumnKind, Dataset, Idiom, MelodySpec, Palette
from melodify.melodifier import (
    apply_palette,
    bar_ticks,
    derive_character,
    largest_remainder_allocation,
    melodify,
)
from melodify.score import Articulation, NoteEvent, PedalState
from melodify.theory import (
    CadenceKind,
    ChordQuality,
    ScaleMode,
    build_scale,
    quantize_pitch,
    triad_on_pitch,
)

import reference
from reference import assert_same_events, chords_of, dataset, labels, notes_of, pedals_of, spec


# --- palettes -----------------------------------------------------------------

def test_palette_presets():
    plan = apply_palette(spec(Idiom.BAR, Palette.POSITIVE))
    assert plan.scale.mode is ScaleMode.MAJOR
    assert (plan.tempo_bpm, plan.time_signature) == (120, (4, 4))
    assert plan.cadence is CadenceKind.PERFECT

    plan = apply_palette(spec(Idiom.BAR, Palette.NEGATIVE))
    assert plan.scale.mode is ScaleMode.NATURAL_MINOR
    assert (plan.tempo_bpm, plan.cadence) == (88, CadenceKind.DECEPTIVE)

    plan = apply_palette(spec(Idiom.BAR, Palette.GREY))
    assert plan.scale.mode is ScaleMode.CHROMATIC
    assert (plan.tempo_bpm, plan.cadence) == (100, CadenceKind.NONE)

    plan = apply_palette(spec(Idiom.BAR, Palette.EXCITING))
    assert (plan.tempo_bpm, plan.time_signature) == (160, (2, 4))

    plan = apply_palette(spec(Idiom.BAR, Palette.CALM))
    assert (plan.tempo_bpm, plan.time_signature) == (72, (3, 4))
    assert plan.scale.mode is ScaleMode.MAJOR


def test_palette_override_tempo_and_meter():
    s = spec(Idiom.BAR, Palette.POSITIVE, tempo_bpm=96, time_signature=(6, 8))
    plan = apply_palette(s)
    assert plan.tempo_bpm == 96
    assert plan.time_signature == (6, 8)


def test_palette_key_root_carries_into_scale():
    plan = apply_palette(spec(Idiom.BAR, Palette.POSITIVE, key_root=7))
    assert plan.scale.root == 7


def test_bar_ticks():
    assert bar_ticks((4, 4)) == 1920
    assert bar_ticks((3, 4)) == 1440
    assert bar_ticks((2, 4)) == 960
    assert bar_ticks((6, 8)) == 1440


# --- derive_character ---------------------------------------------------------

def test_character_shapes_by_idiom():
    categorical = derive_character(dataset([1, 3], ["a", "b"]), "v", "k")
    assert categorical.labels == ("a", "b")
    assert categorical.proportions == (("a", 0.25), ("b", 0.75))
    assert len(categorical.segments) == 1

    unlabelled = derive_character(dataset([1, 2, 3]), "v", None)
    assert unlabelled.labels is None and unlabelled.proportions is None
    assert len(unlabelled.segments) == 1


def test_character_orders_by_x_for_line():
    ds = Dataset(
        (
            Column("t", ColumnKind.QUANTITATIVE, (3.0, 1.0, 2.0)),
            Column("v", ColumnKind.QUANTITATIVE, (9.0, 7.0, 8.0)),
        ),
        3,
    )
    ch = derive_character(ds, "v", "t")
    # Sorted by t, v is 7,8,9: one clean ascending segment.
    assert len(ch.segments) == 1
    assert ch.segments[0].slope == pytest.approx(1.0)


def test_character_segments_and_apportions_only_when_an_idiom_reads_it(monkeypatch):
    # Segmenting is O(k·n²): a bar, pie or scatter compile must never pay it.
    def refuse(*_):
        raise AssertionError("summary computed although no idiom reads it")

    tables = {
        Idiom.BAR: dataset([1, 3, 2], ["a", "b", "c"]),
        Idiom.PIE: dataset([1, 3, 2], ["a", "b", "c"]),
        Idiom.LINE: dataset([1, 3, 2]),
        Idiom.SCATTER: dataset([1, 3, 2]),
    }
    for summary, idioms in (
        ("segment_trends", (Idiom.BAR, Idiom.PIE, Idiom.SCATTER)),
        ("proportions", (Idiom.BAR, Idiom.LINE, Idiom.SCATTER)),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(melodifier, summary, refuse)
            for idiom in idioms:
                x = "k" if idiom in (Idiom.BAR, Idiom.PIE) else None
                assert notes_of(melodify(tables[idiom], spec(idiom, x=x)))


# --- largest remainder --------------------------------------------------------

def test_largest_remainder_exact_fractions():
    assert largest_remainder_allocation([0.75, 0.25], 64) == [48, 16]
    assert largest_remainder_allocation([0.5, 0.5], 64) == [32, 32]


def test_largest_remainder_distributes_leftovers():
    thirds = [1 / 3, 1 / 3, 1 / 3]
    units = largest_remainder_allocation(thirds, 64)
    assert sum(units) == 64
    assert units == [22, 21, 21]  # equal remainders: earlier entries win


def test_largest_remainder_zero_ratio_gets_nothing():
    assert largest_remainder_allocation([0.0, 1.0], 64) == [0, 64]


def test_largest_remainder_never_off_by_one():
    ratios = [0.123, 0.456, 0.421]
    units = largest_remainder_allocation(ratios, 64)
    assert sum(units) == 64
    for r, u in zip(ratios, units):
        assert abs(u - r * 64) < 1.0


# --- bar ----------------------------------------------------------------------

def test_bar_ascending_values_ascend_and_cadence():
    score = melodify(dataset([1, 2, 3], ["a", "b", "c"]), spec(Idiom.BAR, x="k"))
    chords = chords_of(score)
    # Three rising triads, then V and I of C major.
    assert chords[:3] == [(48, 52, 55), (60, 64, 67), (72, 76, 79)]
    assert chords[3] == (55, 59, 62)
    assert chords[4] == (48, 52, 55)
    roots = [c[0] for c in chords[:3]]
    assert roots == sorted(roots)
    # Cadence velocity stands apart from the body.
    assert {n.velocity for n in notes_of(score)[:9]} == {80}
    assert {n.velocity for n in notes_of(score)[9:]} == {96}


def test_bar_chords_are_note_records_with_enum_articulations():
    # The chord notes are built with tuple.__new__, which would take any
    # field values; they must still be NoteEvents holding ints and an
    # Articulation member, like those NoteEvent(...) builds.
    score = melodify(dataset([1, 2, 3], ["a", "b", "c"]), spec(Idiom.BAR, x="k"))
    body = notes_of(score)[:9]
    assert {type(n) for n in body} == {NoteEvent}
    assert {tuple(map(type, n)) for n in body} == {(int, int, int, int, Articulation)}
    assert body[0] == NoteEvent(0, 1920, 48, 80, Articulation.NORMAL)


def test_bar_equal_values_give_identical_chords():
    score = melodify(dataset([5, 5], ["a", "b"]), spec(Idiom.BAR, x="k"))
    chords = chords_of(score)
    assert chords[0] == chords[1] == (48, 52, 55)


def test_bar_negative_palette_descends_into_relative_major_cadence():
    score = melodify(dataset([3, 1], ["a", "b"]), spec(Idiom.BAR, Palette.NEGATIVE, x="k"))
    chords = chords_of(score)
    # C-minor chords falling, then B-flat major and C minor: the V and
    # vi of E-flat major, the relative major of C minor.
    assert chords[0] == (72, 75, 79)
    assert chords[1] == (48, 51, 55)
    assert chords[2] == (58, 62, 65)
    assert chords[3] == (48, 51, 55)
    final = triad_on_pitch(48, ChordQuality.MINOR)
    assert chords[3] == final.pitches


def test_bar_key_transposes_everything():
    score = melodify(
        dataset([1, 2], ["a", "b"]), spec(Idiom.BAR, x="k", key_root=2)
    )
    chords = chords_of(score)
    assert chords[0][0] == 50  # anchor rides the key root
    assert all(p % 12 in (2, 4, 6, 7, 9, 11, 1) for c in chords for p in c)


def test_bar_diminished_root_is_replaced_by_dominant():
    # Domain [0, 36] across a wide span puts 11 on B, the seventh degree;
    # the engine swaps in the nearest dominant triad instead.
    score = melodify(dataset([0, 11, 36], ["a", "b", "c"]), spec(Idiom.BAR, x="k"))
    chords = chords_of(score)
    assert chords[1] == (55, 59, 62)
    tritone_free = all((hi - lo) % 12 != 6 for c in chords for lo in c for hi in c)
    assert tritone_free


def test_bar_minor_diminished_substitution_goes_up_to_dominant():
    # In C natural minor the second degree (D) carries the diminished
    # triad; the nearest dominant root lies five semitones above.
    score = melodify(
        dataset([0, 14, 36], ["a", "b", "c"]), spec(Idiom.BAR, Palette.NEGATIVE, x="k")
    )
    chords = chords_of(score)
    assert chords[1] == (67, 70, 74)


def test_bar_argmax_gets_highest_root():
    score = melodify(dataset([2, 9, 4], ["a", "b", "c"]), spec(Idiom.BAR, x="k"))
    chords = chords_of(score)
    assert chords[1][0] == max(c[0] for c in chords[:3])


def test_bar_histogram_low_density_gets_pedal():
    ds = dataset([1, 2, 3], ["a", "b", "c"])
    plain = melodify(ds, spec(Idiom.BAR, x="k"))
    assert pedals_of(plain) == []
    blurred = melodify(ds, spec(Idiom.BAR, x="k", histogram=True))
    assert [p.state for p in pedals_of(blurred)] == [PedalState.DOWN, PedalState.UP]


# --- pie ----------------------------------------------------------------------

def test_pie_durations_follow_ratios():
    score = melodify(dataset([3, 1], ["a", "b"]), spec(Idiom.PIE, x="k"))
    notes = notes_of(score)
    body = [n for n in notes if n.onset_tick < 7680]
    durations = sorted({(n.onset_tick, n.duration_ticks) for n in body})
    assert durations == [(0, 5760), (5760, 1920)]


def test_pie_loop_marker_present_and_cycle_aligned():
    score = melodify(dataset([1, 1], ["a", "b"]), spec(Idiom.PIE, x="k"))
    assert score.loop is not None
    assert (score.loop.start_tick, score.loop.end_tick) == (0, 7680)
    assert score.loop.count == 2


def test_pie_loop_count_override():
    score = melodify(dataset([1, 1], ["a", "b"]), spec(Idiom.PIE, x="k", loop_count=5))
    assert score.loop.count == 5


def test_pie_zero_category_is_silent_but_cycle_is_full():
    score = melodify(dataset([1, 0, 1], ["a", "b", "c"]), spec(Idiom.PIE, x="k"))
    body = sorted({(n.onset_tick, n.duration_ticks) for n in notes_of(score) if n.onset_tick < 7680})
    assert body == [(0, 3840), (3840, 3840)]


def test_pie_slice_rounding_to_no_sixteenth_is_refused():
    # 100 equal slices share 64 sixteenths: 36 would never sound.
    labels = [f"s{i:02d}" for i in range(100)]
    with pytest.raises(ProportionError, match=r"pie slice 's64' .* 0 of the cycle's 64 sixteenth"):
        melodify(dataset([1] * 100, labels), spec(Idiom.PIE, x="k"))
    # Every slice of 64 equal ones gets its sixteenth.
    score = melodify(dataset([1] * 64, labels[:64]), spec(Idiom.PIE, x="k"))
    assert len({n.onset_tick for n in notes_of(score) if n.onset_tick < 7680}) == 64


# --- line ---------------------------------------------------------------------

LINE_Y = [0, 1, 2, 3, 4, 2, 0, -2]


def test_line_two_segments_up_then_down():
    score = melodify(dataset(LINE_Y), spec(Idiom.LINE))
    notes = notes_of(score)
    body = notes[:9]
    # Slope +1: ascending walk of the C-major triad, five points.
    assert [n.pitch for n in body[:5]] == [48, 52, 55, 60, 64]
    # Slope -2: descending walk of a D-major triad, four points.
    assert [n.pitch for n in body[5:]] == [62, 57, 54, 50]
    assert all(n.duration_ticks == 240 for n in body)  # medium density


def test_line_accent_marks_each_new_segment():
    score = melodify(dataset(LINE_Y), spec(Idiom.LINE))
    body = notes_of(score)[:9]
    accents = [i for i, n in enumerate(body) if n.articulation is Articulation.ACCENT]
    assert accents == [5]
    assert body[5].velocity == 112
    assert all(n.articulation is Articulation.LEGATO for i, n in enumerate(body) if i != 5)
    assert all(n.velocity == 80 for i, n in enumerate(body) if i != 5)


def test_line_negative_uses_minor_triads():
    score = melodify(dataset(LINE_Y), spec(Idiom.LINE, Palette.NEGATIVE))
    body = notes_of(score)[:9]
    assert [n.pitch for n in body[:5]] == [48, 51, 55, 60, 63]
    assert [n.pitch for n in body[5:]] == [62, 57, 53, 50]


def test_line_grey_inserts_chromatic_passing_tones():
    score = melodify(dataset(LINE_Y), spec(Idiom.LINE, Palette.GREY))
    notes = notes_of(score)
    # Each leap wider than two semitones gains a one-semitone approach
    # into its target; the leap's source gives up half its duration.
    assert [n.pitch for n in notes] == [
        48, 51, 52, 54, 55, 59, 60, 63, 64, 62, 58, 57, 55, 54, 51, 50,
    ]
    assert [n.duration_ticks for n in notes] == (
        [120] * 8 + [240] + [120] * 6 + [240]
    )
    # The walk keeps its total length, and grey adds no cadence.
    assert sum(n.duration_ticks for n in notes) == 9 * 240
    assert max(n.onset_tick + n.duration_ticks for n in notes) == 9 * 240


def test_line_neutral_segment_repeats_the_root():
    score = melodify(dataset([5, 5, 5, 5]), spec(Idiom.LINE))
    body = notes_of(score)[:4]
    assert [n.pitch for n in body] == [48, 48, 48, 48]
    assert all(n.duration_ticks == 480 for n in body)  # low density


def test_line_cadence_starts_on_a_bar_boundary():
    score = melodify(dataset(LINE_Y), spec(Idiom.LINE))
    notes = notes_of(score)
    cadence = [n for n in notes if n.velocity == 96]
    assert min(n.onset_tick for n in cadence) == 3840  # body ends at 2160
    assert {n.onset_tick for n in cadence} == {3840, 5760}


# --- scatter ------------------------------------------------------------------

SPARSE_WIDE = [5, 90, 20, 70, 1, 55, 35]


def test_scatter_sparse_wide_pitches():
    # Hand-mapped: value -> anchor + 36 * (v-1)/89, snapped to C major.
    score = melodify(dataset(SPARSE_WIDE), spec(Idiom.SCATTER))
    body = [n for n in notes_of(score) if n.articulation is Articulation.STACCATO]
    assert [n.pitch for n in body] == [50, 84, 55, 76, 48, 69, 62]
    assert all(n.duration_ticks == 480 for n in body)  # low density: quarters
    assert [n.onset_tick for n in body] == [i * 480 for i in range(7)]


def test_scatter_low_density_has_one_pedal_pair():
    score = melodify(dataset(SPARSE_WIDE), spec(Idiom.SCATTER))
    pedals = pedals_of(score)
    assert [p.state for p in pedals] == [PedalState.DOWN, PedalState.UP]
    assert pedals[0].tick == 0
    assert pedals[1].tick == 7 * 480


def test_scatter_dense_has_no_pedal_and_sixteenths():
    values = [100 + (i % 5) for i in range(32)]
    score = melodify(dataset(values), spec(Idiom.SCATTER))
    assert pedals_of(score) == []
    body = [n for n in notes_of(score) if n.articulation is Articulation.STACCATO]
    assert all(n.duration_ticks == 120 for n in body)


def test_scatter_sorted_by_value_is_monotone_in_pitch():
    values = [13, 2, 88, 41, 7, 66, 29, 54]
    score = melodify(dataset(values), spec(Idiom.SCATTER))
    body = [n for n in notes_of(score) if n.articulation is Articulation.STACCATO]
    paired = sorted(zip(values, [n.pitch for n in body]))
    pitches = [p for _, p in paired]
    assert pitches == sorted(pitches)


def test_scatter_orders_rows_by_x_when_bound():
    ds = Dataset(
        (
            Column("t", ColumnKind.QUANTITATIVE, (2.0, 1.0)),
            Column("v", ColumnKind.QUANTITATIVE, (10.0, 0.0)),
        ),
        2,
    )
    score = melodify(ds, MelodySpec(Idiom.SCATTER, Palette.POSITIVE, "v", x_field="t"))
    body = [n for n in notes_of(score) if n.articulation is Articulation.STACCATO]
    # Row with t=1 (v=0) plays first, at the anchor.
    assert body[0].pitch == 48
    assert body[1].pitch > 48


def test_scatter_grey_omits_cadence():
    score = melodify(dataset(SPARSE_WIDE), spec(Idiom.SCATTER, Palette.GREY))
    assert all(n.velocity != 96 for n in notes_of(score))


# --- dispatcher ---------------------------------------------------------------

def test_melodify_populates_metadata():
    score = melodify(dataset([1, 2], ["a", "b"]), spec(Idiom.BAR, Palette.CALM, x="k"))
    assert score.tempo_bpm == 72
    assert score.time_signature == (3, 4)
    assert score.key_signature == (0, ScaleMode.MAJOR)


def test_melodify_empty_dataset():
    empty = Dataset((Column("v", ColumnKind.QUANTITATIVE, ()),), 0)
    with pytest.raises(ParseError, match="dataset has no rows"):
        melodify(empty, spec(Idiom.SCATTER))


@pytest.mark.parametrize(
    ("ds", "melody_spec", "pedals"),
    [
        (dataset([3, 1, 4], ["a", "b", "c"]), spec(Idiom.BAR, x="k"), 0),
        (dataset([3, 1, 4], ["a", "b", "c"]), spec(Idiom.BAR, x="k", histogram=True), 2),
        (dataset([3, 1, 4, 2], ["a", "b", "c", "d"]), spec(Idiom.PIE, x="k"), 0),
        (dataset(LINE_Y), spec(Idiom.LINE, Palette.GREY), 0),
        (dataset(SPARSE_WIDE), spec(Idiom.SCATTER), 2),
    ],
    ids=["bar", "bar-histogram", "pie", "line-grey", "scatter-sparse"],
)
def test_every_idiom_writes_its_events_in_score_order(ds, melody_spec, pedals):
    # melodify no longer sorts, so each body and the cadence after it
    # must already be in score order, a pedal before the notes at its tick.
    score = melodify(ds, melody_spec)
    assert len(pedals_of(score)) == pedals
    assert score.events == reference.sort_events(score.events)


# --- the per-root chord cache -------------------------------------------------

def test_cached_chord_matches_the_uncached_oracle_for_every_root():
    for scale in [build_scale(root, mode) for root in range(12) for mode in ScaleMode]:
        in_range = 0
        for root in range(128):
            # A degenerate domain quantizes to the anchor, so the anchor
            # is the root. Roots outside the scale or whose chord leaves
            # the MIDI range must fail as the oracle does.
            args = (0.0, (0.0, 0.0), scale, 0, root)
            try:
                expected = reference.uncached_quantized_chord(*args)
            except (ValueError, MelodifyError) as exc:
                with pytest.raises(type(exc)):
                    melodifier._chord_on_root(quantize_pitch(*args), scale)
            else:
                assert melodifier._chord_on_root(quantize_pitch(*args), scale) == expected
                in_range += 1
        # 69 to 71 roots in each diatonic scale, 121 in each chromatic one.
        assert in_range >= 69


def test_a_long_bar_chart_builds_each_chord_once(monkeypatch):
    quantized, roots = [], []

    def recording_quantize(value, *args):
        quantized.append(value)
        roots.append(quantize_pitch(value, *args))
        return roots[-1]

    monkeypatch.setattr(melodifier, "quantize_pitch", recording_quantize)
    values = [(i * 7919) % 1000 + 1 for i in range(3000)]
    ds = dataset(values, labels(values))
    melodifier._chord_on_root.cache_clear()
    melodify(ds, spec(Idiom.BAR, x="k"))
    info = melodifier._chord_on_root.cache_info()
    # quantize_pitch runs once per distinct value, where melodifier looks
    # it up, in the order the values first occur; so does the chord lookup.
    assert quantized == list(dict.fromkeys(map(float, values)))
    assert len(quantized) == 1000
    assert info.hits + info.misses == 1000
    assert info.misses <= len(set(roots))


@pytest.mark.parametrize("idiom, values", [
    (Idiom.SCATTER, [(i * 7919) % 1000 + 1 for i in range(3000)]),
    (Idiom.PIE, [3, 1, 3, 2, 1]),
    (Idiom.PIE, [0, 2, 0, 2]),  # a silent slice still has its value's pitch
])
def test_scatter_and_pie_quantize_each_distinct_value_once(monkeypatch, idiom, values):
    quantized = []

    def recording_quantize(value, *args):
        quantized.append(value)
        return quantize_pitch(value, *args)

    monkeypatch.setattr(melodifier, "quantize_pitch", recording_quantize)
    melodify(dataset(values, labels(values)), spec(idiom))
    assert quantized == list(dict.fromkeys(map(float, values)))


# --- bar, scatter and pie bodies: each distinct value once --------------------

series_values = st.one_of(
    st.integers(-3, 3),  # many duplicates
    st.integers(1, 1000),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@given(
    values=st.lists(series_values, min_size=1, max_size=40),
    palette=st.sampled_from(list(Palette)),
    key_root=st.integers(0, 11),
    histogram=st.booleans(),
    time_signature=st.sampled_from([None, (3, 4), (7, 8), (1, 32)]),
)
@example(values=[5], palette=Palette.POSITIVE, key_root=0, histogram=True,
         time_signature=None)
@example(values=[7] * 12, palette=Palette.GREY, key_root=3, histogram=False,
         time_signature=None)
@example(values=[1.5, 1.5, 2.25, 1000.0] * 10, palette=Palette.NEGATIVE, key_root=11,
         histogram=True, time_signature=None)
# 3000 values over about 1000 distinct ones, as a wide bar chart has them.
@example(values=[(i * 7919) % 997 * 0.5 for i in range(3000)], palette=Palette.GREY,
         key_root=5, histogram=False, time_signature=None)
# 0.0 and -0.0 are one dict key; each must still play as the loop plays it.
@example(values=[-0.0, 0.0, 3.0, -0.0, -2.0, 0.0], palette=Palette.POSITIVE, key_root=0,
         histogram=True, time_signature=None)
@example(values=[0.0, -0.0, 0.0], palette=Palette.CALM, key_root=7, histogram=False,
         time_signature=(3, 4))
def test_bar_and_scatter_bodies_match_the_per_value_loops(
    values, palette, key_root, histogram, time_signature
):
    cases = [
        (Idiom.BAR, melodifier._bar_body, reference.bar_body, "k", values),
        (Idiom.SCATTER, melodifier._scatter_body, reference.scatter_body, None, values),
    ]
    # A pie plays the values' sizes, when they have a positive total.
    shares = [abs(value) for value in values]
    if sum(shares) > 0:
        cases.append((Idiom.PIE, melodifier._pie_body, reference.pie_body, "k", shares))
    for idiom, body, oracle, x, played in cases:
        melody_spec = spec(
            idiom, palette, x=x, key_root=key_root, histogram=histogram,
            time_signature=time_signature,
        )
        plan = apply_palette(melody_spec)
        character = derive_character(dataset(played, labels(played)), "v", x)
        try:
            expected, expected_end = oracle(melody_spec, plan, character)
        except ProportionError as refusal:
            # A slice too small for the sixteenth grid: the same refusal.
            with pytest.raises(ProportionError) as raised:
                body(melody_spec, plan, character)
            assert str(raised.value) == str(refusal)
            continue
        events, body_end = body(melody_spec, plan, character)
        assert body_end == expected_end
        assert_same_events(events, expected)
