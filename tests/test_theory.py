"""Scales, triads, cadences, quantization, arpeggios."""
from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from melodify.errors import MelodifyError
from melodify.theory import (
    ArpeggioDirection,
    CadenceKind,
    ChordQuality,
    ScaleMode,
    _members_in_span,
    arpeggiate,
    build_scale,
    degree_triad,
    make_cadence,
    quantize_pitch,
    triad_on_pitch,
)

C_MAJOR = build_scale(0, ScaleMode.MAJOR)
A_MINOR = build_scale(9, ScaleMode.NATURAL_MINOR)
CHROMATIC = build_scale(0, ScaleMode.CHROMATIC)


# --- scales -------------------------------------------------------------------

def test_major_scale_members():
    assert C_MAJOR.member_classes == (0, 2, 4, 5, 7, 9, 11)
    assert build_scale(7, ScaleMode.MAJOR).member_classes == (7, 9, 11, 0, 2, 4, 6)


def test_natural_minor_members():
    assert A_MINOR.member_classes == (9, 11, 0, 2, 4, 5, 7)
    assert build_scale(0, ScaleMode.NATURAL_MINOR).member_classes == (
        0, 2, 3, 5, 7, 8, 10,
    )


def test_chromatic_members():
    assert CHROMATIC.member_classes == tuple(range(12))
    assert all(CHROMATIC.contains(p) for p in range(128))


def test_relative_major_and_minor_share_members():
    assert set(A_MINOR.member_classes) == set(C_MAJOR.member_classes)


def test_bad_root_rejected():
    with pytest.raises(ValueError):
        build_scale(12, ScaleMode.MAJOR)


# --- triads -------------------------------------------------------------------

# Diatonic triad qualities on every degree, the classical pattern.
MAJOR_QUALITIES = [
    ChordQuality.MAJOR, ChordQuality.MINOR, ChordQuality.MINOR, ChordQuality.MAJOR,
    ChordQuality.MAJOR, ChordQuality.MINOR, ChordQuality.DIMINISHED,
]
MINOR_QUALITIES = [
    ChordQuality.MINOR, ChordQuality.DIMINISHED, ChordQuality.MAJOR,
    ChordQuality.MINOR, ChordQuality.MINOR, ChordQuality.MAJOR, ChordQuality.MAJOR,
]


@pytest.mark.parametrize("root", range(12))
def test_degree_qualities_every_major_key(root):
    scale = build_scale(root, ScaleMode.MAJOR)
    got = [degree_triad(scale, d, 48).quality for d in range(1, 8)]
    assert got == MAJOR_QUALITIES


@pytest.mark.parametrize("root", range(12))
def test_degree_qualities_every_minor_key(root):
    scale = build_scale(root, ScaleMode.NATURAL_MINOR)
    got = [degree_triad(scale, d, 48).quality for d in range(1, 8)]
    assert got == MINOR_QUALITIES


def test_c_major_triad_pitches():
    chord = degree_triad(C_MAJOR, 1, 60)
    assert chord.pitches == (60, 64, 67)
    assert chord.quality is ChordQuality.MAJOR
    assert chord.root == 60


def test_dominant_of_c_at_bass_anchor():
    chord = degree_triad(C_MAJOR, 5, 48)
    assert chord.pitches == (55, 59, 62)


def test_triad_on_pitch():
    assert triad_on_pitch(61, ChordQuality.MAJOR).pitches == (61, 65, 68)
    assert triad_on_pitch(61, ChordQuality.MINOR).pitches == (61, 64, 68)
    assert triad_on_pitch(61, ChordQuality.DIMINISHED).pitches == (61, 64, 67)


def test_degree_triad_rejects_chromatic_and_bad_degree():
    with pytest.raises(MelodifyError, match="chromatic scale has no functional degrees"):
        degree_triad(CHROMATIC, 1, 48)
    with pytest.raises(MelodifyError, match="degree must be 1..7, got 0"):
        degree_triad(C_MAJOR, 0, 48)
    with pytest.raises(MelodifyError, match="degree must be 1..7, got 8"):
        degree_triad(C_MAJOR, 8, 48)


def test_degree_triad_out_of_range():
    with pytest.raises(MelodifyError, match="outside MIDI range"):
        degree_triad(C_MAJOR, 7, 125)


# --- cadences -----------------------------------------------------------------

def test_perfect_cadence_in_c():
    chords = make_cadence(CadenceKind.PERFECT, C_MAJOR, 48)
    assert [c.root % 12 for c in chords] == [7, 0]  # V then I
    assert chords[0].pitches == (55, 59, 62)
    assert chords[1].pitches == (48, 52, 55)
    assert chords[1].quality is ChordQuality.MAJOR


def test_deceptive_cadence_in_c():
    chords = make_cadence(CadenceKind.DECEPTIVE, C_MAJOR, 48)
    assert [c.root % 12 for c in chords] == [7, 9]  # V then vi
    assert chords[1].pitches == (57, 60, 64)  # A minor
    assert chords[1].quality is ChordQuality.MINOR


def test_grey_has_no_cadence():
    assert make_cadence(CadenceKind.NONE, C_MAJOR, 48) == []


def test_cadence_rejects_chromatic():
    with pytest.raises(MelodifyError, match="cadences need a functional scale"):
        make_cadence(CadenceKind.PERFECT, CHROMATIC, 48)


# --- quantize_pitch -----------------------------------------------------------

def test_equal_scales_share_one_cache_entry():
    # quantize_pitch caches members per (scale, anchor, span); two equal
    # scales, such as two compiles' plans in one process, must hash and
    # compare alike for the cache to hit.
    first, second = build_scale(2, ScaleMode.MAJOR), build_scale(2, ScaleMode.MAJOR)
    assert first is not second and first == second and hash(first) == hash(second)
    with pytest.raises(AttributeError):
        first.root = 3
    _members_in_span.cache_clear()
    quantize_pitch(3, (0, 10), first, 24, 50)
    quantize_pitch(7, (0, 10), second, 24, 50)
    info = _members_in_span.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_quantize_endpoints_hit_anchor_and_span():
    # Spans are multiples of 12, so both ends are scale members.
    assert quantize_pitch(0, (0, 10), C_MAJOR, 24, 48) == 48
    assert quantize_pitch(10, (0, 10), C_MAJOR, 24, 48) == 72


def test_quantize_midpoint_tie_snaps_down():
    # Halfway up a 12-span lands on 54, equidistant from F (53) and
    # G (55): the tie resolves downward to F.
    assert quantize_pitch(5, (0, 10), C_MAJOR, 12, 48) == 53


def test_quantize_degenerate_domain_is_anchor():
    assert quantize_pitch(42, (42, 42), C_MAJOR, 36, 48) == 48


def test_quantize_clamps_out_of_domain_values():
    assert quantize_pitch(-5, (0, 10), C_MAJOR, 12, 48) == 48
    assert quantize_pitch(15, (0, 10), C_MAJOR, 12, 48) == 60


def test_quantize_chromatic_is_nearest_semitone():
    assert quantize_pitch(1, (0, 12), CHROMATIC, 12, 48) == 49
    assert quantize_pitch(7.5, (0, 12), CHROMATIC, 12, 48) == 55  # tie down


def test_quantize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        quantize_pitch(1, (5, 0), C_MAJOR, 12, 48)
    with pytest.raises(MelodifyError, match="leaves MIDI range"):
        quantize_pitch(1, (0, 10), C_MAJOR, 36, 100)


@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([C_MAJOR, A_MINOR, CHROMATIC]),
    st.sampled_from([12, 24, 36]),
)
def test_quantize_monotone(a, b, scale, span):
    lo, hi = min(a, b), max(a, b)
    p_lo = quantize_pitch(lo, (0, 1000), scale, span, 48)
    p_hi = quantize_pitch(hi, (0, 1000), scale, span, 48)
    assert p_lo <= p_hi
    assert 48 <= p_lo and p_hi <= 48 + span


@given(st.floats(min_value=0, max_value=100), st.sampled_from([12, 24, 36]))
def test_quantize_stays_in_scale(value, span):
    pitch = quantize_pitch(value, (0, 100), C_MAJOR, span, 48)
    assert C_MAJOR.contains(pitch)


@given(
    st.integers(0, 11),
    st.sampled_from(list(ScaleMode)),
    st.integers(0, 90),
    st.integers(0, 36),
    # Half semitones up the span give exact ties between two members;
    # values far outside the domain, infinities included, clamp to its ends.
    st.one_of(
        st.integers(-4, 80).map(lambda k: k / 2),
        st.floats(-1, 41, allow_nan=False),
        st.floats(allow_nan=False),
    ),
)
@example(0, ScaleMode.MAJOR, 48, 24, -1e308)
@example(0, ScaleMode.MAJOR, 48, 24, 1e308)
@example(5, ScaleMode.NATURAL_MINOR, 40, 12, -0.0)
@example(5, ScaleMode.CHROMATIC, 60, 36, math.inf)
@example(5, ScaleMode.CHROMATIC, 60, 36, -math.inf)
def test_quantize_matches_all_members_oracle(root, mode, anchor, span, value):
    scale = build_scale(root, mode)
    top = max(span, 1)
    target = anchor + min(1.0, max(0.0, value / top)) * span
    members = [p for p in range(anchor, anchor + span + 1) if scale.contains(p)]
    if not members:
        with pytest.raises(ValueError):
            quantize_pitch(value, (0, top), scale, span, anchor)
        return
    expected = min(members, key=lambda p: (abs(p - target), p))
    assert quantize_pitch(value, (0, top), scale, span, anchor) == expected


def test_quantize_of_a_fraction_that_overflows_is_the_clamped_one():
    # high - low overflows to inf, so the fraction is 0.0, or nan where
    # value - low overflows too; either picks the pitch that the fraction
    # clamped by min(1.0, max(0.0, fraction)) picks, nan the bottom one.
    domain = (-1.5e308, 1.5e308)
    for value in (-1.5e308, -1.0, 0.0, 1.0, 1.5e308):
        fraction = (value - domain[0]) / (domain[1] - domain[0])
        target = 48 + min(1.0, max(0.0, fraction)) * 24
        expected = min(
            (p for p in range(48, 73) if C_MAJOR.contains(p)),
            key=lambda p: (abs(p - target), p),
        )
        assert quantize_pitch(value, domain, C_MAJOR, 24, 48) == expected


# --- arpeggiate ---------------------------------------------------------------

def test_arpeggio_up_walks_triad_then_octave():
    chord = degree_triad(C_MAJOR, 1, 48)
    assert arpeggiate(chord, ArpeggioDirection.UP, 5, max_octaves=2) == [48, 52, 55, 60, 64]


def test_arpeggio_down_is_reversed_walk():
    chord = degree_triad(C_MAJOR, 1, 48)
    assert arpeggiate(chord, ArpeggioDirection.DOWN, 4, max_octaves=2) == [60, 55, 52, 48]


def test_arpeggio_octave_wrap():
    chord = degree_triad(C_MAJOR, 1, 48)
    walk = arpeggiate(chord, ArpeggioDirection.UP, 7, max_octaves=2)
    assert walk == [48, 52, 55, 60, 64, 67, 48]


def test_arpeggio_unbounded_walk_can_leave_range():
    chord = degree_triad(C_MAJOR, 1, 60)
    # Seven octaves above 60 reach past 127 before the walk would wrap.
    assert arpeggiate(chord, ArpeggioDirection.UP, 18, max_octaves=7)[-1] == 127
    with pytest.raises(MelodifyError, match="arpeggio tone 132 above MIDI range"):
        arpeggiate(chord, ArpeggioDirection.UP, 19, max_octaves=7)


def test_arpeggio_rejects_empty():
    chord = degree_triad(C_MAJOR, 1, 48)
    with pytest.raises(ValueError):
        arpeggiate(chord, ArpeggioDirection.UP, 0, max_octaves=2)
