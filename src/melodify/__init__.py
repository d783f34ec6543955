"""melodify: compile tabular data plus chart intent into musical scores.

The pipeline runs ingest -> analysis -> mapping -> score -> bytes:
`parse_table` and `parse_spec` read the inputs, `melodify` turns them
into a `Score`, `expand_loops` makes its loop concrete, and `write_smf`
/ `write_text_score` serialize it. `melodify` is the one mapping entry
point for every idiom: it checks the binding (`validate_binding`),
summarizes the data (`derive_character(dataset, y_field, x_field)` ->
`DataCharacter`), resolves the palette (`apply_palette` -> `TonalPlan`),
has the idiom write its body and closes it with the palette's cadence,
in score order without a sort.
A `DataCharacter` holds the ordered series, density and spread; its
trend `segments` and `proportions` (plain `(label, ratio)` pairs) are
computed on first use, so only the idioms that read them pay for them,
and `melodify analyze` prints the same record. Every `Score` counts
time at a fixed 480 ticks per quarter note. `write_smf` refuses a score
with `structural_errors`, the one-pass gate that also proves the events
are in order; `lint` lists advisory musical warnings and is never run on
the way to the bytes. The names below are the public API.
"""
from .errors import MelodifyError
from .ingest import (
    Column,
    ColumnKind,
    Dataset,
    Idiom,
    MelodySpec,
    Palette,
    TableFormat,
    parse_spec,
    parse_table,
    spec_from_mapping,
    validate_binding,
)
from .melodifier import (
    DataCharacter,
    TonalPlan,
    apply_palette,
    derive_character,
    melodify,
)
from .score import (
    Articulation,
    Loop,
    NoteEvent,
    PedalEvent,
    PedalState,
    Score,
    expand_loops,
    lint,
    structural_errors,
    total_duration_ticks,
)
from .smf import parse_smf_minimal, write_smf, write_text_score
from .stats import (
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
)
from .tracks import TRACKS

__version__ = "0.1.0"
