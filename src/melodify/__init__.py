"""melodify: compile tabular data plus chart intent into musical scores.

The pipeline runs ingest -> analysis -> mapping -> score -> bytes:
`parse_table` reads the table and `spec_from_mapping` the spec's keys
(a decoded JSON object, or flags laid over one), `melodify` turns them
into a `Score`, and `write_smf` / `write_text_score` serialize it, loop
and all: the MIDI file plays the repeats, the text score marks the loop.
`expand_loops` writes a loop out in full, for inspection and for the
notes `melodify compile` counts in the score as played. `melodify` is the
one mapping entry point for every idiom: it checks the binding
(`validate_binding`), summarizes the data (`derive_character(dataset,
y_field, x_field)` -> `DataCharacter`), resolves the palette
(`apply_palette` -> `TonalPlan`), has the idiom write its body and
closes it with the palette's cadence, in score order without a sort.
A `DataCharacter` holds the ordered series, density and spread; its
trend `segments` and `proportions` (plain `(label, ratio)` pairs) are
computed on first use, so only the idioms that read them pay for them,
and `melodify analyze` prints the same record. Every `Score` counts
time at a fixed 480 ticks per quarter note. `write_smf` refuses a score
with `structural_errors`, the one-pass gate that also proves the events
are in order.

The names in `__all__` are the public API. Each resolves on first use
(PEP 562), so `import melodify` loads no submodule and a name costs only
the import of the module that defines it.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "MelodifyError"),
        ("ingest", "Column ColumnKind Dataset Idiom MelodySpec Palette TableFormat "
                   "parse_table spec_from_mapping validate_binding"),
        ("melodifier", "DataCharacter TonalPlan apply_palette derive_character melodify"),
        ("score", "Articulation Loop NoteEvent PedalEvent PedalState Score "
                  "expand_loops structural_errors total_duration_ticks"),
        ("smf", "write_smf write_text_score"),
        ("stats", "compute_density compute_variance proportions segment_trends"),
        ("theory", "ArpeggioDirection CadenceKind Chord ChordQuality Scale ScaleMode "
                   "arpeggiate build_scale degree_triad make_cadence quantize_pitch"),
        ("tracks", "TRACKS"),
    )
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
