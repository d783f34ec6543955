"""Seeded inputs for the benchmark workloads.

Every workload draws its inputs from a fixed pool of cases. A case is
built from its pool name alone (``bar-wide/grey/3`` is the same bytes on
every machine and in every run), and ``--seed`` only picks which pool
cases a run compiles and in what order. That is what lets
``digests.json`` hold the output digests of every input any seed can
produce.

The generators avoid every input whose outcome the planned robustness
work could change: no flat key names, no byte-order mark, no pie slice
that rounds to zero sixteenths, no loop near a plausible output cap.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PALETTES = ("positive", "negative", "grey", "exciting", "calm")
IDIOMS = ("bar", "pie", "line", "scatter")
# Natural and sharp spellings only.
KEYS = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

# palette -> (tempo, meter, notes in the closing cadence), as README states.
PALETTE_FACTS = {
    "positive": (120, (4, 4), 6),
    "negative": (88, (4, 4), 6),
    "grey": (100, (4, 4), 0),
    "exciting": (160, (2, 4), 6),
    "calm": (72, (3, 4), 6),
}

TICKS_PER_QUARTER = 480
PIE_CYCLE_BARS = 4
SIXTEENTH = TICKS_PER_QUARTER // 4

REJECT_CODES = {
    "negative-pie": "E_PROPORTION",
    "categorical-y": "E_BINDING",
    "ragged-csv": "E_PARSE",
}


@dataclass(frozen=True)
class Expect:
    """What a correct compile of a case looks like.

    ``notes`` is set only where the README fixes the note count (bar,
    pie, scatter); ``golden`` names a file under tests/golden that the
    text score must equal.
    """

    exit: int
    code: str | None = None
    tempo: int | None = None
    meter: tuple[int, int] | None = None
    notes: int | None = None
    golden: str | None = None


@dataclass(frozen=True)
class Case:
    name: str
    data_suffix: str
    data: bytes
    flags: tuple[str, ...]
    rows: int
    expect: Expect

    @property
    def stem(self) -> str:
        return self.name.replace("/", "__")

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for part in (self.data_suffix.encode(), self.data, json.dumps(self.flags).encode()):
            h.update(hashlib.sha256(part).digest())
        return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple[str, ...]   # pool name prefixes drawn from separately
    pool_per_stratum: int
    draw_per_stratum: int
    build: Callable[[str, int], Case]


def _table(header: list[str], rows: list[list], fmt: str) -> tuple[str, bytes]:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return ".csv", buf.getvalue().encode("utf-8")
    records = [dict(zip(header, row)) for row in rows]
    return ".json", json.dumps(records).encode("utf-8")


def _flags(spec: dict) -> tuple[str, ...]:
    names = {"idiom": "--idiom", "palette": "--palette", "y": "--y", "x": "--x",
             "key": "--key", "tempo": "--tempo", "time_signature": "--time",
             "loop": "--loop"}
    out: list[str] = []
    for key, flag in names.items():
        if key in spec:
            out += [flag, str(spec[key])]
    if spec.get("histogram"):
        out.append("--histogram")
    return tuple(out)


def _meter(spec: dict) -> tuple[int, int]:
    if "time_signature" in spec:
        num, den = spec["time_signature"].split("/")
        return int(num), int(den)
    return PALETTE_FACTS[spec["palette"]][1]


def pie_units(meter: tuple[int, int]) -> int:
    """Sixteenth-note slots in one pie cycle under this meter."""
    num, den = meter
    return PIE_CYCLE_BARS * (num * 4 * TICKS_PER_QUARTER // den) // SIXTEENTH


def _require_sounded(values: list, spec: dict) -> None:
    """Refuse a pie whose smallest slice could round to zero sixteenths."""
    if min(values) * pie_units(_meter(spec)) <= sum(values):
        raise ValueError(f"pie {values} has a slice below one sixteenth")


def _expect(spec: dict, rows: int, golden: str | None = None) -> Expect:
    palette_tempo, _, cadence = PALETTE_FACTS[spec["palette"]]
    per_row = {"bar": 3, "scatter": 1,
               "pie": 3 * spec.get("loop", 2), "line": None}[spec["idiom"]]
    return Expect(
        exit=0,
        tempo=spec.get("tempo", palette_tempo),
        meter=_meter(spec),
        notes=None if per_row is None else per_row * rows + cadence,
        golden=golden,
    )


def _case(name: str, spec: dict, header: list[str], rows: list[list], fmt: str,
          golden: str | None = None) -> Case:
    """A compile case whose spec is given as command-line flags."""
    suffix, data = _table(header, rows, fmt)
    return Case(name, suffix, data, _flags(spec), len(rows),
                _expect(spec, len(rows), golden))


def _walk(rng: random.Random, n: int) -> list[int]:
    y, out = rng.randint(20, 60), []
    for _ in range(n):
        y += rng.randint(-5, 5)
        out.append(y)
    return out


# --- small-mixed -----------------------------------------------------------

def _small_valid(idiom: str, palette: str, index: int) -> Case:
    """A small table compiled the way the README's quick start does it:
    integer values, the spec as flags (plus a key), CSV for even pool
    indexes and JSON for odd ones."""
    name = f"small-mixed/{idiom}-{palette}/{index}"
    rng = random.Random(name)
    spec: dict = {"idiom": idiom, "palette": palette, "y": "value",
                  "key": rng.choice(KEYS)}
    fmt = "csv" if index % 2 == 0 else "json"
    if idiom in ("bar", "pie"):
        spec["x"] = "label"
        if idiom == "pie":
            # 20..40 over at most 12 slices keeps every share above
            # 1/32, so every slice gets a sixteenth in the cycle.
            values = [rng.randint(20, 40) for _ in range(rng.randint(4, 12))]
            _require_sounded(values, spec)
        else:
            values = [rng.randint(1, 100) for _ in range(rng.randint(4, 40))]
        rows = [[f"{chr(97 + i % 26)}{i}", v] for i, v in enumerate(values)]
        return _case(name, spec, ["label", "value"], rows, fmt)

    n = rng.randint(4, 40)
    values = _walk(rng, n) if idiom == "line" else [rng.randint(1, 100) for _ in range(n)]
    spec["x"] = "t"
    return _case(name, spec, ["t", "value"], [[t, v] for t, v in enumerate(values)], fmt)


def _small_reject(kind: str, index: int) -> Case:
    name = f"small-mixed/reject-{kind}/{index}"
    rng = random.Random(name)
    n = rng.randint(4, 12)
    values = [rng.randint(20, 40) for _ in range(n)]
    rows = [[f"s{i}", v] for i, v in enumerate(values)]
    fmt = "csv"
    if kind == "negative-pie":
        rows[rng.randrange(n)][1] = -rng.randint(1, 40)
        spec = {"idiom": "pie", "palette": rng.choice(PALETTES), "y": "value", "x": "label"}
        fmt = rng.choice(("csv", "json"))
    elif kind == "categorical-y":
        spec = {"idiom": rng.choice(IDIOMS), "palette": rng.choice(PALETTES), "y": "label"}
        fmt = rng.choice(("csv", "json"))
    else:
        rows[rng.randrange(n)].append(rng.randint(1, 9))
        spec = {"idiom": "bar", "palette": rng.choice(PALETTES), "y": "value", "x": "label"}
    suffix, data = _table(["label", "value"], rows, fmt)
    return Case(name, suffix, data, _flags(spec), n,
                Expect(exit=1, code=REJECT_CODES[kind]))


def _track_cases() -> list[Case]:
    """The built-in demonstration tracks as files the CLI reads."""
    from melodify.ingest import ColumnKind
    from melodify.tracks import TRACKS

    cases = []
    for track in TRACKS:
        columns = track.dataset.columns
        header = [c.name for c in columns]
        rows = [[c.values[i] if c.kind is ColumnKind.CATEGORICAL else repr(c.values[i])
                 for c in columns] for i in range(track.dataset.row_count)]
        s = track.spec
        spec = {"idiom": s.idiom.value, "palette": s.palette.value, "y": s.y_field,
                "key": KEYS[s.key_root]}
        if s.x_field is not None:
            spec["x"] = s.x_field
        if s.idiom.value == "pie":
            spec["loop"] = s.loop_count
        if s.tempo_bpm is not None:
            spec["tempo"] = s.tempo_bpm
        if s.time_signature is not None:
            spec["time_signature"] = "/".join(map(str, s.time_signature))
        if s.histogram:
            spec["histogram"] = True
        case = _case(f"small-mixed/track/{track.slug}", spec, header, rows, "csv",
                     golden=track.slug)
        cases.append(case)
    return cases


def _build_small(stratum: str, index: int) -> Case:
    kind = stratum.split("/", 1)[1]
    if kind.startswith("reject-"):
        return _small_reject(kind[len("reject-"):], index)
    idiom, palette = kind.split("-")
    return _small_valid(idiom, palette, index)


# --- heavy workloads ---------------------------------------------------------

def line_case(palette: str, kind: str, index: int, n: int = 3000) -> Case:
    """Piecewise-linear series: 3-6 true segments plus noise."""
    name = f"line-long/{palette}-{kind}/{index}" + ("" if n == 3000 else f"/n{n}")
    rng = random.Random(name)
    cuts = sorted(rng.sample(range(n // 20, n - n // 20), rng.randint(2, 5)))
    slopes = [rng.choice((-1, 1)) * rng.uniform(0.2, 3.0) for _ in range(len(cuts) + 1)]
    y, values, segment = rng.uniform(-100, 100), [], 0
    for i in range(n):
        while segment < len(cuts) and i >= cuts[segment]:
            segment += 1
        y += slopes[segment]
        noisy = y + rng.gauss(0.0, 4.0)
        values.append(round(noisy) if kind == "int" else round(noisy, 3))
    spec = {"idiom": "line", "palette": palette, "y": "v", "x": "t"}
    return _case(name, spec, ["t", "v"], [[i, v] for i, v in enumerate(values)],
                 "csv" if index % 2 == 0 else "json")


def bar_case(palette: str, index: int, n: int = 3000) -> Case:
    name = f"bar-wide/{palette}/{index}" + ("" if n == 3000 else f"/n{n}")
    rng = random.Random(name)
    rows = [[f"k{i:05d}", rng.randint(1, 1000)] for i in range(n)]
    spec = {"idiom": "bar", "palette": palette, "y": "value", "x": "category"}
    return _case(name, spec, ["category", "value"], rows,
                 "csv" if index % 2 == 0 else "json")


def pie_case(palette: str, index: int, loop: int = 128) -> Case:
    """32 slices of 80..120: every share is above 1/64 of the 4/4 cycle."""
    name = f"pie-loop/{palette}/{index}" + ("" if loop == 128 else f"/loop{loop}")
    rng = random.Random(name)
    values = [rng.randint(80, 120) for _ in range(32)]
    spec = {"idiom": "pie", "palette": palette, "y": "share", "x": "slice",
            "loop": loop}
    _require_sounded(values, spec)
    rows = [[f"slice{i:02d}", v] for i, v in enumerate(values)]
    return _case(name, spec, ["slice", "share"], rows,
                 "csv" if index % 2 == 0 else "json")


def _build_line(stratum: str, index: int) -> Case:
    palette, kind = stratum.split("/", 1)[1].split("-")
    return line_case(palette, kind, index)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "small-mixed",
            tuple(f"small-mixed/{i}-{p}" for i in IDIOMS for p in PALETTES)
            + tuple(f"small-mixed/reject-{k}" for k in REJECT_CODES),
            pool_per_stratum=10,
            draw_per_stratum=6,
            build=_build_small,
        ),
        Workload(
            "line-long",
            tuple(f"line-long/{p}-{k}" for p in ("positive", "grey")
                  for k in ("int", "real")),
            pool_per_stratum=6,
            draw_per_stratum=1,
            build=_build_line,
        ),
        Workload(
            "bar-wide",
            tuple(f"bar-wide/{p}" for p in PALETTES),
            pool_per_stratum=6,
            draw_per_stratum=1,
            build=lambda stratum, i: bar_case(stratum.split("/")[1], i),
        ),
        Workload(
            "pie-loop",
            tuple(f"pie-loop/{p}" for p in ("positive", "negative", "grey")),
            pool_per_stratum=8,
            draw_per_stratum=1,
            build=lambda stratum, i: pie_case(stratum.split("/")[1], i),
        ),
    )
}


def pool(workload: str) -> list[Case]:
    """Every case the workload can ever draw."""
    w = WORKLOADS[workload]
    cases = [w.build(s, i) for s in w.strata for i in range(w.pool_per_stratum)]
    if workload == "small-mixed":
        cases += _track_cases()
    return cases


def draw(workload: str, seed: int) -> list[Case]:
    """The run's inputs: a seeded draw from each stratum of the pool
    (plus, for small-mixed, the nine built-in tracks), in seeded order."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    cases = [w.build(s, i) for s in w.strata
             for i in sorted(rng.sample(range(w.pool_per_stratum), w.draw_per_stratum))]
    if workload == "small-mixed":
        cases += _track_cases()
    rng.shuffle(cases)
    return cases


def materialize(case: Case, directory: Path) -> list[str]:
    """Write the case's files and return its ``compile`` argv."""
    data = directory / (case.stem + case.data_suffix)
    data.write_bytes(case.data)
    return ["compile", "--data", str(data), *case.flags,
            "--emit", "both", "--out", str(directory / (case.stem + ".mid"))]
