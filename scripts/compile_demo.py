"""Compile one dataset under every palette to hear what mood changes.

Usage: python scripts/compile_demo.py [--out DIR] [--idiom IDIOM]

Writes a small quarterly-revenue table, then runs `melodify compile
--emit both` on it once per palette, which writes a .mid plus .txt pair
for each and prints the compile summary lines. The data never changes
between runs; only the palette does, so the differences you hear are
exactly the palette mappings (scale, tempo, meter, cadence).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import melodify.cli
from melodify.ingest import Idiom, Palette

REVENUE_CSV = b"""quarter,revenue
Q1,104
Q2,117
Q3,93
Q4,128
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo", help="output directory")
    parser.add_argument(
        "--idiom",
        default="bar",
        choices=[i.value for i in Idiom],
        help="chart idiom to compile the table as",
    )
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = out_dir / "revenue.csv"
    data.write_bytes(REVENUE_CSV)

    binding = ["--y", "revenue"]
    if args.idiom in ("bar", "pie"):
        binding += ["--x", "quarter"]
    for palette in Palette:
        out = out_dir / f"revenue-{args.idiom}-{palette.value}.mid"
        code = melodify.cli.main(
            ["compile", "--data", str(data), "--idiom", args.idiom,
             "--palette", palette.value, *binding, "--emit", "both", "--out", str(out)]
        )
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
