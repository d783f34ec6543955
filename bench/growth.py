"""Growth sweep: per-layer self time and memory peak at several sizes.

    python3 bench/growth.py [--out bench/results/growth.json]

Outside the gate: it shows whether each layer grows linearly in rows or
events. For line, bar and pie-loop it compiles one input per size with
the layers traced (median of REPEATS timed compiles, then one memory
pass), and prints each layer's growth exponent between the smallest and
largest size: about 1 for linear, about 2 for quadratic. Line stops at
5000 rows, where the n x n segmentation matrix is 200 MB (n = 20000
would need about 3.2 GB). Outputs are checked as in a run, except that
these sizes have no recorded digests.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import sys

import env

env.use_checkout()

import gate  # noqa: E402
import run  # noqa: E402
import series  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from env import OUT  # noqa: E402

REPEATS = 3
SWEEPS = {
    "line": ("rows", [1250, 2500, 5000], lambda n: workloads.line_case("positive", "real", 0, n)),
    "bar": ("rows", [1500, 3000, 6000], lambda n: workloads.bar_case("positive", 0, n)),
    "pie-loop": ("loop", [32, 64, 128], lambda n: workloads.pie_case("positive", 0, n)),
}


def measure(case: workloads.Case, work_dir) -> dict:
    job = gate.Job(case, workloads.materialize(case, work_dir), work_dir / f"{case.stem}.mid",
                   work_dir / f"{case.stem}.txt", None, None)
    tally = run.Tally()
    samples = []
    for _ in range(REPEATS):
        timing = tracer.Tracer()
        with timing.installed() as main:
            run.run_pass(main, [job], 0, tally, cycles=1)
        samples.append(timing.self_s)
    memory = tracer.Tracer(memory=True)
    with memory.installed() as main:
        run.run_pass(main, [job], 0, tally, cycles=1)
    if tally.failed:
        env.fail(f"{case.name}: {tally.problems[0]}")
    return {
        "compile_s": statistics.median(tally.times[:REPEATS]),
        "self_s": {layer: statistics.median(s[layer] for s in samples)
                   for layer in tracer.ALL_LAYERS},
        "peak_mb": {layer: memory.peak_bytes[layer] / 2**20 for layer in tracer.PEAK_LAYERS},
    }


def exponent(small: float, large: float, ratio: float) -> float | None:
    if small <= 0 or large <= 0:
        return None
    return math.log(large / small) / math.log(ratio)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="bench/results/growth.json")
    args = parser.parse_args()
    work_dir = OUT / "growth"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    results = {}
    try:
        for sweep, (axis, sizes, build) in SWEEPS.items():
            points = {n: measure(build(n), work_dir) for n in sizes}
            results[sweep] = {"axis": axis, "sizes": sizes, "points": points}
            lo, hi = points[sizes[0]], points[sizes[-1]]
            ratio = sizes[-1] / sizes[0]
            print(f"{sweep}: {axis} {sizes}, compile "
                  + ", ".join(f"{points[n]['compile_s']:.4f}" for n in sizes) + " s")
            for layer in tracer.ALL_LAYERS:
                times = [points[n]["self_s"][layer] for n in sizes]
                if max(times) < 1e-3:
                    continue
                k = exponent(lo["self_s"][layer], hi["self_s"][layer], ratio)
                line = (f"  {layer:30s} self " + " ".join(f"{t:9.5f}" for t in times)
                        + " s  exponent " + ("n/a" if k is None else f"{k:.2f}"))
                if layer in tracer.PEAK_LAYERS:
                    peaks = [points[n]["peak_mb"][layer] for n in sizes]
                    line += "  peak " + " ".join(f"{p:7.2f}" for p in peaks) + " MB"
                print(line)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump({"machine": series.machine(), "repeats": REPEATS,
                   "sweeps": results}, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
