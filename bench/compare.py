"""Compare two sets of benchmark results, or judge the spread of one.

    python3 bench/compare.py BASE.json            # spread of each metric
    python3 bench/compare.py BASE.json CHANGE.json

The files come from series.py. One row per workload and metric: each
side's median and quartiles, and the spread, the distance between the
quartiles as a share of the median. With two sides, runs pair up by
(workload, seed) and the verdict follows the rule the benchmark holds
every claim to:

- gain: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the base's quartile
  distance;
- regression: the change's median is worse than the base's by more
  than the metric's bound;
- unresolved: either side's spread is wider than the bound, unless
  every change run beats every base run;
- same: none of these.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, trace) -> metric -> {seed: value}."""
    table: dict = {}
    for run in json.loads(Path(path).read_text(encoding="utf-8"))["runs"]:
        if run["result"] is None:
            continue
        metrics = table.setdefault((run["workload"], run["trace"]), {})
        for name, metric in run["result"]["metrics"].items():
            metrics.setdefault(name, {})[run["seed"]] = metric["value"]
    return table


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values: list[float]) -> float:
    median, q1, q3 = summary(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(base: dict, change: dict, better: str, bound: float | None) -> tuple[str, str]:
    seeds = sorted(set(base) & set(change))
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    b, c = list(base.values()), list(change.values())
    b_med, b_q1, b_q3 = summary(b)
    c_med = summary(c)[0]
    gap = sign * (c_med - b_med)
    pairs = f"{wins}/{len(seeds)}"
    if bound is not None and -gap > bound * abs(b_med):
        return pairs, "regression"
    if bound is not None and max(spread(b), spread(c)) > bound:
        if min(sign * x for x in c) <= max(sign * x for x in b):
            return pairs, "unresolved"
    if seeds and wins >= 0.9 * len(seeds) and gap > b_q3 - b_q1:
        return pairs, "gain"
    return pairs, "same"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else None
    worst = 0
    for (workload, trace), metrics in sorted(base.items()):
        print(f"{workload} (trace {trace}, {len(next(iter(metrics.values())))} runs)")
        for name, values in metrics.items():
            m = meta.get(name, {"better": "lower"})
            bound = m.get("bound")
            med, q1, q3 = summary(list(values.values()))
            row = f"  {name:34s} {med:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread(list(values.values())):6.1%}"
            if change is None:
                if bound is not None:
                    s = spread(list(values.values()))
                    state = "steady" if s < bound / 3 else "within bound" if s <= bound else "UNSTEADY"
                    row += f" bound {bound:.1%}: {state}"
                    if state == "UNSTEADY":
                        worst = 1
                print(row)
                continue
            other = change.get((workload, trace), {}).get(name)
            if not other:
                print(row + "  (missing in change)")
                continue
            c_med, c_q1, c_q3 = summary(list(other.values()))
            pairs, state = verdict(values, other, m["better"], bound)
            if state in ("regression", "unresolved"):
                worst = 1
            print(f"{row} -> {c_med:12.6g} [{c_q1:.6g}, {c_q3:.6g}]"
                  f" wins {pairs} {state}")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
