"""Run the benchmark over several seeds and keep every result.

    python3 bench/series.py --seeds 1-10 --out bench/out/series.json
    python3 bench/series.py --seeds 1-10 --side ../parent P.json --side . C.json

Each --side is a checkout and the file its results go to; the default
is this checkout. With two sides, every (seed, workload) runs on both,
and the side that runs first alternates from seed to seed. Feed the
files to compare.py.
"""
from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def machine() -> dict:
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout + proc.stderr, file=sys.stderr)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": wall, "result": result}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="bench/out/series.json",
                        help="result file when no --side is given")
    parser.add_argument("--side", nargs=2, action="append", metavar=("CHECKOUT", "OUT"))
    args = parser.parse_args()

    sides = [(Path(c).resolve(), Path(o)) for c, o in (args.side or [(ROOT, args.out)])]
    records = [{"machine": machine(), "checkout": os.path.relpath(c), "seconds": args.seconds,
                "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "runs": []} for c, _ in sides]
    failed = 0
    for n, seed in enumerate(parse_seeds(args.seeds)):
        for workload in args.workloads.split(","):
            order = range(len(sides)) if n % 2 == 0 else reversed(range(len(sides)))
            for i in order:
                run = run_once(sides[i][0], workload, seed, args.seconds, args.trace)
                records[i]["runs"].append(run)
                failed += run["exit"] != 0
                print(f"{sides[i][0].name} {workload} seed {seed}: exit {run['exit']}, "
                      f"{run['wall_s']:.1f} s wall", flush=True)
                sides[i][1].parent.mkdir(parents=True, exist_ok=True)
                sides[i][1].write_text(json.dumps(records[i], indent=1) + "\n",
                                       encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
