"""Where the benchmark finds the program, and the settings it runs under."""
from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = ROOT / "tests" / "golden"
DIGESTS = BENCH / "digests.json"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message: str):
    """Stop without a result: the benchmark cannot measure this checkout."""
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout() -> None:
    """Pin BLAS to one thread, here and in every child (the load is one
    thread on a two-core machine), and import melodify from this
    checkout's src/ only. Call before anything imports numpy."""
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    if not (SRC / "melodify" / "cli.py").is_file():
        fail(f"no melodify sources at {SRC}: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import melodify.cli

    if SRC not in Path(melodify.cli.__file__).resolve().parents:
        fail(f"imported melodify from {melodify.cli.__file__}, not from {SRC}")
