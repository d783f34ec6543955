"""melodify benchmark: one run of one workload.

    python3 bench/run.py --workload small-mixed --seed 1 --seconds 10 --trace 0

Run from the repository root. The run draws the workload's inputs from
the seed, writes them as the files the CLI reads, and compiles them in a
closed loop through ``melodify.cli.main(["compile", ...])``: one process,
one thread, each compile starting when the previous one returns. Every
compile is checked (see gate.py). The report ends with one JSON line,
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

env.use_checkout()

import melodify.cli  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from env import DIGESTS, GOLDEN, OUT, ROOT, SRC, fail  # noqa: E402

# compile_s.p90 needs at least ten samples beyond it.
P90_MIN_SAMPLES = 100
# Between compiles, a fresh interpreter imports melodify.cli at most this
# often, and at least SETUP_MIN times a run; setup_s is the median.
SETUP_EVERY_S = 0.75
SETUP_MIN = 9
# Between compiles, the reference work runs at most this often.
REFERENCE_EVERY_S = 0.05
# Times are scaled to a host on which the reference work takes this long
# (about the baseline host in its fast state).
REFERENCE_NOMINAL_S = 0.001

_SETUP_CHILD = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import melodify.cli\n"
    "print(time.perf_counter() - start, melodify.cli.__file__)\n"
)


def setup_s() -> float:
    """Import time of melodify.cli, timed inside a fresh interpreter so
    interpreter start-up is left out."""
    child = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT,
                           capture_output=True, text=True, timeout=120, check=False)
    if child.returncode != 0:
        fail(f"importing melodify.cli failed: {child.stderr.strip()}")
    seconds, path = child.stdout.strip().split(" ", 1)
    if SRC not in Path(path).resolve().parents:
        fail(f"a child imported melodify from {path}")
    return float(seconds)


def reference_s() -> float:
    """Time a fixed piece of interpreter-bound work that shares no code
    with melodify: small dicts, strings, tuples and a sort. The host's
    slow phases slow this kind of work about as much as they slow a
    compile, and far more than they slow large numpy passes."""
    start = time.perf_counter()
    rows = []
    for i in range(1500):
        record = {"label": str(i), "value": i * 7 % 101, "pair": [i, i + 1]}
        rows.append((record["label"], record["pair"][1] * record["value"] % 13))
    rows.sort()
    return time.perf_counter() - start


class Sampler:
    """Runs a probe between compiles, at most every ``every_s`` seconds,
    so that its samples see the same states of the host as the compiles."""

    def __init__(self, probe, every_s: float):
        self.probe = probe
        self.every_s = every_s
        self.values: list[float] = []
        self._last = -every_s

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= self.every_s:
            self.values.append(self.probe())
            self._last = time.perf_counter()


def prepare(workload: str, seed: int, work_dir: Path) -> list[gate.Job]:
    """The seed's inputs on disk, each checked against its recorded input
    digest so that one seed always means byte-identical inputs."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    jobs = []
    for case in workloads.draw(workload, seed):
        recorded = digests.get(case.name)
        if recorded is None or recorded["input"] != case.input_digest():
            fail(f"input {case.name} differs from the one recorded in {DIGESTS.name}")
        golden = None
        if case.expect.golden is not None:
            path = GOLDEN / f"{case.expect.golden}.txt"
            if not path.is_file():
                fail(f"golden file {path} is missing")
            golden = path.read_bytes()
        argv = workloads.materialize(case, work_dir)
        jobs.append(gate.Job(case, argv, work_dir / f"{case.stem}.mid",
                             work_dir / f"{case.stem}.txt", recorded, golden))
    return jobs


class Tally:
    """Compile times and outcomes of one pass."""

    def __init__(self):
        self.times: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.failed = 0
        self.problems: list[str] = []

    def add(self, job: gate.Job, seconds: float, problem: str | None) -> None:
        self.times.append(seconds)
        self.by_case.setdefault(job.case.name, []).append(seconds)
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{job.case.name}: {problem}")


def run_pass(main, jobs: list[gate.Job], budget_s: float, tally: Tally,
             cycles: int | None = None,
             traced: tuple[tracer.Tracer, Tally] | None = None,
             between: tuple[Sampler, ...] = ()) -> Tally:
    """Compile every job in turn, in whole cycles, until the next cycle
    would overrun the budget (at least one cycle), or for ``cycles``.

    With ``traced`` (a tracer and its tally) each job is compiled twice
    in a row, untraced and traced, the order swapping every cycle, so
    that both modes sample the same state of the machine. The samplers
    in ``between`` get their turn after each job.
    """
    start = time.perf_counter()
    done = 0
    while True:
        cycle_start = time.perf_counter()
        for job in jobs:
            modes = [(main, tally, None)]
            if traced is not None:
                modes.append((traced[0].main, traced[1], traced[0]))
                if done % 2:
                    modes.reverse()
            for fn, into, trace in modes:
                if trace is None:
                    result = gate.compile_once(fn, job)
                else:
                    trace.compile_id += 1
                    with trace.installed():
                        result = gate.compile_once(fn, job)
                seconds, code, out, err = result
                into.add(job, seconds, gate.check(job, code, out, err))
            for sampler in between:
                sampler()
        done += 1
        now = time.perf_counter()
        if cycles is not None:
            if done >= cycles:
                return tally
        elif (now - start) + (now - cycle_start) > budget_s:
            return tally


def end_to_end(jobs, seconds: float, tallies: list[Tally], report: list[str]) -> dict:
    run_pass(melodify.cli.main, jobs[:1], 0, tallies[0], cycles=1)  # warm-up
    setup_samples = Sampler(setup_s, SETUP_EVERY_S)
    reference = Sampler(reference_s, REFERENCE_EVERY_S)
    measured = run_pass(melodify.cli.main, jobs, seconds, tallies[1],
                        between=(setup_samples, reference))
    while len(setup_samples.values) < SETUP_MIN:
        setup_samples.values.append(setup_s())
        reference()
    # The host runs everything slower or faster for seconds to minutes at
    # a time. The reference work, timed between the same compiles, shows
    # by how much, and every time is scaled to a host on which it takes
    # REFERENCE_NOMINAL_S.
    ref_s = statistics.median(reference.values)
    scale = REFERENCE_NOMINAL_S / ref_s
    setup = statistics.median(setup_samples.values)
    times = measured.times
    p50 = statistics.median(times)
    # Rows of one cycle over the sum of each input's median compile time.
    rows = sum(job.case.rows for job in jobs)
    cycle_s = sum(statistics.median(t) for t in measured.by_case.values())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(len(t.times) for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {
        "setup_s": (setup * scale, "s"),
        "norm_compile_s.p50": (p50 * scale, "s"),
        "norm_rows_per_s": (rows / cycle_s / scale, "rows/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_rate": (1 - failed / attempted, "ratio"),
    }
    report.append(f"reference           {ref_s * 1e3:.4f} ms  (median of {len(reference.values)}; "
                  f"scale = {REFERENCE_NOMINAL_S * 1e3:g} ms / reference = {scale:.4f})")
    report.append(f"setup_s             {metrics['setup_s'][0]:.4f} s  (median of "
                  f"{len(setup_samples.values)} fresh imports, {setup:.4f} s, x scale)")
    report.append(f"norm_compile_s.p50  {metrics['norm_compile_s.p50'][0]:.6f} s  "
                  f"(compile_s.p50 x scale)")
    report.append(f"norm_rows_per_s     {metrics['norm_rows_per_s'][0]:.1f} rows/s  "
                  f"(rows_per_s / scale)")
    report.append(f"compile_s.p50       {p50:.6f} s  ({len(times)} samples)")
    if len(times) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(times, n=10)[-1]
        report.append(f"compile_s.p90       {p90:.6f} s  ({len(times)} samples)")
    else:
        report.append(f"compile_s.p90       not defined ({len(times)} samples, "
                      f"needs {P90_MIN_SAMPLES})")
    report.append(f"rows_per_s          {rows / cycle_s:.1f} rows/s")
    report.append(f"peak_rss_mb         {peak_mb:.1f} MB")
    report.append(f"error_rate          {failed / attempted:.6f}  ({failed}/{attempted})")
    return metrics


def per_layer(workload: str, seed: int, jobs, seconds: float, tallies: list[Tally],
              report: list[str]) -> dict:
    run_pass(melodify.cli.main, jobs[:1], 0, tallies[0], cycles=1)  # warm-up
    timing = tracer.Tracer()
    plain = run_pass(melodify.cli.main, jobs, seconds, tallies[1], traced=(timing, tallies[2]))
    traced = tallies[2]
    memory = tracer.Tracer(memory=True)
    with memory.installed() as memory_main:
        run_pass(memory_main, jobs, 0, tallies[3], cycles=1)
    timing.require_calls(workload)
    memory.require_calls(workload)

    spans = OUT / "spans" / f"{workload}-seed{seed}.json"
    timing.write_spans(spans)
    metrics = tracer.layer_metrics(timing, len(traced.times), memory)
    # The two tallies hold the same jobs in the same order, compiled in pairs.
    overhead = statistics.median(t - u for u, t in zip(plain.times, traced.times))
    metrics["trace.overhead_s"] = (overhead, "s")
    mean_s = sum(traced.times) / len(traced.times)
    report.append(f"traced compiles {len(traced.times)}, p50 {statistics.median(traced.times):.6f} s, "
                  f"untraced p50 {statistics.median(plain.times):.6f} s (compiled in pairs); "
                  f"spans in {spans}")
    report.append("self time per compile, and its share of the mean traced compile:")
    for layer in tracer.ALL_LAYERS:
        share = metrics[f"{layer}.self_s"][0] / mean_s
        report.append(f"  {layer:30s} calls {metrics[f'{layer}.calls'][0]:10.2f}"
                      f"  self {metrics[f'{layer}.self_s'][0]:.6f} s ({share:6.1%})")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    tallies = [Tally() for _ in range(4)]
    report = [f"workload {args.workload} seed {args.seed} trace {args.trace}"]
    try:
        jobs = prepare(args.workload, args.seed, work_dir)
        report.append(f"{len(jobs)} inputs, {sum(j.case.rows for j in jobs)} rows per cycle")
        if args.trace:
            metrics = per_layer(args.workload, args.seed, jobs, args.seconds, tallies, report)
        else:
            metrics = end_to_end(jobs, args.seconds, tallies, report)
    except tracer.TraceError as exc:
        fail(str(exc))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(t.times) for t in tallies)
    failed = sum(t.failed for t in tallies)
    for problem in [p for t in tallies for p in t.problems][:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
