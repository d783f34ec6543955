"""Record the digests that every benchmark run checks against.

    python3 bench/record.py

Compiles every case in every workload's pool once through the CLI,
applies every check but the digest one, and writes digests.json: per
case, the digest of its generated input and of its .mid and .txt
output. Run it only at a commit whose output bytes are known good; a
change that alters the bytes on purpose records them again and says why.
"""
import json
import shutil
import sys

import env

env.use_checkout()

import melodify.cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from env import DIGESTS, GOLDEN, OUT  # noqa: E402


def main() -> int:
    work_dir = OUT / "record"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    digests, problems = {}, []
    try:
        for name in workloads.WORKLOADS:
            for case in workloads.pool(name):
                golden = None
                if case.expect.golden is not None:
                    golden = (GOLDEN / f"{case.expect.golden}.txt").read_bytes()
                job = gate.Job(case, workloads.materialize(case, work_dir),
                               work_dir / f"{case.stem}.mid", work_dir / f"{case.stem}.txt",
                               None, golden)
                _, code, out, err = gate.compile_once(melodify.cli.main, job)
                problem = gate.check(job, code, out, err)
                if problem is not None:
                    problems.append(f"{case.name}: {problem}")
                    continue
                entry = {"input": case.input_digest()}
                if case.expect.exit == 0:
                    entry["mid"] = gate.sha256(job.mid.read_bytes())
                    entry["txt"] = gate.sha256(job.txt.read_bytes())
                digests[case.name] = entry
            print(f"{name}: {sum(k.startswith(name) for k in digests)} cases")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
