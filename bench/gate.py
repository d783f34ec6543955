"""One compile through the real command line, and the checks on its output.

A compile counts as failed when any check fails; no check is skipped.
Expected rejections pass when the exit code and the ``error E_...``
code match and nothing was written.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import re
import time
from dataclasses import dataclass
from pathlib import Path

from melodify.errors import MelodifyError
from melodify.smf import parse_smf_minimal

from workloads import Case

_NOTES = re.compile(r" notes=(\d+) ")


@dataclass
class Job:
    """A case ready to compile: its argv, output paths and references."""

    case: Case
    argv: list[str]
    mid: Path
    txt: Path
    digests: dict | None   # None only where no digest exists yet
    golden: bytes | None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compile_once(main, job: Job) -> tuple[float, int | str, str, str]:
    """Run ``main`` on the job's argv; time from argv to files written.

    Returns (seconds, exit code or the exception that escaped, stdout,
    stderr).
    """
    for path in (job.mid, job.txt):
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(job.argv)
        except (Exception, SystemExit) as exc:  # any escape is a failed compile
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def check(job: Job, code, stdout: str, stderr: str) -> str | None:
    """Why the compile's result is wrong, or None when it is right."""
    expect = job.case.expect
    if expect.exit == 1:
        lines = stderr.splitlines()
        if code != 1 or len(lines) != 1 or not lines[0].startswith(f"error {expect.code}: "):
            return f"expected exit 1 with {expect.code}, got {code!r} {stderr!r}"
        if job.mid.exists() or job.txt.exists():
            return "a rejected input wrote output"
        return None

    if code != 0:
        return f"exit {code!r}: {stderr.strip()}"
    if stderr:
        return f"unexpected stderr {stderr!r}"
    mid, txt = job.mid.read_bytes(), job.txt.read_bytes()
    try:
        parsed = parse_smf_minimal(mid)
    except MelodifyError as exc:
        return f"MIDI does not read back: {exc}"
    if parsed.tempo_us != round(60_000_000 / expect.tempo):
        return f"tempo {parsed.tempo_us} us, expected {expect.tempo} bpm"
    if parsed.time_signature != expect.meter:
        return f"meter {parsed.time_signature}, expected {expect.meter}"
    summary = _NOTES.search(stdout)
    if summary is None or int(summary.group(1)) != len(parsed.notes):
        return f"summary {stdout.splitlines()[:1]} disagrees with {len(parsed.notes)} notes"
    if expect.notes is not None and len(parsed.notes) != expect.notes:
        return f"{len(parsed.notes)} notes, expected {expect.notes}"
    for kind, data in (("mid", mid), ("txt", txt)):
        if job.digests is not None and sha256(data) != job.digests[kind]:
            return f".{kind} bytes differ from the recorded digest"
    if job.golden is not None and txt != job.golden:
        return "text score differs from its golden file"
    return None
