"""The benchmark's per-layer tracer still finds every layer it patches.

`bench/tracer.py` redirects each layer at the module attribute where the
compile pipeline looks it up. A refactor that moves one of those lookups
would make the benchmark fail or silently record zero calls; this test
catches both on the ordinary test run.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# workload -> (table, compile flags): a tiny input of the workload's idiom.
CASES = {
    "bar-wide": ("k,v\na,1\nb,5\nc,3\n", ["--idiom", "bar", "--x", "k"]),
    "pie-loop": ("k,v\na,3\nb,2\nc,1\n", ["--idiom", "pie", "--x", "k", "--loop", "3"]),
    "line-long": ("t,v\n1,1\n2,3\n3,5\n4,4\n5,2\n", ["--idiom", "line", "--x", "t"]),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(CASES))
def test_traced_compile_reaches_every_expected_layer(workload, tmp_path, capsys):
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()  # raises if a patched attribute has moved
    table, flags = CASES[workload]
    data = tmp_path / "table.csv"
    data.write_text(table, encoding="utf-8")
    argv = ["compile", "--data", str(data), "--palette", "positive", "--y", "v",
            *flags, "--emit", "both"]
    with tracer.installed() as traced_main:
        assert traced_main(argv) == 0
    capsys.readouterr()
    silent = [
        layer for layer in tracer_module.EXPECTED[workload] if tracer.calls[layer] == 0
    ]
    assert silent == []
