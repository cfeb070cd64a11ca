"""Smoke test of the benchmark at tiny sizes (n=4, T=5, m=5, one op per workload).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from spans import Span, summarize  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def check_printed(result, out):
    lines = out.splitlines()
    assert json.loads(lines[-1]) == result
    for metric, entry in result["metrics"].items():
        assert f"{metric} {entry['value']!r} {entry['unit']}" in lines
    assert result["correct"] and result["failed"] == 0


def test_declared_workloads_are_known():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_printed_and_gates_pass(name, capsys):
    result = run.run(name, seed=3, seconds=1, trace=False, cfg=run.TINY)
    check_printed(result, capsys.readouterr().out)
    assert {m: e["unit"] for m, e in result["metrics"].items()} == units("end_to_end")
    assert all(e["value"] > 0 for e in result["metrics"].values())


def test_traced_run_prints_every_layer_metric(capsys):
    result = run.run("fit-dist", seed=3, seconds=1, trace=True, cfg=run.TINY)
    check_printed(result, capsys.readouterr().out)
    assert {m: e["unit"] for m, e in result["metrics"].items()} == units("per_layer")
    assert all(e["value"] is not None for e in result["metrics"].values())


def test_span_no_longer_called_is_missing_not_zero(capsys):
    only_main = summarize([Span("cli.main", None, 0.0, 1.0)])
    metrics = run.layer_metrics("simulate-dist", [1.0], [1.0], [only_main])
    assert metrics["simulate-dist.io.dumps.s"] == (None, "s")
    assert metrics["simulate-dist.sim.simulate.calls"] == (None, "count")
    assert "no longer calls io.dumps" in capsys.readouterr().err


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fit-dist", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
