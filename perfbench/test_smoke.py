"""Smoke test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py

Every workload runs one round at tiny size and passes its checks; a corrupted
output, or a round that raises, is counted as failed items (the numerator of
error_rate); a traced round enters exactly the spans its per-layer metrics
list; the metric list matches BENCHMARK.json; and the runner refuses
to run, printing no result, without the repository's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import worker
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_round_passes_its_checks(name, tmp_path):
    wl = workloads.make(name, 5, tmp_path, tiny=True)
    assert wl.check(wl.run_round()) == (wl.items, 0)


def _bump_csv_cell(text: str, row: int, col: int) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


CORRUPT = {
    "staged": lambda out: [_bump_csv_cell(out[0], 2, 5)] + out[1:],
    "idle": lambda out: [_bump_csv_cell(out[0].decode(), 3, 1).encode()] + out[1:],
    "twirl": lambda out: [dataclasses.replace(out[0], f_after=out[0].f_after + 1e-6)] + out[1:],
    "scale": lambda out: [(out[0][0], out[0][1] + 1e-6)] + out[1:],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_output_counts_as_failed(name, tmp_path):
    wl = workloads.make(name, 5, tmp_path, tiny=True)
    clean = wl.run_round
    wl.run_round = lambda: CORRUPT[name](clean())
    result = worker.measure(wl, 0.0)
    assert result["rounds"] == 1
    assert 0 < result["failed"] <= result["attempted"] == wl.items


def test_raising_round_fails_all_its_items(tmp_path):
    wl = workloads.make("scale", 5, tmp_path, tiny=True)

    def broken():
        raise RuntimeError("injected")

    wl.run_round = broken
    result = worker.measure(wl, 0.0)
    assert result["failed"] == result["attempted"] == wl.items
    assert result["items_per_s"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_round_enters_exactly_the_listed_spans(name, tmp_path):
    wl = workloads.make(name, 5, tmp_path, tiny=True)
    with tracer.Tracer() as t:
        wl.run_round()
    entered = {span for span in tracer.SPANS if t.calls[span]}
    assert entered == set(tracer.SPANS) - set(run.UNREACHED[name])
    if "circuit.postselect" in entered:
        assert t.branches > 0 and t.accepted_branch_frac() > 0


def test_metric_list_matches_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_end_to_end_run_prints_the_result_last():
    proc = _run(run.ROOT, "--workload", "idle", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert "error_rate = 0 " in proc.stdout


def test_refuses_without_the_repository(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "idle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
