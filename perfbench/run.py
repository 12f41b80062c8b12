"""Run one distillery benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload staged --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one item after another in one process; see
workloads.py): staged, idle, twirl, scale.

``--trace 0`` measures the named workload: set-up in several fresh
processes (median reported), then warm-up and rounds for ``--seconds`` in a
fresh process. It prints items_per_s, setup_s and peak_rss_mb with units,
plus error_rate (failed / attempted items) on a text line. setup_s, and
items_per_s of staged, idle and twirl, are calibrated: they are rescaled by a
fixed numpy slice timed in the same processes, which divides out the shared
host's speed drift (worker.py); the raw medians are printed beside them.

``--trace 1`` is the separate traced run. Whatever ``--workload`` names, it
traces every workload for a quarter of ``--seconds`` each, then runs the
kernel probes, and prints ``<workload>.<layer metric>`` for the spans each
workload enters (UNREACHED names the rest), each workload's raw items/s over
its plain rounds, and ``probe.<element>.n<N>_us``.

Every worker runs from the repository's ``src`` with one BLAS and OpenMP
thread. Without the repository's sources the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import tracer
from worker import REF_NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("staged", "idle", "twirl", "scale")
SETUP_SAMPLES = 7  # processes whose set-up is timed; the median is reported
DEADLINE_S = 170.0  # the whole run ends within the 180 s limit
THREADS = "1"  # BLAS/OpenMP threads, fixed so runs compare; more would contend for 2 cores

# traced spans each workload never enters: their self times and counts would always read 0
UNREACHED = {
    "staged": ("protocols.general_distill",),
    "idle": ("protocols.general_distill",),
    "twirl": ("channels.apply_kraus_matrix", "protocols.general_distill"),
    "scale": ("circuit.execute_exact", "circuit.postselect",
              "channels.apply_global_depolarizing_matrix"),
}

END_TO_END_UNITS = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """A worker failed to produce a result."""


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order.

    A workload lists only the spans it enters, so no metric is always 0.
    """
    out = []
    for workload in WORKLOADS:
        spans = [span for span in tracer.SPANS if span not in UNREACHED[workload]]
        metrics = [(f"{span}.self_s", "s", "lower") for span in spans]
        metrics += [(f"{span}.calls", "count", "lower") for span in tracer.COUNTED if span in spans]
        if "circuit.postselect" in spans:
            metrics += [("circuit.branches", "count", "lower"),
                        ("circuit.accepted_branch_frac", "ratio", "higher")]
        metrics += [
            ("untraced_s", "s", "lower"),
            ("wall_s", "s", "lower"),
            ("trace_overhead_frac", "ratio", "lower"),
            ("raw_items_per_s", "1/s", "higher"),
        ]
        out += [(f"{workload}.{name}", unit, better) for name, unit, better in metrics]
    return out + [(name, "us", "lower") for name in probes.names()]


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {args}")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} passed the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(["--mode", "setup", *common], deadline) for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(["--mode", "run", *common, "--seconds", str(seconds)], deadline)
    setups.append(run)
    raw_setup_s = statistics.median(s["setup_s"] for s in setups)
    # one host-speed figure for the run: per-process slice times scatter more than the drift
    slice_s = statistics.median(s["slice_s"] for s in setups)
    values = {
        "items_per_s": run["items_per_s"],
        "setup_s": raw_setup_s * REF_NOMINAL_S / slice_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    print(f"{workload}: seed {seed}, {run['rounds']} rounds of {run['items_per_round']} items, "
          f"{THREADS} BLAS thread")
    how = "calibrated by the reference slice" if run["calibrated"] else "not calibrated"
    print(f"items_per_s = {values['items_per_s']:.6g} 1/s (median over rounds, {how}; "
          f"raw median {run['raw_items_per_s']:.6g} 1/s)")
    print(f"setup_s = {values['setup_s']:.6g} s (median of {len(setups)} processes, calibrated "
          f"by the reference slice; raw median {raw_setup_s:.6g} s)")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB")
    _print_error_rate(run["attempted"], run["failed"])
    return _result(run["attempted"], run["failed"],
                   {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()})


def traced(seed: int, seconds: float, deadline: float) -> dict:
    units = {name: unit for name, unit, _ in layer_metrics()}
    values, attempted, failed = {}, 0, 0
    for workload in WORKLOADS:
        res = _worker(["--mode", "trace", "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds / len(WORKLOADS))], deadline)
        values.update({f"{workload}.{k}": v for k, v in res["metrics"].items()})
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"{workload}: {res['rounds']} traced rounds, wall {res['metrics']['wall_s']:.4g} s "
              f"per round, overhead {res['metrics']['trace_overhead_frac']:+.3f}, "
              f"plain rounds {res['metrics']['raw_items_per_s']:.4g} items/s")
    values.update(_worker(["--mode", "probes"], deadline)["metrics"])
    if missing := set(units) - set(values):
        raise BenchError(f"traced metrics missing: {sorted(missing)}")
    for name, unit, _ in layer_metrics():
        print(f"{name} = {values[name]:.6g} {unit}")
    _print_error_rate(attempted, failed)
    return _result(attempted, failed, {k: (values[k], units[k]) for k in units})


def _print_error_rate(attempted: int, failed: int) -> None:
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} items failed)")


def _result(attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "distillery" / "__init__.py").is_file():
        print(f"error: no distillery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(args.seed, args.seconds, deadline)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
