"""One benchmark process. ``run.py`` starts a fresh one per task and reads its last line.

    worker.py --mode setup  --workload W --seed N
    worker.py --mode run    --workload W --seed N --seconds S
    worker.py --mode trace  --workload W --seed N --seconds S
    worker.py --mode probes

``setup`` reports the set-up time, timed from before the first import
(imports, config load and input generation), and a reading of the reference
slice right after it, which run.py uses to calibrate set-up time. ``run``
does the same, warms up, then runs rounds of the workload until S seconds of
rounds have passed and reports the median items/s (rescaled by the reference
slice for calibrated workloads) beside the raw median. ``trace`` alternates
plain and traced rounds for S seconds and reports per-round layer self times
and counts, and the plain rounds' raw items/s. ``probes`` runs the kernel
probes. Every output is checked; a round that raises counts all of its items
as failed.
"""

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()  # set-up is timed from here: numpy and distillery load later

WORK_ROOT = Path(__file__).resolve().parents[1] / ".perfbench_work"
SLICE_LOOPS = 250  # sized so the slice takes about REF_NOMINAL_S
SLICES_PER_POINT = 3  # slice timings whose median is one reading of the host's speed
REF_NOMINAL_S = 0.033  # the reference slice's time on the host the bounds were set on


def _reference_slice():
    """A reader of the host's speed: the median time of a fixed slice of numpy work.

    The shared host's speed drifts by up to ~1.5x over minutes and moves every
    small-op workload with it. The slice moves the same way, so a calibrated
    workload's rate in each round is multiplied by the mean of the readings
    before and after it / REF_NOMINAL_S. The slice is independent of
    distillery, touches only arrays it makes itself and runs with the garbage
    collector off, so the objects a workload leaves alive do not change its
    time. REF_NOMINAL_S fixes only the scale of a calibrated figure (items/s
    on a host where the slice takes that long); two versions measured on one
    host compare the same way whatever it is.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    small = rng.normal(size=(4, 4)) + 0j
    eye = np.eye(16)
    axes = (1, 0, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11)

    def timed() -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            x = a
            for _ in range(SLICE_LOOPS):
                x = a @ x @ a.conj().T
                x = x / np.abs(x).max()
                x.reshape((2,) * 12).transpose(axes).reshape(64, 64)
                np.kron(small, eye)
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def host_speed() -> float:
        return statistics.median(timed() for _ in range(SLICES_PER_POINT))

    timed()  # warm-up
    return host_speed


def _round(wl):
    """One checked round: (seconds, items attempted, items failed)."""
    start = time.perf_counter()
    try:
        outputs = wl.run_round()
    except Exception:  # the run keeps going; the failure is counted and shown
        traceback.print_exc()
        return time.perf_counter() - start, wl.items, wl.items
    elapsed = time.perf_counter() - start
    attempted, failed = wl.check(outputs)
    return elapsed, attempted, failed


def _warm_up(wl) -> None:
    try:
        wl.warm_up()
    except Exception:  # the timed rounds fail the same way and are counted there
        traceback.print_exc()


def measure(wl, seconds: float) -> dict:
    _warm_up(wl)
    host_speed = _reference_slice() if wl.calibrated else None
    if host_speed:
        before = host_speed()
    rates, raw, busy, attempted, failed = [], [], 0.0, 0, 0
    while not rates or busy < seconds:
        elapsed, a, f = _round(wl)
        raw.append((a - f) / elapsed)
        if host_speed:
            after = host_speed()
            rates.append(raw[-1] * (before + after) / 2 / REF_NOMINAL_S)
            before = after
        else:
            rates.append(raw[-1])
        busy += elapsed
        attempted += a
        failed += f
    return {
        "items_per_s": statistics.median(rates),
        "raw_items_per_s": statistics.median(raw),
        "calibrated": wl.calibrated,
        "rounds": len(rates),
        "items_per_round": wl.items,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace(wl, seconds: float) -> dict:
    from tracer import COUNTED, SPANS, Tracer

    _warm_up(wl)
    tracer = Tracer()
    plain = traced = 0.0
    rounds = attempted = failed = plain_done = 0
    while not rounds or plain + traced < seconds:
        elapsed, a, f = _round(wl)
        plain += elapsed
        plain_done += a - f
        with tracer:
            elapsed, a2, f2 = _round(wl)
        traced += elapsed
        rounds += 1
        attempted += a + a2
        failed += f + f2
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = tracer.self_s[span] / rounds
    for span in COUNTED:
        metrics[f"{span}.calls"] = tracer.calls[span] / rounds
    metrics["circuit.branches"] = tracer.branches / rounds
    metrics["circuit.accepted_branch_frac"] = tracer.accepted_branch_frac()
    metrics["wall_s"] = traced / rounds
    metrics["untraced_s"] = (traced - sum(tracer.self_s.values())) / rounds
    metrics["trace_overhead_frac"] = traced / plain - 1
    metrics["raw_items_per_s"] = plain_done / plain  # the plain rounds' rate, never calibrated
    return {"metrics": metrics, "rounds": rounds, "attempted": attempted, "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "probes"), required=True)
    parser.add_argument("--workload", choices=("idle", "scale", "staged", "twirl"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    if args.mode == "probes":
        import probes

        print(json.dumps({"metrics": probes.run()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required for this mode")

    import workloads  # loads numpy and distillery, inside the timed set-up
    workdir = WORK_ROOT / f"{args.workload}-{args.mode}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _START
        slice_s = _reference_slice()()
        if args.mode == "setup":
            result = {}
        elif args.mode == "run":
            result = measure(wl, args.seconds)
        else:
            result = trace(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another worker
            WORK_ROOT.rmdir()
    result["setup_s"] = setup_s
    result["slice_s"] = slice_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
