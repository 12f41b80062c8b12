"""Kernel probes: the cost of one circuit element inside ``execute_exact`` at n qubits.

An op's cost is (t(1 + K copies) - t(1 copy)) / K, each t the median of
repeated ``execute_exact`` calls on the same Bell-pair state. The shared
state copy and final physicality check cancel, and so does the gate
embedding, which ``execute_exact`` builds once per call and reuses for every
copy. A Kraus channel embeds its operators on every application, so that
embedding stays in ``kraus1q``. Global depolarizing is far cheaper than the
embedded ops at large n, so it gets ``GDEPOL_EXTRA`` times the copies to
stand above the timing noise.

A measurement doubles the branches, so the probe measures qubits
0 .. MEASURED_QUBITS - 1 once each on the all-zeros state, which projects
2^MEASURED_QUBITS - 1 branches in all, and reports
(t(measurements) - t(empty circuit)) / (2^MEASURED_QUBITS - 1): the cost of
splitting one branch in two. Every branch but one has probability 0 and
builds no ``DensityOperator``, so both calls end in one physicality check,
which costs several times that at n >= 8; the measurement therefore also
gets ``MEASURE_EXTRA`` times the repetitions. Every difference is the median
over interleaved pairs of calls, so slow drift cancels.
``densop_check`` (building a ``DensityOperator``) and
``bell_fidelity`` are not ops and are timed as direct calls.

At n = 12 only ``bell_fidelity`` runs; ``DROPPED`` gives the reason for
each element left out there.
"""

from __future__ import annotations

import gc
import statistics
import time

OPS = ("gate1q", "gate2q", "kraus1q", "gdepol2q", "measure")
ELEMENTS = OPS + ("densop_check", "bell_fidelity")
# n: (copies K per op, repetitions of each timing; direct calls repeat at least 3 times)
PLAN = {4: (64, 9), 6: (32, 7), 8: (8, 5), 10: (2, 2), 12: (0, 1)}
GDEPOL_EXTRA = 8
MEASURED_QUBITS = 4
MEASURE_EXTRA = 3
DROPPED = {
    **{
        (el, 12): "every execute_exact call at n = 12 ends in a 4096x4096 eigvalsh (~27 s "
        "on one core) and one gate costs ~21 s, so the probe's calls exceed the 180 s run"
        for el in OPS
    },
    ("densop_check", 12): "one call is a 4096x4096 eigvalsh (~27 s on one core); with the "
    "traced workloads it leaves too little margin under the 180 s run limit",
}


def names() -> list[str]:
    return [f"probe.{el}.n{n}_us" for n in PLAN for el in ELEMENTS if (el, n) not in DROPPED]


def _op(name: str):
    from distillery import channels
    from distillery.circuit import ChannelOp, Gate

    if name == "gate1q":
        return Gate("H", (0,))
    if name == "gate2q":
        return Gate("CNOT", (0, 1))
    if name == "kraus1q":
        return ChannelOp(channels.depolarizing_local(0.01, qubit=0))
    return ChannelOp(channels.GlobalDepolarizingChannel((0, 1), 0.01))


def _measurements():
    from distillery.circuit import Measure

    return [Measure(q, "Z", f"m{q}") for q in range(MEASURED_QUBITS)]


def _bell_pairs(n: int):
    """Bell pairs on qubits (i, n/2 + i), built directly so set-up stays cheap."""
    import numpy as np

    half = n // 2
    idx = np.arange(2**half)
    psi = np.zeros(2**n, dtype=complex)
    psi[(idx << half) | idx] = 2 ** (-half / 2)
    return np.outer(psi, psi.conj())


def _all_zeros(n: int):
    import numpy as np

    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[0, 0] = 1.0
    return mat


def _median_time(fn, reps: int) -> float:
    """Median time of ``fn()``, the garbage collector off so no call pays for others' garbage."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def _median_difference(base, full, reps: int) -> float:
    """Median of t(full) - t(base) over interleaved pairs of calls, so slow drift cancels."""
    return statistics.median(_median_time(full, 1) - _median_time(base, 1) for _ in range(reps))


def run() -> dict[str, float]:
    """Probe values in microseconds, keyed as in ``names()``."""
    from distillery import circuit, densop

    direct = {
        "densop_check": lambda mat, n: densop.DensityOperator(n, mat),
        "bell_fidelity": lambda mat, n: densop.bell_fidelity_matrix(mat, (0, n // 2), n),
    }
    out = {}
    for n, (copies, reps) in PLAN.items():
        mat = _bell_pairs(n)
        ops = [el for el in OPS if (el, n) not in DROPPED]
        if ops:
            bell = densop.DensityOperator(n, mat)
            circuit.execute_exact([], bell)  # warm-up
        for el in ops:
            if el == "measure":
                init = densop.DensityOperator(n, _all_zeros(n))
                baseline, elements = [], _measurements()
                k, el_reps = 2**MEASURED_QUBITS - 1, reps * MEASURE_EXTRA
            else:
                k = copies * (GDEPOL_EXTRA if el == "gdepol2q" else 1)
                init, baseline, elements = bell, [_op(el)], [_op(el) for _ in range(1 + k)]
                el_reps = reps
            diff = _median_difference(lambda: circuit.execute_exact(baseline, init),
                                      lambda: circuit.execute_exact(elements, init), el_reps)
            out[f"probe.{el}.n{n}_us"] = diff / k * 1e6
        for el, call in direct.items():
            if (el, n) not in DROPPED:
                out[f"probe.{el}.n{n}_us"] = _median_time(lambda: call(mat, n), max(reps, 3)) * 1e6
    return out
