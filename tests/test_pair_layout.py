"""Both circuit interpreters, which run in the pair layout, against the matrix layout.

The reference applies each element to the (2^n, 2^n) matrix (or stack) with
``densop.apply_superoperator`` and ``channels.apply_channel_matrix``, one
element at a time. ``execute_exact`` and ``pull_back`` must agree with it at
1e-12 on random circuits for n = 1..6, and prepare each element's
superoperator once per call without keeping anything after it.
"""

import gc
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from distillery import circuit as circuit_module
from distillery.channels import (
    GlobalDepolarizingChannel,
    KrausChannel,
    apply_channel_matrix,
    bit_flip,
)
from distillery.circuit import (
    BASIS_ROTATIONS,
    Barrier,
    ChannelOp,
    Delay,
    Gate,
    Measure,
    execute_exact,
    pull_back,
)
from distillery.densop import PAULI_X, apply_superoperator, bell_state, superoperator
from distillery.device import IdleSpec, idle_sequence, load_calibration

ATOL = 1e-12
DEPHASING = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))


def random_kraus(rng, k):
    """Three Kraus operators cut from a random isometry, so sum K^dag K = I."""
    dim = 2**k
    v, _ = np.linalg.qr(rng.normal(size=(3 * dim, dim)) + 1j * rng.normal(size=(3 * dim, dim)))
    return tuple(v[i * dim : (i + 1) * dim] for i in range(3))


@st.composite
def circuits(draw):
    """(n, circuit, meas_error) on 1..6 qubits; nothing acts on a measured qubit but a Delay.

    Gates on ordered target pairs (ascending, descending, non-adjacent), Kraus
    channels on 1-3 qubits in any order, global depolarizing on 1, 2, 3 or
    all qubits, Z/X/Y measurements, labelled barriers and delays.
    """
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    measured: set[int] = set()
    circuit = []
    for i in range(draw(st.integers(0, 14))):
        free = [q for q in range(n) if q not in measured]
        kinds = ["barrier", "delay"]
        if free:
            kinds += ["gate1", "kraus", "depol", "measure"]
        if len(free) >= 2:
            kinds += ["gate2", "gate2"]
        if len(measured) == 0:
            kinds += ["depol_all"]
        kind = draw(st.sampled_from(kinds))
        if kind == "gate1":
            circuit.append(Gate(draw(st.sampled_from(["H", "S", "Sdg", "X"])), (draw(st.sampled_from(free)),)))
        elif kind == "gate2":
            pair = tuple(draw(st.permutations(free))[:2])
            name = draw(st.sampled_from(["CNOT", "SWAP", "CPhase"]))
            circuit.append(Gate(name, pair, draw(st.floats(-np.pi, np.pi)) if name == "CPhase" else None))
        elif kind == "kraus":
            targets = tuple(draw(st.permutations(free))[: draw(st.integers(1, min(3, len(free))))])
            circuit.append(ChannelOp(KrausChannel(targets, random_kraus(rng, len(targets)))))
        elif kind in ("depol", "depol_all"):
            k = len(free) if kind == "depol_all" else draw(st.integers(1, min(3, len(free))))
            targets = tuple(draw(st.permutations(free))[:k])
            circuit.append(ChannelOp(GlobalDepolarizingChannel(targets, draw(st.floats(0.0, 1.0)))))
        elif kind == "measure":
            q = draw(st.sampled_from(free))
            circuit.append(Measure(q, draw(st.sampled_from("ZXY")), f"m{i}"))
            measured.add(q)
        elif kind == "delay":
            circuit.append(Delay(1.0, tuple(draw(st.permutations(range(n)))[: draw(st.integers(1, n))])))
        else:
            circuit.append(Barrier(draw(st.sampled_from(["", f"b{i}"]))))
    return n, circuit, draw(st.floats(0.0, 0.5))


def measurement_channels(el, meas_error):
    """A measurement as channels in the order they act: rotation, readout flip, dephasing."""
    rotation = BASIS_ROTATIONS[el.basis]
    channels = [] if rotation is None else [KrausChannel((el.qubit,), (rotation,))]
    return channels + [bit_flip(meas_error, el.qubit), KrausChannel((el.qubit,), DEPHASING)]


def reference_execute(circuit, rho, n, meas_error):
    """(final matrix, {label: matrix at that barrier}), one element at a time in the matrix layout."""
    snapshots = {}
    for el in circuit:
        if isinstance(el, Gate):
            rho = apply_superoperator(rho, superoperator([el.matrix()]), el.targets, n)
        elif isinstance(el, ChannelOp):
            rho = apply_channel_matrix(rho, el.channel, n)
        elif isinstance(el, Measure):
            for ch in measurement_channels(el, meas_error):
                rho = apply_channel_matrix(rho, ch, n)
        elif isinstance(el, Barrier) and el.label:
            snapshots[el.label] = rho
    return rho, snapshots


def adjoint(obs, ch, n):
    """The adjoint of a channel on a stack: K^dag O K summed, or depolarizing itself."""
    if isinstance(ch, GlobalDepolarizingChannel):
        return apply_channel_matrix(obs, ch, n)
    return apply_superoperator(obs, superoperator([k.conj().T for k in ch.kraus_ops]), ch.target_qubits, n)


def reference_pull_back(circuit, obs, n, meas_error):
    for el in reversed(circuit):
        if isinstance(el, Gate):
            obs = apply_superoperator(obs, superoperator([el.matrix().conj().T]), el.targets, n)
        elif isinstance(el, ChannelOp):
            obs = adjoint(obs, el.channel, n)
        elif isinstance(el, Measure):
            for ch in reversed(measurement_channels(el, meas_error)):
                obs = adjoint(obs, ch, n)
    return obs


@settings(max_examples=150, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_execute_exact_matches_the_matrix_layout(case, seed):
    n, circuit, meas_error = case
    init = random_density(np.random.default_rng(seed), n)
    result = execute_exact(circuit, init, meas_error)
    want, snapshots = reference_execute(circuit, init.matrix, n, meas_error)
    np.testing.assert_allclose(result.matrix, want, atol=ATOL, rtol=0)
    assert result.snapshots.keys() == snapshots.keys()
    for label, state in result.snapshots.items():
        np.testing.assert_allclose(state.matrix, snapshots[label], atol=ATOL, rtol=0)
    assert result.measured == tuple((el.label, el.qubit) for el in circuit if isinstance(el, Measure))


@settings(max_examples=150, deadline=None)
@given(circuits(), st.sampled_from([(), (1,), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
def test_pull_back_matches_the_matrix_layout(case, stack, seed):
    """Stacks of any shape, of non-Hermitian observables."""
    n, circuit, meas_error = case
    rng = np.random.default_rng(seed)
    shape = (*stack, 2**n, 2**n)
    obs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    got = pull_back(circuit, obs, n, meas_error)
    assert got.shape == shape
    np.testing.assert_allclose(got, reference_pull_back(circuit, obs, n, meas_error), atol=ATOL, rtol=0)


def test_each_kraus_channel_builds_its_superoperator_once_per_call(monkeypatch):
    """A 16-segment idle window repeats each qubit's damping channel 16 times."""
    calib = load_calibration("kyiv_z2b")
    window = idle_sequence([0, 1, 2, 3], 80.0, IdleSpec(n_segments=16), calib)
    channels = {id(el.channel): el.channel for el in window if isinstance(el, ChannelOp)}
    assert len(channels) == 4 and sum(isinstance(el, ChannelOp) for el in window) == 64
    built = []
    build = circuit_module.superoperator
    monkeypatch.setattr(circuit_module, "superoperator", lambda ops: built.append(ops) or build(ops))

    def kraus_builds():
        counts = [sum(ops is ch.kraus_ops for ops in built) for ch in channels.values()]
        built.clear()
        return counts

    execute_exact(window, bell_state(2))
    assert kraus_builds() == [1, 1, 1, 1]
    pull_back(window, np.eye(16, dtype=complex)[None], 4)
    assert kraus_builds() == [1, 1, 1, 1]


def test_repeated_runs_grow_no_cache():
    """Fresh channels every run: whatever the interpreters prepare is dropped with the call."""
    calib = load_calibration("kyiv_z2b")
    model = IdleSpec(n_segments=16, zz_enabled=False)
    init = bell_state(2)

    def run(durations):
        for t in durations:
            window = idle_sequence([0, 1, 2, 3], float(t), model, calib)
            execute_exact(window, init)
            pull_back(window, init.matrix[None], 4)

    run(range(1, 20))  # module-level caches keyed by value fill here
    gc.collect()
    tracemalloc.start()
    try:
        run(range(20, 220))
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(range(220, 420))
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 32_000, f"{after - before} bytes kept by 200 runs"
