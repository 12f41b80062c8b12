"""circuit.simplify: exact against the unfused executor, and nothing crosses a fence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from distillery.channels import (
    DampingDephasingParams,
    GlobalDepolarizingChannel,
    KrausChannel,
    bit_flip,
    damping_dephasing,
)
from distillery.circuit import (
    Barrier,
    ChannelOp,
    Delay,
    Gate,
    Measure,
    execute_exact,
    simplify,
    with_gate_noise,
)
from distillery.densop import CNOT, HADAMARD, SWAP, embed_on_qubits
from distillery.device import MIRROR_PAIRS, mirror_clifford_layers

ONE_QUBIT = ("H", "S", "Sdg", "X")
TWO_QUBIT = ("CNOT", "SWAP", "CPhase")


@st.composite
def circuits(draw):
    """(n, circuit, meas_error): gates, depolarizing on 1-3 qubits in any order,
    Kraus channels, delays, labelled barriers and measurements, never acting on
    a measured qubit except by a Delay."""
    n = draw(st.integers(3, 5))
    measured: set[int] = set()
    circuit = []
    for i in range(draw(st.integers(0, 40))):
        free = [q for q in range(n) if q not in measured]
        kind = draw(st.sampled_from(
            ["gate1", "gate2", "gate2", "depol", "depol", "kraus", "delay", "barrier", "measure"]
        ))
        if not free:
            kind = draw(st.sampled_from(["delay", "barrier"]))
        if kind in ("gate2", "depol") and len(free) < 2:
            kind = "gate1"
        if kind == "gate1":
            circuit.append(Gate(draw(st.sampled_from(ONE_QUBIT)), (draw(st.sampled_from(free)),)))
        elif kind == "gate2":
            pair = tuple(draw(st.permutations(free))[:2])
            name = draw(st.sampled_from(TWO_QUBIT))
            angle = draw(st.floats(-np.pi, np.pi)) if name == "CPhase" else None
            circuit.append(Gate(name, pair, angle))
        elif kind == "depol":
            targets = tuple(draw(st.permutations(free))[: draw(st.integers(1, min(3, len(free))))])
            circuit.append(ChannelOp(GlobalDepolarizingChannel(targets, draw(st.floats(0.0, 1.0)))))
        elif kind == "kraus":
            q = draw(st.sampled_from(free))
            g, p = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5))
            circuit.append(ChannelOp(damping_dephasing(DampingDephasingParams(g, p), qubit=q)))
        elif kind == "delay":
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            circuit.append(Delay(1.0, tuple(qubits)))
        elif kind == "barrier":
            circuit.append(Barrier(f"b{i}"))
        else:
            q = draw(st.sampled_from(free))
            circuit.append(Measure(q, draw(st.sampled_from("ZXY")), f"m{i}"))
            measured.add(q)
    return n, circuit, draw(st.sampled_from([0.0, 0.07]))


@settings(max_examples=150, deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
def test_simplified_circuit_executes_like_the_original(case, seed):
    n, circuit, meas_error = case
    init = random_density(np.random.default_rng(seed), n)
    want = execute_exact(circuit, init, meas_error)
    got = execute_exact(simplify(circuit), init, meas_error)
    np.testing.assert_allclose(got.matrix, want.matrix, rtol=0, atol=1e-12)
    assert got.measured == want.measured
    assert got.snapshots.keys() == want.snapshots.keys()
    for label, state in want.snapshots.items():
        np.testing.assert_allclose(got.snapshots[label].matrix, state.matrix, rtol=0, atol=1e-12)


def test_fusion_cases_by_hand():
    d01 = ChannelOp(GlobalDepolarizingChannel((1, 0), 0.1))
    d10 = ChannelOp(GlobalDepolarizingChannel((0, 1), 0.2))
    # a block holding one gate comes out as that gate and its channel
    assert simplify([Gate("CNOT", (0, 1)), d01]) == [Gate("CNOT", (0, 1)), d01]
    # a channel on another support set is not absorbed
    assert simplify([Gate("H", (0,)), d01]) == [Gate("H", (0,)), d01]
    out = simplify([Gate("H", (0,)), Gate("CNOT", (0, 1)), d01, Gate("CNOT", (1, 0)), d10])
    assert len(out) == 2
    unitary, channel = out[0].channel, out[1].channel
    assert isinstance(unitary, KrausChannel) and unitary.target_qubits == (0, 1)
    want = (SWAP @ CNOT @ SWAP) @ CNOT @ np.kron(HADAMARD, np.eye(2))
    np.testing.assert_allclose(unitary.kraus_ops[0], want, atol=1e-15)
    assert isinstance(channel, GlobalDepolarizingChannel)
    assert channel.lam == pytest.approx(1 - 0.9 * 0.8, abs=1e-15)
    # a single-qubit block with a channel of its own is emitted, not joined
    d0 = ChannelOp(GlobalDepolarizingChannel((0,), 0.1))
    assert simplify([Gate("H", (0,)), d0, Gate("CNOT", (0, 1))]) == [
        Gate("H", (0,)), d0, Gate("CNOT", (0, 1))
    ]


def _pair_action(elements, pair):
    """(unitary, surviving weight) of the elements on ``pair``, depolarizing
    channels set aside: they commute with everything on the pair."""
    u, keep = np.eye(4, dtype=complex), 1.0
    for el in elements:
        if isinstance(el, Gate) and set(el.targets) <= set(pair):
            u = embed_on_qubits(el.matrix(), [pair.index(q) for q in el.targets], 2) @ u
        elif isinstance(el, ChannelOp) and set(el.channel.target_qubits) <= set(pair):
            if isinstance(el.channel, GlobalDepolarizingChannel):
                keep *= 1 - el.channel.lam
            else:
                (op,) = el.channel.kraus_ops
                targets = [pair.index(q) for q in el.channel.target_qubits]
                u = embed_on_qubits(op, targets, 2) @ u
    return u, keep


@pytest.mark.parametrize("seed", range(5))
def test_noisy_mirror_circuit_fuses_to_one_unitary_and_channel_per_pair(seed):
    circuit = with_gate_noise(mirror_clifford_layers(12, seed), lambda a, b: 0.004)
    out = simplify(circuit)
    assert len(out) <= 4
    for pair in MIRROR_PAIRS:
        u, keep = _pair_action(out, pair)
        assert np.max(np.abs(u / u[0, 0] - np.eye(4))) < 1e-12
        cnots = sum(el.name == "CNOT" and set(el.targets) == set(pair) for el in circuit if isinstance(el, Gate))
        assert keep == pytest.approx(0.996**cnots, rel=1e-12)


@pytest.mark.parametrize(
    "fence",
    [Barrier("mid"), Measure(1, "Z", "m"), ChannelOp(bit_flip(0.1, qubit=0)),
     ChannelOp(KrausChannel((1, 0), (np.kron(np.eye(2), np.eye(2)),)))],
    ids=["barrier", "measure", "kraus", "kraus2"],
)
def test_nothing_on_a_fence_crosses_it(fence):
    rng = np.random.default_rng(11)
    layers = with_gate_noise(mirror_clifford_layers(3, rng), lambda a, b: 0.01)
    cut = len(layers) // 3
    circuit = layers[:cut] + [fence] + layers[cut:]
    out = simplify(circuit)
    (at,) = [i for i, el in enumerate(out) if el is fence]
    pairs = MIRROR_PAIRS if isinstance(fence, Barrier) else [(0, 1)]
    for pair in pairs:
        for got, want in ((out[:at], circuit[:cut]), (out[at + 1:], circuit[cut + 1:])):
            u_got, keep_got = _pair_action(got, pair)
            u_want, keep_want = _pair_action(want, pair)
            np.testing.assert_allclose(u_got, u_want, atol=1e-12)
            assert keep_got == pytest.approx(keep_want, rel=1e-12)
