"""circuit.pull_back: check stages scored in the Heisenberg picture equal forward
execution and post-selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_density
from distillery.channels import (
    DampingDephasingParams,
    GlobalDepolarizingChannel,
    bit_flip,
    damping_dephasing,
)
from distillery.circuit import (
    Barrier,
    ChannelOp,
    Delay,
    Gate,
    Measure,
    NothingAcceptedError,
    execute_exact,
    postselect,
    pull_back,
)
from distillery.densop import DensityOperator, bell_fidelity_matrix
from distillery.protocols import ProtocolSpec, build_z2b, pull_back_checks, score_checks


@st.composite
def check_stages(draw, noisy=True):
    """(spec, meas_error): a random check stage on 4 or 6 qubits as a ProtocolSpec.

    CNOT, CPhase, H and S gates, barriers, delays, and Z-, X- and Y-basis
    measurements of any qubit but the kept pair's, never acting on a measured
    qubit except by a Delay; parity checks over random groups of the labels.
    ``noisy`` adds global depolarizing on 1-2 qubits, damping-dephasing and
    bit-flip channels, CPhase angles off the Clifford group and readout
    error in [0, 0.2]; without it every outcome probability is a multiple of
    2^-n, so none is nonzero and tiny.
    """
    n = draw(st.sampled_from([4, 6]))
    kept = tuple(draw(st.permutations(range(n)))[:2])
    kinds = ["gate1", "gate2", "gate2", "barrier", "delay", "measure", "measure"]
    if noisy:
        kinds += ["depol", "kraus", "bitflip"]
    measured: set[int] = set()
    labels, circuit = [], []
    for i in range(draw(st.integers(0, 24))):
        free = [q for q in range(n) if q not in measured]
        measurable = [q for q in free if q not in kept]
        kind = draw(st.sampled_from(kinds))
        if kind == "measure" and not measurable:
            kind = "barrier"
        if kind == "gate1":
            circuit.append(Gate(draw(st.sampled_from(["H", "S"])), (draw(st.sampled_from(free)),)))
        elif kind == "gate2":
            pair = tuple(draw(st.permutations(free))[:2])
            if draw(st.booleans()):
                circuit.append(Gate("CNOT", pair))
            else:
                circuit.append(Gate("CPhase", pair, draw(st.floats(-np.pi, np.pi)) if noisy else np.pi))
        elif kind == "depol":
            targets = tuple(draw(st.permutations(free))[: draw(st.integers(1, 2))])
            circuit.append(ChannelOp(GlobalDepolarizingChannel(targets, draw(st.floats(0.0, 1.0)))))
        elif kind == "kraus":
            params = DampingDephasingParams(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 0.5)))
            circuit.append(ChannelOp(damping_dephasing(params, qubit=draw(st.sampled_from(free)))))
        elif kind == "bitflip":
            circuit.append(ChannelOp(bit_flip(draw(st.floats(0.0, 0.5)), qubit=draw(st.sampled_from(free)))))
        elif kind == "delay":
            qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            circuit.append(Delay(1.0, tuple(qubits)))
        elif kind == "barrier":
            circuit.append(Barrier(f"b{i}"))
        else:
            q = draw(st.sampled_from(measurable))
            circuit.append(Measure(q, draw(st.sampled_from("ZXY")), f"m{i}"))
            measured.add(q)
            labels.append(f"m{i}")
    groups = st.lists(st.sampled_from(labels), max_size=3, unique=True) if labels else st.just([])
    checks = tuple(
        (tuple(draw(groups)), tuple(draw(groups))) for _ in range(draw(st.integers(0, 3)))
    )
    spec = ProtocolSpec("random", n // 2, (kept,), tuple(circuit), checks, kept)
    return spec, draw(st.floats(0.0, 0.2)) if noisy else 0.0


def forward(spec, rho, meas_error):
    """(F_a, p_accept) by running the checks forward from ``rho`` and post-selecting."""
    p_accept, kept = postselect(execute_exact(spec.circuit, rho, meas_error), spec.accepts)
    return bell_fidelity_matrix(kept.matrix, spec.kept_pair, spec.n_qubits), p_accept


@settings(max_examples=100, deadline=None)
@given(check_stages(), st.integers(0, 2**32 - 1))
def test_pulled_back_checks_score_like_forward_postselection(case, seed):
    spec, meas_error = case
    rho = random_density(np.random.default_rng(seed), spec.n_qubits)
    f_after, p_accept = score_checks(pull_back_checks(spec, meas_error=meas_error), rho.matrix)
    f_want, p_want = forward(spec, rho, meas_error)
    assert abs(p_accept - p_want) <= 1e-12
    assert abs(f_after - f_want) <= 1e-12
    assert -1e-12 <= p_accept <= 1 + 1e-12
    assert -1e-12 <= f_after <= 1 + 1e-12


# z2b on |0010>: the parities of pairs (0, 1) and (2, 3) differ, so nothing is accepted
@example((build_z2b(), 0.0), 0b0010)
@settings(max_examples=100, deadline=None)
@given(check_stages(noisy=False), st.integers(0, 2**6 - 1))
def test_forward_and_pulled_back_checks_refuse_the_same_inputs(case, index):
    spec, meas_error = case
    dim = 2**spec.n_qubits
    rho = np.zeros((dim, dim), dtype=complex)
    rho[index % dim, index % dim] = 1.0
    pulled = pull_back_checks(spec, meas_error=meas_error)
    try:
        f_want, p_want = forward(spec, DensityOperator(spec.n_qubits, rho), meas_error)
    except NothingAcceptedError:
        with pytest.raises(NothingAcceptedError):
            score_checks(pulled, rho)
        return
    f_after, p_accept = score_checks(pulled, rho)
    assert abs(p_accept - p_want) <= 1e-12
    assert abs(f_after - f_want) <= 1e-12


def test_pull_back_is_the_adjoint_of_execution_on_any_observable(rng):
    """Tr(O C(rho)) = Tr(C^dag(O) rho) for non-Hermitian O too, through every kind of
    element (depolarizing on three qubits in closed form); a stack maps entry by entry."""
    circuit = [
        Gate("H", (0,)),
        Gate("S", (1,)),
        Gate("CPhase", (1, 2), 0.3),
        ChannelOp(GlobalDepolarizingChannel((2, 0), 0.2)),
        ChannelOp(damping_dephasing(DampingDephasingParams(0.3, 0.1), qubit=2)),
        ChannelOp(GlobalDepolarizingChannel((1, 0, 2), 0.15)),
        Measure(1, "Y", "a"),
        Delay(2.0, (1,)),
        Measure(0, "X", "b"),
    ]
    rho = random_density(rng, 3)
    out = execute_exact(circuit, rho, 0.07).matrix
    observables = rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))
    pulled = pull_back(circuit, observables, 3, 0.07)
    for obs, back in zip(observables, pulled):
        assert abs(np.trace(obs @ out) - np.trace(back @ rho.matrix)) <= 1e-12
    np.testing.assert_array_equal(pull_back(circuit, observables[1], 3, 0.07), pulled[1])


def test_pull_back_validates_like_execution():
    with pytest.raises(ValueError, match="measurement error"):
        pull_back([], np.eye(4), 2, 1.5)
    with pytest.raises(ValueError, match="already measured"):
        pull_back([Measure(0), Gate("H", (0,))], np.eye(4), 2)
    with pytest.raises(ValueError, match="out of range"):
        pull_back([Gate("H", (2,))], np.eye(4), 2)
