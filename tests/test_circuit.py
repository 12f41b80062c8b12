import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_density
from distillery.channels import bit_flip, depolarizing_global
from distillery.circuit import (
    Barrier,
    ChannelOp,
    Delay,
    Gate,
    Measure,
    NothingAcceptedError,
    circuit_from_json,
    circuit_to_json,
    execute_exact,
    postselect,
    with_gate_noise,
)
from distillery.densop import DensityOperator, bell_state
from distillery.pauli import PauliString, conjugate_through
from distillery.protocols import build_z2b


def ground(n):
    mat = np.zeros((2**n, 2**n), dtype=complex)
    mat[0, 0] = 1.0
    return DensityOperator(n, mat)


BELL_PREP = [Gate("H", (0,)), Gate("CNOT", (0, 1))]


def joint_probabilities(result):
    """Each outcome's probability, keyed by its bits in measurement order."""
    return {tuple(b.outcomes.values()): b.probability for b in result.branches}


def test_bell_prep_and_measure_outcomes():
    circuit = BELL_PREP + [Measure(0, "Z", "a"), Measure(1, "Z", "b")]
    result = execute_exact(circuit, ground(2))
    probs = joint_probabilities(result)
    assert probs[(0, 0)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(1, 1)] == pytest.approx(0.5, abs=1e-12)
    assert probs[(0, 1)] == pytest.approx(0.0, abs=1e-12)
    assert probs[(1, 0)] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("basis", ["Z", "X", "Y"])
def test_measurement_error_changes_agreement_probability(basis):
    circuit = BELL_PREP + [Measure(0, basis, "a"), Measure(1, basis, "b")]
    result = execute_exact(circuit, ground(2), meas_error=0.1)
    probs = joint_probabilities(result)
    agree = probs[(0, 0)] + probs[(1, 1)]
    # Bell |Phi+> outcomes agree in Z and X and disagree in Y; the readout
    # flip acts on the outcome in every basis, so the noiseless correlation
    # survives both flips or neither: 0.9^2 + 0.1^2
    assert (agree if basis != "Y" else 1 - agree) == pytest.approx(0.82, abs=1e-12)


def test_gate_noise_on_cnot():
    g = 0.23
    circuit = with_gate_noise([Gate("CNOT", (0, 1))], lambda a, b: g)
    result = execute_exact(circuit, ground(2))
    out = result.unconditional_state().matrix
    fid = float(np.real(out[0, 0]))
    assert fid == pytest.approx((1 - g) + g / 4, abs=1e-12)


def test_single_qubit_gates_are_noiseless():
    circuit = with_gate_noise([Gate("H", (0,)), Gate("H", (0,))], lambda a, b: 0.5)
    result = execute_exact(circuit, ground(1))
    np.testing.assert_allclose(result.unconditional_state().matrix, ground(1).matrix, atol=1e-12)


def test_branch_probabilities_sum_to_one(rng):
    circuit = BELL_PREP + [
        Gate("CNOT", (1, 2)),
        Measure(0, "X", "a"),
        Measure(1, "Z", "b"),
        Measure(2, "Y", "c"),
    ]
    circuit = with_gate_noise(circuit, lambda a, b: 0.07)
    result = execute_exact(circuit, random_density(rng, 3), meas_error=0.04)
    total = sum(b.probability for b in result.branches)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_barrier_and_zero_delay_are_inert(rng):
    rho = random_density(rng, 2)
    base = [Gate("H", (0,)), Gate("CNOT", (0, 1)), Measure(1, "Z", "m")]
    padded = [
        Barrier("start"),
        base[0],
        Delay(0.0, (0, 1)),
        base[1],
        Barrier(""),
        base[2],
        Delay(0.0, (0,)),
    ]
    r1 = execute_exact(base, rho)
    r2 = execute_exact(padded, rho)
    for b1, b2 in zip(r1.branches, r2.branches):
        assert b1.probability == pytest.approx(b2.probability, abs=1e-14)
    np.testing.assert_allclose(r1.matrix, r2.matrix, atol=1e-14)


def test_snapshots_record_barrier_states():
    circuit = [Gate("H", (0,)), Barrier("mid"), Gate("CNOT", (0, 1))]
    result = execute_exact(circuit, ground(2))
    mid = result.snapshots["mid"].matrix
    assert mid[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert abs(mid[0, 3]) < 1e-12


def test_measurement_labels_must_be_distinct():
    circuit = [Measure(0, "Z", "m"), Measure(1, "Z", "m")]
    with pytest.raises(ValueError):
        execute_exact(circuit, ground(2))


def test_qubit_range_validated():
    with pytest.raises(ValueError):
        execute_exact([Gate("H", (4,))], ground(2))


def test_gate_targets_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        Gate("CNOT", (1, 1))


def _random_clifford_circuit(rng, n, depth):
    names = ["H", "S", "Sdg", "CNOT"]
    gates = []
    for _ in range(depth):
        name = names[rng.integers(len(names))]
        if name == "CNOT":
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(name, (int(a), int(b))))
        else:
            gates.append(Gate(name, (int(rng.integers(n)),)))
    return gates


def _stabilizer_outcome_distribution(gates, measured, n):
    """Joint Z-outcome distribution predicted by Pauli pullback from |0...0>.

    For the all-zeros input, <P> is +-1 for Z-type strings (sign from the
    phase) and 0 otherwise; the joint distribution follows from the subset
    parities.
    """
    pullbacks = {}
    for q in measured:
        pullbacks[q] = conjugate_through(PauliString.from_letters({q: "Z"}, n), gates, inverse=True)
    dist = {}
    k = len(measured)
    for outcome in itertools.product((0, 1), repeat=k):
        total = 0.0
        for subset in itertools.product((0, 1), repeat=k):
            prod = PauliString.identity(n)
            mat = prod.matrix()
            for take, q in zip(subset, measured):
                if take:
                    mat = mat @ pullbacks[q].matrix()
            # expectation in |0..0>: the (0,0) entry
            expc = float(np.real(mat[0, 0]))
            sign = (-1) ** sum(s * o for s, o in zip(subset, outcome))
            total += sign * expc
        dist[outcome] = total / 2**k
    return dist


def test_clifford_outcomes_match_pauli_propagation(rng):
    for _ in range(20):
        n = int(rng.integers(2, 7))
        gates = _random_clifford_circuit(rng, n, depth=int(rng.integers(5, 25)))
        n_meas = int(rng.integers(1, min(n, 3) + 1))
        measured = sorted(rng.choice(n, size=n_meas, replace=False).tolist())
        circuit = gates + [Measure(q, "Z", f"m{q}") for q in measured]
        result = execute_exact(circuit, ground(n))
        predicted = _stabilizer_outcome_distribution(gates, measured, n)
        for outcome, p in joint_probabilities(result).items():
            assert p == pytest.approx(predicted[outcome], abs=1e-10)


def test_postselect_accept_all_returns_unconditional_state(rng):
    rho = random_density(rng, 2)
    circuit = [Measure(0, "Z", "a"), Measure(1, "Z", "b")]
    result = execute_exact(circuit, rho)
    p, kept = postselect(result, lambda o: True)
    assert p == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(kept.matrix, result.unconditional_state().matrix, atol=1e-12)


def test_postselect_zero_acceptance_raises():
    spec = build_z2b()
    init = DensityOperator(4, bell_state(2).matrix)
    # bell_state(2) is pair-major; move into the protocol's layout then flip qubit 2
    from distillery.densop import bell_pairs_on, apply_matrix, PAULI_X

    mat = bell_pairs_on(list(spec.pairs), 4)
    mat = apply_matrix(mat, PAULI_X, (2,), 4)
    result = execute_exact(spec.circuit, DensityOperator(4, mat))
    with pytest.raises(NothingAcceptedError):
        postselect(result, spec.accepts)


def test_parity_agreement_rule():
    spec = replace(build_z2b(), checks=((("a", "b"), ("c",)),))
    assert spec.accepts({"a": 1, "b": 0, "c": 1})
    assert not spec.accepts({"a": 1, "b": 1, "c": 1})


def test_zero_probability_branches_carried_without_division():
    circuit = [Measure(0, "Z", "a")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = execute_exact(circuit, ground(1))
        by_outcome = {b.outcomes["a"]: b for b in result.branches}
    assert set(by_outcome) == {0, 1}
    assert by_outcome[1].probability == 0.0
    # outcome 0 is the whole matrix; outcome 1's block is exactly zero
    np.testing.assert_array_equal(result.matrix, ground(1).matrix)


def test_mid_circuit_measurement_conditions_later_gates():
    # Bell pair on (0, 1); qubit 2 copies qubit 1 after qubit 0 is read, so
    # both outcomes report the same bit, each flipped with probability 0.1
    circuit = BELL_PREP + [Measure(0, "Z", "a"), Gate("CNOT", (1, 2)), Measure(2, "Z", "b")]
    result = execute_exact(circuit, ground(3), meas_error=0.1)
    probs = joint_probabilities(result)
    assert all(tuple(b.outcomes) == ("a", "b") for b in result.branches)
    for outcome, expected in {(0, 0): 0.41, (1, 1): 0.41, (0, 1): 0.09, (1, 0): 0.09}.items():
        assert probs[outcome] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "after",
    [Gate("H", (0,)), ChannelOp(bit_flip(0.1, qubit=0)), Measure(0, "X", "b")],
    ids=["gate", "channel", "measure"],
)
def test_acting_on_a_measured_qubit_is_rejected(after):
    with pytest.raises(ValueError, match="measured qubit"):
        execute_exact([Measure(0, "Z", "a"), after], ground(2))


def test_delay_on_a_measured_qubit_is_accepted():
    result = execute_exact([Measure(0, "Z", "a"), Delay(1.0, (0, 1))], ground(2))
    assert joint_probabilities(result)[(0,)] == pytest.approx(1.0, abs=1e-14)


def test_circuit_json_round_trip(rng):
    circuit = [
        Gate("H", (0,)),
        Gate("CPhase", (0, 1), 0.7),
        ChannelOp(bit_flip(0.12, qubit=1)),
        ChannelOp(depolarizing_global(0.3, 2, qubits=(0, 1))),
        Delay(2.5, (0, 1)),
        Barrier("t0"),
        Measure(1, "X", "m"),
    ]
    restored = circuit_from_json(circuit_to_json(circuit))
    rho = random_density(rng, 2)
    r1 = execute_exact(circuit, rho)
    r2 = execute_exact(restored, rho)
    for b1, b2 in zip(r1.branches, r2.branches):
        assert b1.outcomes == b2.outcomes
        assert b1.probability == pytest.approx(b2.probability, abs=1e-12)
    np.testing.assert_allclose(r1.matrix, r2.matrix, atol=1e-12)

