import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from distillery.channels import (
    DampingDephasingParams,
    KrausChannel,
    PauliChannelParams,
    apply_channel,
    bit_flip,
    channel_superoperator,
    damping_dephasing,
    depolarizing_global,
    depolarizing_local,
    gp_from_t1t2,
    pauli_channel,
)
from distillery.densop import DensityOperator, PAULI_X, PAULI_Y, PAULI_Z, bell_fidelity, bell_state

PLUS = DensityOperator(1, np.full((2, 2), 0.5, dtype=complex))

# Bloch vectors of the six cardinal states
CARDINAL = {
    (1, 0, 0): None, (-1, 0, 0): None, (0, 1, 0): None,
    (0, -1, 0): None, (0, 0, 1): None, (0, 0, -1): None,
}


def bloch_to_density(v) -> DensityOperator:
    x, y, z = v
    mat = 0.5 * (np.eye(2) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    return DensityOperator(1, mat)


def density_to_bloch(rho: DensityOperator):
    return tuple(float(np.real(np.trace(p @ rho.matrix))) for p in (PAULI_X, PAULI_Y, PAULI_Z))


def test_bit_flip_identity_at_zero():
    out = apply_channel(bell_state(1), bit_flip(0.0, qubit=1))
    np.testing.assert_allclose(out.matrix, bell_state(1).matrix, atol=1e-14)


def test_bit_flip_half_fixes_plus_state():
    out = apply_channel(PLUS, bit_flip(0.5))
    np.testing.assert_allclose(out.matrix, PLUS.matrix, atol=1e-14)


def test_bit_flip_on_one_half_of_bell_pair():
    out = apply_channel(bell_state(1), bit_flip(0.1, qubit=1))
    assert bell_fidelity(out, (0, 1)) == pytest.approx(0.9, abs=1e-12)


def test_bit_flip_rejects_out_of_range():
    for q in (-0.1, 0.6, 1.0):
        with pytest.raises(ValueError):
            bit_flip(q)


def test_depolarizing_local_identity_and_full():
    out = apply_channel(bell_state(1), depolarizing_local(0.0, qubit=0))
    np.testing.assert_allclose(out.matrix, bell_state(1).matrix, atol=1e-14)
    # p = 3/4 sends any input to the maximally mixed state
    rho = DensityOperator(1, np.array([[0.9, 0.1], [0.1, 0.1]], dtype=complex))
    out = apply_channel(rho, depolarizing_local(0.75))
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_depolarizing_local_on_half_of_bell_pair():
    out = apply_channel(bell_state(1), depolarizing_local(0.3, qubit=1))
    assert bell_fidelity(out, (0, 1)) == pytest.approx(0.7, abs=1e-12)


def test_depolarizing_local_two_forms_agree_as_superoperators():
    eye2 = np.eye(2, dtype=complex) / 2
    # superoperator of rho -> Tr(rho) I/2, built by its action on matrix units
    # in the row-major vectorization channel_superoperator uses
    replace = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            replace[:, 2 * i + j] = (np.trace(unit) * eye2).flatten()
    for p in np.arange(0.0, 0.751, 0.1):
        mix = channel_superoperator(depolarizing_local(float(p)))
        second = (1 - 4 * p / 3) * np.eye(4, dtype=complex) + (4 * p / 3) * replace
        np.testing.assert_allclose(mix, second, atol=1e-12)


def test_depolarizing_local_composition_contracts_multiplicatively(rng):
    p = 0.3
    rho = random_density(rng, 1)
    once = apply_channel(rho, depolarizing_local(p))
    twice = apply_channel(once, depolarizing_local(p))
    x0 = density_to_bloch(rho)[0]
    x2 = density_to_bloch(twice)[0]
    assert x2 == pytest.approx((1 - 4 * p / 3) ** 2 * x0, abs=1e-12)


def test_depolarizing_global_identity_and_full(rng):
    rho = random_density(rng, 2)
    out = apply_channel(rho, depolarizing_global(0.0, 2))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)
    out = apply_channel(rho, depolarizing_global(1.0, 2))
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)


def test_depolarizing_global_bell_fidelity_formula():
    out = apply_channel(bell_state(1), depolarizing_global(0.4, 2))
    assert bell_fidelity(out, (0, 1)) == pytest.approx(1 - 3 * 0.4 / 4, abs=1e-12)


def test_depolarizing_global_single_qubit_equals_local():
    for lam in (0.1, 0.5, 0.9):
        a = channel_superoperator(depolarizing_global(lam, 1))
        b = channel_superoperator(depolarizing_local(3 * lam / 4))
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_global_depolarizing_kraus_list_is_complete():
    for lam, n in [(0.3, 1), (0.7, 2)]:
        ch = depolarizing_global(lam, n)
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        np.testing.assert_allclose(total, np.eye(2**n), atol=1e-10)


def test_global_depolarizing_closed_form_matches_kraus(rng):
    rho = random_density(rng, 3)
    ch = depolarizing_global(0.35, 2, qubits=(0, 2))
    fast = apply_channel(rho, ch).matrix
    slow = np.zeros_like(fast)
    from distillery.densop import embed_on_qubits

    for k in ch.kraus_ops:
        full = embed_on_qubits(k, (0, 2), 3)
        slow += full @ rho.matrix @ full.conj().T
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_damping_dephasing_identity():
    ch = damping_dephasing(DampingDephasingParams(0.0, 0.0))
    out = apply_channel(PLUS, ch)
    np.testing.assert_allclose(out.matrix, PLUS.matrix, atol=1e-14)


def test_amplitude_damping_half_on_excited_state():
    rho = DensityOperator(1, np.diag([0.0, 1.0]).astype(complex))
    out = apply_channel(rho, damping_dephasing(DampingDephasingParams(0.5, 0.0)))
    np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)


def test_pure_dephasing_contracts_bloch_x():
    out = apply_channel(PLUS, damping_dephasing(DampingDephasingParams(0.0, 0.2)))
    assert density_to_bloch(out)[0] == pytest.approx(0.6, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 1), st.floats(0, 0.5))
def test_damping_dephasing_bloch_action(g, p):
    ch = damping_dephasing(DampingDephasingParams(g, p))
    total = sum(k.conj().T @ k for k in ch.kraus_ops)
    assert np.max(np.abs(total - np.eye(2))) < 1e-10
    shrink = (1 - 2 * p) * math.sqrt(1 - g)
    for v in CARDINAL:
        out = apply_channel(bloch_to_density(v), ch)
        expected = (shrink * v[0], shrink * v[1], (1 - g) * v[2] + g)
        got = density_to_bloch(out)
        assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-10


def test_gp_from_t1t2_examples():
    params = gp_from_t1t2(0.0, 100.0, 100.0)
    assert params.g == pytest.approx(0.0, abs=1e-15)
    assert params.p == pytest.approx(0.0, abs=1e-15)
    # maximal T2 means no dephasing component
    for t in (1.0, 50.0, 400.0):
        assert gp_from_t1t2(t, 120.0, 240.0).p == pytest.approx(0.0, abs=1e-15)
    params = gp_from_t1t2(100.0, 100.0, 100.0)
    assert params.g == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert params.p == pytest.approx((1 - math.exp(-0.5)) / 2, abs=1e-12)


def test_gp_from_t1t2_rejects_fast_t2():
    with pytest.raises(ValueError):
        gp_from_t1t2(1.0, 100.0, 250.0)


def test_gp_from_t1t2_monotone_in_time():
    times = np.linspace(0, 500, 40)
    gs = [gp_from_t1t2(float(t), 150.0, 80.0).g for t in times]
    ps = [gp_from_t1t2(float(t), 150.0, 80.0).p for t in times]
    assert all(b >= a for a, b in zip(gs, gs[1:]))
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_pauli_channel_matches_special_cases():
    ident = pauli_channel(PauliChannelParams(1, 0, 0, 0))
    np.testing.assert_allclose(channel_superoperator(ident), np.eye(4), atol=1e-14)
    p = 0.3
    a = channel_superoperator(pauli_channel(PauliChannelParams(1 - p, p / 3, p / 3, p / 3)))
    b = channel_superoperator(depolarizing_local(p))
    np.testing.assert_allclose(a, b, atol=1e-12)
    a = channel_superoperator(pauli_channel(PauliChannelParams(0.9, 0.1, 0, 0)))
    b = channel_superoperator(bit_flip(0.1))
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_pauli_channel_params_validation():
    with pytest.raises(ValueError):
        PauliChannelParams(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        PauliChannelParams(0.5, 0.2, 0.2, 0.2)
    with pytest.raises(ValueError):
        PauliChannelParams(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        PauliChannelParams(1.0, math.nan, 0.0, 0.0)


def test_kraus_completeness_enforced():
    with pytest.raises(ValueError):
        KrausChannel((0,), (np.eye(2) * 0.9,))
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((0,), (np.array([[np.nan, 0], [0, 1]]),))


def test_apply_channel_preserves_trace_and_hermiticity(rng):
    channels = [
        bit_flip(0.25),
        depolarizing_local(0.6),
        damping_dephasing(DampingDephasingParams(0.4, 0.1)),
        pauli_channel(PauliChannelParams(0.7, 0.1, 0.1, 0.1)),
        depolarizing_global(0.5, 2, qubits=(0, 1)),
    ]
    for ch in channels:
        rho = random_density(rng, 2)
        out = apply_channel(rho, ch.on(*((0,) if len(ch.target_qubits) == 1 else (0, 1))))
        assert abs(np.trace(out.matrix) - 1) < 1e-10
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10


def test_channel_rebinding_checks_arity():
    with pytest.raises(ValueError):
        bit_flip(0.1).on(0, 1)
