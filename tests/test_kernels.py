"""Target-axis kernels against the embedded reference they replaced.

Every kernel is checked on seeded random inputs against ``embed_on_qubits``
plus dense matmuls: the k-qubit operator is expanded to the full register
and multiplied in, which is slow (O(8^n)) but obviously right. Global
depolarizing must match the kron-then-permute form it replaced bit for bit.
"""

import numpy as np
import pytest

from conftest import random_density, random_unitary
from distillery import densop
from distillery.channels import (
    DampingDephasingParams,
    GlobalDepolarizingChannel,
    KrausChannel,
    apply_channel_matrix,
    apply_global_depolarizing_matrix,
    apply_kraus_matrix,
    channel_superoperator,
    damping_dephasing,
)
from distillery.circuit import (
    BASIS_ROTATIONS,
    Barrier,
    ChannelOp,
    Gate,
    Measure,
    execute_exact,
    with_gate_noise,
)
from distillery.densop import (
    PAULI_X,
    DensityOperator,
    apply_matrix,
    apply_superoperator,
    embed_on_qubits,
    partial_trace_matrix,
    permute_qubits,
    superoperator,
)
from distillery.protocols import build_x2b, build_z2b, build_zx3b

ATOL = 1e-12
SIZES = range(1, 9)


def random_isometry_channel(rng, k, n_ops):
    """Kraus operators cut from a random (n_ops 2^k, 2^k) isometry, so sum K^dag K = I."""
    dim = 2**k
    a = rng.normal(size=(n_ops * dim, dim)) + 1j * rng.normal(size=(n_ops * dim, dim))
    v, _ = np.linalg.qr(a)
    return [v[i * dim : (i + 1) * dim] for i in range(n_ops)]


def random_targets(rng, k, n):
    """k distinct qubits in random order: reversed and non-adjacent pairs included."""
    return tuple(int(q) for q in rng.choice(n, size=k, replace=False))


def random_ops(rng, k):
    """(name, Kraus operators) of the k-qubit ops every kernel is checked on."""
    ops = [("unitary", [random_unitary(rng, k)]), ("isometry", random_isometry_channel(rng, k, 3))]
    if k == 1:
        params = DampingDephasingParams(float(rng.uniform()), float(rng.uniform(0, 0.5)))
        ops.append(("damping", list(damping_dephasing(params).kraus_ops)))
    return ops


def embedded_kraus(rho, ops, targets, n):
    out = np.zeros_like(rho)
    for k in ops:
        full = embed_on_qubits(k, targets, n)
        out += full @ rho @ full.conj().T
    return out


def embedded_global_depolarizing(rho, lam, targets, n):
    """The kron-then-permute form of the global depolarizing closed form."""
    if lam == 0.0:
        return rho.copy()
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    if rest:
        reduced = partial_trace_matrix(rho, rest, n)
        mixed = np.kron(np.eye(2**k, dtype=complex) / 2**k, reduced)
        mixed = permute_qubits(mixed, list(targets) + rest, n)
    else:
        mixed = np.trace(rho) * np.eye(2**k, dtype=complex) / 2**k
    return (1 - lam) * rho + lam * mixed


def cases(seed):
    """(n, targets, name, Kraus operators, rho) over n = 1..8 and k = 1, 2."""
    rng = np.random.default_rng(seed)
    for n in SIZES:
        rho = random_density(rng, n).matrix
        for k in (1, 2):
            if k > n:
                continue
            for _ in range(2):
                targets = random_targets(rng, k, n)
                for name, ops in random_ops(rng, k):
                    yield n, targets, name, ops, rho


@pytest.mark.parametrize("seed", [11, 12])
def test_superoperator_kernel_matches_embedded_reference(seed):
    for n, targets, name, ops, rho in cases(seed):
        want = embedded_kraus(rho, ops, targets, n)
        got = apply_superoperator(rho, superoperator(ops), targets, n)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0, err_msg=f"{name} on {targets}, n={n}")
        got = apply_kraus_matrix(rho, ops, targets, n)
        np.testing.assert_allclose(got, want, atol=ATOL, rtol=0, err_msg=f"{name} on {targets}, n={n}")


@pytest.mark.parametrize("seed", [21, 22])
def test_apply_matrix_matches_embedded_reference(seed):
    rng = np.random.default_rng(seed)
    for n in SIZES:
        rho = random_density(rng, n).matrix
        # k = n covers the full-register case, targets in a random order
        for k in sorted({1, min(2, n), n}):
            targets = random_targets(rng, k, n)
            u = random_unitary(rng, k)
            full = embed_on_qubits(u, targets, n)
            np.testing.assert_allclose(
                apply_matrix(rho, u, targets, n), full @ rho @ full.conj().T, atol=ATOL, rtol=0
            )


@pytest.mark.parametrize("seed", [31, 32])
def test_global_depolarizing_is_bit_identical_to_kron_and_permute(seed):
    rng = np.random.default_rng(seed)
    for n in SIZES:
        rho = random_density(rng, n).matrix
        for k in range(1, min(n, 4) + 1):
            targets = random_targets(rng, k, n)
            for lam in (0.0, float(rng.uniform()), 1.0):
                want = embedded_global_depolarizing(rho, lam, targets, n)
                got = apply_global_depolarizing_matrix(rho, lam, targets, n)
                assert np.array_equal(got, want), (targets, n, lam)


def test_channel_superoperator_is_the_kernel_builder():
    rng = np.random.default_rng(41)
    ops = random_isometry_channel(rng, 2, 3)
    ch = KrausChannel((3, 0), ops)
    assert np.array_equal(channel_superoperator(ch), superoperator(ops))
    # row-major vectorization: vec(K rho K^dag) = S vec(rho), entry (r, c) at r * 4 + c
    rho = random_density(rng, 2).matrix
    want = sum(k @ rho @ k.conj().T for k in ops)
    np.testing.assert_allclose(superoperator(ops) @ rho.reshape(-1), want.reshape(-1), atol=ATOL)


def test_kernel_rejects_bad_targets_and_shapes():
    rho = random_density(np.random.default_rng(42), 3).matrix
    sup = superoperator([PAULI_X])
    for targets in [(3,), (-1,), (1, 1)]:
        with pytest.raises(ValueError):
            apply_superoperator(rho, superoperator([np.eye(2 ** len(targets))]), targets, 3)
    with pytest.raises(ValueError, match="does not match"):
        apply_superoperator(rho, sup, (0, 1), 3)
    for targets in [(3,), (-1,), (1, 1)]:
        with pytest.raises(ValueError):
            apply_global_depolarizing_matrix(rho, 0.5, targets, 3)


def reference_execute(circuit, init: DensityOperator, meas_error: float) -> np.ndarray:
    """execute_exact's final matrix, every element embedded into the full register."""
    n = init.n_qubits
    rho = init.matrix
    for el in circuit:
        if isinstance(el, Gate):
            full = embed_on_qubits(el.matrix(), el.targets, n)
            rho = full @ rho @ full.conj().T
        elif isinstance(el, ChannelOp):
            ch = el.channel
            if isinstance(ch, GlobalDepolarizingChannel):
                rho = embedded_global_depolarizing(rho, ch.lam, ch.target_qubits, n)
            else:
                rho = embedded_kraus(rho, ch.kraus_ops, ch.target_qubits, n)
        elif isinstance(el, Measure):
            rot = BASIS_ROTATIONS[el.basis]
            if rot is not None:
                full = embed_on_qubits(rot, (el.qubit,), n)
                rho = full @ rho @ full.conj().T
            x = embed_on_qubits(PAULI_X, (el.qubit,), n)
            rho = (1 - meas_error) * rho + meas_error * (x @ rho @ x)
            projectors = [embed_on_qubits(np.diag([1.0 - b, b]), (el.qubit,), n) for b in (0, 1)]
            rho = sum(p @ rho @ p for p in projectors)
    return rho


def noisy_circuit(spec, rng):
    """The protocol's circuit after a layer of gates and Kraus noise, with gate noise."""
    n = spec.n_qubits
    a, b = random_targets(rng, 2, n)
    params = DampingDephasingParams(0.07, 0.03)
    prefix = [
        Gate("H", (a,)),
        Gate("S", (b,)),
        Gate("CPhase", (b, a), float(rng.uniform(0, 2 * np.pi))),
        Gate("Sdg", (a,)),
        Gate("SWAP", (n - 1, 0)),
        Barrier("mid"),
        ChannelOp(KrausChannel((a, b), random_isometry_channel(rng, 2, 3))),
        *(ChannelOp(damping_dephasing(params, qubit=q)) for q in range(n)),
    ]
    return with_gate_noise(prefix + list(spec.circuit), lambda p, q: float(rng.uniform(0, 0.1)))


@pytest.mark.parametrize("build", [build_z2b, build_x2b, build_zx3b], ids=["z2b", "x2b", "zx3b"])
@pytest.mark.parametrize("meas_error", [0.0, 0.04])
def test_execute_exact_matches_embedded_reference(build, meas_error):
    spec = build()
    rng = np.random.default_rng(51)
    init = random_density(rng, spec.n_qubits)
    circuit = noisy_circuit(spec, rng)
    kinds = {type(el.channel) for el in circuit if isinstance(el, ChannelOp)}
    assert kinds == {KrausChannel, GlobalDepolarizingChannel}
    got = execute_exact(circuit, init, meas_error).matrix
    np.testing.assert_allclose(got, reference_execute(circuit, init, meas_error), atol=ATOL, rtol=0)


def test_execute_exact_matches_reference_in_the_y_basis():
    rng = np.random.default_rng(52)
    init = random_density(rng, 3)
    circuit = [Gate("H", (1,)), Gate("CNOT", (2, 0))] + [Measure(q, "Y", f"m{q}") for q in range(3)]
    got = execute_exact(circuit, init, 0.1).matrix
    np.testing.assert_allclose(got, reference_execute(circuit, init, 0.1), atol=ATOL, rtol=0)


def test_no_execution_path_embeds(monkeypatch):
    def refuse(*args):
        raise AssertionError("embed_on_qubits called")

    monkeypatch.setattr(densop, "embed_on_qubits", refuse)
    spec = build_zx3b()
    rng = np.random.default_rng(61)
    n = spec.n_qubits
    init = random_density(rng, n)
    execute_exact(noisy_circuit(spec, rng), init, 0.02)
    rho = init.matrix
    apply_channel_matrix(rho, damping_dephasing(DampingDephasingParams(0.1, 0.1), qubit=2), n)
    apply_channel_matrix(rho, GlobalDepolarizingChannel((4, 1), 0.2), n)
    apply_matrix(rho, random_unitary(rng, 2), (5, 0), n)
