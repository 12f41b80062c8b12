import numpy as np
import pytest

from conftest import ladder_unitary, random_density, random_unitary
from distillery import densop, protocols
from distillery.analytic import enumerate_accepted, recurrence_bitflip, z2b_local_depol
from distillery.channels import (
    PauliChannelParams,
    apply_channel_matrix,
    bit_flip,
    depolarizing_global,
    depolarizing_local,
    pauli_channel,
)
from distillery.circuit import Gate, Measure, NothingAcceptedError, execute_exact, postselect
from distillery.densop import (
    CNOT,
    HADAMARD,
    PAULI_X,
    UnitaryOp,
    DensityOperator,
    basis_bits,
    bell_pairs_on,
    embed_on_qubits,
    ground_state,
    partial_trace_matrix,
    BELL_VEC,
)
from distillery.protocols import (
    ProtocolSpec,
    build_x2b,
    build_z2b,
    build_zx3b,
    general_distill,
    get_protocol,
    run_protocol,
)


def z_error(q, qubit):
    return pauli_channel(PauliChannelParams(1 - q, 0.0, 0.0, q), qubit)


@pytest.mark.parametrize("builder", [build_z2b, build_x2b, build_zx3b])
def test_perfect_inputs_always_accepted(builder):
    out = run_protocol(builder())
    assert out.p_accept == pytest.approx(1.0, abs=1e-12)
    assert out.f_after == pytest.approx(1.0, abs=1e-12)
    assert out.f_before == pytest.approx(1.0, abs=1e-12)


def test_z2b_bitflip_example():
    spec = build_z2b()
    noise = [bit_flip(0.1, qubit=q) for q in spec.noise_qubits]
    out = run_protocol(spec, noise)
    assert out.p_accept == pytest.approx(0.82, abs=1e-12)
    assert out.f_after == pytest.approx(0.81 / 0.82, abs=1e-12)
    assert out.f_before == pytest.approx(0.9, abs=1e-12)


def test_x2b_phase_flip_example():
    spec = build_x2b()
    out = run_protocol(spec, [z_error(0.2, q) for q in spec.noise_qubits])
    assert out.p_accept == pytest.approx(0.68, abs=1e-12)
    assert out.f_after == pytest.approx(0.64 / 0.68, abs=1e-12)


def test_z2b_rejects_deterministic_bit_flip():
    # an X on one checked half always flips exactly one parity outcome
    spec = build_z2b()
    always_x = pauli_channel(PauliChannelParams(0.0, 1.0, 0.0, 0.0), qubit=2)
    with pytest.raises(NothingAcceptedError):
        run_protocol(spec, [always_x])


def test_z2b_local_depol_matches_closed_form():
    spec = build_z2b()
    for p, q in [(0.1, 0.1), (0.05, 0.2), (0.4, 0.7)]:
        noise = [depolarizing_local(p, spec.noise_qubits[0]), depolarizing_local(q, spec.noise_qubits[1])]
        out = run_protocol(spec, noise)
        ref = z2b_local_depol(p, q)
        assert out.p_accept == pytest.approx(ref.p_accept, abs=1e-12)
        assert out.f_after == pytest.approx(ref.f_after, abs=1e-12)
        assert out.f_before == pytest.approx(ref.f_before, abs=1e-12)


def test_zx3b_global_depol_example():
    spec = build_zx3b()
    out = run_protocol(spec, [depolarizing_global(0.4, 6)])
    assert out.p_accept == pytest.approx(0.7, abs=1e-12)
    assert out.f_after == pytest.approx((1 - 0.375) / 0.7, abs=1e-12)


def test_bitflip_strict_improvement_region():
    spec = build_z2b()
    grid = [i * 0.05 for i in range(1, 10)]
    for p in grid:
        for q in grid:
            if p > q:
                continue
            noise = [bit_flip(p, spec.noise_qubits[0]), bit_flip(q, spec.noise_qubits[1])]
            out = run_protocol(spec, noise)
            assert out.f_after - out.f_before > 0
            ref = recurrence_bitflip(p, q)
            assert out.f_after == pytest.approx(ref.f_after, abs=1e-12)


def test_global_depol_always_improves():
    for name in ("z2b", "zx3b"):
        spec = get_protocol(name)
        for lam in (0.05, 0.3, 0.6, 0.95):
            out = run_protocol(spec, [depolarizing_global(lam, spec.n_qubits)])
            assert out.ratio > 1.0


def test_z2b_x2b_duality(rng):
    """Conjugating the input noise by H on every qubit maps one check to the other."""
    z_spec, x_spec = build_z2b(), build_x2b()
    for _ in range(10):
        probs = rng.dirichlet(np.ones(4), size=2)
        chans_z = [pauli_channel(PauliChannelParams(*probs[i]), z_spec.noise_qubits[i]) for i in range(2)]
        # H conjugation swaps the X and Z weights
        swapped = [PauliChannelParams(p[0], p[3], p[2], p[1]) for p in probs]
        chans_x = [pauli_channel(swapped[i], x_spec.noise_qubits[i]) for i in range(2)]
        out_z = run_protocol(z_spec, chans_z)
        out_x = run_protocol(x_spec, chans_x)
        assert out_x.p_accept == pytest.approx(out_z.p_accept, abs=1e-11)
        assert out_x.f_after == pytest.approx(out_z.f_after, abs=1e-11)


def test_run_protocol_matches_enumeration_oracle(rng):
    for name, draws in (("z2b", 50), ("x2b", 25), ("zx3b", 25)):
        spec = get_protocol(name)
        for _ in range(draws):
            params = [PauliChannelParams(*rng.dirichlet(np.ones(4))) for _ in spec.pairs]
            noise = [pauli_channel(p, q) for p, q in zip(params, spec.noise_qubits)]
            out = run_protocol(spec, noise)
            ref = enumerate_accepted(spec, params)
            assert out.p_accept == pytest.approx(ref.acceptance_prob, abs=1e-10)
            assert out.f_after == pytest.approx(ref.fidelity_after, abs=1e-10)


def _z2b_unitary():
    mat = embed_on_qubits(CNOT, (0, 1), 4) @ embed_on_qubits(CNOT, (2, 3), 4)
    return UnitaryOp(mat, (0, 1, 2, 3))


def test_general_distill_perfect_inputs():
    rho = DensityOperator(4, bell_pairs_on([(0, 2), (1, 3)], 4))
    p, out, f = general_distill(rho, _z2b_unitary())
    assert p == pytest.approx(1.0, abs=1e-12)
    assert f == pytest.approx(1.0, abs=1e-12)


def test_general_distill_identity_projects_half():
    # pair-major Bell pairs feed halves of different pairs into the projector
    from distillery.densop import bell_state

    p, out, f = general_distill(bell_state(2), UnitaryOp(np.eye(16), (0, 1, 2, 3)))
    assert p == pytest.approx(0.5, abs=1e-12)


def test_general_distill_matches_circuit_postselection(rng):
    spec = build_z2b()
    u = _z2b_unitary()
    for _ in range(50):
        rho = random_density(rng, 4)
        p1, out1, f1 = general_distill(rho, u)
        result = execute_exact(spec.circuit, rho)
        p2, kept = postselect(result, spec.accepts)
        red = partial_trace_matrix(kept.matrix, spec.kept_pair, 4)
        f2 = float(np.real(BELL_VEC.conj() @ red @ BELL_VEC))
        assert abs(p1 - p2) <= 1e-10
        assert abs(f1 - f2) <= 1e-10
        np.testing.assert_allclose(out1.matrix, red, atol=1e-10)


def test_general_distill_matches_x2b_after_basis_change(rng):
    """Absorbing the X-basis rotations into the unitary reproduces the X2B run."""
    spec = build_x2b()
    mat = embed_on_qubits(CNOT, (1, 0), 4) @ embed_on_qubits(CNOT, (3, 2), 4)
    for q in (1, 3):
        mat = embed_on_qubits(HADAMARD, (q,), 4) @ mat
    u = UnitaryOp(mat, (0, 1, 2, 3))
    for _ in range(10):
        probs = rng.dirichlet(np.ones(4), size=2)
        noise = [pauli_channel(PauliChannelParams(*probs[i]), spec.noise_qubits[i]) for i in range(2)]
        out = run_protocol(spec, noise)
        init = bell_pairs_on(list(spec.pairs), 4)
        for ch in noise:
            init = apply_channel_matrix(init, ch, 4)
        p, _, f = general_distill(DensityOperator(4, init), u)
        assert out.p_accept == pytest.approx(p, abs=1e-10)
        assert out.f_after == pytest.approx(f, abs=1e-10)


def _projected_reference(rho, u, kept):
    """The projector form written out: the full U rho U^dag, the 0/1 mask of
    agreeing outcomes on both sides, then the partial trace onto the kept pair."""
    n = rho.n_qubits
    n_pairs = n // 2
    full = embed_on_qubits(u.matrix, u.target_qubits, n)
    mat = full @ rho.matrix @ full.conj().T
    bits = basis_bits(n)
    others = [i for i in range(n_pairs) if i != kept]
    keep = np.all(bits[:, others] == bits[:, [n_pairs + i for i in others]], axis=1)
    mat = mat * np.outer(keep, keep)
    p_accept = float(np.real(np.trace(mat)))
    pair = partial_trace_matrix(mat, [kept, n_pairs + kept], n) / p_accept
    return p_accept, pair, float(np.real(BELL_VEC.conj() @ pair @ BELL_VEC))


@pytest.mark.parametrize("n_pairs", [2, 3, 4])
@pytest.mark.parametrize("register", ["full", "subset"])
def test_general_distill_matches_the_full_register_projection(n_pairs, register):
    """Random mixed states and dense unitaries, so coherences between
    accepted and rejected outcomes would show if they leaked in."""
    n = 2 * n_pairs
    rng = np.random.default_rng(1400 + 10 * n_pairs + (register == "subset"))
    targets = tuple(range(n))
    if register == "subset":  # three random qubits, listed out of order
        low, mid, high = sorted(int(q) for q in rng.choice(n, 3, replace=False))
        targets = (mid, high, low)
    u = UnitaryOp(random_unitary(rng, len(targets)), targets)
    rho = random_density(rng, n)
    for kept in range(n_pairs):
        p, pair, f = general_distill(rho, u, kept)
        p_ref, pair_ref, f_ref = _projected_reference(rho, u, kept)
        assert abs(p - p_ref) <= 1e-12
        np.testing.assert_allclose(pair.matrix, pair_ref, atol=1e-12, rtol=0)
        assert abs(f - f_ref) <= 1e-12


def test_general_distill_refuses_a_zero_weight_projection():
    # X on qubit 3 makes pair 1's halves disagree on every basis state
    with pytest.raises(NothingAcceptedError):
        general_distill(ground_state(4), UnitaryOp(PAULI_X, (3,)))


def _ladder_spec(n_pairs):
    """The ladder's check as measurements: pair i (i > 0) is kept when its two Z outcomes agree."""
    circuit = [Gate("CNOT", (side + i, side + i + 1)) for side in (0, n_pairs) for i in range(n_pairs - 1)]
    for i in range(1, n_pairs):
        circuit += [Measure(i, "Z", f"a{i}"), Measure(n_pairs + i, "Z", f"b{i}")]
    return ProtocolSpec(
        name=f"ladder{n_pairs}",
        n_pairs=n_pairs,
        pairs=tuple((i, n_pairs + i) for i in range(n_pairs)),
        circuit=tuple(circuit),
        checks=tuple(((f"a{i}",), (f"b{i}",)) for i in range(1, n_pairs)),
        kept_pair=(0, n_pairs),
    )


def test_general_distill_never_forms_the_full_register_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("apply_matrix called")

    monkeypatch.setattr(densop, "apply_matrix", refuse)
    monkeypatch.setattr(protocols, "apply_matrix", refuse, raising=False)
    n_pairs = 4
    n = 2 * n_pairs
    params = [PauliChannelParams(1 - p, p / 3, p / 3, p / 3) for p in (0.05, 0.1, 0.15, 0.2)]
    rho = bell_pairs_on([(i, n_pairs + i) for i in range(n_pairs)], n)
    for i, prm in enumerate(params):
        rho = apply_channel_matrix(rho, pauli_channel(prm, n_pairs + i), n)
    p_accept, _, fidelity = general_distill(DensityOperator(n, rho), ladder_unitary(n_pairs))
    ref = enumerate_accepted(_ladder_spec(n_pairs), params)
    assert p_accept == pytest.approx(ref.acceptance_prob, abs=1e-10)
    assert fidelity == pytest.approx(ref.fidelity_after, abs=1e-10)


def test_protocol_registry():
    assert get_protocol("Z2B").name == "z2b"
    with pytest.raises(ValueError):
        get_protocol("q3b")


def test_outcome_derived_quantities():
    spec = build_z2b()
    out = run_protocol(spec, [bit_flip(0.1, qubit=q) for q in spec.noise_qubits])
    assert out.ratio == pytest.approx(out.f_after / out.f_before, abs=1e-14)
    expected = 100 * (out.f_after - out.f_before) / (1 - out.f_before)
    assert out.err_decrease == pytest.approx(expected, abs=1e-12)


def test_protocol_circuits_serialize_to_circuit_json():
    from distillery.circuit import circuit_from_json, circuit_to_json

    for name in ("z2b", "x2b", "zx3b"):
        spec = get_protocol(name)
        restored = circuit_from_json(circuit_to_json(list(spec.circuit)))
        assert tuple(restored) == spec.circuit
