import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ladder_unitary, random_density
from distillery.densop import (
    CNOT,
    HADAMARD,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PSD_FLOOR,
    DensityOperator,
    PhysicalityError,
    UnitaryOp,
    _certified_above_floor,
    _check_density_matrix,
    apply_unitary,
    bell_fidelity,
    bell_pairs_on,
    bell_state,
    embed_on_qubits,
    expectation,
    partial_trace,
    permute_qubits,
)

ZZ = np.kron(PAULI_Z, PAULI_Z)
YY = np.kron(PAULI_Y, PAULI_Y)


def test_bell_state_matrix_entries():
    rho = bell_state(1)
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expected[i, j] = 0.5
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)


def test_bell_state_fidelity_and_trace():
    assert bell_fidelity(bell_state(1), (0, 1)) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(bell_state(2).matrix) == pytest.approx(1.0, abs=1e-12)


def test_bell_state_rejects_nonpositive_pairs():
    with pytest.raises(ValueError):
        bell_state(0)
    with pytest.raises(ValueError):
        bell_state(-2)


def test_apply_cnot_to_ground_is_identity():
    rho = DensityOperator(2, np.diag([1.0, 0, 0, 0]).astype(complex))
    out = apply_unitary(rho, UnitaryOp(CNOT, (0, 1)))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_hadamard_cnot_prepares_bell_pair():
    rho = DensityOperator(2, np.diag([1.0, 0, 0, 0]).astype(complex))
    rho = apply_unitary(rho, UnitaryOp(HADAMARD, (0,)))
    rho = apply_unitary(rho, UnitaryOp(CNOT, (0, 1)))
    np.testing.assert_allclose(rho.matrix, bell_state(1).matrix, atol=1e-14)


def test_x_on_one_half_kills_bell_fidelity():
    flipped = apply_unitary(bell_state(1), UnitaryOp(PAULI_X, (0,)))
    assert bell_fidelity(flipped, (0, 1)) == pytest.approx(0.0, abs=1e-12)


def test_apply_unitary_rejects_bad_targets():
    with pytest.raises(ValueError):
        apply_unitary(bell_state(1), UnitaryOp(CNOT, (0, 5)))
    with pytest.raises(ValueError):
        UnitaryOp(CNOT, (1, 1))


def test_partial_trace_of_bell_half_is_maximally_mixed():
    red = partial_trace(bell_state(1), [0])
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_of_product_state_recovers_factor(rng):
    a = random_density(rng, 1)
    b = random_density(rng, 2)
    joint = DensityOperator(3, np.kron(a.matrix, b.matrix))
    np.testing.assert_allclose(partial_trace(joint, [0]).matrix, a.matrix, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, [1, 2]).matrix, b.matrix, atol=1e-12)


def test_halves_of_distinct_pairs_are_uncorrelated():
    red = partial_trace(bell_state(2), [0, 2])
    np.testing.assert_allclose(red.matrix, np.eye(4) / 4, atol=1e-14)


def test_partial_trace_respects_listed_order(rng):
    rho = random_density(rng, 3)
    ab = partial_trace(rho, [0, 2]).matrix
    ba = partial_trace(rho, [2, 0]).matrix
    np.testing.assert_allclose(ba, permute_qubits(ab, [1, 0], 2), atol=1e-13)


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(bell_state(1), [])


def test_expectation_examples():
    phi = bell_state(1)
    assert expectation(phi, ZZ) == pytest.approx(1.0, abs=1e-12)
    assert expectation(phi, YY) == pytest.approx(-1.0, abs=1e-12)
    mixed = DensityOperator(2, np.eye(4) / 4)
    assert expectation(mixed, ZZ) == pytest.approx(0.0, abs=1e-12)


def test_expectation_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expectation(bell_state(1), np.array([[0, 1], [0, 0]]), qubits=[0])


def test_expectation_rejects_a_mismatched_observable():
    with pytest.raises(ValueError, match="does not match 1 qubits"):
        expectation(bell_state(1), ZZ, qubits=[0])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_expectation_matches_the_embedded_observable(rng, n):
    for qubits in ([n - 1, 0], [2, 0], [0, n - 1, 1], [n - 1], list(range(n))[::-1]):
        rho = random_density(rng, n)
        dim = 2 ** len(qubits)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        obs = a + a.conj().T
        want = float(np.real(np.trace(embed_on_qubits(obs, qubits, n) @ rho.matrix)))
        assert expectation(rho, obs, qubits) == pytest.approx(want, abs=1e-12)


def test_bell_fidelity_of_maximally_mixed():
    mixed = DensityOperator(2, np.eye(4) / 4)
    assert bell_fidelity(mixed, (0, 1)) == pytest.approx(0.25, abs=1e-12)


def test_bell_fidelity_symmetric_under_pair_swap(rng):
    for _ in range(20):
        rho = random_density(rng, 3)
        assert bell_fidelity(rho, (0, 2)) == pytest.approx(bell_fidelity(rho, (2, 0)), abs=1e-10)


def test_bell_fidelity_rejects_equal_indices():
    with pytest.raises(ValueError):
        bell_fidelity(bell_state(1), (1, 1))


def test_unitary_preserves_spectrum(rng):
    for _ in range(10):
        rho = random_density(rng, 2)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        out = apply_unitary(rho, UnitaryOp(q, (0, 1)))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(rho.matrix), atol=1e-10
        )


def test_unitary_on_discarded_subsystem_is_invisible(rng):
    for _ in range(10):
        rho = random_density(rng, 3)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rotated = apply_unitary(rho, UnitaryOp(q, (2,)))
        np.testing.assert_allclose(
            partial_trace(rotated, [0, 1]).matrix,
            partial_trace(rho, [0, 1]).matrix,
            atol=1e-10,
        )


def test_density_operator_invariants_enforced():
    with pytest.raises(PhysicalityError):
        DensityOperator(1, np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(PhysicalityError):
        DensityOperator(1, np.array([[0.9, 0.0], [0.0, 0.2]]))  # trace 1.1
    with pytest.raises(PhysicalityError):
        DensityOperator(1, np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    for bad in (np.nan, np.inf):
        with pytest.raises(PhysicalityError, match="not finite"):
            DensityOperator(1, np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(PhysicalityError, match="not finite"):
            DensityOperator(1, np.array([[0.5, bad], [bad, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_non_finite_entries_are_rejected_before_any_arithmetic(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat in (np.array([[bad, 0.0], [0.0, 1.0]]), np.array([[0.5, bad], [bad, 0.5]])):
            with pytest.raises(PhysicalityError, match="not finite"):
                DensityOperator(1, mat)


def test_unitary_op_rejects_non_unitary():
    with pytest.raises(ValueError):
        UnitaryOp(np.array([[1, 0], [0, 2]]), (0,))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryOp(np.array([[np.nan, 0], [0, 1]]), (0,))


def _with_min_eigenvalue(rng, n_qubits: int, lam_min: float) -> np.ndarray:
    """U diag(lam) U^dag with Haar-like U, smallest eigenvalue lam_min and trace 1."""
    dim = 2**n_qubits
    u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rest = rng.uniform(0.1, 1.0, size=dim - 1)
    lam = np.concatenate([[lam_min], rest * (1.0 - lam_min) / rest.sum()])
    return (u * lam) @ u.conj().T


def _bell_with_min_eigenvalue(n_pairs: int, lam_min: float) -> np.ndarray:
    """A Bell product with lam_min moved onto |0...01>: eigenvalues 1 - lam_min, lam_min, 0, ..."""
    mat = (1.0 - lam_min) * bell_state(n_pairs).matrix
    mat[1, 1] += lam_min
    return mat


@pytest.mark.parametrize("n", range(1, 9))
def test_psd_check_accepts_exactly_what_the_spectrum_accepts(rng, n):
    for lam_min in (0.0, -1e-12, -4e-10, -6e-10, -9.9e-10, -1.01e-9, -1e-6, -0.5):
        mats = [_with_min_eigenvalue(rng, n, lam_min)]
        if n % 2 == 0:
            mats.append(_bell_with_min_eigenvalue(n // 2, lam_min))  # rank 1 at lam_min = 0
        for mat in mats:
            min_eig = np.linalg.eigvalsh(mat)[0]
            assert min_eig == pytest.approx(lam_min, abs=1e-13)
            # the certificate settles every spectrum above PSD_FLOOR / 2 and
            # none below it; in between eigvalsh decides
            assert _certified_above_floor(mat) == (lam_min > PSD_FLOOR / 2), lam_min
            if min_eig >= PSD_FLOOR:
                DensityOperator(n, mat)
            else:
                with pytest.raises(PhysicalityError, match=f"min eigenvalue {min_eig:.3e}"):
                    DensityOperator(n, mat)


def test_bell_pairs_on_matches_permuted_bell_state():
    mat = bell_pairs_on([(0, 2), (1, 3)], 4)
    assert np.trace(mat) == pytest.approx(1.0, abs=1e-12)
    rho = DensityOperator(4, mat)
    assert bell_fidelity(rho, (0, 2)) == pytest.approx(1.0, abs=1e-12)
    assert bell_fidelity(rho, (1, 3)) == pytest.approx(1.0, abs=1e-12)
    assert bell_fidelity(rho, (0, 1)) == pytest.approx(0.25, abs=1e-12)


def test_embed_on_qubits_matches_kron_for_trailing_target():
    got = embed_on_qubits(PAULI_X, (1,), 2)
    np.testing.assert_allclose(got, np.kron(np.eye(2), PAULI_X), atol=1e-15)
    got = embed_on_qubits(PAULI_X, (0,), 2)
    np.testing.assert_allclose(got, np.kron(PAULI_X, np.eye(2)), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_operations_return_physical_states(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)  # construction itself validates invariants
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    out = apply_unitary(rho, UnitaryOp(q, (int(rng.integers(n)),)))
    red = partial_trace(out, [0])
    assert abs(np.trace(red.matrix) - 1) < 1e-10


def test_ladder_permutation_equals_the_cnot_product():
    n = 6
    u = np.eye(2**n, dtype=complex)
    for side in (0, 3):
        for i in range(2):
            u = embed_on_qubits(CNOT, (side + i, side + i + 1), n) @ u
    np.testing.assert_array_equal(ladder_unitary(3).matrix, u)


def test_physical_states_never_reach_the_eigvalsh_fallback(monkeypatch):
    from distillery.channels import apply_channel, depolarizing_local
    from distillery.device import IdleSpec, idle_distill_experiment, load_calibration
    from distillery.protocols import build_z2b, build_zx3b, general_distill
    from distillery.sweep import run_staged_point

    def refuse(*args, **kwargs):
        raise AssertionError("a physical state reached the eigvalsh fallback")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    row = run_staged_point(build_zx3b(), "local_depol", 0.0, 0.02, gate_error=5e-3, meas_error=1e-2)
    assert 0.0 < row.p_accept < 1.0
    (row,) = idle_distill_experiment(
        build_z2b(), [0, 1, 2, 3], load_calibration("kyiv_z2b"), [50.0], IdleSpec()
    )
    assert 0.0 < row.p_accept < 1.0
    n_pairs = 4
    n = 2 * n_pairs
    rho = DensityOperator(n, bell_pairs_on([(i, n_pairs + i) for i in range(n_pairs)], n))
    for i, p in enumerate((0.05, 0.1, 0.15, 0.2)):
        rho = apply_channel(rho, depolarizing_local(p, qubit=n_pairs + i))
    p_accept, _, fidelity = general_distill(rho, ladder_unitary(n_pairs))
    assert 0.0 < p_accept < 1.0 and 0.0 < fidelity < 1.0


def test_every_derived_state_passes_the_full_check(monkeypatch):
    """States the library derives skip the physicality check; on the staged,
    idle, twirl and scale paths, each one would still pass it. That includes
    each staged point's and idle delay's t2 state, which the pulled-back
    checks score without building a DensityOperator."""
    from distillery import device, sweep
    from distillery.channels import apply_channel, depolarizing_local
    from distillery.device import IdleSpec, idle_distill_experiment, load_calibration, mirror_twirl_experiment
    from distillery.protocols import build_x2b, build_z2b, build_zx3b, general_distill
    from distillery.sweep import run_staged_point

    audit = {}  # path -> [(n_qubits, |Tr - 1|, lambda_min)]
    path = [None]
    unchecked = DensityOperator._derived

    def check(n_qubits, matrix):
        _check_density_matrix(matrix, n_qubits)
        # one eigvalsh at n = 10 takes ~1 s; the scale input's spectrum is taken below
        lam = float(np.linalg.eigvalsh(matrix)[0]) if n_qubits <= 8 else None
        audit.setdefault(path[0], []).append((n_qubits, abs(np.trace(matrix) - 1), lam))

    def audited(n_qubits, matrix):
        check(n_qubits, matrix)
        return unchecked(n_qubits, matrix)

    scored = []  # the path of each t2 state the pulled-back checks scored

    def audited_scoring(score_checks):
        def score(pulled, rho):
            check(int(np.log2(len(rho))), rho)
            scored.append(path[0])
            return score_checks(pulled, rho)

        return score

    monkeypatch.setattr(DensityOperator, "_derived", staticmethod(audited))
    monkeypatch.setattr(sweep, "score_checks", audited_scoring(sweep.score_checks))
    monkeypatch.setattr(device, "score_checks", audited_scoring(device.score_checks))
    for family in ("bitflip", "local_depol", "global_depol"):
        path[0] = f"staged zx3b {family}"
        row = run_staged_point(build_zx3b(), family, 0.03, 0.05, gate_error=5e-3, meas_error=1e-2)
        assert 0.0 < row.p_accept < 1.0
    for spec, calibration, chain in (
        (build_x2b(), "kyiv_x2b", [0, 1, 2, 3]),
        (build_zx3b(), "kyiv_3bell", [3, 4, 5, 6, 7, 8]),
    ):
        path[0] = f"idle {spec.name}"
        (row,) = idle_distill_experiment(spec, chain, load_calibration(calibration), [50.0], IdleSpec())
        assert 0.0 < row.p_accept < 1.0
    path[0] = "twirl"
    (point,) = mirror_twirl_experiment(build_z2b(), (4,), n_seeds=3, gate_error=0.004)
    assert 0.0 < point.p_accept < 1.0
    for n_pairs, probs in ((4, (0.05, 0.1, 0.15, 0.2)), (5, (0.05, 0.1, 0.15, 0.2, 0.25))):
        path[0] = f"scale n={2 * n_pairs}"
        n = 2 * n_pairs
        rho = DensityOperator(n, bell_pairs_on([(i, n_pairs + i) for i in range(n_pairs)], n))
        for i, p in enumerate(probs):
            rho = apply_channel(rho, depolarizing_local(p, qubit=n_pairs + i))
        if n > 8:
            n_qubits, trace_err, _ = audit[path[0]].pop()
            audit[path[0]].append((n_qubits, trace_err, float(np.linalg.eigvalsh(rho.matrix)[0])))
        p_accept, _, fidelity = general_distill(rho, ladder_unitary(n_pairs))
        assert 0.0 < p_accept < 1.0 and 0.0 < fidelity < 1.0

    staged_paths = [f"staged zx3b {f}" for f in ("bitflip", "local_depol", "global_depol")]
    assert sorted(audit) == sorted(staged_paths + ["idle x2b", "idle zx3b", "twirl", "scale n=8", "scale n=10"])
    assert scored == staged_paths + ["idle x2b", "idle zx3b"]
    records = [r for rs in audit.values() for r in rs]
    worst_trace = max(err for _, err, _ in records)
    worst_lam = min(lam for _, _, lam in records if lam is not None)
    assert worst_trace <= 1e-10 and worst_lam >= PSD_FLOOR
    print(
        f"derived-state audit: {len(records)} states on {len(audit)} paths; "
        f"worst |Tr - 1| = {worst_trace:.1e}, lambda_min = {worst_lam:.1e}"
    )


def test_states_entering_the_api_are_still_checked(monkeypatch, tmp_path, capsys):
    from distillery import cli, densop
    from distillery.circuit import Barrier, circuit_to_json
    from distillery.protocols import build_z2b, distill, run_checks

    # distill and run_checks take a raw caller matrix
    negative = np.diag([1.5, -0.5] + [0.0] * 14).astype(complex)
    for run in (distill, run_checks):
        with pytest.raises(PhysicalityError, match="min eigenvalue"):
            run(build_z2b(), negative)
    # the CLI's Bell-pair initial state is checked once, and nothing after it
    checks = []
    check = densop._check_density_matrix
    monkeypatch.setattr(densop, "_check_density_matrix", lambda *a: checks.append(a[1]) or check(*a))
    path = tmp_path / "idle.json"
    path.write_text(circuit_to_json([Barrier("t")]))
    argv = ["simulate", "--circuit", str(path), "--qubits", "4", "--fidelity-pair", "0,2"]
    assert cli.main(argv + ["--init-bell-pairs", "0-2,1-3"]) == 0
    assert checks == [4]
    assert cli.main(argv) == 0
    assert checks == [4]
    # the unchecked ground state still refuses a register past the cap
    argv[argv.index("4")] = "13"
    assert cli.main(argv) == 2
    assert "n_qubits must be in [1, 12]" in capsys.readouterr().err
