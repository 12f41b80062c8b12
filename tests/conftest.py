import numpy as np
import pytest

from distillery.densop import DensityOperator, UnitaryOp, basis_bits


def random_density(rng: np.random.Generator, n_qubits: int) -> DensityOperator:
    """Ginibre-random full-rank density operator."""
    dim = 2**n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = a @ a.conj().T
    return DensityOperator(n_qubits, mat / np.trace(mat))


def random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-random unitary on k qubits (QR of a complex Ginibre matrix, phases fixed)."""
    dim = 2**k
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ladder_unitary(n_pairs: int) -> UnitaryOp:
    """CNOT(i, i+1) down each side of a side-major n-pair register, built as
    the basis permutation it is (embedding each CNOT costs ~1 s at n = 10)."""
    n = 2 * n_pairs
    bits = basis_bits(n).copy()
    for side in (0, n_pairs):
        for i in range(n_pairs - 1):
            bits[:, side + i + 1] ^= bits[:, side + i]
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[bits @ (1 << np.arange(n - 1, -1, -1)), np.arange(2**n)] = 1.0
    return UnitaryOp(u, tuple(range(n)))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240514)
