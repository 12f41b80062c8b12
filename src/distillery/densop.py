"""Dense density-operator primitives for small multi-qubit registers.

Qubit ordering convention (used everywhere in this package): qubit 0 is the
most significant bit of a computational-basis index, so an n-qubit basis
state |b0 b1 ... b_{n-1}> has index sum_q b_q * 2**(n-1-q).

Registers are capped at 12 qubits; everything is a dense complex matrix,
which is the simplest and fastest representation at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

MAX_QUBITS = 12

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_FLOOR = -1e-9  # eigenvalue floor, absorbs drift through long channel chains
UNITARY_TOL = 1e-12
HERMITICITY_BLOCK = 2**14  # entries per row block of the Hermiticity test

# Fixed single- and two-qubit matrices. Two-qubit matrices take their first
# target as the more significant bit.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_GATE = S_GATE.conj().T
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

PAULIS = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# |00> + |11>, normalized: the target entangled state of one pair.
BELL_VEC = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def cphase_matrix(theta: float) -> np.ndarray:
    """diag(1, 1, 1, e^{i theta}) on two qubits."""
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)


class PhysicalityError(ValueError):
    """A matrix failed a density-operator physicality invariant."""


def _certified_above_floor(matrix: np.ndarray) -> bool:
    """True when a Cholesky factorization proves every eigenvalue is >= PSD_FLOOR.

    The factorization runs on a copy whose diagonal is raised by
    |PSD_FLOOR|/2, so it succeeds on rank-deficient states (pure states
    included). It is backward stable, with error about dim * eps * |rho|
    (5e-13 at 12 qubits), far inside the remaining |PSD_FLOOR|/2 margin. A
    False says nothing; the caller then decides with the full spectrum.
    """
    shifted = matrix.copy()
    shifted.flat[:: len(shifted) + 1] -= PSD_FLOOR / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _hermiticity_deviation(matrix: np.ndarray) -> float:
    """max |rho - rho^dag|, one block of rows at a time: the temporaries stay
    at HERMITICITY_BLOCK entries instead of two full-size copies."""
    dim = len(matrix)
    rows = max(1, HERMITICITY_BLOCK // dim)
    return max(
        float(np.max(np.abs(matrix[i : i + rows] - matrix[:, i : i + rows].conj().T)))
        for i in range(0, dim, rows)
    )


def _check_density_matrix(matrix: np.ndarray, n_qubits: int) -> None:
    dim = 2**n_qubits
    if matrix.shape != (dim, dim):
        raise ValueError(
            f"expected a {dim}x{dim} matrix for {n_qubits} qubits, got {matrix.shape}"
        )
    if not np.isfinite(matrix).all():
        bad = matrix[~np.isfinite(matrix)][0]
        raise PhysicalityError(f"not finite: the matrix holds the entry {bad}")
    herm = _hermiticity_deviation(matrix)
    if herm > HERMITICITY_TOL:
        raise PhysicalityError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(matrix)
    if abs(tr - 1.0) > TRACE_TOL:
        raise PhysicalityError(f"trace {tr} is not 1 within {TRACE_TOL}")
    if _certified_above_floor(matrix):
        return
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    if min_eig < PSD_FLOOR:
        raise PhysicalityError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")


def _check_n_qubits(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one Hermitian PSD matrix on ``n_qubits`` qubits.

    Physicality is checked where a matrix enters from outside the library:
    the public constructor runs the full check (finite entries, Hermiticity,
    unit trace, minimum eigenvalue above ``PSD_FLOOR``). States the library
    derives from checked states through validated maps (channels, unitaries,
    partial traces, snapshots, post-selection) and the exactly built
    :func:`bell_state` and :func:`ground_state` come from
    :meth:`_derived`, which skips the check: such a map can leave the
    physical set only by round-off. Instances are immutable and safe to
    share across threads.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_n_qubits(self.n_qubits)
        mat = np.asarray(self.matrix, dtype=complex)
        _check_density_matrix(mat, self.n_qubits)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _derived(cls, n_qubits: int, matrix: np.ndarray) -> "DensityOperator":
        """An unchecked state; ``matrix`` is a complex ndarray the library derived
        from checked inputs through validated maps, and is stored as is."""
        state = object.__new__(cls)
        object.__setattr__(state, "n_qubits", n_qubits)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class UnitaryOp:
    """A unitary acting on an ordered subset of qubits."""

    matrix: np.ndarray
    target_qubits: tuple[int, ...]

    def __post_init__(self):
        targets = tuple(self.target_qubits)
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** len(targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match {len(targets)} targets")
        if len(set(targets)) != len(targets):
            raise ValueError(f"target qubits must be distinct, got {targets}")
        dev = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
        if not dev <= UNITARY_TOL:  # NaN compares false, so it fails here too
            raise ValueError(f"not unitary: max |U^dag U - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "target_qubits", targets)


@lru_cache(maxsize=None)
def basis_bits(n_qubits: int) -> np.ndarray:
    """(2^n, n) read-only array: entry [i, q] is qubit q's bit in basis index i."""
    shifts = np.arange(n_qubits - 1, -1, -1)
    bits = (np.arange(2**n_qubits)[:, None] >> shifts) & 1
    bits.flags.writeable = False
    return bits


def embed_on_qubits(op: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Expand a k-qubit operator to the full 2^n space, acting on ``targets``.

    ``targets`` are distinct qubit indices; the operator's own qubit order
    follows the order they are listed in.
    """
    targets = list(targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"target qubits must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator shape {op.shape} does not match {k} targets")
    if k == n_qubits and targets == list(range(n_qubits)):
        return op
    rest = [q for q in range(n_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # full acts on qubit order targets + rest; permute axes into physical order
    order = targets + rest
    src = {q: i for i, q in enumerate(order)}
    axes = [src[q] for q in range(n_qubits)]
    t = full.reshape((2,) * (2 * n_qubits))
    t = t.transpose(axes + [n_qubits + a for a in axes])
    return np.ascontiguousarray(t.reshape(2**n_qubits, 2**n_qubits))


def superoperator(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """The (4^k, 4^k) matrix sum_i K_i (x) conj(K_i) of rho -> sum_i K_i rho K_i^dag.

    It acts on the row-major vectorization: entry (r, c) of a k-qubit matrix
    is component r * 2^k + c. The result is read-only, so cached copies can
    be shared.
    """
    ops = np.asarray(kraus_ops, dtype=complex)
    dim = ops.shape[-1]
    sup = np.einsum("iab,icd->acbd", ops, ops.conj()).reshape(dim * dim, dim * dim)
    sup.flags.writeable = False
    return sup


@lru_cache(maxsize=None)
def _target_axes(
    targets: tuple[int, ...], n_qubits: int, stacked: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpose of the tensor of ``stacked`` stack axes and (2,) * 2n register
    axes that puts the target row axes, then the target column axes first
    (the stack axes after them), and its inverse; ValueError for bad targets."""
    if len(set(targets)) != len(targets):
        raise ValueError(f"target qubits must be distinct, got {list(targets)}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    rest = [q for q in range(n_qubits) if q not in targets]
    axes = [stacked + q for q in (*targets, *(n_qubits + q for q in targets))]
    perm = (*axes, *range(stacked), *(stacked + q for q in (*rest, *(n_qubits + q for q in rest))))
    return perm, tuple(int(a) for a in np.argsort(perm))


def apply_superoperator(rho: np.ndarray, sup: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Apply a k-qubit superoperator (see :func:`superoperator`) on ``targets`` (raw arrays).

    One matmul on the target row and column axes; the rest of the register
    is never embedded. The operator's qubit order follows ``targets``.
    ``rho`` may be a stack of shape (..., 2^n, 2^n); each matrix is mapped.
    """
    stack = rho.shape[:-2]
    perm, inverse = _target_axes(tuple(targets), n_qubits, len(stack))
    k = 4 ** len(targets)
    if sup.shape != (k, k):
        raise ValueError(f"superoperator shape {sup.shape} does not match {len(targets)} targets")
    t = rho.reshape(stack + (2,) * (2 * n_qubits)).transpose(perm)
    return (sup @ t.reshape(k, -1)).reshape(t.shape).transpose(inverse).reshape(rho.shape)


def apply_matrix(rho: np.ndarray, op: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """rho -> E rho E^dag with E = ``op`` on ``targets`` (raw arrays).

    A full-register ``op`` is a plain pair of matmuls.
    """
    if len(targets) < n_qubits:
        return apply_superoperator(rho, superoperator([op]), targets, n_qubits)
    full = embed_on_qubits(op, targets, n_qubits)
    return full @ rho @ full.conj().T


def permute_qubits(rho: np.ndarray, new_position: Sequence[int], n_qubits: int) -> np.ndarray:
    """Relabel qubits: the qubit at position q moves to position ``new_position[q]``."""
    if sorted(new_position) != list(range(n_qubits)):
        raise ValueError(f"new_position must be a permutation of 0..{n_qubits - 1}")
    src_of = [0] * n_qubits
    for q, dest in enumerate(new_position):
        src_of[dest] = q
    t = rho.reshape((2,) * (2 * n_qubits))
    t = t.transpose(src_of + [n_qubits + s for s in src_of])
    return np.ascontiguousarray(t.reshape(rho.shape))


def partial_trace_matrix(rho: np.ndarray, keep: Sequence[int], n_qubits: int) -> np.ndarray:
    """Reduced matrix on ``keep``, in their listed order (raw arrays)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep must be non-empty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep indices must be distinct, got {keep}")
    for q in keep:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")
    traced = sorted((q for q in range(n_qubits) if q not in keep), reverse=True)
    t = rho.reshape((2,) * (2 * n_qubits))
    n = n_qubits
    for q in traced:  # descending, so lower axes keep their indices
        t = np.trace(t, axis1=q, axis2=q + n)
        n -= 1
    dim = 2 ** len(keep)
    mat = t.reshape(dim, dim)
    kept_sorted = sorted(keep)
    if keep != kept_sorted:
        # axes currently follow ascending qubit index; move into listed order
        new_position = [keep.index(q) for q in kept_sorted]
        mat = permute_qubits(mat, new_position, len(keep))
    return mat


def partial_trace(rho: DensityOperator, keep: Sequence[int]) -> DensityOperator:
    mat = partial_trace_matrix(rho.matrix, keep, rho.n_qubits)
    return DensityOperator._derived(len(list(keep)), mat)


def expectation(rho: DensityOperator, obs: np.ndarray, qubits: Sequence[int] | None = None) -> float:
    """Tr(O rho) for a Hermitian observable on ``qubits`` (its qubit order; all by default).

    Computed on the reduced state of those qubits, so nothing is embedded.
    """
    obs = np.asarray(obs, dtype=complex)
    if not np.max(np.abs(obs - obs.conj().T)) <= HERMITICITY_TOL:
        raise ValueError("observable must be Hermitian")
    qubits = list(range(rho.n_qubits)) if qubits is None else list(qubits)
    if obs.shape != (2 ** len(qubits),) * 2:
        raise ValueError(f"observable shape {obs.shape} does not match {len(qubits)} qubits")
    reduced = partial_trace_matrix(rho.matrix, qubits, rho.n_qubits)
    return float(np.real(np.einsum("ij,ji->", obs, reduced)))


def bell_state(n_pairs: int) -> DensityOperator:
    """Product of ``n_pairs`` maximally entangled pairs, pair-major ordering.

    Pair j lives on qubits (2j, 2j+1).
    """
    if n_pairs <= 0:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    if 2 * n_pairs > MAX_QUBITS:
        raise ValueError(f"{n_pairs} pairs exceed the {MAX_QUBITS}-qubit cap")
    vec = BELL_VEC
    for _ in range(n_pairs - 1):
        vec = np.kron(vec, BELL_VEC)
    return DensityOperator._derived(2 * n_pairs, np.outer(vec, vec.conj()))


def ground_state(n_qubits: int) -> DensityOperator:
    """The all-zeros state |0...0><0...0|."""
    _check_n_qubits(n_qubits)
    mat = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    mat[0, 0] = 1.0
    return DensityOperator._derived(n_qubits, mat)


def bell_pairs_on(pairs: Sequence[tuple[int, int]], n_qubits: int) -> np.ndarray:
    """Raw density matrix with one maximally entangled pair on each (a, b)."""
    used = [q for pair in pairs for q in pair]
    if sorted(used) != list(range(n_qubits)):
        raise ValueError(f"pairs {pairs} must tile qubits 0..{n_qubits - 1}")
    rho = bell_state(len(pairs)).matrix
    new_position = [0] * n_qubits
    for j, (a, b) in enumerate(pairs):
        new_position[2 * j] = a
        new_position[2 * j + 1] = b
    return permute_qubits(rho, new_position, n_qubits)


def apply_unitary(rho: DensityOperator, u: UnitaryOp) -> DensityOperator:
    out = apply_matrix(rho.matrix, u.matrix, u.target_qubits, rho.n_qubits)
    return DensityOperator._derived(rho.n_qubits, out)


def bell_fidelity_matrix(rho: np.ndarray, pair: tuple[int, int], n_qubits: int) -> float:
    """<phi| rho_pair |phi> on the reduced state of ``pair`` (raw arrays)."""
    a, b = pair
    if a == b:
        raise ValueError("pair indices must be distinct")
    red = partial_trace_matrix(rho, [a, b], n_qubits)
    return float(np.real(BELL_VEC.conj() @ red @ BELL_VEC))


def bell_fidelity(rho: DensityOperator, pair: tuple[int, int]) -> float:
    return bell_fidelity_matrix(rho.matrix, pair, rho.n_qubits)
