"""Quantum channels as Kraus-operator lists, with target-qubit bindings.

Channels store the qubits they act on so that a noise model is simply a list
of channels. :func:`apply_channel` applies a Kraus channel as one
superoperator on its target axes and global depolarizing in closed form;
neither embeds anything into the full register.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .densop import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    DensityOperator,
    apply_superoperator,
    superoperator,
)

COMPLETENESS_TOL = 1e-10
PROB_SUM_TOL = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive trace-preserving map on ``target_qubits``."""

    target_qubits: tuple[int, ...]
    kraus_ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        targets = tuple(self.target_qubits)
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        dim = 2 ** len(targets)
        if len(set(targets)) != len(targets):
            raise ValueError(f"target qubits must be distinct, got {targets}")
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError(
                    f"Kraus operator shape {k.shape} does not match {len(targets)} targets"
                )
        total = sum(k.conj().T @ k for k in ops)
        dev = np.max(np.abs(total - np.eye(dim)))
        if not dev <= COMPLETENESS_TOL:  # NaN compares false, so it fails here too
            raise ValueError(f"Kraus completeness violated: max |sum K^dag K - I| = {dev:.3e}")
        object.__setattr__(self, "target_qubits", targets)
        object.__setattr__(self, "kraus_ops", ops)

    def on(self, *qubits: int) -> "KrausChannel":
        """Rebind the channel to different target qubits."""
        if len(qubits) != len(self.target_qubits):
            raise ValueError(f"expected {len(self.target_qubits)} qubits, got {len(qubits)}")
        return KrausChannel(tuple(qubits), self.kraus_ops)


def _pauli_product(letters: Sequence[str]) -> np.ndarray:
    out = PAULIS[letters[0]]
    for c in letters[1:]:
        out = np.kron(out, PAULIS[c])
    return out


@dataclass(frozen=True)
class GlobalDepolarizingChannel:
    """k-qubit channel rho -> (1 - lam) rho + lam Tr(rho) I / 2^k.

    Application uses the closed form; a valid Kraus decomposition (the uniform
    Pauli mixture, 4^k operators) is available through :attr:`kraus_ops` but is
    only materialized on demand since it grows as 4^k.
    """

    target_qubits: tuple[int, ...]
    lam: float

    def __post_init__(self):
        targets = tuple(self.target_qubits)
        if len(set(targets)) != len(targets) or not targets:
            raise ValueError(f"target qubits must be distinct and non-empty, got {targets}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"depolarizing strength must be in [0, 1], got {self.lam}")
        object.__setattr__(self, "target_qubits", targets)

    @property
    def kraus_ops(self) -> tuple[np.ndarray, ...]:
        n = len(self.target_qubits)
        uniform = self.lam / 4**n
        ops = []
        for letters in itertools.product("IXYZ", repeat=n):
            w = uniform + (1 - self.lam if letters == ("I",) * n else 0.0)
            if w > 0:
                ops.append(math.sqrt(w) * _pauli_product(letters))
        return tuple(ops)

    def on(self, *qubits: int) -> "GlobalDepolarizingChannel":
        if len(qubits) != len(self.target_qubits):
            raise ValueError(f"expected {len(self.target_qubits)} qubits, got {len(qubits)}")
        return GlobalDepolarizingChannel(tuple(qubits), self.lam)


Channel = Union[KrausChannel, GlobalDepolarizingChannel]


@dataclass(frozen=True)
class PauliChannelParams:
    """Probabilities of applying I, X, Y, Z."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self):
        probs = (self.p_i, self.p_x, self.p_y, self.p_z)
        if not all(p >= 0 for p in probs):
            raise ValueError(f"Pauli probabilities must be nonnegative, got {probs}")
        if not abs(sum(probs) - 1.0) <= PROB_SUM_TOL:
            raise ValueError(f"Pauli probabilities must sum to 1, got {sum(probs)!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_i, self.p_x, self.p_y, self.p_z)


@dataclass(frozen=True)
class DampingDephasingParams:
    """Damping probability g and dephasing probability p."""

    g: float
    p: float

    def __post_init__(self):
        if not 0.0 <= self.g <= 1.0:
            raise ValueError(f"damping probability g must be in [0, 1], got {self.g}")
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"dephasing probability p must be in [0, 1/2], got {self.p}")


def bit_flip(q: float, qubit: int = 0) -> KrausChannel:
    """Apply X with probability q; q is restricted to [0, 1/2]."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"bit-flip probability must be in [0, 1/2], got {q}")
    return KrausChannel((qubit,), (math.sqrt(1 - q) * ID2, math.sqrt(q) * PAULI_X))


def pauli_channel(params: PauliChannelParams, qubit: int = 0) -> KrausChannel:
    """Apply I, X, Y, Z with the given probabilities."""
    ops = tuple(
        math.sqrt(p) * m
        for p, m in zip(params.as_tuple(), (ID2, PAULI_X, PAULI_Y, PAULI_Z))
        if p > 0
    )
    return KrausChannel((qubit,), ops)


def depolarizing_local(p: float, qubit: int = 0) -> KrausChannel:
    """Apply X, Y, Z each with probability p/3.

    Equivalently rho -> (1 - 4p/3) rho + (4p/3) Tr(rho) I/2.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability must be in [0, 1], got {p}")
    return pauli_channel(PauliChannelParams(1 - p, p / 3, p / 3, p / 3), qubit)


def depolarizing_global(lam: float, n: int, qubits: Sequence[int] | None = None) -> GlobalDepolarizingChannel:
    """rho -> (1 - lam) rho + lam Tr(rho) I / 2^n on an n-qubit subset."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    targets = tuple(qubits) if qubits is not None else tuple(range(n))
    if len(targets) != n:
        raise ValueError(f"expected {n} target qubits, got {targets}")
    return GlobalDepolarizingChannel(targets, lam)


def damping_dephasing(params: DampingDephasingParams, qubit: int = 0) -> KrausChannel:
    """Three-operator channel combining amplitude damping and dephasing.

    Bloch action: (x, y, z) -> ((1-2p) sqrt(1-g) x, (1-2p) sqrt(1-g) y,
    (1-g) z + g).
    """
    g, p = params.g, params.p
    k0 = math.sqrt(1 - p) * np.diag([1.0, math.sqrt(1 - g)]).astype(complex)
    k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
    k2 = math.sqrt(p) * np.diag([1.0, -math.sqrt(1 - g)]).astype(complex)
    return KrausChannel((qubit,), (k0, k1, k2))


def gp_from_t1t2(t: float, t1: float, t2: float) -> DampingDephasingParams:
    """Damping/dephasing probabilities accumulated while idling for t microseconds.

    g = 1 - exp(-t/T1) and p = (1 - exp(-t (1/T2 - 1/(2 T1)))) / 2, which
    requires T2 <= 2 T1.
    """
    if not t >= 0:
        raise ValueError(f"idle time must be nonnegative, got {t}")
    if t1 <= 0:
        raise ValueError(f"T1 must be positive, got {t1}")
    if not 0 < t2 <= 2 * t1:
        raise ValueError(f"T2 must satisfy 0 < T2 <= 2*T1, got T1={t1}, T2={t2}")
    g = 1.0 - math.exp(-t / t1)
    p = (1.0 - math.exp(-t * (1.0 / t2 - 1.0 / (2.0 * t1)))) / 2.0
    return DampingDephasingParams(g, p)


def apply_kraus_matrix(
    rho: np.ndarray, ops: Sequence[np.ndarray], targets: Sequence[int], n_qubits: int
) -> np.ndarray:
    """rho -> sum_i K_i rho K_i^dag, one superoperator contraction on ``targets`` (raw arrays)."""
    return apply_superoperator(rho, superoperator(ops), targets, n_qubits)


@lru_cache(maxsize=None)
def _mixed_factors(targets: tuple[int, ...], n_qubits: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """I / 2^k on the row and column axes of sorted ``targets`` in the (2,) * 2n
    tensor layout (size 1 elsewhere), and the shape that puts the reduced state
    of the other qubits on the remaining axes, so that the two broadcast."""
    eye_shape = [1] * (2 * n_qubits)
    for q in targets:
        eye_shape[q] = eye_shape[n_qubits + q] = 2
    eye = (np.eye(2 ** len(targets), dtype=complex) / 2 ** len(targets)).reshape(eye_shape)
    eye.flags.writeable = False
    return eye, tuple(2 if d == 1 else 1 for d in eye_shape)


def apply_global_depolarizing_matrix(
    rho: np.ndarray, lam: float, targets: Sequence[int], n_qubits: int
) -> np.ndarray:
    """Closed form of the global depolarizing action on a subset (raw arrays).

    ``rho`` may be a stack of shape (..., 2^n, 2^n); each matrix is mapped.
    """
    if lam == 0.0:
        return rho.copy()
    k = len(targets)
    stack = rho.shape[:-2]
    if k < n_qubits:
        targets = tuple(sorted(targets))
        if len(set(targets)) != k or targets[0] < 0 or targets[-1] >= n_qubits:
            raise ValueError(f"targets {targets} must be distinct qubits of a {n_qubits}-qubit register")
        # trace the targets out highest qubit first, as partial_trace_matrix does
        t = rho.reshape(stack + (2,) * (2 * n_qubits))
        n = n_qubits
        for q in reversed(targets):
            t = np.trace(t, axis1=len(stack) + q, axis2=len(stack) + q + n)
            n -= 1
        eye, reduced_shape = _mixed_factors(targets, n_qubits)
        mixed = (eye * t.reshape(stack + reduced_shape)).reshape(rho.shape)
    else:
        trace = np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
        mixed = trace * np.eye(2**k, dtype=complex) / 2**k
    return (1 - lam) * rho + lam * mixed


def apply_channel_matrix(rho: np.ndarray, ch: Channel, n_qubits: int) -> np.ndarray:
    if isinstance(ch, GlobalDepolarizingChannel):
        return apply_global_depolarizing_matrix(rho, ch.lam, ch.target_qubits, n_qubits)
    return apply_kraus_matrix(rho, ch.kraus_ops, ch.target_qubits, n_qubits)


def apply_channel(rho: DensityOperator, ch: Channel) -> DensityOperator:
    out = apply_channel_matrix(rho.matrix, ch, rho.n_qubits)
    return DensityOperator._derived(rho.n_qubits, out)


def channel_superoperator(ch: Channel) -> np.ndarray:
    """The channel's superoperator on its own targets, as :func:`densop.superoperator` builds it."""
    return superoperator(ch.kraus_ops)
