"""Symplectic Pauli strings and their conjugation through Clifford gates.

A string is (x bits, z bits, phase) with letter encoding I=(0,0), X=(1,0),
Z=(0,1), Y=(1,1); two strings commute iff their symplectic inner product
x1.z2 + z1.x2 vanishes mod 2. Conjugation tables for the supported gates are
generated numerically from the dense matrices on first use, so they cannot
drift from the simulator's gate definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from .circuit import Gate
from .densop import CNOT, HADAMARD, PAULIS, S_GATE, SDG_GATE, SWAP, cphase_matrix

_XZ_OF = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_LETTER_OF = {v: k for k, v in _XZ_OF.items()}


@cache
def _mul_table() -> dict[tuple[str, str], tuple[int, str]]:
    """Letter multiplication: (a, b) -> (phase as power of i, product letter)."""
    table = {}
    for a, b in itertools.product("IXYZ", repeat=2):
        prod = PAULIS[a] @ PAULIS[b]
        for c in "IXYZ":
            for k in range(4):
                if np.allclose(prod, (1j**k) * PAULIS[c]):
                    table[(a, b)] = (k, c)
    return table


class UnsupportedProtocolError(ValueError):
    """The circuit contains a gate outside the supported Clifford set."""


@dataclass(frozen=True)
class PauliString:
    """n-qubit Pauli with sign tracked as a power of i."""

    n: int
    x_bits: tuple[int, ...]
    z_bits: tuple[int, ...]
    phase_i: int = 0  # the string equals i**phase_i times the letter product

    def __post_init__(self):
        if len(self.x_bits) != self.n or len(self.z_bits) != self.n:
            raise ValueError("x_bits and z_bits must have length n")
        object.__setattr__(self, "phase_i", self.phase_i % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, (0,) * n, (0,) * n)

    @classmethod
    def from_letters(cls, letters: dict[int, str], n: int) -> "PauliString":
        x = [0] * n
        z = [0] * n
        for q, c in letters.items():
            x[q], z[q] = _XZ_OF[c]
        return cls(n, tuple(x), tuple(z))

    def letter(self, q: int) -> str:
        return _LETTER_OF[(self.x_bits[q], self.z_bits[q])]

    def label(self) -> str:
        """Compressed form, e.g. 'X2Y3'; the identity is 'I'."""
        parts = [f"{self.letter(q)}{q}" for q in range(self.n) if self.letter(q) != "I"]
        return "".join(parts) if parts else "I"

    def commutes_with(self, other: "PauliString") -> bool:
        acc = 0
        for q in range(self.n):
            acc += self.x_bits[q] * other.z_bits[q] + self.z_bits[q] * other.x_bits[q]
        return acc % 2 == 0

    def with_letter(self, q: int, letter: str, extra_phase: int = 0) -> "PauliString":
        x = list(self.x_bits)
        z = list(self.z_bits)
        x[q], z[q] = _XZ_OF[letter]
        return PauliString(self.n, tuple(x), tuple(z), self.phase_i + extra_phase)

    def matrix(self) -> np.ndarray:
        out = np.array([[1]], dtype=complex)
        for q in range(self.n):
            out = np.kron(out, PAULIS[self.letter(q)])
        return (1j**self.phase_i) * out


def multiply_letters(a: str, b: str) -> tuple[int, str]:
    """(phase power of i, letter) for the single-qubit product a*b."""
    return _mul_table()[(a, b)]


def _conj_table_1q(u: np.ndarray) -> dict[str, tuple[int, str]]:
    table = {}
    for a in "IXYZ":
        conj = u @ PAULIS[a] @ u.conj().T
        for c in "IXYZ":
            for k in range(4):
                if np.allclose(conj, (1j**k) * PAULIS[c], atol=1e-12):
                    table[a] = (k, c)
    assert len(table) == 4
    return table


def _conj_table_2q(u: np.ndarray) -> dict[tuple[str, str], tuple[int, str, str]]:
    table = {}
    for a, b in itertools.product("IXYZ", repeat=2):
        conj = u @ np.kron(PAULIS[a], PAULIS[b]) @ u.conj().T
        for c, d in itertools.product("IXYZ", repeat=2):
            target = np.kron(PAULIS[c], PAULIS[d])
            for k in range(4):
                if np.allclose(conj, (1j**k) * target, atol=1e-12):
                    table[(a, b)] = (k, c, d)
    assert len(table) == 16
    return table


_MATRICES_1Q = {"H": HADAMARD, "S": S_GATE, "Sdg": SDG_GATE, "X": PAULIS["X"]}
_MATRICES_2Q = {"CNOT": CNOT, "SWAP": SWAP, "CZ": cphase_matrix(np.pi)}
_INVERSE_NAME = {"H": "H", "S": "Sdg", "Sdg": "S", "X": "X", "CNOT": "CNOT", "SWAP": "SWAP", "CZ": "CZ"}


@cache
def _conj_table(name: str) -> dict:
    """The named gate's conjugation table, built on its first use."""
    if name in _MATRICES_1Q:
        return _conj_table_1q(_MATRICES_1Q[name])
    return _conj_table_2q(_MATRICES_2Q[name])


def _gate_table_name(gate: Gate) -> str:
    if gate.name == "CPhase":
        theta = float(gate.angle) % (2 * np.pi)
        if abs(theta) < 1e-12 or abs(theta - 2 * np.pi) < 1e-12:
            return "I"
        if abs(theta - np.pi) < 1e-12:
            return "CZ"
        raise UnsupportedProtocolError(f"CPhase({gate.angle}) is not Clifford")
    if gate.name in _MATRICES_1Q or gate.name in _MATRICES_2Q:
        return gate.name
    raise UnsupportedProtocolError(f"gate {gate.name!r} has no Clifford conjugation rule")


def conjugate_by_gate(p: PauliString, gate: Gate, inverse: bool = False) -> PauliString:
    """U P U^dag for a supported Clifford gate (U^dag P U when ``inverse``)."""
    name = _gate_table_name(gate)
    if name == "I":
        return p
    if inverse:
        name = _INVERSE_NAME[name]
    if name in _MATRICES_1Q:
        (q,) = gate.targets
        k, c = _conj_table(name)[p.letter(q)]
        return p.with_letter(q, c, k)
    qa, qb = gate.targets
    k, ca, cb = _conj_table(name)[(p.letter(qa), p.letter(qb))]
    return p.with_letter(qa, ca).with_letter(qb, cb, k)


def conjugate_through(p: PauliString, gates, inverse: bool = False) -> PauliString:
    """Conjugate through a gate sequence: U_k ... U_1 P U_1^dag ... U_k^dag.

    With ``inverse`` the sequence is walked backwards with inverted gates,
    giving U^dag P U for the overall circuit unitary U.
    """
    if inverse:
        for g in reversed(list(gates)):
            p = conjugate_by_gate(p, g, inverse=True)
    else:
        for g in gates:
            p = conjugate_by_gate(p, g)
    return p
