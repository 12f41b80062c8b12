"""Gate sequences with interleaved noise, barriers, and noisy measurement.

Execution is exact and deterministic: after every measurement the state
splits into outcome branches carried with their joint probabilities, so
post-selection reduces to summing branches. Gate noise is part of the
circuit: :func:`with_gate_noise` follows each two-qubit gate with an explicit
two-qubit global depolarizing channel. Readout noise is the executor's one
knob: a bit flip on each measurement outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .channels import (
    GlobalDepolarizingChannel,
    KrausChannel,
    apply_channel_matrix,
)
from .channels import Channel as NoiseChannel
from .densop import (
    CNOT,
    HADAMARD,
    PAULI_X,
    S_GATE,
    SDG_GATE,
    SWAP,
    DensityOperator,
    cphase_matrix,
    embed_on_qubits,
)

ZERO_PROB = 1e-14

GATE_MATRICES = {
    "H": HADAMARD,
    "S": S_GATE,
    "Sdg": SDG_GATE,
    "X": PAULI_X,
    "CNOT": CNOT,
    "SWAP": SWAP,
}

# Rotations bringing the measurement basis to Z: measuring Z after the
# rotation equals measuring the named observable before it.
BASIS_ROTATIONS: dict[str, np.ndarray | None] = {
    "Z": None,
    "X": HADAMARD,
    "Y": HADAMARD @ SDG_GATE,
}


class NothingAcceptedError(RuntimeError):
    """Post-selection accepted no branch (total probability ~ 0)."""


@dataclass(frozen=True)
class Gate:
    name: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.name == "CPhase":
            if self.angle is None:
                raise ValueError("CPhase requires an angle")
            if len(self.targets) != 2:
                raise ValueError("CPhase acts on exactly two qubits")
        elif self.name in GATE_MATRICES:
            expected = 1 if GATE_MATRICES[self.name].shape == (2, 2) else 2
            if len(self.targets) != expected:
                raise ValueError(f"{self.name} acts on {expected} qubit(s), got {self.targets}")
            if self.angle is not None:
                raise ValueError(f"{self.name} takes no angle")
        else:
            raise ValueError(f"unknown gate {self.name!r}")

    def matrix(self) -> np.ndarray:
        if self.name == "CPhase":
            return cphase_matrix(self.angle)
        return GATE_MATRICES[self.name]


@dataclass(frozen=True)
class ChannelOp:
    channel: NoiseChannel


@dataclass(frozen=True)
class Delay:
    duration: float
    qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.duration < 0:
            raise ValueError(f"delay duration must be nonnegative, got {self.duration}")


@dataclass(frozen=True)
class Measure:
    qubit: int
    basis: str = "Z"
    label: str = ""

    def __post_init__(self):
        if self.basis not in BASIS_ROTATIONS:
            raise ValueError(f"measurement basis must be one of Z, X, Y, got {self.basis!r}")


@dataclass(frozen=True)
class Barrier:
    label: str = ""


CircuitElement = Union[Gate, ChannelOp, Delay, Measure, Barrier]


def with_gate_noise(
    circuit: Sequence[CircuitElement], gate_error: Callable[[int, int], float]
) -> list[CircuitElement]:
    """The circuit with a global depolarizing channel after each two-qubit gate.

    ``gate_error(a, b)`` gives the channel strength for a gate on qubits
    (a, b); gates whose strength is 0 stay noiseless, and a strength outside
    [0, 1] raises ValueError. Gates on the same targets share one channel.
    """
    out: list[CircuitElement] = []
    noise: dict[tuple[int, ...], list[CircuitElement]] = {}
    for el in circuit:
        out.append(el)
        if isinstance(el, Gate) and len(el.targets) == 2:
            if el.targets not in noise:
                g = gate_error(*el.targets)
                channel = ChannelOp(GlobalDepolarizingChannel(el.targets, g))
                noise[el.targets] = [channel] if g != 0.0 else []
            out.extend(noise[el.targets])
    return out


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome branch of an execution."""

    outcomes: dict[str, int]
    probability: float
    state: DensityOperator | None  # None when the branch has probability ~ 0
    weighted_matrix: np.ndarray  # unnormalized, trace = probability


@dataclass(frozen=True)
class MeasurementRecord:
    labels: tuple[str, ...]
    joint_probabilities: dict[tuple[int, ...], float]

    def marginal(self, label: str) -> dict[int, float]:
        i = self.labels.index(label)
        out = {0: 0.0, 1: 0.0}
        for outcome, p in self.joint_probabilities.items():
            out[outcome[i]] += p
        return out


@dataclass(frozen=True)
class ExecutionResult:
    n_qubits: int
    branches: tuple[Branch, ...]
    record: MeasurementRecord
    snapshots: dict[str, DensityOperator]

    def unconditional_state(self) -> DensityOperator:
        total = sum(b.weighted_matrix for b in self.branches)
        return DensityOperator(self.n_qubits, total)


def _validate_circuit(circuit: Sequence[CircuitElement], n_qubits: int) -> None:
    labels = []
    for el in circuit:
        if isinstance(el, Gate):
            qubits = el.targets
        elif isinstance(el, ChannelOp):
            qubits = el.channel.target_qubits
        elif isinstance(el, Delay):
            qubits = el.qubits
        elif isinstance(el, Measure):
            qubits = (el.qubit,)
            labels.append(el.label)
        elif isinstance(el, Barrier):
            continue
        else:
            raise ValueError(f"unknown circuit element {el!r}")
        for q in qubits:
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range for a {n_qubits}-qubit register")
    if len(labels) != len(set(labels)):
        raise ValueError(f"measurement labels must be distinct, got {labels}")


class _EmbedCache:
    """Embedded operators keyed per execution; gates repeat in sweeps."""

    def __init__(self, n_qubits: int):
        self.n = n_qubits
        self._cache: dict[tuple, np.ndarray] = {}

    def get(self, key: tuple, op: np.ndarray, targets: Sequence[int]) -> np.ndarray:
        mat = self._cache.get(key)
        if mat is None:
            mat = embed_on_qubits(op, targets, self.n)
            self._cache[key] = mat
        return mat

    def gate(self, g: Gate) -> np.ndarray:
        return self.get(("gate", g.name, g.angle, g.targets), g.matrix(), g.targets)


def _project(rho: np.ndarray, qubit: int, outcome: int, n: int) -> np.ndarray:
    """P rho P for the Z projector onto ``outcome``; the qubit stays in place."""
    t = rho.reshape((2,) * (2 * n))
    out = np.zeros_like(t)
    idx = [slice(None)] * (2 * n)
    idx[qubit] = outcome
    idx[n + qubit] = outcome
    out[tuple(idx)] = t[tuple(idx)]
    return out.reshape(rho.shape)


def execute_exact(
    circuit: Sequence[CircuitElement],
    init: DensityOperator,
    meas_error: float = 0.0,
) -> ExecutionResult:
    """Run a circuit, branching deterministically on every measurement.

    Gates are ideal; noise comes from the circuit's channels. Each outcome
    flips with probability ``meas_error``, applied after the basis rotation.
    Delays are timing markers. Branch probabilities always sum to one;
    zero-probability branches are carried, never divided by.
    """
    if not 0.0 <= meas_error <= 1.0:
        raise ValueError(f"measurement error must be in [0, 1], got {meas_error}")
    n = init.n_qubits
    _validate_circuit(circuit, n)
    cache = _EmbedCache(n)

    branches: list[tuple[tuple[int, ...], np.ndarray]] = [((), init.matrix.copy())]
    labels: list[str] = []
    snapshots: dict[str, DensityOperator] = {}

    for el in circuit:
        if isinstance(el, Gate):
            full = cache.gate(el)
            full_dag = full.conj().T
            branches = [(o, full @ m @ full_dag) for o, m in branches]
        elif isinstance(el, ChannelOp):
            branches = [(o, apply_channel_matrix(m, el.channel, n)) for o, m in branches]
        elif isinstance(el, Barrier):
            if el.label:
                total = sum(m for _, m in branches)
                snapshots[el.label] = DensityOperator(n, total)
        elif isinstance(el, Measure):
            labels.append(el.label)
            rot = BASIS_ROTATIONS[el.basis]
            rot_full = None
            if rot is not None:
                rot_full = cache.get(("basis", el.basis, el.qubit), rot, (el.qubit,))
            x_full = None
            if meas_error > 0.0:
                x_full = cache.get(("x", el.qubit), PAULI_X, (el.qubit,))
            new_branches = []
            for o, m in branches:
                if rot_full is not None:
                    m = rot_full @ m @ rot_full.conj().T
                if x_full is not None:
                    m = (1 - meas_error) * m + meas_error * (x_full @ m @ x_full)
                for outcome in (0, 1):
                    new_branches.append((o + (outcome,), _project(m, el.qubit, outcome, n)))
            branches = new_branches

    label_tuple = tuple(labels)
    out_branches = []
    joint: dict[tuple[int, ...], float] = {}
    for o, m in branches:
        p = float(np.real(np.trace(m)))
        joint[o] = joint.get(o, 0.0) + p
        state = DensityOperator(n, m / p) if p > ZERO_PROB else None
        out_branches.append(Branch(dict(zip(label_tuple, o)), p, state, m))
    record = MeasurementRecord(label_tuple, joint)
    return ExecutionResult(n, tuple(out_branches), record, snapshots)


AgreementRule = Callable[[Mapping[str, int]], bool]


def parity_agreement(checks: Sequence[tuple[Sequence[str], Sequence[str]]]) -> AgreementRule:
    """Accept when, for each check, the two label groups have equal parity."""
    frozen = [(tuple(a), tuple(b)) for a, b in checks]

    def rule(outcomes: Mapping[str, int]) -> bool:
        for group_a, group_b in frozen:
            pa = sum(outcomes[l] for l in group_a) % 2
            pb = sum(outcomes[l] for l in group_b) % 2
            if pa != pb:
                return False
        return True

    return rule


def postselect(result: ExecutionResult, rule: AgreementRule) -> tuple[float, DensityOperator]:
    """Keep the branches the rule accepts; return (p_accept, renormalized mixture)."""
    kept = np.zeros((2**result.n_qubits,) * 2, dtype=complex)
    p_accept = 0.0
    for b in result.branches:
        if rule(b.outcomes):
            kept += b.weighted_matrix
            p_accept += b.probability
    if p_accept <= ZERO_PROB:
        raise NothingAcceptedError("post-selection accepted no measurement branch")
    return p_accept, DensityOperator(result.n_qubits, kept / p_accept)


# ---------------------------------------------------------------------------
# JSON serialization (schema documented in the README)


def _complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


def _complex_matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)


def element_to_json(el: CircuitElement) -> dict:
    if isinstance(el, Gate):
        out = {"type": "gate", "name": el.name, "targets": list(el.targets)}
        if el.angle is not None:
            out["angle"] = el.angle
        return out
    if isinstance(el, ChannelOp):
        ch = el.channel
        if isinstance(ch, GlobalDepolarizingChannel):
            return {
                "type": "channel",
                "channel": {
                    "kind": "global_depolarizing",
                    "target_qubits": list(ch.target_qubits),
                    "lam": ch.lam,
                },
            }
        return {
            "type": "channel",
            "channel": {
                "kind": "kraus",
                "target_qubits": list(ch.target_qubits),
                "kraus_ops": [_complex_matrix_to_json(k) for k in ch.kraus_ops],
            },
        }
    if isinstance(el, Delay):
        return {"type": "delay", "duration": el.duration, "qubits": list(el.qubits)}
    if isinstance(el, Measure):
        return {"type": "measure", "qubit": el.qubit, "basis": el.basis, "label": el.label}
    if isinstance(el, Barrier):
        return {"type": "barrier", "label": el.label}
    raise ValueError(f"unknown circuit element {el!r}")


def element_from_json(data: dict) -> CircuitElement:
    kind = data.get("type")
    if kind == "gate":
        return Gate(data["name"], tuple(data["targets"]), data.get("angle"))
    if kind == "channel":
        ch = data["channel"]
        if ch.get("kind") == "global_depolarizing":
            return ChannelOp(GlobalDepolarizingChannel(tuple(ch["target_qubits"]), ch["lam"]))
        ops = tuple(_complex_matrix_from_json(k) for k in ch["kraus_ops"])
        return ChannelOp(KrausChannel(tuple(ch["target_qubits"]), ops))
    if kind == "delay":
        return Delay(data["duration"], tuple(data["qubits"]))
    if kind == "measure":
        return Measure(data["qubit"], data.get("basis", "Z"), data.get("label", ""))
    if kind == "barrier":
        return Barrier(data.get("label", ""))
    raise ValueError(f"unknown circuit element type {kind!r}")


def circuit_to_json(circuit: Sequence[CircuitElement]) -> str:
    return json.dumps([element_to_json(el) for el in circuit], indent=2)


def circuit_from_json(text: str) -> list[CircuitElement]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("circuit JSON must be a list of elements")
    return [element_from_json(d) for d in data]
