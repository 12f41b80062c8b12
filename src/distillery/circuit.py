"""Gate sequences with interleaved noise, barriers, and noisy measurement.

Execution is exact and carries one density matrix: a measurement dephases
its qubit, which then holds the outcome (and must not be acted on again), so
outcome o is the block where the measured qubits read o and post-selection
keeps the accepted blocks. Gate noise is part of the circuit:
:func:`with_gate_noise` follows each two-qubit gate with an explicit
two-qubit global depolarizing channel. Readout noise is the executor's one
knob: a bit flip on each measurement outcome.

Two interpreters walk a circuit, and each handles every element type:
:func:`execute_exact` maps a state forward (the Schroedinger picture), and
:func:`pull_back` maps observables backward through the adjoint of the same
channel (the Heisenberg picture). Tr(O C(rho)) = Tr(C^dag(O) rho), so an
observable pulled back once scores any number of input states; that is how
the distillation checks are scored (:func:`protocols.pull_back_checks`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .channels import (
    GlobalDepolarizingChannel,
    KrausChannel,
    apply_channel_matrix,
    apply_global_depolarizing_matrix,
)
from .channels import Channel as NoiseChannel
from .densop import (
    CNOT,
    HADAMARD,
    ID2,
    PAULI_X,
    S_GATE,
    SDG_GATE,
    SWAP,
    DensityOperator,
    apply_superoperator,
    basis_bits,
    cphase_matrix,
    superoperator,
)
from .fields import Fields

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
            if not math.isfinite(self.angle):
                raise ValueError(f"CPhase angle must be finite, got {self.angle}")
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
        return _gate_matrix(self.name, self.angle)


def _gate_matrix(name: str, angle: float | None) -> np.ndarray:
    return cphase_matrix(angle) if name == "CPhase" else GATE_MATRICES[name]


@lru_cache(maxsize=256)
def _gate_superoperator(name: str, angle: float | None) -> np.ndarray:
    """Built once per (name, angle): gates repeat within a circuit and across sweeps."""
    return superoperator([_gate_matrix(name, angle)])


@dataclass(frozen=True)
class ChannelOp:
    channel: NoiseChannel


@dataclass(frozen=True)
class Delay:
    duration: float
    qubits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if not self.duration >= 0:
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


@lru_cache(maxsize=1024)
def _block_factor(name: str, angle: float | None, targets: tuple[int, ...], qubits: tuple[int, ...]) -> np.ndarray:
    """A gate's matrix on the block ``qubits`` (the first is the most significant); read-only."""
    mat = _gate_matrix(name, angle)
    if len(qubits) == 1 or targets == qubits:
        out = mat.copy()
    elif len(targets) == 2:
        out = SWAP @ mat @ SWAP
    else:
        out = np.kron(mat, ID2) if targets[0] == qubits[0] else np.kron(ID2, mat)
    out.flags.writeable = False
    return out


def _product(factors: list[np.ndarray]) -> np.ndarray:
    """factors[-1] @ ... @ factors[0], multiplied pairwise in a few batched matmuls."""
    stack = np.array(factors)
    while len(stack) > 1:
        if len(stack) % 2:
            stack = np.concatenate([stack, np.eye(len(stack[0]))[None]])
        stack = stack[1::2] @ stack[0::2]
    return stack[0]


class _Block:
    """Gates on at most two qubits, and the global depolarizing channels on
    exactly those qubits, which commute with them. ``factors`` are the gates'
    matrices on ``qubits`` in the order they act; a block joined from two
    single-qubit blocks starts with the kron of their products."""

    __slots__ = ("qubits", "gates", "factors", "channels")

    def __init__(self, qubits: tuple[int, ...], gates: list[Gate], factors: list[np.ndarray]):
        self.qubits = qubits
        self.gates = gates
        self.factors = factors
        self.channels: list[ChannelOp] = []

    def emit(self, out: list[CircuitElement]) -> None:
        if len(self.gates) == 1:
            out.append(self.gates[0])
        else:
            out.append(ChannelOp(KrausChannel(self.qubits, (_product(self.factors),))))
        if len(self.channels) == 1:
            out.append(self.channels[0])
        elif self.channels:
            keep = math.prod(1.0 - op.channel.lam for op in self.channels)
            out.append(ChannelOp(GlobalDepolarizingChannel(self.qubits, 1.0 - keep)))


def simplify(circuit: Sequence[CircuitElement]) -> list[CircuitElement]:
    """An equivalent circuit in which each run of gates on at most two qubits is one unitary.

    Exact up to rounding, from two facts: global depolarizing on a set S
    commutes with every unitary supported in S, and channels on the same S
    compose as lambda = 1 - prod(1 - lambda_i). Gates on one or two qubits
    multiply into an open block (two single-qubit blocks join a two-qubit
    gate by kron); a global depolarizing channel whose targets equal an open
    block's qubits as a set joins that block. The blocks a ``Measure``,
    ``Delay`` or any other channel touches are emitted before it, and every
    block before a ``Barrier``, so nothing crosses them. A block is emitted
    as ``ChannelOp(KrausChannel(qubits, (U,)))``, or as its gate if it holds
    only one, followed by at most one depolarizing channel.

    Only the mirror-twirl experiment runs through it; :func:`execute_exact`
    on the unsimplified circuit is the reference. The staged sweep and the
    idle experiment stay unfused on purpose: idle windows hold many small
    blocks between Kraus damping channels, so fusing them costs more than it
    saves, and the staged prefix already runs once per gate error.
    """
    out: list[CircuitElement] = []
    open_blocks: dict[int, _Block] = {}  # qubit -> the open block holding it

    def flush(qubits) -> None:
        for q in qubits:
            block = open_blocks.get(q)
            if block is not None:
                for p in block.qubits:
                    del open_blocks[p]
                block.emit(out)

    for el in circuit:
        if isinstance(el, Gate):
            targets = el.targets
            block = open_blocks.get(targets[0])
            if block is None or open_blocks.get(targets[-1]) is not block:
                if len(targets) == 1:
                    block = _Block(targets, [], [])
                else:
                    # join the targets' single-qubit blocks by kron; emit any other block on them
                    parts = []
                    for q in targets:
                        part = open_blocks.pop(q, None)
                        if part is not None and (len(part.qubits) > 1 or part.channels):
                            open_blocks[q] = part
                            flush((q,))
                            part = None
                        parts.append(part)
                    a, b = (ID2 if p is None else _product(p.factors) for p in parts)
                    gates = [g for p in parts if p is not None for g in p.gates]
                    block = _Block(targets, gates, [np.kron(a, b)] if gates else [])
                for q in targets:
                    open_blocks[q] = block
            block.gates.append(el)
            block.factors.append(_block_factor(el.name, el.angle, targets, block.qubits))
        elif isinstance(el, Barrier):
            flush(list(open_blocks))
            out.append(el)
        elif isinstance(el, ChannelOp):
            targets = el.channel.target_qubits
            if isinstance(el.channel, GlobalDepolarizingChannel):
                block = open_blocks.get(targets[0])
                if block is not None and set(block.qubits) == set(targets):
                    block.channels.append(el)
                    continue
            flush(targets)
            out.append(el)
        elif isinstance(el, Delay):
            flush(el.qubits)
            out.append(el)
        elif isinstance(el, Measure):
            flush((el.qubit,))
            out.append(el)
        else:
            raise ValueError(f"unknown circuit element {el!r}")
    flush(list(open_blocks))
    return out


@dataclass(frozen=True)
class Branch:
    """One measurement-outcome branch of an execution."""

    outcomes: dict[str, int]
    probability: float


@dataclass(frozen=True)
class ExecutionResult:
    """The final state; ``measured`` lists ``(label, qubit)`` in measurement order.

    The block of ``matrix`` where those qubits read o is outcome o, unnormalized.
    """

    n_qubits: int
    matrix: np.ndarray
    measured: tuple[tuple[str, int], ...]
    snapshots: dict[str, DensityOperator]

    @cached_property
    def branches(self) -> tuple[Branch, ...]:
        """Every outcome in lexicographic order, with the trace of its block."""
        labels = [label for label, _ in self.measured]
        bits = basis_bits(self.n_qubits)[:, [q for _, q in self.measured]]
        diagonal = np.diagonal(self.matrix)
        out = []
        for outcome in itertools.product((0, 1), repeat=len(self.measured)):
            mask = np.all(bits == outcome, axis=1)
            p = float(np.real(np.where(mask, diagonal, 0).sum()))
            out.append(Branch(dict(zip(labels, outcome)), p))
        return tuple(out)

    def unconditional_state(self) -> DensityOperator:
        return DensityOperator._derived(self.n_qubits, self.matrix)


def _validate_circuit(circuit: Sequence[CircuitElement], n_qubits: int) -> None:
    labels = []
    measured: set[int] = set()
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
        if measured and not isinstance(el, Delay) and not measured.isdisjoint(qubits):
            raise ValueError(f"{el!r} acts on an already measured qubit; a measured qubit is final")
        if isinstance(el, Measure):
            measured.add(el.qubit)
    if len(labels) != len(set(labels)):
        raise ValueError(f"measurement labels must be distinct, got {labels}")


def execute_exact(
    circuit: Sequence[CircuitElement],
    init: DensityOperator,
    meas_error: float = 0.0,
) -> ExecutionResult:
    """Run a circuit exactly; each measurement dephases its qubit, which stays in the register.

    Gates are ideal; noise comes from the circuit's channels. Each outcome
    flips with probability ``meas_error``, applied after the basis rotation.
    Delays are timing markers. Nothing may act on a measured qubit except a
    Delay (ValueError otherwise). Zero-probability outcomes are carried as
    zero blocks, never divided by.
    """
    if not 0.0 <= meas_error <= 1.0:
        raise ValueError(f"measurement error must be in [0, 1], got {meas_error}")
    n = init.n_qubits
    _validate_circuit(circuit, n)

    rho = init.matrix
    measured: list[tuple[str, int]] = []
    snapshots: dict[str, DensityOperator] = {}

    for el in circuit:
        if isinstance(el, Gate):
            rho = apply_superoperator(rho, _gate_superoperator(el.name, el.angle), el.targets, n)
        elif isinstance(el, ChannelOp):
            rho = apply_channel_matrix(rho, el.channel, n)
        elif isinstance(el, Barrier):
            if el.label:
                snapshots[el.label] = DensityOperator._derived(n, rho)
        elif isinstance(el, Measure):
            rho = apply_superoperator(rho, _measurement_superoperator(el.basis, meas_error), (el.qubit,), n)
            measured.append((el.label, el.qubit))

    return ExecutionResult(n, rho, tuple(measured), snapshots)


AgreementRule = Callable[[Mapping[str, int]], bool]


def _accepted(n_qubits: int, measured: Sequence[tuple[str, int]], rule: AgreementRule) -> np.ndarray:
    """The basis states whose measured bits, read as ``(label, qubit)`` outcomes, the rule accepts."""
    labels = [label for label, _ in measured]
    verdicts = [rule(dict(zip(labels, o))) for o in itertools.product((0, 1), repeat=len(labels))]
    # outcome index of each basis state: the measured bits, the first the most significant
    weights = 1 << np.arange(len(labels))[::-1]
    return np.array(verdicts, dtype=bool)[basis_bits(n_qubits)[:, [q for _, q in measured]] @ weights]


def accepted_states(circuit: Sequence[CircuitElement], n_qubits: int, rule: AgreementRule) -> np.ndarray:
    """The diagonal of the projector P onto the outcomes of ``circuit``'s measurements that the rule accepts.

    A boolean vector over the register's basis states; :func:`postselect`
    keeps exactly the blocks it marks.
    """
    measured = [(el.label, el.qubit) for el in circuit if isinstance(el, Measure)]
    return _accepted(n_qubits, measured, rule)


def postselect(result: ExecutionResult, rule: AgreementRule) -> tuple[float, DensityOperator]:
    """Keep the outcomes the rule accepts; return (p_accept, renormalized mixture).

    The measured qubits are dephased, so the accepted blocks are one masked
    copy of the matrix, and p_accept is its trace.
    """
    accepted = _accepted(result.n_qubits, result.measured, rule)
    kept = np.where(np.outer(accepted, accepted), result.matrix, 0)
    p_accept = float(np.real(np.trace(kept)))
    if p_accept <= ZERO_PROB:
        raise NothingAcceptedError("post-selection accepted no measurement branch")
    return p_accept, DensityOperator._derived(result.n_qubits, kept / p_accept)


# the dephasing keeps the components (r, c) with r == c of the row-major vectorization
_DEPHASE_DIAGONAL = np.array([1.0, 0.0, 0.0, 1.0])


@lru_cache(maxsize=256)
def _measurement_superoperator(basis: str, meas_error: float) -> np.ndarray:
    """A measurement as one read-only superoperator on its qubit, which both
    interpreters apply: the basis rotation, the readout flip, then the dephasing."""
    rotation = BASIS_ROTATIONS[basis]
    sup = np.eye(4, dtype=complex) if rotation is None else superoperator([rotation])
    if meas_error > 0.0:
        sup = (1 - meas_error) * sup + meas_error * (_gate_superoperator("X", None) @ sup)
    sup = _DEPHASE_DIAGONAL[:, None] * sup
    sup.flags.writeable = False
    return sup


def _depolarizing_superoperator(lam: float, k: int) -> np.ndarray:
    """(1 - lam) rho + lam Tr(rho) I / 2^k on k qubits, as a superoperator (real and symmetric)."""
    identity = np.eye(2**k).ravel()
    return (1 - lam) * np.eye(4**k) + (lam / 2**k) * np.outer(identity, identity)


def _element_superoperator(el: CircuitElement, meas_error: float) -> tuple[tuple[int, ...], np.ndarray]:
    """The map :func:`execute_exact` applies for a gate, a Kraus or a one- or
    two-qubit depolarizing channel, or a measurement, as (targets, superoperator)."""
    if isinstance(el, Gate):
        return el.targets, _gate_superoperator(el.name, el.angle)
    if isinstance(el, Measure):
        return (el.qubit,), _measurement_superoperator(el.basis, meas_error)
    ch = el.channel
    if isinstance(ch, GlobalDepolarizingChannel):
        return ch.target_qubits, _depolarizing_superoperator(ch.lam, len(ch.target_qubits))
    return ch.target_qubits, superoperator(ch.kraus_ops)


def pull_back(
    circuit: Sequence[CircuitElement],
    observables: np.ndarray,
    n_qubits: int,
    meas_error: float = 0.0,
) -> np.ndarray:
    """Each observable O of a stack (..., 2^n, 2^n) seen through the circuit: C^dag(O).

    C is the map :func:`execute_exact` applies with readout error
    ``meas_error``, so ``Re vdot(C^dag(O), rho) = Tr(O C(rho))`` for every
    state rho. The circuit is walked backwards and each element applies the
    conjugate transpose of its superoperator: a gate's or a Kraus channel's,
    global depolarizing's (self-adjoint), and a measurement's rotation,
    readout flip (self-adjoint) and dephasing (self-adjoint) as one, so it
    dephases first and undoes its rotation last. Barriers and delays act as
    nothing. Adjacent elements on the same targets (a gate and its noise)
    multiply into one superoperator before it is applied. Depolarizing on
    more than two qubits, whose superoperator has 16^k entries, applies in
    closed form instead. The circuit is validated as :func:`execute_exact`
    validates it.
    """
    if not 0.0 <= meas_error <= 1.0:
        raise ValueError(f"measurement error must be in [0, 1], got {meas_error}")
    n = n_qubits
    _validate_circuit(circuit, n)

    # (targets, adjoint superoperator) in the order they apply, or (targets, lam)
    # for a depolarizing channel applied in closed form
    steps: list[tuple[tuple[int, ...], np.ndarray | float]] = []
    for el in reversed(circuit):
        if isinstance(el, (Barrier, Delay)):
            continue
        if isinstance(el, ChannelOp) and isinstance(el.channel, GlobalDepolarizingChannel):
            if len(el.channel.target_qubits) > 2:
                steps.append((el.channel.target_qubits, el.channel.lam))
                continue
        targets, sup = _element_superoperator(el, meas_error)
        if steps and steps[-1][0] == targets and isinstance(steps[-1][1], np.ndarray):
            steps[-1] = (targets, sup.conj().T @ steps[-1][1])
        else:
            steps.append((targets, sup.conj().T))

    obs = np.asarray(observables, dtype=complex)
    for targets, step in steps:
        if isinstance(step, np.ndarray):
            obs = apply_superoperator(obs, step, targets, n)
        else:
            obs = apply_global_depolarizing_matrix(obs, step, targets, n)
    return obs


# ---------------------------------------------------------------------------
# JSON serialization (schema documented in the README)


def _complex_matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, dtype=complex)]


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
    """One circuit element; a missing or mistyped field raises ValueError naming its path."""
    f = Fields(data, ValueError)
    kind = f.string("type", choices=("gate", "channel", "delay", "measure", "barrier"))
    if kind == "gate":
        return Gate(f.string("name"), f.integers("targets"), f.number("angle", None))
    if kind == "channel":
        ch = f.object("channel")
        targets = ch.integers("target_qubits")
        if ch.string("kind", choices=("kraus", "global_depolarizing")) == "global_depolarizing":
            return ChannelOp(GlobalDepolarizingChannel(targets, ch.number("lam")))
        return ChannelOp(KrausChannel(targets, ch.complex_matrices("kraus_ops")))
    if kind == "delay":
        return Delay(f.number("duration"), f.integers("qubits"))
    if kind == "measure":
        return Measure(f.integer("qubit"), f.string("basis", "Z"), f.string("label", ""))
    return Barrier(f.string("label", ""))


def circuit_to_json(circuit: Sequence[CircuitElement]) -> str:
    return json.dumps([element_to_json(el) for el in circuit], indent=2)


def circuit_from_json(text: str) -> list[CircuitElement]:
    return circuit_from_list(json.loads(text))


def circuit_from_list(data: list) -> list[CircuitElement]:
    """The circuit of a parsed JSON document; ValueError naming the element and field."""
    if not isinstance(data, list):
        raise ValueError(f"circuit: expected a list of elements, got {data!r}")
    elements = []
    for i, d in enumerate(data):
        try:
            elements.append(element_from_json(d))
        except ValueError as err:
            raise ValueError(f"circuit element {i}: {err}") from None
    return elements
