"""Post-selected distillation protocols: two-pair parity checks and the
three-pair double-check variant, plus the general projector formulation.

Qubit layout is side-major: with n pairs, qubits 0..n-1 are the local (A)
halves and qubits n..2n-1 the remote (B) halves, so pair i lives on qubits
(i, n+i). The two-pair protocols therefore use pairs (0,2) and (1,3) and the
three-pair protocol pairs (0,3), (1,4), (2,5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .channels import Channel as NoiseChannel
from .channels import apply_channel_matrix
from .circuit import (
    ZERO_PROB,
    CircuitElement,
    Gate,
    Measure,
    NothingAcceptedError,
    accepted_states,
    pull_back,
)
from .densop import (
    BELL_VEC,
    DensityOperator,
    UnitaryOp,
    basis_bits,
    bell_fidelity_matrix,
    bell_pairs_on,
    embed_on_qubits,
    partial_trace_matrix,
)

PROTOCOL_NAMES = ("z2b", "x2b", "zx3b")


@dataclass(frozen=True)
class ProtocolSpec:
    """A distillation protocol: circuit, agreement checks, and kept pair."""

    name: str
    n_pairs: int
    pairs: tuple[tuple[int, int], ...]
    circuit: tuple[CircuitElement, ...]
    checks: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    kept_pair: tuple[int, int]

    @property
    def n_qubits(self) -> int:
        return 2 * self.n_pairs

    @property
    def noise_qubits(self) -> tuple[int, ...]:
        """The remote (B) half of each pair, where input noise is placed."""
        return tuple(b for _, b in self.pairs)

    def accepts(self, outcomes: Mapping[str, int]) -> bool:
        """True when, for each check, the two label groups have equal parity."""
        return all(
            sum(outcomes[l] for l in group_a) % 2 == sum(outcomes[l] for l in group_b) % 2
            for group_a, group_b in self.checks
        )


@dataclass(frozen=True)
class Outcome:
    """One distillation: best input pair fidelity, kept-pair fidelity, acceptance."""

    f_before: float
    f_after: float
    p_accept: float

    @property
    def ratio(self) -> float:
        return self.f_after / self.f_before

    @property
    def err_decrease(self) -> float:
        """Percentage decrease in Bell infidelity; NaN when already perfect."""
        if self.f_before >= 1.0:
            return math.nan
        return 100.0 * (self.f_after - self.f_before) / (1.0 - self.f_before)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: per-pair fidelities at a barrier and the distillation.

    ``f_after`` is None when post-selection accepted nothing.
    """

    sweep_value: float
    pair_fidelities: tuple[float, ...]  # staged: first barrier; idle: end of the wait
    f_before: float
    f_after: float | None
    p_accept: float

    @property
    def ratio(self) -> float | None:
        return None if self.f_after is None else self.f_after / self.f_before

    @property
    def err_decrease(self) -> float | None:
        if self.f_after is None or self.f_before >= 1.0:
            return None
        return 100.0 * (self.f_after - self.f_before) / (1.0 - self.f_before)


def build_z2b() -> ProtocolSpec:
    """Two-pair protocol checking agreement of ZZ parities across the pairs.

    Catches single X or Y errors on the checked halves.
    """
    circuit = (
        Gate("CNOT", (0, 1)),
        Gate("CNOT", (2, 3)),
        Measure(1, "Z", "i"),
        Measure(3, "Z", "j"),
    )
    return ProtocolSpec(
        name="z2b",
        n_pairs=2,
        pairs=((0, 2), (1, 3)),
        circuit=circuit,
        checks=((("i",), ("j",)),),
        kept_pair=(0, 2),
    )


def build_x2b() -> ProtocolSpec:
    """Two-pair protocol checking agreement of XX parities across the pairs.

    The basis-change dual of :func:`build_z2b`; catches single Z or Y errors.
    """
    circuit = (
        Gate("CNOT", (1, 0)),
        Gate("CNOT", (3, 2)),
        Measure(1, "X", "i"),
        Measure(3, "X", "j"),
    )
    return ProtocolSpec(
        name="x2b",
        n_pairs=2,
        pairs=((0, 2), (1, 3)),
        circuit=circuit,
        checks=((("i",), ("j",)),),
        kept_pair=(0, 2),
    )


def build_zx3b() -> ProtocolSpec:
    """Three-pair protocol with simultaneous ZZZ-type and XX-type checks.

    Sensitive to bit flips and phase flips at the same time; keeps pair
    (0, 3) when both check outcomes agree across the two sides.
    """
    circuit = (
        Gate("CNOT", (0, 1)),
        Gate("CNOT", (3, 4)),
        Gate("CNOT", (2, 1)),
        Gate("CNOT", (5, 4)),
        Measure(1, "Z", "i"),
        Measure(4, "Z", "j"),
        Measure(2, "X", "k"),
        Measure(5, "X", "l"),
    )
    return ProtocolSpec(
        name="zx3b",
        n_pairs=3,
        pairs=((0, 3), (1, 4), (2, 5)),
        circuit=circuit,
        checks=((("i",), ("j",)), (("k",), ("l",))),
        kept_pair=(0, 3),
    )


_BUILDERS = {"z2b": build_z2b, "x2b": build_x2b, "zx3b": build_zx3b}


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return _BUILDERS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; expected one of {PROTOCOL_NAMES}") from None


def pair_fidelities(spec: ProtocolSpec, rho: np.ndarray) -> tuple[float, ...]:
    """The Bell fidelity of each of the spec's pairs (raw arrays)."""
    return tuple(bell_fidelity_matrix(rho, pair, spec.n_qubits) for pair in spec.pairs)


def _kept_bell_observable(pair: tuple[int, int], accepted: np.ndarray, n_qubits: int) -> np.ndarray:
    """P Phi P: the Bell projector on ``pair`` (identity on the rest) between
    two copies of the 0/1 diagonal projector ``accepted``, as a full-register matrix.

    Entry (i, j) of the Bell projector is 1/2 when basis states i and j each
    read equal bits on the pair and agree on every other qubit, else 0.
    """
    bits = basis_bits(n_qubits)
    a, b = pair
    rest = [q for q in range(n_qubits) if q not in pair]
    rest_index = bits[:, rest] @ (1 << np.arange(len(rest))[::-1])
    kept = accepted & (bits[:, a] == bits[:, b])
    return 0.5 * (np.outer(kept, kept) & (rest_index[:, None] == rest_index[None, :]))


def pull_back_checks(
    spec: ProtocolSpec,
    check: Sequence[CircuitElement] | None = None,
    meas_error: float = 0.0,
) -> np.ndarray:
    """The check stage in the Heisenberg picture: the stack (A, B) = (C^dag(P), C^dag(P Phi P)).

    C is ``check`` (default the spec's perfect circuit) with readout error
    ``meas_error``, P the projector onto the outcomes ``spec.accepts`` and
    Phi the Bell projector on the kept pair. For every register state rho
    right before the checks, Tr(A rho) is the acceptance and
    Tr(B rho) / Tr(A rho) the kept pair's Bell fidelity after post-selection,
    so one pull-back scores any number of states (:func:`score_checks`).
    """
    n = spec.n_qubits
    circuit = spec.circuit if check is None else check
    accepted = accepted_states(circuit, n, spec.accepts)
    stack = np.zeros((2, 2**n, 2**n), dtype=complex)
    np.fill_diagonal(stack[0], accepted)
    stack[1] = _kept_bell_observable(spec.kept_pair, accepted, n)
    return pull_back(circuit, stack, n, meas_error)


def score_checks(pulled: np.ndarray, rho: np.ndarray) -> tuple[float, float]:
    """The kept pair's Bell fidelity after post-selection, and the acceptance, of ``rho`` (raw).

    ``pulled`` comes from :func:`pull_back_checks`. Raises
    NothingAcceptedError when the acceptance is at most ``ZERO_PROB``.
    """
    p_accept = float(np.real(np.vdot(pulled[0], rho)))
    if p_accept <= ZERO_PROB:
        raise NothingAcceptedError("post-selection accepted no measurement branch")
    return float(np.real(np.vdot(pulled[1], rho))) / p_accept, p_accept


def run_checks(
    spec: ProtocolSpec,
    rho: np.ndarray,
    check: Sequence[CircuitElement] | None = None,
    meas_error: float = 0.0,
) -> tuple[float, float]:
    """The kept pair's Bell fidelity after post-selection, and the acceptance.

    ``rho`` gets the full physicality check. The check circuit ``check``
    (default the spec's perfect circuit), with readout error ``meas_error``,
    is pulled back (:func:`pull_back_checks`) and scores ``rho``; the result
    equals running it forward from ``rho`` and post-selecting
    (:func:`circuit.execute_exact`, :func:`circuit.postselect`) up to
    round-off. Raises NothingAcceptedError when no outcome passes the checks.
    """
    state = DensityOperator(spec.n_qubits, rho)
    return score_checks(pull_back_checks(spec, check, meas_error), state.matrix)


def distill(
    spec: ProtocolSpec,
    rho: np.ndarray,
    check: Sequence[CircuitElement] | None = None,
    meas_error: float = 0.0,
) -> Outcome:
    """One recurrence step from the register state right before the checks.

    F_b is the best Bell fidelity over the spec's pairs; F_a and the
    acceptance come from :func:`run_checks`, which scores the checks in the
    Heisenberg picture.
    """
    return Outcome(max(pair_fidelities(spec, rho)), *run_checks(spec, rho, check, meas_error))


def run_protocol(spec: ProtocolSpec, input_noise: Sequence[NoiseChannel] = ()) -> Outcome:
    """Distill freshly prepared pairs degraded by ``input_noise``.

    The check circuit is perfect. The pre-distillation fidelity is the
    maximum Bell fidelity over the pairs after the input noise, immediately
    before the check circuit.
    """
    n = spec.n_qubits
    rho = bell_pairs_on(spec.pairs, n)
    for ch in input_noise:
        for q in ch.target_qubits:
            if not 0 <= q < n:
                raise ValueError(f"input noise qubit {q} out of range")
        rho = apply_channel_matrix(rho, ch, n)
    return distill(spec, rho)


def general_distill(
    rho_ab: DensityOperator, u: UnitaryOp, kept_pair_index: int = 0
) -> tuple[float, DensityOperator, float]:
    """Distill one pair out of an n-pair state by projecting the rest.

    ``rho_ab`` lives on 2n qubits in side-major layout (pair i on qubits
    (i, n+i)). After applying ``u`` (which should factor across the two
    sides), every pair except ``kept_pair_index`` is projected onto its
    even-parity Z subspace |00><00| + |11><11|; the acceptance probability is
    the trace of the projected state and the returned pair state is the
    renormalized reduction, together with its Bell fidelity.

    The projector P is a 0/1 diagonal, so P U rho U^dag P = (P U) rho (P U)^dag:
    only the 2^(n+1) rows of U at accepted basis states are multiplied, never
    the full register. They are ordered with the kept pair's two bits first,
    then one bit per agreeing pair, so their product with ``rho`` is the
    projected state on n + 1 qubits.
    """
    if rho_ab.n_qubits % 2 != 0:
        raise ValueError("state must have an even number of qubits (n pairs)")
    n_pairs = rho_ab.n_qubits // 2
    if not 0 <= kept_pair_index < n_pairs:
        raise ValueError(f"kept pair index {kept_pair_index} out of range for {n_pairs} pairs")
    n = rho_ab.n_qubits
    weight = 1 << np.arange(n - 1, -1, -1)  # basis-index weight of each qubit
    others = [i for i in range(n_pairs) if i != kept_pair_index]
    compact = [weight[kept_pair_index], weight[n_pairs + kept_pair_index]]
    compact += [weight[i] + weight[n_pairs + i] for i in others]  # both halves read one bit
    accepted = basis_bits(n_pairs + 1) @ np.array(compact)
    rows = embed_on_qubits(u.matrix, u.target_qubits, n)[accepted]
    block = rows @ rho_ab.matrix @ rows.conj().T
    p_accept = float(np.real(np.trace(block)))
    if p_accept <= ZERO_PROB:
        raise NothingAcceptedError("projection onto agreeing outcomes has zero weight")
    reduced = partial_trace_matrix(block, [0, 1], n_pairs + 1) / p_accept
    fid = float(np.real(BELL_VEC.conj() @ reduced @ BELL_VEC))
    return p_accept, DensityOperator._derived(2, reduced), fid
