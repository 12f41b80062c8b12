"""Closed-form distillation results and symbolic Pauli-error enumeration.

The closed forms cover the two-pair parity-check protocol under bit-flip and
local depolarizing input noise, the three-pair double-check protocol under
local depolarizing noise, and both protocols under global depolarizing
noise. The enumeration engine reproduces the same numbers for arbitrary
Pauli input channels by propagating every error combination symplectically
through the (Clifford) check circuit and keeping the combinations whose
measurement outcomes still agree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import PauliChannelParams
from .circuit import Gate, Measure
from .pauli import PauliString, UnsupportedProtocolError, conjugate_through, multiply_letters
from .protocols import Outcome, ProtocolSpec, get_protocol


def recurrence_bitflip(p: float, q: float) -> Outcome:
    """Two-pair parity check on pairs with one-sided bit flips p and q."""
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 0.5:
            raise ValueError(f"bit-flip probability {name} must be in [0, 1/2], got {v}")
    p_s = (1 - p) * (1 - q) + p * q
    f_b = max(1 - p, 1 - q)
    f_a = (1 - p) * (1 - q) / p_s
    return Outcome(f_b, f_a, p_s)


def z2b_local_depol(p: float, q: float) -> Outcome:
    """Two-pair parity check on pairs with one-sided depolarizing p and q."""
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"depolarizing probability {name} must be in [0, 1], got {v}")
    p_s = (1 - 2 * p / 3) * (1 - 2 * q / 3) + 4 * p * q / 9
    f_b = max(1 - p, 1 - q)
    f_a = ((1 - p) * (1 - q) + p * q / 9) / p_s
    return Outcome(f_b, f_a, p_s)


def zx3b_local_depol(p: float, q: float) -> Outcome:
    """Three-pair double check; pairs one and three share p, pair two has q."""
    for name, v in (("p", p), ("q", q)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"depolarizing probability {name} must be in [0, 1], got {v}")
    p_s = p**2 / 9 * (8 - 32 / 3 * q) + p / 3 * (20 / 3 * q - 5) + 1 - q
    f_b = max(1 - p, 1 - q)
    f_a = (p**2 * (1 - 28 / 27 * q) + p * (19 / 9 * q - 2) + 1 - q) / p_s
    return Outcome(f_b, f_a, p_s)


def global_depol_distill(protocol: str, lam: float) -> Outcome:
    """Distillation of perfect pairs degraded by n-pair global depolarizing.

    With perfect inputs the projector formalism gives acceptance
    (1 - lam) + lam / 2^(n-1) and post-selected Bell fidelity
    ((1 - lam) + lam / 2^(n+1)) / p; the pre-distillation fidelity of any
    single pair's marginal is 1 - 3 lam / 4.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"depolarizing strength must be in [0, 1], got {lam}")
    name = protocol.lower()
    if name == "z2b":
        n_pairs = 2
    elif name == "zx3b":
        n_pairs = 3
    else:
        raise ValueError(f"protocol must be z2b or zx3b, got {protocol!r}")
    p_g = (1 - lam) + lam / 2 ** (n_pairs - 1)
    f_g = ((1 - lam) + lam / 2 ** (n_pairs + 1)) / p_g
    f_b = 1 - 3 * lam / 4
    return Outcome(f_b, f_g, p_g)


# ---------------------------------------------------------------------------
# Symbolic enumeration


@dataclass(frozen=True)
class AcceptedErrorRow:
    """An input error combination the checks let through."""

    error: PauliString
    error_label: str
    monomial: str
    probability: float | None
    residual: str  # single-qubit Pauli letter left on the kept pair, or 'I'
    residual_label: str


@dataclass(frozen=True)
class EnumerationResult:
    rows: tuple[AcceptedErrorRow, ...]
    acceptance_prob: float | None
    fidelity_after: float | None
    check_observables: tuple[PauliString, ...]


_PAULI_WEIGHT_KEYS = {"I": "p_i", "X": "p_x", "Y": "p_y", "Z": "p_z"}


def _channel_symbols(n_pairs: int) -> list[str]:
    return list("pqr") if n_pairs <= 3 else [f"s{i}" for i in range(n_pairs)]


def _measurement_observables(spec: ProtocolSpec) -> dict[str, PauliString]:
    """Pull each measured observable back to the circuit input."""
    n = spec.n_qubits
    gates_so_far: list[Gate] = []
    obs: dict[str, PauliString] = {}
    for el in spec.circuit:
        if isinstance(el, Gate):
            gates_so_far.append(el)
        elif isinstance(el, Measure):
            start = PauliString.from_letters({el.qubit: el.basis}, n)
            obs[el.label] = conjugate_through(start, gates_so_far, inverse=True)
        elif type(el).__name__ in ("Barrier", "Delay"):
            continue
        else:
            raise UnsupportedProtocolError(
                f"cannot enumerate through element {type(el).__name__}"
            )
    return obs


def check_observables(spec: ProtocolSpec) -> tuple[PauliString, ...]:
    """One input-side observable per agreement check (the two-group product)."""
    obs = _measurement_observables(spec)
    out = []
    for group_a, group_b in spec.checks:
        prod = PauliString.identity(spec.n_qubits)
        for label in list(group_a) + list(group_b):
            o = obs[label]
            letters = {}
            for qq in range(spec.n_qubits):
                k, c = multiply_letters(prod.letter(qq), o.letter(qq))
                letters[qq] = c
            prod = PauliString.from_letters(letters, spec.n_qubits)
        out.append(prod)
    return tuple(out)


def _residual_letter(err: PauliString, gates: Sequence[Gate], kept_pair: tuple[int, int]) -> str:
    """Propagate an input error through the circuit and reduce on the kept pair.

    Components on measured qubits act trivially after projection (their flips
    are already accounted for by the acceptance test). A component on the
    local half of the kept pair is reflected onto the remote half through the
    Bell state ((M x I)|phi> = (I x M^T)|phi>), so the residual is a single
    letter on the kept remote qubit.
    """
    prop = conjugate_through(err, gates)
    a, b = kept_pair
    _, combined = multiply_letters(prop.letter(b), prop.letter(a))
    return combined


def enumerate_accepted(
    spec: ProtocolSpec,
    channels: Sequence[PauliChannelParams] | None = None,
) -> EnumerationResult:
    """Enumerate the Pauli error combinations that survive post-selection.

    One Pauli channel acts on the remote half of each pair. Every
    combination of single-qubit errors is propagated through the check
    circuit; combinations whose outcomes still satisfy all agreement checks
    are returned with their probability monomial and the leftover Pauli on
    the kept pair. With ``channels`` given, the accepted probabilities are
    summed into the acceptance probability and post-selected fidelity.
    """
    if channels is not None and len(channels) != spec.n_pairs:
        raise ValueError(f"expected {spec.n_pairs} channels, got {len(channels)}")
    n = spec.n_qubits
    gates = [el for el in spec.circuit if isinstance(el, Gate)]
    checks = check_observables(spec)
    symbols = _channel_symbols(spec.n_pairs)
    locations = spec.noise_qubits

    rows = []
    p_s = 0.0 if channels is not None else None
    p_good = 0.0 if channels is not None else None
    for letters in itertools.product("IXYZ", repeat=len(locations)):
        err = PauliString.from_letters(dict(zip(locations, letters)), n)
        if not all(err.commutes_with(c) for c in checks):
            continue
        parts = []
        prob = 1.0
        for sym, letter, i in zip(symbols, letters, range(len(letters))):
            parts.append(f"{sym}_{letter.lower()}" if letter != "I" else f"{sym}_I")
            if channels is not None:
                prob *= getattr(channels[i], _PAULI_WEIGHT_KEYS[letter])
        monomial = " ".join(parts)
        residual = _residual_letter(err, gates, spec.kept_pair)
        residual_label = "I" if residual == "I" else f"{residual}{spec.kept_pair[1]}"
        rows.append(
            AcceptedErrorRow(
                error=err,
                error_label=err.label(),
                monomial=monomial,
                probability=prob if channels is not None else None,
                residual=residual,
                residual_label=residual_label,
            )
        )
        if channels is not None:
            p_s += prob
            if residual == "I":
                p_good += prob
    f_a = None
    if channels is not None:
        f_a = p_good / p_s if p_s > 0 else math.nan
    return EnumerationResult(tuple(rows), p_s, f_a, checks)


def enumerate_protocol(name: str, channels: Sequence[PauliChannelParams] | None = None) -> EnumerationResult:
    return enumerate_accepted(get_protocol(name), channels)


# ---------------------------------------------------------------------------
# Improvement-region fractions


@dataclass(frozen=True)
class RegionGrid:
    """Half-offset uniform grid over (0, p_max) x (0, q_max)."""

    p_max: float = 0.5
    q_max: float = 0.5
    steps: int = 150

    def axis(self, vmax: float) -> np.ndarray:
        if self.steps < 1:
            raise ValueError("grid must have at least one step")
        return (np.arange(self.steps) + 0.5) * (vmax / self.steps)


DEFAULT_REGION_GRID = RegionGrid()

# closed forms over input noise (p, q), keyed by (protocol, noise family)
REGION_FAMILIES = {
    ("z2b", "bitflip"): recurrence_bitflip,
    ("z2b", "local_depol"): z2b_local_depol,
    ("zx3b", "local_depol"): zx3b_local_depol,
}


def improvement_region(
    protocol: str, noise: str = "local_depol", grid: RegionGrid = DEFAULT_REGION_GRID
) -> float:
    """Fraction of grid points where distillation strictly improves fidelity."""
    key = (protocol.lower(), noise.lower())
    if key not in REGION_FAMILIES:
        raise ValueError(
            f"no closed form for protocol={protocol!r}, noise={noise!r}; "
            f"supported: {sorted(REGION_FAMILIES)}"
        )
    fn = REGION_FAMILIES[key]
    hits = 0
    total = 0
    for p in grid.axis(grid.p_max):
        for q in grid.axis(grid.q_max):
            res = fn(float(p), float(q))
            total += 1
            if res.f_after > res.f_before:
                hits += 1
    return hits / total
