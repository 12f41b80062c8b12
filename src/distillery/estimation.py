"""Direct Bell-fidelity estimation from Pauli-basis measurement counts.

F = (1 + <ZZ> + <XX> - <YY>) / 4 for a two-qubit state, with each
expectation obtained from a two-qubit measurement in the matching basis via
<..> = 2(p00 + p11) - 1. Sampling draws counts from the exact outcome
distribution (inverse CDF), so marginals are exact and runs are
reproducible given a seed. Measurement errors are never corrected for; with
noisy readout the estimator converges to the fidelity of the degraded
statistics.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import BASIS_ROTATIONS
from .densop import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityOperator,
    apply_matrix,
    partial_trace_matrix,
)

BASES = ("ZZ", "XX", "YY")
OUTCOMES = ("00", "01", "10", "11")


@dataclass(frozen=True)
class CountsTable:
    basis: str
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        counts = {k: int(self.counts.get(k, 0)) for k in OUTCOMES}
        if any(v < 0 for v in counts.values()):
            raise ValueError(f"counts must be nonnegative, got {counts}")
        if sum(counts.values()) != self.shots:
            raise ValueError(f"counts sum {sum(counts.values())} does not match shots {self.shots}")
        object.__setattr__(self, "counts", counts)

    def even_parity_fraction(self) -> float:
        if self.shots == 0:
            raise ValueError("counts table has zero shots")
        return (self.counts["00"] + self.counts["11"]) / self.shots


@dataclass(frozen=True)
class FidelityEstimate:
    value: float
    std_error: float
    shots_per_basis: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("standard error must be nonnegative")


def direct_fidelity_exact(rho: DensityOperator, pair: tuple[int, int]) -> float:
    """Bell fidelity from the three Pauli expectations; equals <phi|rho|phi>."""
    red = partial_trace_matrix(rho.matrix, pair, rho.n_qubits)
    ezz = float(np.real(np.trace(np.kron(PAULI_Z, PAULI_Z) @ red)))
    exx = float(np.real(np.trace(np.kron(PAULI_X, PAULI_X) @ red)))
    eyy = float(np.real(np.trace(np.kron(PAULI_Y, PAULI_Y) @ red)))
    return (1.0 + ezz + exx - eyy) / 4.0


def outcome_distribution(
    rho: DensityOperator, pair: tuple[int, int], basis: str, meas_error: float = 0.0
) -> np.ndarray:
    """Exact probabilities of the four outcomes for a noisy basis measurement."""
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {basis!r}")
    red = partial_trace_matrix(rho.matrix, pair, rho.n_qubits)
    rot = BASIS_ROTATIONS[basis[0]]
    if rot is not None:
        red = apply_matrix(red, rot, (0,), 2)
        red = apply_matrix(red, rot, (1,), 2)
    probs = np.real(np.diag(red)).astype(float)
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    if meas_error > 0.0:
        m = meas_error
        flip1 = np.array([[1 - m, m], [m, 1 - m]])
        flip = np.kron(flip1, flip1)
        probs = flip @ probs
    return probs


def sample_counts(
    rho: DensityOperator,
    pair: tuple[int, int],
    basis: str,
    shots: int,
    meas_error: float = 0.0,
    seed: int | np.random.Generator = 0,
) -> CountsTable:
    """Draw a counts table from the exact noisy outcome distribution."""
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = outcome_distribution(rho, pair, basis, meas_error)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # inverse-CDF sampling keeps the draw reproducible across numpy versions:
    # outcome i takes the draws in [edges[i-1], edges[i]), so its count is the
    # number of draws below edges[i] less the number below edges[i-1]
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    draws = rng.random(shots)
    below = [np.count_nonzero(draws < edge) for edge in edges]
    counts = dict(zip(OUTCOMES, np.diff(below, prepend=0).tolist()))
    return CountsTable(basis, counts, shots)


def estimate_from_counts(zz: CountsTable, xx: CountsTable, yy: CountsTable) -> FidelityEstimate:
    """Combine three basis tables into a fidelity estimate with binomial errors."""
    tables = {"ZZ": zz, "XX": xx, "YY": yy}
    for name, t in tables.items():
        if t.basis != name:
            raise ValueError(f"expected a {name} table, got {t.basis}")
        if t.shots <= 0:
            raise ValueError("all tables need a positive number of shots")
    expectations = {}
    variances = {}
    for name, t in tables.items():
        frac = t.even_parity_fraction()
        expectations[name] = 2.0 * frac - 1.0
        variances[name] = 4.0 * frac * (1.0 - frac) / t.shots
    value = (1.0 + expectations["ZZ"] + expectations["XX"] - expectations["YY"]) / 4.0
    std_error = math.sqrt(sum(variances.values())) / 4.0
    return FidelityEstimate(value, std_error, zz.shots)


def estimate_fidelity(
    rho: DensityOperator,
    pair: tuple[int, int],
    shots: int,
    meas_error: float = 0.0,
    seed: int = 0,
) -> FidelityEstimate:
    """Sample all three bases (independent substreams of ``seed``) and estimate."""
    rng = np.random.default_rng(seed)
    tables = [
        sample_counts(rho, pair, basis, shots, meas_error, rng)
        for basis in BASES
    ]
    return estimate_from_counts(*tables)


def counts_to_csv(tables: Sequence[CountsTable]) -> str:
    """CSV with columns (basis, outcome, count, shots)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["basis", "outcome", "count", "shots"])
    for t in tables:
        for outcome in OUTCOMES:
            writer.writerow([t.basis, outcome, t.counts[outcome], t.shots])
    return buf.getvalue()


def counts_from_csv(text: str) -> list[CountsTable]:
    reader = csv.DictReader(io.StringIO(text))
    acc: dict[str, dict[str, int]] = {}
    shots: dict[str, int] = {}
    for row in reader:
        acc.setdefault(row["basis"], {})[row["outcome"]] = int(row["count"])
        shots[row["basis"]] = int(row["shots"])
    return [CountsTable(b, acc[b], shots[b]) for b in acc]
