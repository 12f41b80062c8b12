"""Device calibration data and the noise models built from it.

Covers: loading per-qubit T1/T2/readout and per-edge ZZ-rate/gate-error
records, idle-noise sequences (Trotterized always-on ZZ plus damping and
dephasing, with optional staggered echo pulses), the staged prefix
(preparation, asymmetry, swaps) that sweeps and idle experiments start from,
the idle-then-distill experiments, and mirror two-qubit-Clifford layers for
noise twirling.

Chains of physical qubits are mapped to register indices by position: the
qubit at chain position i is register qubit i, and chain edges (i, i+1) must
exist in the calibration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import bit_flip, damping_dephasing, depolarizing_local, gp_from_t1t2
from .circuit import (
    Barrier,
    ChannelOp,
    CircuitElement,
    Gate,
    Measure,
    execute_exact,
    simplify,
    with_gate_noise,
)
from .densop import DensityOperator, bell_pairs_on, ground_state
from .fields import Fields, read_json
from .protocols import Outcome, ProtocolSpec, SweepRow, distill, pair_fidelities, pull_back_checks, score_checks


class CalibrationError(ValueError):
    """A calibration file is malformed or physically inconsistent."""


@dataclass(frozen=True)
class QubitCalibration:
    id: int
    t1: float
    t2: float
    meas_error: float


@dataclass(frozen=True)
class EdgeCalibration:
    q1: int
    q2: int
    zz_rate: float  # Hz, signed
    gate_error: float


@dataclass(frozen=True)
class DeviceCalibration:
    qubits: tuple[QubitCalibration, ...]
    edges: tuple[EdgeCalibration, ...]
    meas_delay: float  # microseconds

    def __post_init__(self):
        ids = [q.id for q in self.qubits]
        if len(ids) != len(set(ids)):
            raise CalibrationError(f"duplicate qubit ids in calibration: {ids}")
        for q in self.qubits:
            if q.t1 <= 0:
                raise CalibrationError(f"qubit {q.id}: T1 must be positive, got {q.t1}")
            if not 0 < q.t2 <= 2 * q.t1:
                raise CalibrationError(
                    f"qubit {q.id}: T2 must satisfy 0 < T2 <= 2*T1, got T1={q.t1}, T2={q.t2}"
                )
            if not 0 <= q.meas_error <= 1:
                raise CalibrationError(f"qubit {q.id}: meas_error out of [0, 1]")
        known = set(ids)
        for e in self.edges:
            if e.q1 not in known or e.q2 not in known:
                raise CalibrationError(f"edge ({e.q1}, {e.q2}) references unknown qubits")
            if not 0 <= e.gate_error <= 1:
                raise CalibrationError(f"edge ({e.q1}, {e.q2}): gate_error out of [0, 1]")
            if not math.isfinite(e.zz_rate):
                raise CalibrationError(f"edge ({e.q1}, {e.q2}): zz_rate must be finite, got {e.zz_rate}")
        if not self.meas_delay >= 0:
            raise CalibrationError(f"meas_delay must be nonnegative, got {self.meas_delay}")

    def qubit(self, qid: int) -> QubitCalibration:
        for q in self.qubits:
            if q.id == qid:
                return q
        raise CalibrationError(f"qubit {qid} not in calibration")

    def edge(self, a: int, b: int) -> EdgeCalibration:
        for e in self.edges:
            if {e.q1, e.q2} == {a, b}:
                return e
        raise CalibrationError(f"edge ({a}, {b}) not in calibration")


def check_chain(calib: DeviceCalibration, chain: Sequence[int], spec: ProtocolSpec) -> None:
    """CalibrationError unless ``chain`` holds one distinct qubit per register
    qubit of ``spec`` and every qubit and every edge between neighbours in it
    is in ``calib``, as the idle experiment needs."""
    if len(chain) != spec.n_qubits:
        raise CalibrationError(f"{spec.name} needs {spec.n_qubits} qubits, got {len(chain)}")
    for i, qid in enumerate(chain):
        if qid in chain[:i]:
            raise CalibrationError(f"qubit {qid} repeats")
    for qid in chain:
        calib.qubit(qid)
    for a, b in zip(chain, chain[1:]):
        calib.edge(a, b)


def calibration_from_dict(data: dict) -> DeviceCalibration:
    f = Fields(data, CalibrationError, root="calibration")
    qubits = tuple(
        QubitCalibration(q.integer("id"), q.number("T1"), q.number("T2"), q.number("meas_error"))
        for q in f.objects("qubits")
    )
    edges = tuple(
        EdgeCalibration(e.integer("q1"), e.integer("q2"), e.number("zz_rate"), e.number("gate_error"))
        for e in f.objects("edges")
    )
    return DeviceCalibration(qubits, edges, f.number("meas_delay"))


def calibration_to_dict(calib: DeviceCalibration) -> dict:
    return {
        "qubits": [
            {"id": q.id, "T1": q.t1, "T2": q.t2, "meas_error": q.meas_error}
            for q in calib.qubits
        ],
        "edges": [
            {"q1": e.q1, "q2": e.q2, "zz_rate": e.zz_rate, "gate_error": e.gate_error}
            for e in calib.edges
        ],
        "meas_delay": calib.meas_delay,
    }


def load_calibration(path: str | Path) -> DeviceCalibration:
    """A calibration file, or, when no such file exists, the bundled calibration of that name."""
    if not Path(path).exists():
        name, path = str(path), Path(__file__).parent / "calibrations" / f"{path}.json"
        if not path.exists():
            bundled = sorted(p.stem for p in path.parent.glob("*.json"))
            raise CalibrationError(
                f"calibration: no file or bundled calibration named {name!r}; bundled: {bundled}"
            )
    return calibration_from_dict(read_json(path, "calibration", CalibrationError))


def save_calibration(calib: DeviceCalibration, path: str | Path) -> None:
    Path(path).write_text(json.dumps(calibration_to_dict(calib), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Idle noise


DD_MODES = ("none", "staggered")


@dataclass(frozen=True)
class IdleSpec:
    """The idle-noise model: every idle window is split into equal Trotter segments.

    Each segment applies the per-qubit damping-dephasing accumulated over
    duration/n followed by the per-edge ZZ phase for the same interval.
    Staggered echo mode inserts X pulses on even chain positions after
    segments n/2 and n and on odd positions after n/4 and 3n/4, which cancels
    pure ZZ evolution exactly (and requires n divisible by 4).
    ``perfect_coherence`` drops every damping-dephasing channel (the T1, T2
    -> infinity limit) while keeping ZZ and echo pulses.
    """

    n_segments: int = 16
    dd_mode: str = "staggered"
    zz_enabled: bool = True
    perfect_coherence: bool = False

    def __post_init__(self):
        if self.dd_mode not in DD_MODES:
            raise ValueError(f"dd_mode: must be 'none' or 'staggered', got {self.dd_mode!r}")
        if self.n_segments < 1:
            raise ValueError(f"n_segments: must be >= 1, got {self.n_segments}")
        if self.dd_mode == "staggered" and self.n_segments % 4 != 0:
            raise ValueError(
                f"n_segments: staggered echo needs a multiple of 4, got {self.n_segments}"
            )


def idle_sequence(
    chain: Sequence[int], duration_us: float, spec: IdleSpec, calib: DeviceCalibration
) -> list[CircuitElement]:
    """Noise elements for an idle window of ``duration_us`` on a chain of adjacent qubits.

    ``chain`` holds physical qubit ids; emitted elements act on register
    positions 0..len(chain)-1.
    """
    if not duration_us >= 0:
        raise ValueError(f"duration must be nonnegative, got {duration_us}")
    chain = list(chain)
    if duration_us == 0:
        return []
    n = spec.n_segments
    dt = duration_us / n
    # every segment repeats the same elements, so each is built once per window
    zz_phases: list[CircuitElement] = []
    if spec.zz_enabled:
        for pos in range(len(chain) - 1):
            rate = calib.edge(chain[pos], chain[pos + 1]).zz_rate
            zz_phases.append(Gate("CPhase", (pos, pos + 1), 2.0 * math.pi * rate * dt * 1e-6))
    pulse_after: dict[int, list[CircuitElement]] = {}
    if spec.dd_mode == "staggered":
        for pos in range(len(chain)):
            segs = (n // 2, n) if pos % 2 == 0 else (n // 4, 3 * n // 4)
            for s in segs:
                pulse_after.setdefault(s, []).append(Gate("X", (pos,)))
    damping: list[CircuitElement] = []
    if not spec.perfect_coherence:
        for pos, qid in enumerate(chain):
            q = calib.qubit(qid)
            damping.append(ChannelOp(damping_dephasing(gp_from_t1t2(dt, q.t1, q.t2), qubit=pos)))
    elements: list[CircuitElement] = []
    for k in range(1, n + 1):
        elements.extend(damping)
        elements.extend(zz_phases)
        elements.extend(pulse_after.get(k, ()))
    return elements


# ---------------------------------------------------------------------------
# Experiment circuits


def _swap_elements(a: int, b: int, decomposition: str) -> list[CircuitElement]:
    if decomposition == "single_gate":
        return [Gate("SWAP", (a, b))]
    if decomposition == "three_cnots":
        return [Gate("CNOT", (a, b)), Gate("CNOT", (b, a)), Gate("CNOT", (a, b))]
    raise ValueError(
        f"swap decomposition must be 'three_cnots' or 'single_gate', got {decomposition!r}"
    )


REORDER_SWAPS = {2: [(1, 2)], 3: [(1, 2), (3, 4), (2, 3)]}
# qubits whose extra depolarizing sets up the pair asymmetry
ASYMMETRY_QUBITS = {2: (0,), 3: (0, 4)}


def staged_prefix(
    n_pairs: int, swap_decomposition: str, asymmetry_p: float = 0.0
) -> list[CircuitElement]:
    """Local Bell preparation, the asymmetry channel, barrier t0, the swaps
    that de-localize the pairs, and barrier t1; nothing is measured.

    The gates are ideal; callers add gate noise with :func:`with_gate_noise`.
    """
    elements: list[CircuitElement] = []
    for a, b in [(2 * j, 2 * j + 1) for j in range(n_pairs)]:
        elements.append(Gate("H", (a,)))
        elements.append(Gate("CNOT", (a, b)))
    if asymmetry_p > 0:
        for q in ASYMMETRY_QUBITS[n_pairs]:
            elements.append(ChannelOp(depolarizing_local(asymmetry_p, qubit=q)))
    elements.append(Barrier("t0"))
    for a, b in REORDER_SWAPS[n_pairs]:
        elements.extend(_swap_elements(a, b, swap_decomposition))
    elements.append(Barrier("t1"))
    return elements


def _check_stage(spec: ProtocolSpec, meas_error_of, meas_delay_damping) -> list[CircuitElement]:
    """The protocol's check circuit with per-qubit readout flips and the kept pair's wait."""
    elements: list[CircuitElement] = []
    for el in spec.circuit:
        if isinstance(el, Measure):
            m = meas_error_of(el.qubit)
            # Before an X-basis rotation this flip becomes a Z and changes no
            # outcome; it stays here so the x2b and zx3b goldens hold.
            if m > 0:
                elements.append(ChannelOp(bit_flip(m, qubit=el.qubit)))
        elements.append(el)
    elements.extend(meas_delay_damping)
    return elements


def idle_distill_experiment(
    spec: ProtocolSpec,
    chain: Sequence[int],
    calib: DeviceCalibration,
    delays_us: Sequence[float],
    idle: IdleSpec,
    swap_decomposition: str = "three_cnots",
) -> list[SweepRow]:
    """Prepare, swap, idle for each delay, then distill, on calibrated qubits.

    Preparation and swaps run once, and each delay continues from their
    state; the check stage is pulled back once and scores each delay's state.
    All gate and measurement noise comes from the calibration (edge gate
    errors as two-qubit global depolarizing, per-qubit readout bit flips);
    the kept qubits pick up their measurement-delay damping while the check
    qubits are read out, unless ``idle.perfect_coherence`` drops it. Each
    row's sweep value is the delay and its pair fidelities are taken at the
    end of the idle window.
    """
    chain = list(chain)
    check_chain(calib, chain, spec)
    edge_err = lambda a, b: calib.edge(chain[a], chain[b]).gate_error
    meas_err = lambda pos: calib.qubit(chain[pos]).meas_error

    before_idle = with_gate_noise(staged_prefix(spec.n_pairs, swap_decomposition), edge_err)
    at_t1 = execute_exact(before_idle, ground_state(spec.n_qubits)).snapshots["t1"]
    meas_delay_damping = []
    if calib.meas_delay > 0 and not idle.perfect_coherence:
        for pos in spec.kept_pair:
            q = calib.qubit(chain[pos])
            meas_delay_damping.append(
                ChannelOp(damping_dephasing(gp_from_t1t2(calib.meas_delay, q.t1, q.t2), qubit=pos))
            )
    check = with_gate_noise(_check_stage(spec, meas_err, meas_delay_damping), edge_err)
    pulled = pull_back_checks(spec, check)
    rows = []
    for delay in delays_us:
        # the idle window's ZZ phases are coherent crosstalk, not noisy gates
        idle_stage = idle_sequence(chain, delay, idle, calib)
        at_t2 = execute_exact(idle_stage, at_t1).matrix
        fids = pair_fidelities(spec, at_t2)
        f_after, p_accept = score_checks(pulled, at_t2)
        rows.append(SweepRow(max(fids), f_after, p_accept, sweep_value=float(delay), pair_fidelities=fids))
    return rows


# ---------------------------------------------------------------------------
# Mirror Clifford twirling


_WORD_LENGTH = 20
MIRROR_PAIRS = ((0, 1), (2, 3))


def mirror_clifford_layers(k: int, seed: int | np.random.Generator) -> list[CircuitElement]:
    """k random two-qubit-Clifford layers followed by their exact mirror inverse.

    Each layer applies, to each pair in ``MIRROR_PAIRS``, a random word of
    generators from {H, S, CNOT (both directions)}; the second half undoes
    the first gate by gate, so the noiseless circuit is the identity.
    """
    if k < 0:
        raise ValueError(f"layer count must be nonnegative, got {k}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # each pair's generators and their inverses, built once per call
    inverse_name = {"H": "H", "S": "Sdg", "CNOT": "CNOT"}
    words = []
    for a, b in MIRROR_PAIRS:
        gens = (
            Gate("H", (a,)),
            Gate("H", (b,)),
            Gate("S", (a,)),
            Gate("S", (b,)),
            Gate("CNOT", (a, b)),
            Gate("CNOT", (b, a)),
        )
        words.append((gens, tuple(Gate(inverse_name[g.name], g.targets) for g in gens)))
    picks = [
        (gens, inverses, rng.integers(0, len(gens), size=_WORD_LENGTH).tolist())
        for _ in range(k)
        for gens, inverses in words
    ]
    first = [gens[i] for gens, _, word in picks for i in word]
    second = [inverses[i] for _, inverses, word in reversed(picks) for i in reversed(word)]
    return first + second


@dataclass(frozen=True, kw_only=True)
class TwirlPoint(Outcome):
    """One layer count's distillation of the seed-averaged state."""

    k: int


def mirror_twirl_experiment(
    spec: ProtocolSpec,
    k_values: Sequence[int],
    n_seeds: int,
    gate_error: float,
    base_seed: int = 0,
) -> list[TwirlPoint]:
    """Seed-averaged distillation of pairs degraded by noisy mirror layers.

    The mirror layers run with two-qubit gate noise on freshly prepared
    pairs; the seed-averaged register state is then distilled with a perfect
    check circuit, mirroring a twirl toward global depolarizing noise. Each
    noisy circuit runs through :func:`circuit.simplify`, so it executes as
    one unitary and one depolarizing channel per pair.
    """
    if spec.n_pairs != 2:
        raise ValueError("the twirl experiment runs on a two-pair protocol")
    n = spec.n_qubits
    init = DensityOperator._derived(n, bell_pairs_on(list(spec.pairs), n))
    uniform_error = lambda a, b: gate_error
    points = []
    for k in k_values:
        acc = np.zeros((2**n, 2**n), dtype=complex)
        for s in range(n_seeds):
            rng = np.random.default_rng(np.random.SeedSequence([base_seed, k, s]))
            layers = simplify(with_gate_noise(mirror_clifford_layers(k, rng), uniform_error))
            result = execute_exact(layers, init)
            acc += result.unconditional_state().matrix
        out = distill(spec, acc / n_seeds)
        points.append(TwirlPoint(out.f_before, out.f_after, out.p_accept, k=k))
    return points
