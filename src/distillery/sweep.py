"""Parameter sweeps over the staged distillation experiments.

The staged circuit prepares local pairs, optionally degrades some of them to
set up an asymmetry, swaps halves so the pairs become non-local, applies a
waiting error (the swept variable), and finally runs the protocol's check
stage. Gate noise is a uniform-strength channel after every two-qubit gate
(:func:`with_gate_noise`); readout noise is the executor's outcome flip.
Each grid point yields one CSV row; rows carry the per-pair fidelities at the
first barrier, the pre-distillation fidelity right before the checks, and the
post-selected outcome.

Everything before the waiting error (:func:`device.staged_prefix`) depends
only on the protocol, the gate error, the asymmetry and the swap
decomposition, so a sweep runs that prefix once per gate error and continues
every point from its state at barrier t1. The check stage changes only with
the gate and readout errors, so it is pulled back once per pair of them
(:func:`protocols.pull_back_checks`) and scores each point's state at t2.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .channels import GlobalDepolarizingChannel, bit_flip, depolarizing_local
from .circuit import (
    Barrier,
    ChannelOp,
    CircuitElement,
    Gate,
    NothingAcceptedError,
    execute_exact,
    with_gate_noise,
)
from .densop import DensityOperator, bell_fidelity_matrix, ground_state
from .device import (
    CalibrationError,
    DeviceCalibration,
    IdleSpec,
    check_chain,
    idle_distill_experiment,
    load_calibration,
    staged_prefix,
)
from .fields import Fields, read_json
from .protocols import (
    ProtocolSpec,
    SweepRow,
    get_protocol,
    pair_fidelities,
    pull_back_checks,
    score_checks,
)

CSV_HEADER_COMMENT = "# distillery-csv v1"

NOISE_FAMILIES = ("bitflip", "local_depol", "global_depol", "idle")
SWEEP_VARIABLES = {"bitflip": "q", "local_depol": "q", "global_depol": "lam", "idle": "delay"}
# what each family's swept value is, and its closed range (idle delays in us)
SWEEP_RANGES = {
    "bitflip": ("bit-flip probabilities", 0.0, 0.5),
    "local_depol": ("depolarizing probabilities", 0.0, 1.0),
    "global_depol": ("depolarizing strengths", 0.0, 1.0),
    "idle": ("idle delays", 0.0, math.inf),
}

# qubits carrying the waiting error (one half of each non-local pair)
WAIT_QUBITS = {2: (1, 2), 3: (3, 4, 5)}
LOCAL_PAIRS = {2: ((0, 1), (2, 3)), 3: ((0, 1), (2, 3), (4, 5))}


class ConfigError(ValueError):
    """A sweep configuration is malformed; the message names the field."""


@dataclass(frozen=True)
class SweepGrid:
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ConfigError("sweep.values: grid must be non-empty")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ConfigError("sweep.values: grid must be monotone nondecreasing")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class IdleOptions:
    """An idle sweep's calibration (a path or a bundled name), its chain, and its idle model."""

    calibration: str
    chain: tuple[int, ...]
    model: IdleSpec


@dataclass(frozen=True)
class SweepConfig:
    protocol: str
    noise_family: str
    sweep: SweepGrid
    variable: str
    asymmetry_p: float = 0.0
    asymmetry_ratio: float | None = None
    gate_error: tuple[float, ...] = (0.0,)
    meas_error: tuple[float, ...] = (0.0,)
    swap_decomposition: str = "three_cnots"
    out: str | None = None
    idle: IdleOptions | None = None

    def __post_init__(self):
        expected_var = SWEEP_VARIABLES[self.noise_family]
        if self.variable != expected_var:
            raise ConfigError(
                f"sweep.variable: family {self.noise_family!r} sweeps {expected_var!r}, "
                f"got {self.variable!r}"
            )
        if not 0.0 <= self.asymmetry_p <= 1.0:
            raise ConfigError(f"asymmetry_p: must be in [0, 1], got {self.asymmetry_p}")
        if self.asymmetry_ratio is not None and not 0.0 < self.asymmetry_ratio <= 1.0:
            raise ConfigError(f"asymmetry_ratio: must be in (0, 1], got {self.asymmetry_ratio}")
        for name, errors in (("gate_error", self.gate_error), ("meas_error", self.meas_error)):
            if not errors:
                raise ConfigError(f"{name}: expected at least one value, got []")
            for e in errors:
                if not 0.0 <= e <= 1.0:
                    raise ConfigError(f"{name}: must be in [0, 1], got {e}")
        if self.noise_family == "idle" and self.idle is None:
            raise ConfigError("idle: required when noise_family is 'idle'")
        if self.idle is not None:
            n_qubits = get_protocol(self.protocol).n_qubits
            if len(self.idle.chain) != n_qubits:
                raise ConfigError(
                    f"idle.chain: {self.protocol} needs {n_qubits} qubits, got {list(self.idle.chain)}"
                )
        what, lo, hi = SWEEP_RANGES[self.noise_family]
        for v in self.sweep.values:
            if not (math.isfinite(v) and lo <= v <= hi):
                raise ConfigError(f"sweep.values: {what} must be finite and in [{lo:g}, {hi:g}], got {v}")


def config_from_dict(data: dict) -> SweepConfig:
    f = Fields(data, ConfigError, root="config")
    protocol, family = f.string("protocol"), f.string("noise_family", choices=NOISE_FAMILIES)
    try:
        get_protocol(protocol)
    except ValueError as err:
        raise ConfigError(f"protocol: {err}") from None
    sweep = f.object("sweep")
    values = sweep.numbers("values", None)
    if values is None:
        start, stop, num = sweep.number("start"), sweep.number("stop"), sweep.integer("num")
        if num < 1:
            raise ConfigError("sweep.num: must be >= 1")
        values = tuple(np.linspace(start, stop, num))
    idle = f.object("idle", None)
    if idle is not None:
        calibration, chain = idle.string("calibration"), idle.integers("chain")
        settings = dict(
            n_segments=idle.integer("n_segments", IdleSpec.n_segments),
            dd_mode=idle.string("dd_mode", IdleSpec.dd_mode),
            zz_enabled=idle.boolean("zz_enabled", IdleSpec.zz_enabled),
            perfect_coherence=idle.boolean("perfect_coherence", IdleSpec.perfect_coherence),
        )
        try:
            model = IdleSpec(**settings)
        except ValueError as err:
            raise ConfigError(f"idle.{err}") from None
        idle = IdleOptions(calibration, chain, model)
    return SweepConfig(
        protocol=protocol,
        noise_family=family,
        sweep=SweepGrid(values),
        variable=sweep.string("variable", SWEEP_VARIABLES[family]),
        asymmetry_p=f.number("asymmetry_p", 0.0),
        asymmetry_ratio=f.number("asymmetry_ratio", None),
        gate_error=f.numbers("gate_error", (0.0,), scalar_ok=True),
        meas_error=f.numbers("meas_error", (0.0,), scalar_ok=True),
        swap_decomposition=f.string("swap_decomposition", "three_cnots", ("three_cnots", "single_gate")),
        out=f.string("out", None),
        idle=idle,
    )


def config_to_dict(cfg: SweepConfig) -> dict:
    out = {
        "protocol": cfg.protocol,
        "noise_family": cfg.noise_family,
        "sweep": {"variable": cfg.variable, "values": list(cfg.sweep.values)},
        "asymmetry_p": cfg.asymmetry_p,
        "asymmetry_ratio": cfg.asymmetry_ratio,
        "gate_error": list(cfg.gate_error),
        "meas_error": list(cfg.meas_error),
        "swap_decomposition": cfg.swap_decomposition,
        "out": cfg.out,
    }
    if cfg.idle is not None:
        out["idle"] = {
            "calibration": cfg.idle.calibration,
            "chain": list(cfg.idle.chain),
            **asdict(cfg.idle.model),
        }
    return out


def load_idle_calibration(opts: IdleOptions) -> DeviceCalibration:
    """The idle sweep's calibration; ConfigError naming ``idle.calibration`` when
    it cannot be loaded, or ``idle.chain`` when the chain is not in it."""
    try:
        calib = load_calibration(opts.calibration)
    except CalibrationError as err:
        raise ConfigError(f"idle.calibration: {err}") from None
    try:
        check_chain(calib, opts.chain)
    except CalibrationError as err:
        raise ConfigError(f"idle.chain: {err}") from None
    return calib


def load_config(path: str | Path) -> SweepConfig:
    return config_from_dict(read_json(path, "config", ConfigError))


# ---------------------------------------------------------------------------
# Staged circuits


def _wait_elements(family: str, n_pairs: int, value: float, n_qubits: int) -> list[CircuitElement]:
    if family == "bitflip":
        return [ChannelOp(bit_flip(value, qubit=q)) for q in WAIT_QUBITS[n_pairs]]
    if family == "local_depol":
        return [ChannelOp(depolarizing_local(value, qubit=q)) for q in WAIT_QUBITS[n_pairs]]
    if family == "global_depol":
        return [ChannelOp(GlobalDepolarizingChannel(tuple(range(n_qubits)), value))]
    raise ConfigError(f"noise_family: no waiting channel for {family!r}")


def build_staged_circuit(
    spec: ProtocolSpec,
    family: str,
    asymmetry_p: float,
    wait_value: float,
    swap_decomposition: str = "three_cnots",
) -> list[CircuitElement]:
    """Prep, asymmetry, swap, waiting error, barrier t2, then the protocol's checks.

    The gates are ideal, so the asymmetry and waiting channels are the only
    noise here; :func:`run_staged_point` adds the gate noise.
    """
    wait = _wait_elements(family, spec.n_pairs, wait_value, spec.n_qubits)
    prefix = staged_prefix(spec.n_pairs, swap_decomposition, asymmetry_p)
    return [*prefix, *wait, Barrier("t2"), *spec.circuit]


def _run_prefix(
    spec: ProtocolSpec, asymmetry_p: float, gate_error: float, swap_decomposition: str
) -> tuple[tuple[float, ...], DensityOperator]:
    """The per-pair fidelities at t0 and the state at t1, for every point sharing this prefix."""
    circuit = with_gate_noise(
        staged_prefix(spec.n_pairs, swap_decomposition, asymmetry_p), lambda a, b: gate_error
    )
    snapshots = execute_exact(circuit, ground_state(spec.n_qubits)).snapshots
    at_t0 = snapshots["t0"].matrix
    fids = tuple(
        bell_fidelity_matrix(at_t0, pair, spec.n_qubits) for pair in LOCAL_PAIRS[spec.n_pairs]
    )
    return fids, snapshots["t1"]


def _wait(spec: ProtocolSpec, family: str, wait_value: float, at_t1: DensityOperator) -> np.ndarray:
    """The register state at barrier t2: the waiting error applied to the prefix's t1 state."""
    wait = _wait_elements(family, spec.n_pairs, wait_value, spec.n_qubits)
    return execute_exact(wait, at_t1).matrix


def _scored_row(
    wait_value: float, fids: tuple[float, ...], f_before: float, pulled: np.ndarray, at_t2: np.ndarray
) -> SweepRow:
    """One grid point's row: the pulled-back noisy checks score its t2 state."""
    try:
        f_after, p_accept = score_checks(pulled, at_t2)
    except NothingAcceptedError:
        f_after, p_accept = None, 0.0
    return SweepRow(f_before, f_after, p_accept, sweep_value=wait_value, pair_fidelities=fids)


def run_staged_point(
    spec: ProtocolSpec,
    family: str,
    asymmetry_p: float,
    wait_value: float,
    gate_error: float = 0.0,
    meas_error: float = 0.0,
    swap_decomposition: str = "three_cnots",
) -> SweepRow:
    """One staged grid point with uniform gate error g and readout error m."""
    fids, at_t1 = _run_prefix(spec, asymmetry_p, gate_error, swap_decomposition)
    at_t2 = _wait(spec, family, wait_value, at_t1)
    pulled = pull_back_checks(spec, with_gate_noise(spec.circuit, lambda a, b: gate_error), meas_error)
    return _scored_row(wait_value, fids, max(pair_fidelities(spec, at_t2)), pulled, at_t2)


def _prep_fidelity(asymmetry_p: float, gate_error: float) -> float:
    """Pair (0, 1)'s Bell fidelity at barrier t0 of :func:`device.staged_prefix`.

    Only the pair's own elements reach it: H, CNOT and its gate noise, then
    the asymmetry depolarizing on qubit 0. So it runs as a 2-qubit circuit,
    and with ``asymmetry_p = 0`` it is the fidelity of every undegraded pair.
    """
    circuit = [Gate("H", (0,)), Gate("CNOT", (0, 1))]
    if asymmetry_p > 0:
        circuit.append(ChannelOp(depolarizing_local(asymmetry_p, qubit=0)))
    rho = execute_exact(with_gate_noise(circuit, lambda a, b: gate_error), ground_state(2)).matrix
    return bell_fidelity_matrix(rho, (0, 1), 2)


ASYMMETRY_TOL = 1e-6


def solve_asymmetry(target_ratio: float, gate_error: float = 0.0) -> float:
    """Depolarizing strength making the degraded pairs hit F1 = ratio * F2 at barrier t0.

    Bisection, to within ``ASYMMETRY_TOL``, against the simulated fidelity
    ratio; circuit noise shifts the naive 1 - p = ratio relation, so the
    target is matched on the simulated ratio directly. The asymmetry channel
    touches pair (0, 1) and never pair (2, 3), so each step simulates pair
    (0, 1) alone (:func:`_prep_fidelity`) and divides by the undegraded
    pair's fidelity, computed once. The ratio, and so p, is the same for
    every protocol.
    """
    if not 0.0 < target_ratio <= 1.0:
        raise ConfigError(f"asymmetry_ratio: must be in (0, 1], got {target_ratio}")
    f2 = _prep_fidelity(0.0, gate_error)

    def ratio_at(p: float) -> float:
        return _prep_fidelity(p, gate_error) / f2

    lo, hi = 0.0, 1.0
    if ratio_at(hi) > target_ratio:
        raise ConfigError(f"asymmetry_ratio: {target_ratio} unreachable even at full depolarizing")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < ASYMMETRY_TOL:
            break
        if ratio_at(mid) > target_ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def run_sweep(config: SweepConfig) -> dict[tuple[float, float], list[SweepRow]]:
    """The rows of every (gate error, readout error) setting of the config.

    A staged sweep solves the asymmetry and runs the prefix once per gate
    error, and pulls the noisy checks back once per (gate error, readout
    error). Each swept value then runs only its wait, from the prefix's t1
    state, and every readout error's pulled-back checks score that one t2
    state. An idle sweep takes its noise from the calibration, so it runs
    once and every setting gets the same rows.
    """
    gate_errors = list(dict.fromkeys(config.gate_error))
    meas_errors = list(dict.fromkeys(config.meas_error))
    if config.noise_family == "idle":
        opts = config.idle
        rows = idle_distill_experiment(
            get_protocol(config.protocol),
            opts.chain,
            load_idle_calibration(opts),
            config.sweep.values,
            opts.model,
            config.swap_decomposition,
        )
        return {(g, m): rows for g in gate_errors for m in meas_errors}
    spec = get_protocol(config.protocol)
    results = {}
    for g in gate_errors:
        asym_p = config.asymmetry_p
        if config.asymmetry_ratio is not None:
            asym_p = solve_asymmetry(config.asymmetry_ratio, g)
        fids, at_t1 = _run_prefix(spec, asym_p, g, config.swap_decomposition)
        check = with_gate_noise(spec.circuit, lambda a, b: g)
        pulled = {m: pull_back_checks(spec, check, m) for m in meas_errors}
        rows = {m: [] for m in meas_errors}
        for v in config.sweep.values:
            at_t2 = _wait(spec, config.noise_family, v, at_t1)
            f_before = max(pair_fidelities(spec, at_t2))
            for m in meas_errors:
                rows[m].append(_scored_row(v, fids, f_before, pulled[m], at_t2))
        results.update(((g, m), rows[m]) for m in meas_errors)
    return results


# ---------------------------------------------------------------------------
# CSV output


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def rows_to_csv(rows: Sequence[SweepRow], n_pairs: int, idle: bool = False) -> str:
    """Sweep CSV; the simulate-idle form (``idle``) names the first column delay and has no eps_d."""
    fid_cols = [f"F{i + 1}" for i in range(n_pairs)]
    header = ["delay" if idle else "sweep_value", *fid_cols, "F_b", "F_a", "p_accept", "r"]
    lines = [CSV_HEADER_COMMENT, ",".join(header + ([] if idle else ["eps_d"]))]
    for row in rows:
        cells = [_fmt(row.sweep_value)]
        cells += [_fmt(f) for f in row.pair_fidelities]
        cells += [_fmt(row.f_before), _fmt(row.f_after), _fmt(row.p_accept), _fmt(row.ratio)]
        if not idle:
            cells.append(_fmt(row.err_decrease))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
