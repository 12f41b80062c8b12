"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Tolerances are fixed here, not configurable.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from distillery import cli
from distillery.analytic import (
    RegionGrid,
    enumerate_protocol,
    global_depol_distill,
    improvement_region,
    recurrence_bitflip,
    z2b_local_depol,
    zx3b_local_depol,
)
from distillery.channels import (
    DampingDephasingParams,
    apply_channel,
    bit_flip,
    channel_superoperator,
    damping_dephasing,
    depolarizing_global,
    depolarizing_local,
    gp_from_t1t2,
)
from distillery.circuit import execute_exact
from distillery.densop import (
    DensityOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bell_fidelity_matrix,
    bell_pairs_on,
    bell_state,
)
from distillery.device import (
    DeviceCalibration,
    EdgeCalibration,
    IdleSpec,
    MIRROR_PAIRS,
    QubitCalibration,
    idle_sequence,
    mirror_clifford_layers,
    mirror_twirl_experiment,
)
from distillery.densop import embed_on_qubits
from distillery.estimation import direct_fidelity_exact, estimate_fidelity
from distillery.protocols import build_z2b, build_zx3b, get_protocol, run_protocol
from distillery.sweep import run_staged_point
from expected_tables import THREE_PAIR_TABLE, TWO_PAIR_TABLE

GOLDEN_DIR = Path(__file__).parent / "goldens"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_closed_form_agreement():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        # two-pair check under bit flips
        p, q = rng.uniform(0, 0.5, size=2)
        spec = build_z2b()
        out = run_protocol(spec, [bit_flip(p, 2), bit_flip(q, 3)])
        ref = recurrence_bitflip(p, q)
        worst = max(worst, abs(out.p_accept - ref.p_accept), abs(out.f_after - ref.f_after))
        # two-pair check under local depolarizing
        p, q = rng.uniform(0, 1, size=2)
        out = run_protocol(spec, [depolarizing_local(p, 2), depolarizing_local(q, 3)])
        ref = z2b_local_depol(p, q)
        worst = max(worst, abs(out.p_accept - ref.p_accept), abs(out.f_after - ref.f_after))
        # three-pair check under local depolarizing (pairs one and three share p)
        p, q = rng.uniform(0, 1, size=2)
        spec3 = build_zx3b()
        noise = [depolarizing_local(p, 3), depolarizing_local(q, 4), depolarizing_local(p, 5)]
        out = run_protocol(spec3, noise)
        ref = zx3b_local_depol(p, q)
        worst = max(worst, abs(out.p_accept - ref.p_accept), abs(out.f_after - ref.f_after))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(1, ok, f"closed-form agreement over 200 draws: worst |delta| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_accepted_error_tables():
    two = {(r.error_label, r.monomial, r.residual_label) for r in enumerate_protocol("z2b").rows}
    three = {(r.error_label, r.monomial, r.residual_label) for r in enumerate_protocol("zx3b").rows}
    ok = two == TWO_PAIR_TABLE and three == THREE_PAIR_TABLE
    report(2, ok, f"accepted-error tables: {len(two)} two-pair rows, {len(three)} three-pair rows")


def test_criterion_03_global_depolarizing_improvement():
    worst = 0.0
    min_r = math.inf
    for name in ("z2b", "zx3b"):
        spec = get_protocol(name)
        for lam in np.arange(0.01, 1.0, 0.01):
            out = run_protocol(spec, [depolarizing_global(float(lam), spec.n_qubits)])
            ref = global_depol_distill(name, float(lam))
            worst = max(worst, abs(out.p_accept - ref.p_accept), abs(out.f_after - ref.f_after))
            min_r = min(min_r, out.ratio)
    ok = min_r > 1.0 and worst <= 1e-12
    report(3, ok, f"global depolarizing: min r = {min_r:.6f}, worst formula |delta| = {worst:.2e}")


def test_criterion_04_bitflip_strict_improvement():
    grid = [i / 100 for i in range(1, 50)]
    min_gain = math.inf
    for p in grid:
        for q in grid:
            if p > q:
                continue
            res = recurrence_bitflip(p, q)
            min_gain = min(min_gain, res.f_after - res.f_before)
    ok = min_gain > 0.0
    report(4, ok, f"bit-flip strict improvement on 0 < p <= q < 1/2: min gain = {min_gain:.3e}")


def test_criterion_05_improvement_region_fractions():
    grid = RegionGrid()  # documented default: 150 half-offset steps over (0, 0.5)
    frac2 = improvement_region("z2b", "local_depol", grid)
    frac3 = improvement_region("zx3b", "local_depol", grid)
    ratio = frac3 / frac2
    ok = abs(frac2 - 0.19) <= 0.05 and abs(ratio - 3.0) <= 0.6
    report(5, ok, f"improvement regions: two-pair fraction {frac2:.4f}, ratio {ratio:.3f}")


def test_criterion_06_circuit_noise_curves():
    t0 = time.monotonic()
    spec2, spec3 = get_protocol("z2b"), get_protocol("zx3b")
    # (a) shape of the fractional-change curve at g = m = 0.01
    rows = [
        run_staged_point(spec2, "local_depol", 0.0, float(q), gate_error=0.01, meas_error=0.01)
        for q in np.linspace(0.0, 0.75, 50)
    ]
    rs = [row.ratio for row in rows]
    i_max = int(np.argmax(rs))
    shape_ok = (
        max(rs) > 1.0
        and 0 < i_max < len(rs) - 1
        and min(rs) < 1.0
        and abs(rows[-1].f_before - 0.25) < 1e-9
        and abs(rs[-1] - 1.0) < 1e-9
    )
    # (b) error-decrease bands over the high-fidelity window
    bands = {}
    for spec, label in ((spec2, "z2b"), (spec3, "zx3b")):
        values = []
        for g in (5e-3, 1e-2):
            for m in (1e-2, 5e-2):
                for q in np.linspace(0.0, 0.12, 13):
                    row = run_staged_point(spec, "local_depol", 0.0, float(q), g, m)
                    if row.f_before > 0.9 and row.err_decrease is not None:
                        values.append(row.err_decrease)
        bands[label] = (min(values), max(values))
    z_lo, z_hi = bands["z2b"]
    x_lo, x_hi = bands["zx3b"]
    z_ok = 8.0 <= z_lo and z_hi <= 25.0
    x_ok = 30.0 <= x_lo and x_hi <= 55.0
    elapsed = time.monotonic() - t0
    ok = shape_ok and z_ok and x_ok and elapsed < 120.0
    report(
        6,
        ok,
        "circuit noise: "
        f"r-curve shape {'ok' if shape_ok else 'BAD'}; "
        f"two-pair eps_d [{z_lo:.1f}, {z_hi:.1f}] vs [8, 25] {'ok' if z_ok else 'BAD'}; "
        f"three-pair eps_d [{x_lo:.1f}, {x_hi:.1f}] vs [30, 55] {'ok' if x_ok else 'BAD'}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_07_damping_dephasing_channel():
    rng = np.random.default_rng(7)
    worst_complete = 0.0
    worst_bloch = 0.0
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    cardinal = [(s * v[0], s * v[1], s * v[2]) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for s in (1, -1)]
    for _ in range(100):
        g, p = rng.uniform(0, 1), rng.uniform(0, 0.5)
        ch = damping_dephasing(DampingDephasingParams(g, p))
        total = sum(k.conj().T @ k for k in ch.kraus_ops)
        worst_complete = max(worst_complete, float(np.max(np.abs(total - np.eye(2)))))
        shrink = (1 - 2 * p) * math.sqrt(1 - g)
        for v in cardinal:
            mat = 0.5 * (np.eye(2) + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
            out = apply_channel(DensityOperator(1, mat), ch)
            got = [float(np.real(np.trace(pm @ out.matrix))) for pm in paulis]
            want = (shrink * v[0], shrink * v[1], (1 - g) * v[2] + g)
            worst_bloch = max(worst_bloch, max(abs(a - b) for a, b in zip(got, want)))
    # semigroup property: n and 2n segments of the same window are identical
    worst_split = 0.0
    for t1, t2, dur in ((180.0, 90.0, 120.0), (50.0, 100.0, 7.0), (300.0, 550.0, 95.0)):
        supers = []
        for n_seg in (16, 32):
            dt = dur / n_seg
            step = channel_superoperator(damping_dephasing(gp_from_t1t2(dt, t1, t2)))
            supers.append(np.linalg.matrix_power(step, n_seg))
        worst_split = max(worst_split, float(np.max(np.abs(supers[0] - supers[1]))))
    ok = worst_complete <= 1e-10 and worst_bloch <= 1e-10 and worst_split <= 1e-10
    report(
        7,
        ok,
        f"damping-dephasing: completeness {worst_complete:.1e}, Bloch map {worst_bloch:.1e}, "
        f"segment splitting {worst_split:.1e}",
    )


def _coherent_chain(n, rate):
    return DeviceCalibration(
        qubits=tuple(QubitCalibration(i, 1e12, 1e12, 0.0) for i in range(n)),
        edges=tuple(EdgeCalibration(i, i + 1, rate, 0.0) for i in range(n - 1)),
        meas_delay=0.0,
    )


def test_criterion_08_echo_cancellation():
    calib = _coherent_chain(4, -52860.4)
    init = DensityOperator(4, bell_pairs_on([(0, 2), (1, 3)], 4))
    worst = 0.0
    spec = IdleSpec(n_segments=16, dd_mode="staggered", zz_enabled=True, perfect_coherence=True)
    for dt in range(1, 101):
        seq = idle_sequence([0, 1, 2, 3], float(dt), spec, calib)
        out = execute_exact(seq, init).unconditional_state()
        for pair in ((0, 2), (1, 3)):
            worst = max(worst, abs(1.0 - bell_fidelity_matrix(out.matrix, pair, 4)))
    # without the echo, a total ZZ angle of pi drives the pair fidelity to the
    # exact unitary value cos^2(theta/2) = 0
    rate = -50000.0
    duration = 0.5e6 / abs(rate)  # 2*pi*|rate|*duration*1e-6 = pi
    calib2 = _coherent_chain(2, rate)
    phi = DensityOperator(2, bell_pairs_on([(0, 1)], 2))
    spec = IdleSpec(n_segments=16, dd_mode="none", zz_enabled=True, perfect_coherence=True)
    seq = idle_sequence([0, 1], duration, spec, calib2)
    out = execute_exact(seq, phi).unconditional_state()
    coherent_dev = abs(bell_fidelity_matrix(out.matrix, (0, 1), 2) - 0.0)
    ok = worst <= 1e-8 and coherent_dev <= 1e-8
    report(
        8,
        ok,
        f"staggered echo: worst |1 - F| = {worst:.1e} over 100 windows; "
        f"pi-angle coherent error off-echo |F - 0| = {coherent_dev:.1e}",
    )


def test_criterion_09_mirror_twirling():
    # noiseless mirror circuits are the identity: each pair's gates multiply
    # as 4x4 matrices, and the register unitary is the kron of the two products
    assert [q for pair in MIRROR_PAIRS for q in pair] == [0, 1, 2, 3]
    pair_of = {q: pair for pair in MIRROR_PAIRS for q in pair}
    on_pair = {}  # (name, targets) -> the gate's 4x4 matrix on its pair
    worst_identity = 0.0
    for seed in range(20):
        for k in (1, 5, 10):
            pair_u = {pair: np.eye(4, dtype=complex) for pair in MIRROR_PAIRS}
            for g in mirror_clifford_layers(k, seed):
                pair = pair_of[g.targets[0]]
                if (g.name, g.targets) not in on_pair:
                    local = [pair.index(q) for q in g.targets]
                    on_pair[g.name, g.targets] = embed_on_qubits(g.matrix(), local, 2)
                pair_u[pair] = on_pair[g.name, g.targets] @ pair_u[pair]
            u = np.kron(*pair_u.values())
            phase = u[0, 0]
            worst_identity = max(worst_identity, float(np.max(np.abs(u / phase - np.eye(16)))))
    # with gate noise, seed-averaged points track the perfect-distillation theory
    points = mirror_twirl_experiment(
        build_z2b(), k_values=(0, 2, 4, 6, 8, 10, 12), n_seeds=200, gate_error=0.004, base_seed=3
    )
    worst_r = 0.0
    for pt in points:
        lam = 4 * (1 - pt.f_before) / 3
        theory = global_depol_distill("z2b", lam)
        worst_r = max(worst_r, abs(pt.ratio - theory.ratio))
    ok = worst_identity <= 1e-10 and worst_r <= 0.03
    report(
        9,
        ok,
        f"mirror twirl: identity deviation {worst_identity:.1e}; worst |r - theory| = {worst_r:.4f} "
        f"over k = 0..12 (200 seeds)",
    )


def test_criterion_10_estimator_statistics():
    rho = apply_channel(bell_state(1), depolarizing_local(0.3, qubit=1))
    exact = direct_fidelity_exact(rho, (0, 1))
    hits = 0
    for seed in range(300):
        est = estimate_fidelity(rho, (0, 1), shots=100_000, seed=seed)
        if abs(est.value - exact) <= 3 * est.std_error:
            hits += 1
    ok = hits >= 297  # 99% of 300
    report(10, ok, f"estimator coverage: {hits}/300 within 3 standard errors")


GOLDEN_RUNS = [
    (
        "idle_z2b_kyiv.csv",
        ["simulate-idle", "--calibration", "kyiv_z2b", "--protocol", "z2b",
         "--chain", "0,1,2,3", "--delays", "0:200:25"],
    ),
    (
        "idle_x2b_kyiv.csv",
        ["simulate-idle", "--calibration", "kyiv_x2b", "--protocol", "x2b",
         "--chain", "0,1,2,3", "--delays", "0:200:25"],
    ),
    (
        "idle_zx3b_kyiv.csv",
        ["simulate-idle", "--calibration", "kyiv_3bell", "--protocol", "zx3b",
         "--chain", "3,4,5,6,7,8", "--delays", "0:200:50"],
    ),
]


def test_criterion_11_golden_idle_regressions(tmp_path):
    mismatches = []
    for name, argv in GOLDEN_RUNS:
        out = tmp_path / name
        rc = cli.main(argv + ["--out", str(out)])
        assert rc == 0
        if out.read_bytes() != (GOLDEN_DIR / name).read_bytes():
            mismatches.append(name)
    ok = not mismatches
    report(11, ok, f"golden idle regressions byte-identical: {[n for n, _ in GOLDEN_RUNS]}"
           + (f"; MISMATCH {mismatches}" if mismatches else ""))
