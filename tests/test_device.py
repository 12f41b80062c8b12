import math
from pathlib import Path

import numpy as np
import pytest

from distillery import densop, device

from distillery.channels import channel_superoperator, damping_dephasing, gp_from_t1t2
from distillery.circuit import Barrier, ChannelOp, Gate, execute_exact, with_gate_noise
from distillery.densop import (
    DensityOperator,
    bell_fidelity_matrix,
    bell_pairs_on,
    cphase_matrix,
    embed_on_qubits,
    ground_state,
)
from distillery.device import (
    CalibrationError,
    DeviceCalibration,
    EdgeCalibration,
    IdleSpec,
    QubitCalibration,
    _check_stage,
    calibration_to_dict,
    idle_distill_experiment,
    idle_sequence,
    load_calibration,
    mirror_clifford_layers,
    mirror_twirl_experiment,
    save_calibration,
    staged_prefix,
)
from distillery.protocols import SweepRow, build_z2b, build_zx3b, run_checks


def coherent_calib(n, zz_rate):
    return DeviceCalibration(
        qubits=tuple(QubitCalibration(i, 1e12, 1e12, 0.0) for i in range(n)),
        edges=tuple(EdgeCalibration(i, i + 1, zz_rate, 0.0) for i in range(n - 1)),
        meas_delay=0.0,
    )


def test_bundled_z2b_calibration_values():
    calib = load_calibration("kyiv_z2b")
    q0 = calib.qubit(0)
    assert (q0.t1, q0.t2, q0.meas_error) == (257.944, 323.573, 6.5e-3)
    e01 = calib.edge(0, 1)
    assert (e01.zz_rate, e01.gate_error) == (-52860.4, 7.75153e-3)
    assert calib.meas_delay == 1.24


def test_bundled_3bell_calibration_values():
    calib = load_calibration("kyiv_3bell")
    q62 = calib.qubit(62)
    assert (q62.t2, q62.meas_error) == (25.5405, 23.6e-3)
    assert calib.edge(59, 60).zz_rate == -127831


def test_calibration_round_trip(tmp_path):
    calib = load_calibration("kyiv_x2b")
    out = tmp_path / "copy.json"
    save_calibration(calib, out)
    again = load_calibration(out)
    assert calibration_to_dict(again) == calibration_to_dict(calib)


def test_calibration_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"qubits": [{"id": 0, "T1": 100.0, "T2": 300.0, "meas_error": 0.0}], "edges": [], "meas_delay": 0}')
    with pytest.raises(CalibrationError, match="T2"):
        load_calibration(bad)
    bad.write_text('{"qubits": [{"id": 0, "T1": 100.0, "meas_error": 0.0}], "edges": [], "meas_delay": 0}')
    with pytest.raises(CalibrationError, match="T2"):
        load_calibration(bad)
    bad.write_text('{"qubits": [], "edges": [{"q1": 0, "q2": 1, "zz_rate": 0, "gate_error": 0}], "meas_delay": 0}')
    with pytest.raises(CalibrationError, match="edge"):
        load_calibration(bad)
    two = '[{"id": 0, "T1": 100.0, "T2": 100.0, "meas_error": 0.0}, {"id": 1, "T1": 100.0, "T2": 100.0, "meas_error": 0.0}]'
    bad.write_text(f'{{"qubits": {two}, "edges": [{{"q1": 0, "q2": 1, "zz_rate": NaN, "gate_error": 0}}], "meas_delay": 0}}')
    with pytest.raises(CalibrationError, match="zz_rate"):
        load_calibration(bad)
    bad.write_text(f'{{"qubits": {two}, "edges": [], "meas_delay": NaN}}')
    with pytest.raises(CalibrationError, match="meas_delay"):
        load_calibration(bad)


def test_idle_sequence_empty_at_zero_duration():
    calib = coherent_calib(2, -50000.0)
    spec = IdleSpec(n_segments=16, dd_mode="none", zz_enabled=False)
    assert idle_sequence([0, 1], 0.0, spec, calib) == []


def test_idle_sequence_rejects_a_negative_duration():
    with pytest.raises(ValueError, match="duration"):
        idle_sequence([0, 1], -1.0, IdleSpec(), coherent_calib(2, -50000.0))
    with pytest.raises(ValueError, match="duration"):
        idle_sequence([0, 1], math.nan, IdleSpec(), coherent_calib(2, -50000.0))


def test_idle_sequence_single_qubit_single_segment():
    calib = DeviceCalibration(
        qubits=(QubitCalibration(0, 100.0, 100.0, 0.0),), edges=(), meas_delay=0.0
    )
    spec = IdleSpec(n_segments=1, dd_mode="none", zz_enabled=False)
    seq = idle_sequence([0], 100.0, spec, calib)
    assert len(seq) == 1 and isinstance(seq[0], ChannelOp)
    expected = damping_dephasing(gp_from_t1t2(100.0, 100.0, 100.0))
    np.testing.assert_allclose(
        channel_superoperator(seq[0].channel), channel_superoperator(expected), atol=1e-12
    )


def test_segment_splitting_is_invisible_without_zz():
    """n and 2n segments compose to the same damping-dephasing map."""
    calib = DeviceCalibration(
        qubits=(QubitCalibration(0, 180.0, 90.0, 0.0),), edges=(), meas_delay=0.0
    )
    supers = []
    for n_seg in (8, 16):
        spec = IdleSpec(n_segments=n_seg, dd_mode="none", zz_enabled=False)
        seq = idle_sequence([0], 120.0, spec, calib)
        total = np.eye(4, dtype=complex)
        for el in seq:
            total = channel_superoperator(el.channel) @ total
        supers.append(total)
    np.testing.assert_allclose(supers[0], supers[1], atol=1e-10)


def test_pure_zz_with_staggered_echo_cancels_exactly():
    calib = coherent_calib(4, -47000.0)
    init = DensityOperator(4, bell_pairs_on([(0, 2), (1, 3)], 4))
    for duration in (3.0, 41.7, 100.0):
        for n_seg in (4, 16, 32):
            spec = IdleSpec(n_seg, "staggered", zz_enabled=True, perfect_coherence=True)
            seq = idle_sequence([0, 1, 2, 3], duration, spec, calib)
            out = execute_exact(seq, init).unconditional_state()
            assert np.max(np.abs(out.matrix - init.matrix)) < 1e-8


def test_pure_zz_without_echo_matches_brute_force():
    rate = -50000.0
    duration = 13.7
    calib = coherent_calib(2, rate)
    init = DensityOperator(2, bell_pairs_on([(0, 1)], 2))
    spec = IdleSpec(n_segments=16, dd_mode="none", zz_enabled=True, perfect_coherence=True)
    seq = idle_sequence([0, 1], duration, spec, calib)
    out = execute_exact(seq, init).unconditional_state()
    theta = 2 * math.pi * rate * duration * 1e-6
    u = cphase_matrix(theta)
    expected = u @ init.matrix @ u.conj().T
    assert np.max(np.abs(out.matrix - expected)) < 1e-8


def test_staggered_mode_requires_quarterable_segments():
    with pytest.raises(ValueError, match="^n_segments: "):
        IdleSpec(n_segments=6, dd_mode="staggered")


def test_load_calibration_resolves_a_bundled_name():
    calib = load_calibration("kyiv_z2b")
    bundled = Path(device.__file__).parent / "calibrations" / "kyiv_z2b.json"
    assert calibration_to_dict(calib) == calibration_to_dict(load_calibration(bundled))


def test_load_calibration_lists_bundled_names_for_an_unknown_one():
    with pytest.raises(CalibrationError, match="'nope'.*kyiv_3bell.*kyiv_x2b.*kyiv_z2b"):
        load_calibration("nope")


def test_idle_experiment_perfect_device_at_zero_delay():
    calib = DeviceCalibration(
        qubits=tuple(QubitCalibration(i, 1e9, 2e9, 0.0) for i in range(4)),
        edges=tuple(EdgeCalibration(i, i + 1, -50000.0, 0.0) for i in range(3)),
        meas_delay=0.0,
    )
    rows = idle_distill_experiment(
        build_z2b(), [0, 1, 2, 3], calib, [0.0],
        IdleSpec(n_segments=16, dd_mode="staggered", zz_enabled=True),
    )
    assert rows[0].f_after == pytest.approx(1.0, abs=1e-10)
    assert rows[0].p_accept == pytest.approx(1.0, abs=1e-10)


def test_idle_experiment_fidelities_decay_with_delay():
    calib = load_calibration("kyiv_z2b")
    rows = idle_distill_experiment(
        build_z2b(), [0, 1, 2, 3], calib, [0.0, 50.0, 100.0, 200.0],
        IdleSpec(n_segments=16, dd_mode="staggered", zz_enabled=True),
    )
    f1 = [r.pair_fidelities[0] for r in rows]
    f2 = [r.pair_fidelities[1] for r in rows]
    assert all(b < a for a, b in zip(f1, f1[1:]))
    assert all(b < a for a, b in zip(f2, f2[1:]))


def test_idle_experiment_scores_each_pair_once_per_delay(monkeypatch):
    spec = build_zx3b()
    traced, pull_backs = [], []
    partial_trace_matrix = densop.partial_trace_matrix
    monkeypatch.setattr(
        densop, "partial_trace_matrix", lambda *a: traced.append(a[1]) or partial_trace_matrix(*a)
    )
    pull_back_checks = device.pull_back_checks
    monkeypatch.setattr(
        device, "pull_back_checks", lambda *a: pull_backs.append(a) or pull_back_checks(*a)
    )
    idle_distill_experiment(
        spec, [3, 4, 5, 6, 7, 8], load_calibration("kyiv_3bell"), [0.0, 50.0], IdleSpec()
    )
    # per delay: each pair for the row and F_b; F_a comes from the pulled-back
    # checks, which are built once per run
    assert traced == 2 * [*map(list, spec.pairs)]
    assert len(pull_backs) == 1


def test_zz_without_echo_degrades_fidelity_far_below_echoed():
    calib = load_calibration("kyiv_z2b")
    delay = [8.0]
    spec = build_z2b()
    with_dd = idle_distill_experiment(
        spec, [0, 1, 2, 3], calib, delay,
        IdleSpec(n_segments=16, dd_mode="staggered", zz_enabled=True),
    )[0]
    without = idle_distill_experiment(
        spec, [0, 1, 2, 3], calib, delay,
        IdleSpec(n_segments=16, dd_mode="none", zz_enabled=True),
    )[0]
    assert without.f_before < with_dd.f_before - 0.15


@pytest.mark.parametrize(
    "spec, calibration, chain",
    [(build_z2b(), "kyiv_z2b", [0, 1, 2, 3]), (build_zx3b(), "kyiv_3bell", [3, 4, 5, 6, 7, 8])],
)
def test_idle_experiment_from_shared_prefix_equals_unsplit_delays(spec, calibration, chain):
    calib = load_calibration(calibration)
    idle = IdleSpec(n_segments=16, dd_mode="staggered", zz_enabled=True)
    delays = [0.0, 40.0, 120.0]
    rows = idle_distill_experiment(spec, chain, calib, delays, idle)

    edge_err = lambda a, b: calib.edge(chain[a], chain[b]).gate_error
    prefix = with_gate_noise(staged_prefix(spec.n_pairs, "three_cnots"), edge_err)
    damping = []
    for pos in spec.kept_pair:
        q = calib.qubit(chain[pos])
        damping.append(ChannelOp(damping_dephasing(gp_from_t1t2(calib.meas_delay, q.t1, q.t2), qubit=pos)))
    check = _check_stage(spec, lambda pos: calib.qubit(chain[pos]).meas_error, damping)
    for delay, row in zip(delays, rows, strict=True):
        # each delay as one whole circuit from the ground state, sharing nothing
        circuit = (
            prefix
            + idle_sequence(chain, delay, IdleSpec(16, "staggered", True), calib)
            + [Barrier("t2")]
            + with_gate_noise(check, edge_err)
        )
        result = execute_exact(circuit, ground_state(spec.n_qubits))
        at_t2 = result.snapshots["t2"].matrix
        fids = tuple(bell_fidelity_matrix(at_t2, pair, spec.n_qubits) for pair in spec.pairs)
        f_after, p_accept = run_checks(spec, at_t2, with_gate_noise(check, edge_err))
        assert row == SweepRow(delay, fids, max(fids), f_after, p_accept)


def test_chain_length_must_match_protocol():
    calib = load_calibration("kyiv_z2b")
    with pytest.raises(ValueError):
        idle_distill_experiment(
            build_zx3b(), [0, 1, 2, 3], calib, [0.0],
            IdleSpec(n_segments=16),
        )


def test_mirror_layers_compose_to_identity():
    for seed in range(20):
        for k in (0, 3, 10):
            layers = mirror_clifford_layers(k, seed)
            if k == 0:
                assert layers == []
                continue
            u = np.eye(16, dtype=complex)
            for g in layers:
                u = embed_on_qubits(g.matrix(), g.targets, 4) @ u
            phase = u[0, 0]
            assert abs(abs(phase) - 1) < 1e-10
            assert np.max(np.abs(u / phase - np.eye(16))) < 1e-10


def test_mirror_layers_deterministic_given_seed():
    a = mirror_clifford_layers(4, 123)
    b = mirror_clifford_layers(4, 123)
    assert a == b
    assert a != mirror_clifford_layers(4, 124)


def _mirror_layers_built_per_layer(k, seed):
    """The construction that builds fresh gates for every layer and every mirrored gate."""
    rng = np.random.default_rng(seed)
    first = []
    for _ in range(k):
        for a, b in device.MIRROR_PAIRS:
            gens = (
                Gate("H", (a,)), Gate("H", (b,)), Gate("S", (a,)), Gate("S", (b,)),
                Gate("CNOT", (a, b)), Gate("CNOT", (b, a)),
            )
            picks = rng.integers(0, len(gens), size=20)
            first.extend(gens[i] for i in picks)
    inverse_name = {"H": "H", "S": "Sdg", "CNOT": "CNOT"}
    return first + [Gate(inverse_name[g.name], g.targets) for g in reversed(first)]


def test_mirror_layers_keep_the_per_layer_sequence():
    for seed in (0, 7, 2024):
        for k in (0, 1, 3, 12):
            assert mirror_clifford_layers(k, seed) == _mirror_layers_built_per_layer(k, seed)
    # a Generator is drawn from in the same order as a seed
    rng = np.random.default_rng(np.random.SeedSequence([3, 12, 0]))
    want = _mirror_layers_built_per_layer(12, np.random.SeedSequence([3, 12, 0]))
    assert mirror_clifford_layers(12, rng) == want


def test_twirl_points_track_global_depolarizing_theory():
    from distillery.analytic import global_depol_distill

    points = mirror_twirl_experiment(build_z2b(), [0, 2, 4], n_seeds=25, gate_error=0.004, base_seed=7)
    assert points[0].f_before == pytest.approx(1.0, abs=1e-10)
    assert points[0].ratio == pytest.approx(1.0, abs=1e-10)
    lams = []
    for pt in points:
        lam = 4 * (1 - pt.f_before) / 3
        lams.append(lam)
        theory = global_depol_distill("z2b", lam)
        assert pt.ratio == pytest.approx(theory.ratio, abs=0.03)
        assert pt.p_accept == pytest.approx(theory.p_accept, abs=0.03)
    # the fitted depolarizing strength grows with the layer count
    assert all(b > a for a, b in zip(lams, lams[1:]))
