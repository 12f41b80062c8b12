import json
import math
from pathlib import Path

import pytest

from distillery import cli, device, sweep
from distillery.analytic import global_depol_distill, z2b_local_depol
from distillery.circuit import Barrier, NothingAcceptedError, execute_exact, postselect, with_gate_noise
from distillery.densop import bell_fidelity_matrix, ground_state
from distillery.device import IdleSpec, staged_prefix
from distillery.protocols import SweepRow, distill, get_protocol
from distillery.sweep import (
    ASYMMETRY_TOL,
    CSV_HEADER_COMMENT,
    LOCAL_PAIRS,
    ConfigError,
    SweepGrid,
    build_staged_circuit,
    config_from_dict,
    config_to_dict,
    load_config,
    rows_to_csv,
    run_sweep,
    solve_asymmetry,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def minimal_config(**overrides):
    data = {
        "protocol": "z2b",
        "noise_family": "local_depol",
        "sweep": {"variable": "q", "start": 0.0, "stop": 0.75, "num": 5},
    }
    data.update(overrides)
    return data


def test_config_requires_core_fields():
    with pytest.raises(ConfigError, match="protocol"):
        config_from_dict({"noise_family": "bitflip", "sweep": {"values": [0.1]}})
    with pytest.raises(ConfigError, match="noise_family"):
        config_from_dict(minimal_config(noise_family="idc"))
    with pytest.raises(ConfigError, match="sweep"):
        config_from_dict(minimal_config(sweep={"start": 0.0, "stop": 1.0}))


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="gate_error"):
        config_from_dict(minimal_config(gate_error=1.5))
    with pytest.raises(ConfigError, match="bit-flip"):
        config_from_dict(
            minimal_config(noise_family="bitflip", sweep={"values": [0.2, 0.8]})
        )
    with pytest.raises(ConfigError, match="monotone"):
        SweepGrid((0.3, 0.1))
    with pytest.raises(ConfigError, match="variable"):
        config_from_dict(minimal_config(sweep={"variable": "lam", "values": [0.1]}))
    with pytest.raises(ConfigError, match="idle"):
        config_from_dict(
            minimal_config(noise_family="idle", sweep={"variable": "delay", "values": [0.0]})
        )
    with pytest.raises(ConfigError, match="sweep.values"):
        config_from_dict(minimal_config(sweep={"values": [0.5, 1.5]}))
    with pytest.raises(ConfigError, match="sweep.values"):
        config_from_dict(
            minimal_config(noise_family="global_depol", sweep={"variable": "lam", "values": [1.5]})
        )
    with pytest.raises(ConfigError, match="sweep.values"):
        config_from_dict(
            minimal_config(noise_family="bitflip", sweep={"values": [0.1, float("nan")]})
        )
    with pytest.raises(ConfigError, match="sweep.values"):
        config_from_dict(
            minimal_config(
                noise_family="idle",
                sweep={"variable": "delay", "values": [-10.0, 0.0]},
                idle={"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3]},
            )
        )


IDLE_SWEEP = {"noise_family": "idle", "sweep": {"variable": "delay", "values": [0.0]}}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"sweep": {"values": 0.1}}, "sweep.values"),
        ({"sweep": {"values": "ab"}}, "sweep.values"),
        ({"sweep": {"start": 0.0, "stop": 0.5, "num": "x"}}, "sweep.num"),
        ({**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": 5}}, "idle.chain"),
        ({**IDLE_SWEEP, "idle": [1]}, "idle"),
        ({"protocol": 3}, "protocol"),
        ({"asymmetry_p": "x"}, "asymmetry_p"),
        ({"gate_error": ["a"]}, "gate_error"),
        (
            {**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], "zz_enabled": "false"}},
            "idle.zz_enabled",
        ),
        (
            {**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], "perfect_coherence": 1}},
            "idle.perfect_coherence",
        ),
        (
            {**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], "dd_mode": "bogus"}},
            "idle.dd_mode",
        ),
        (
            {**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], "n_segments": 0}},
            "idle.n_segments",
        ),
        (
            {**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], "n_segments": 6}},
            "idle.n_segments",
        ),
        ({**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2]}}, "idle.chain"),
        (
            {**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], "n_segments": 8.9}},
            "idle.n_segments",
        ),
        ({"sweep": {"start": 0.0, "stop": 0.5, "num": 2.7}}, "sweep.num"),
        ({**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1.5, 2, 3]}}, "idle.chain"),
        ({"gate_error": []}, "gate_error"),
        ({"meas_error": []}, "meas_error"),
        ({"sweep": {"start": 0.0, "stop": 0.5, "num": float("inf")}}, "sweep.num"),
        ({"sweep": {"start": 0.0, "stop": 0.5, "num": True}}, "sweep.num"),
        ({"gate_error": True}, "gate_error"),
        ({**IDLE_SWEEP, "idle": {"calibration": "nope", "chain": [0, 1, 2, 3]}}, "idle.calibration"),
        ({**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 2, 99]}}, "idle.chain"),
        ({**IDLE_SWEEP, "idle": {"calibration": "kyiv_z2b", "chain": [0, 1, 3, 2]}}, "idle.chain"),
    ],
)
@pytest.mark.parametrize("command", ["validate-config", "sweep"])
def test_malformed_config_exits_2_naming_the_field(tmp_path, capsys, command, overrides, field):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config(**overrides)))
    assert cli.main([command, "--config", str(config)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err


def test_shipped_configs_all_validate():
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(path)
        assert cfg.sweep.values


def test_noiseless_sweep_matches_closed_form_per_row():
    cfg = config_from_dict(
        minimal_config(sweep={"variable": "q", "start": 0.0, "stop": 0.75, "num": 16})
    )
    rows = run_sweep(cfg)[0.0, 0.0]
    for row in rows:
        ref = z2b_local_depol(row.sweep_value, row.sweep_value)
        assert abs(row.p_accept - ref.p_accept) <= 1e-10
        assert abs(row.f_after - ref.f_after) <= 1e-10
        assert abs(row.f_before - ref.f_before) <= 1e-10


def test_noiseless_global_sweep_matches_closed_form():
    cfg = config_from_dict(
        minimal_config(
            noise_family="global_depol",
            sweep={"variable": "lam", "start": 0.0, "stop": 1.0, "num": 11},
        )
    )
    rows = run_sweep(cfg)[0.0, 0.0]
    for row in rows:
        ref = global_depol_distill("z2b", row.sweep_value)
        assert abs(row.p_accept - ref.p_accept) <= 1e-10
        if row.f_after is not None:
            assert abs(row.f_after - ref.f_after) <= 1e-10


def test_rows_satisfy_ratio_and_error_decrease_identities():
    cfg = config_from_dict(minimal_config(gate_error=0.02, meas_error=0.03))
    rows = run_sweep(cfg)[0.02, 0.03]
    for row in rows:
        assert row.ratio == pytest.approx(row.f_after / row.f_before, abs=1e-9)
        if row.f_before < 1.0:
            expected = 100 * (row.f_after - row.f_before) / (1 - row.f_before)
            assert row.err_decrease == pytest.approx(expected, abs=1e-9)


def test_csv_shape_and_determinism():
    cfg = config_from_dict(minimal_config(gate_error=0.01, meas_error=0.01))
    rows = run_sweep(cfg)[0.01, 0.01]
    text1 = rows_to_csv(rows, 2)
    text2 = rows_to_csv(run_sweep(cfg)[0.01, 0.01], 2)
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == CSV_HEADER_COMMENT
    assert lines[1] == "sweep_value,F1,F2,F_b,F_a,p_accept,r,eps_d"
    assert len(lines) == 2 + len(cfg.sweep.values)


def unsplit_rows(spec, family, asymmetry_p, values, g, m, decomposition, forward_checks=False):
    """Each point as one whole circuit from the ground state, sharing nothing.

    The public distill scores its t2 snapshot, or with ``forward_checks``
    the run's own check stage is post-selected.
    """
    check = with_gate_noise(spec.circuit, lambda a, b: g)
    rows = []
    for v in values:
        circuit = build_staged_circuit(spec, family, asymmetry_p, v, decomposition)
        result = execute_exact(with_gate_noise(circuit, lambda a, b: g), ground_state(spec.n_qubits), m)
        at_t0, at_t2 = result.snapshots["t0"].matrix, result.snapshots["t2"].matrix
        n = spec.n_qubits
        fids = tuple(bell_fidelity_matrix(at_t0, pair, n) for pair in LOCAL_PAIRS[spec.n_pairs])
        f_before = max(bell_fidelity_matrix(at_t2, pair, n) for pair in spec.pairs)
        try:
            if forward_checks:
                p_accept, kept = postselect(result, spec.accepts)
                f_after = bell_fidelity_matrix(kept.matrix, spec.kept_pair, n)
            else:
                out = distill(spec, at_t2, check, m)
                f_after, p_accept = out.f_after, out.p_accept
        except NothingAcceptedError:
            f_after, p_accept = None, 0.0
        rows.append(SweepRow(f_before, f_after, p_accept, sweep_value=v, pair_fidelities=fids))
    return rows


SPLIT_CONFIG = minimal_config(
    asymmetry_ratio=0.975,
    sweep={"variable": "q", "values": [0.0, 0.1, 0.3]},
    gate_error=[0.005, 0.02],
    meas_error=[0.0, 0.03],
)


@pytest.mark.parametrize("decomposition", ["three_cnots", "single_gate"])
def test_sweep_from_shared_prefix_equals_unsplit_points(tmp_path, decomposition):
    raw = {**SPLIT_CONFIG, "swap_decomposition": decomposition, "out": str(tmp_path / "rows.csv")}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    cfg = config_from_dict(raw)
    spec = get_protocol("z2b")
    rows = run_sweep(cfg)
    for g in cfg.gate_error:
        asym_p = solve_asymmetry(0.975, g)
        for m in cfg.meas_error:
            reference = unsplit_rows(spec, "local_depol", asym_p, cfg.sweep.values, g, m, decomposition)
            assert rows[g, m] == reference
            text = (tmp_path / f"rows_g{g:g}_m{m:g}.csv").read_text()
            assert text == rows_to_csv(reference, 2)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_config_rows_equal_whole_circuit_forward_runs(path):
    """Prefix sharing and the pulled-back checks give every (g, m) row of the
    whole circuit run forward and post-selected, to 1e-12."""
    cfg = load_config(path)
    cfg = config_from_dict({**config_to_dict(cfg), "sweep": {"values": [cfg.sweep.values[0], cfg.sweep.values[-1]]}})
    spec = get_protocol(cfg.protocol)
    rows = run_sweep(cfg)
    assert sorted(rows) == sorted((g, m) for g in cfg.gate_error for m in cfg.meas_error)
    for (g, m), got in rows.items():
        asym_p = cfg.asymmetry_p if cfg.asymmetry_ratio is None else solve_asymmetry(cfg.asymmetry_ratio, g)
        want = unsplit_rows(
            spec, cfg.noise_family, asym_p, cfg.sweep.values, g, m, cfg.swap_decomposition, forward_checks=True
        )
        for a, b in zip(got, want, strict=True):
            assert a.sweep_value == b.sweep_value
            assert a.pair_fidelities == b.pair_fidelities and a.f_before == b.f_before
            assert (a.f_after is None) == (b.f_after is None)
            if b.f_after is None:
                assert a.p_accept == 0.0
            else:
                assert abs(a.f_after - b.f_after) <= 1e-12
                assert abs(a.p_accept - b.p_accept) <= 1e-12


def test_sweep_runs_bisection_and_prefix_once_per_gate_error(monkeypatch):
    calls, pull_backs = [], []

    def counted(*args, **kwargs):
        calls.append((args[0], args[1].n_qubits))
        return execute_exact(*args, **kwargs)

    pull_back_checks = sweep.pull_back_checks
    monkeypatch.setattr(sweep, "execute_exact", counted)
    monkeypatch.setattr(
        sweep, "pull_back_checks", lambda *a: pull_backs.append(a[1:]) or pull_back_checks(*a)
    )
    cfg = config_from_dict(
        minimal_config(
            asymmetry_ratio=0.975,
            sweep={"variable": "q", "values": [0.0, 0.1, 0.2, 0.3]},
            gate_error=[0.005, 0.01],
            meas_error=[0.0, 0.01, 0.03],
        )
    )
    run_sweep(cfg)
    prefixes = [c for c, _ in calls if Barrier("t1") in c]
    bisection = [c for c, n in calls if n == 2]
    # per gate error: the undegraded pair once, 21 bisection steps on the
    # degraded pair and one prefix; then one wait per swept value
    assert len(prefixes) == 2
    assert len(bisection) == 2 * (1 + 21)
    assert len(calls) == 2 * (1 + 21 + 1) + 2 * 4
    # the checks are pulled back once per (gate error, readout error)
    assert [m for _, m in pull_backs] == 2 * [0.0, 0.01, 0.03]


def test_idle_sweep_runs_once_for_every_error_setting(tmp_path, monkeypatch):
    runs = []
    experiment = sweep.idle_distill_experiment
    monkeypatch.setattr(
        sweep, "idle_distill_experiment", lambda *a, **kw: runs.append(a) or experiment(*a, **kw)
    )
    raw = minimal_config(
        **IDLE_SWEEP,
        idle={"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3]},
        gate_error=[0.0, 0.01],
        meas_error=[0.0, 0.02],
        out=str(tmp_path / "idle.csv"),
    )
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    assert len(runs) == 1
    texts = {(tmp_path / f"idle_g{g:g}_m{m:g}.csv").read_bytes() for g in (0.0, 0.01) for m in (0.0, 0.02)}
    assert len(texts) == 1


def full_register_prep_fidelities(spec, asymmetry_p, gate_error=0.0):
    """Per-pair fidelities at the first barrier, from the whole register's prefix."""
    circuit = staged_prefix(spec.n_pairs, "single_gate", asymmetry_p)
    cut = with_gate_noise(circuit[: circuit.index(Barrier("t0")) + 1], lambda a, b: gate_error)
    at_t0 = execute_exact(cut, ground_state(spec.n_qubits)).snapshots["t0"].matrix
    return tuple(bell_fidelity_matrix(at_t0, pair, spec.n_qubits) for pair in LOCAL_PAIRS[spec.n_pairs])


def full_register_asymmetry(spec, target_ratio, gate_error):
    """solve_asymmetry's bisection on the ratio of the whole register's first two pairs."""

    def ratio_at(p):
        f1, f2, *_ = full_register_prep_fidelities(spec, p, gate_error)
        return f1 / f2

    lo, hi = 0.0, 1.0
    assert ratio_at(hi) <= target_ratio
    while hi - lo >= ASYMMETRY_TOL:
        mid = 0.5 * (lo + hi)
        if ratio_at(mid) > target_ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("protocol", ["z2b", "zx3b"])
def test_asymmetry_from_the_degraded_pair_equals_the_full_register_bisection(protocol):
    spec = get_protocol(protocol)
    for g in (0.0, 0.005, 0.01, 0.05, 0.1):
        for ratio in (0.975, 0.95, 0.9):
            assert solve_asymmetry(ratio, g) == full_register_asymmetry(spec, ratio, g)


def test_asymmetry_ratio_targeting():
    spec = get_protocol("z2b")
    p = solve_asymmetry(0.975, gate_error=0.01)
    f1, f2 = full_register_prep_fidelities(spec, p, gate_error=0.01)
    assert f1 / f2 == pytest.approx(0.975, abs=1e-5)
    # circuit noise shifts the naive 1 - p relation; the solver tracks the ratio
    assert p == pytest.approx(1 - 0.975 * (1.0), abs=5e-3)


def test_asymmetric_high_fidelity_regime_shows_no_gain_then_gain():
    """With unequal pairs the highest-fidelity points do not improve."""
    cfg = config_from_dict(
        minimal_config(
            asymmetry_ratio=0.975,
            sweep={"variable": "q", "start": 0.0, "stop": 0.12, "num": 13},
            gate_error=0.005,
            meas_error=0.01,
        )
    )
    rows = run_sweep(cfg)[0.005, 0.01]
    eps = [r.err_decrease for r in rows if r.f_before > 0.9]
    assert eps[0] < 0  # no improvement at the very top
    assert max(eps) > 0  # improvement appears as fidelity drops


# ---------------------------------------------------------------------------
# CLI


def test_cli_analytic_json(capsys):
    rc = cli.main(["analytic", "z2b", "bitflip", "--p", "0.1", "--q", "0.1", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p_accept"] == pytest.approx(0.82)
    assert payload["F_a"] == pytest.approx(0.9878048780487805)


def test_cli_analytic_rejects_unknown_family(capsys):
    rc = cli.main(["analytic", "z2b", "bogus"])
    assert rc == 2


def test_cli_enumerate_row_counts(capsys):
    rc = cli.main(["enumerate", "z2b"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 + 8
    rc = cli.main(["enumerate", "zx3b"])
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 + 16
    assert any("Z3Y4Y5" in line for line in out)


def test_cli_sweep_writes_csv(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config(gate_error=0.01, meas_error=0.01)))
    out = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith(CSV_HEADER_COMMENT)
    # byte-identical on a second run
    rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    assert out.read_text() == text


def test_cli_sweep_expands_error_lists(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(minimal_config(gate_error=[0.01, 0.05], meas_error=0.01))
    )
    out = tmp_path / "rows.csv"
    rc = cli.main(["sweep", "--config", str(config), "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "rows_g0.01_m0.01.csv").exists()
    assert (tmp_path / "rows_g0.05_m0.01.csv").exists()


def test_cli_print_config(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config()))
    rc = cli.main(["sweep", "--config", str(config), "--print-config"])
    assert rc == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["swap_decomposition"] == "three_cnots"
    assert resolved["gate_error"] == [0.0]
    config.write_text(json.dumps(minimal_config(**IDLE_SWEEP, idle={"calibration": "nope", "chain": [0, 1, 2, 3]})))
    assert cli.main(["sweep", "--config", str(config), "--print-config"]) == 2
    assert "error: idle.calibration:" in capsys.readouterr().err


def test_cli_validate_config_exit_codes(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config(protocol="nope")))
    assert cli.main(["validate-config", "--config", str(config)]) == 2
    config.write_text(json.dumps(minimal_config()))
    assert cli.main(["validate-config", "--config", str(config)]) == 0
    assert cli.main(["validate-config", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_simulate_idle(tmp_path):
    out = tmp_path / "idle.csv"
    rc = cli.main(
        [
            "simulate-idle",
            "--calibration", "kyiv_z2b",
            "--protocol", "z2b",
            "--chain", "0,1,2,3",
            "--delays", "0:50:25",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "delay,F1,F2,F_b,F_a,p_accept,r"
    assert len(lines) == 2 + 3


IDLE_RUN = ["--calibration", "kyiv_z2b", "--protocol", "z2b", "--chain", "0,1,2,3", "--delays", "0,40,120"]


@pytest.mark.parametrize(
    "flags, model",
    [
        ([], {}),
        (
            ["--segments", "8", "--dd", "none", "--no-zz", "--perfect-coherence"],
            {"n_segments": 8, "dd_mode": "none", "zz_enabled": False, "perfect_coherence": True},
        ),
    ],
)
def test_simulate_idle_and_idle_sweep_give_equal_rows(tmp_path, monkeypatch, flags, model):
    models = []
    experiment = device.idle_distill_experiment
    recorded = lambda *args: models.append(args[4]) or experiment(*args)
    monkeypatch.setattr(cli, "idle_distill_experiment", recorded)
    monkeypatch.setattr(sweep, "idle_distill_experiment", recorded)
    assert cli.main(["simulate-idle", *IDLE_RUN, *flags, "--out", str(tmp_path / "idle.csv")]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            minimal_config(
                noise_family="idle",
                sweep={"variable": "delay", "values": [0, 40, 120]},
                idle={"calibration": "kyiv_z2b", "chain": [0, 1, 2, 3], **model},
            )
        )
    )
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep.csv")]) == 0
    assert models == [IdleSpec(**model)] * 2
    idle_rows = (tmp_path / "idle.csv").read_text().splitlines()[2:]
    sweep_rows = (tmp_path / "sweep.csv").read_text().splitlines()[2:]
    # the sweep CSV adds an eps_d column
    assert [row.rsplit(",", 1)[0] for row in sweep_rows] == idle_rows
    assert len(idle_rows) == 3


def test_cli_simulate_idle_names_the_segment_count(capsys):
    assert cli.main(["simulate-idle", *IDLE_RUN, "--segments", "6"]) == 2
    assert "error: n_segments: " in capsys.readouterr().err


@pytest.mark.parametrize("delays", ["0:200:nan", "nan:200:25", "0:inf:25", "0:-inf:25", "0,inf", "0,nan"])
def test_cli_simulate_idle_refuses_non_finite_delays(capsys, delays):
    assert cli.main(["simulate-idle", *IDLE_RUN[:-1], delays]) == 2
    assert "error: delays: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, complaint",
    [
        ("chain", "0,1,2,99", "qubit 99 not in calibration"),
        ("delays", "-5,10", "all finite and >= 0, got '-5,10'"),
        ("delays", "-5:10:5", "all finite and >= 0, got '-5:10:5'"),
        ("delays", "50:0:25", "at least one delay"),
        ("delays", ",", "at least one delay"),
    ],
)
def test_cli_simulate_idle_names_a_bad_chain_or_delays(monkeypatch, capsys, option, value, complaint):
    monkeypatch.setattr(cli, "idle_distill_experiment", lambda *args: pytest.fail("the experiment ran"))
    flags = dict(zip(IDLE_RUN[::2], IDLE_RUN[1::2])) | {f"--{option}": value}
    # "--delays=-5,10": a value starting with "-" must be joined to its flag
    assert cli.main(["simulate-idle", *(f"{flag}={v}" for flag, v in flags.items())]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and complaint in err


def test_an_unwritable_output_exits_2_naming_out(tmp_path, capsys):
    assert cli.main(["enumerate", "z2b", "--out", str(tmp_path)]) == 2
    assert f"error: out: cannot write {tmp_path}" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(minimal_config(sweep={"values": [0.1]}, out=str(tmp_path))))
    assert cli.main(["sweep", "--config", str(config)]) == 2
    assert f"error: out: cannot write {tmp_path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path",
    ["qubits[1].id", "qubits[1].T1", "qubits[1].T2", "qubits[1].meas_error", "edges[2].q1",
     "edges[2].q2", "edges[2].zz_rate", "edges[2].gate_error", "meas_delay"],
)
def test_cli_simulate_idle_names_a_mistyped_calibration_field(tmp_path, capsys, path):
    integral = path.rsplit(".", 1)[-1] in ("id", "q1", "q2")
    bad_values = [True, False, "abc", "1", None, [1.0], math.nan, math.inf, -math.inf, 10**400]
    bad_values += [0.9, 1.5] if integral else []
    for bad in bad_values:
        data = device.calibration_to_dict(device.load_calibration("kyiv_z2b"))
        if "." in path:
            group, field = path.split(".")
            entry = data[group.split("[")[0]][int(group[-2])]
        else:
            entry, field = data, path
        entry[field] = bad
        calibration = tmp_path / "calibration.json"
        calibration.write_text(json.dumps(data))
        assert cli.main(["simulate-idle", *IDLE_RUN[2:], "--calibration", str(calibration)]) == 2
        expected = "an integer" if integral else "a finite number"
        assert f"error: {path}: expected {expected}, got {bad!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, complaint",
    [
        ([], "calibration: expected an object"),
        ({"qubits": 5, "edges": [], "meas_delay": 1.0}, "qubits: expected a list"),
        ({"qubits": {"id": 0}, "edges": [], "meas_delay": 1.0}, "qubits: expected a list"),
        ({"qubits": [5], "edges": [], "meas_delay": 1.0}, "qubits[0]: expected an object"),
        ({"qubits": [], "edges": [None], "meas_delay": 1.0}, "edges[0]: expected an object"),
    ],
)
def test_cli_simulate_idle_names_a_misshapen_calibration(tmp_path, capsys, document, complaint):
    calibration = tmp_path / "calibration.json"
    calibration.write_text(json.dumps(document))
    assert cli.main(["simulate-idle", *IDLE_RUN[2:], "--calibration", str(calibration)]) == 2
    assert f"error: {complaint}, got " in capsys.readouterr().err


def test_cli_simulate_circuit(tmp_path, capsys):
    from distillery.circuit import Gate, Measure, circuit_to_json

    path = tmp_path / "bell.json"
    path.write_text(circuit_to_json([Gate("H", (0,)), Gate("CNOT", (0, 1)), Measure(0, "Z", "a"), Measure(1, "Z", "b")]))
    rc = cli.main(["simulate", "--circuit", str(path), "--qubits", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcomes"]["00"] == pytest.approx(0.5)
    assert payload["outcomes"]["11"] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "element, field",
    [
        ({"type": "gate", "name": "H"}, "targets"),
        ({"type": "measure", "label": "a"}, "qubit"),
        ({"type": "channel", "channel": {"kind": "kraus", "target_qubits": [0]}}, "kraus_ops"),
    ],
)
def test_cli_simulate_names_missing_circuit_field(tmp_path, capsys, element, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"type": "gate", "name": "H", "targets": [0]}, element]))
    assert cli.main(["simulate", "--circuit", str(path), "--qubits", "1"]) == 2
    err = capsys.readouterr().err
    assert "circuit element 1" in err and repr(field) in err


@pytest.mark.parametrize(
    "element, field",
    [
        ({"type": "gate", "name": "H", "targets": 5}, "targets"),
        ({"type": "measure", "qubit": "a"}, "qubit"),
        ({"type": "delay", "duration": "1.0", "qubits": [0]}, "duration"),
        (
            {"type": "channel", "channel": {"kind": "kraus", "target_qubits": [0], "kraus_ops": [[1, 0]]}},
            "channel.kraus_ops[0]",
        ),
    ],
)
def test_cli_simulate_names_mistyped_circuit_field(tmp_path, capsys, element, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"type": "gate", "name": "H", "targets": [0]}, element]))
    assert cli.main(["simulate", "--circuit", str(path), "--qubits", "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: circuit element 1: {field}: expected" in err


@pytest.mark.parametrize(
    "element, complaint",
    [
        (
            {"type": "channel", "channel": {"kind": "kraus", "target_qubits": [0],
                                            "kraus_ops": [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]]}},
            "completeness",
        ),
        ({"type": "gate", "name": "CPhase", "targets": [0, 1], "angle": float("nan")}, "finite"),
    ],
)
def test_cli_simulate_names_a_nan_element(tmp_path, capsys, element, complaint):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps([{"type": "gate", "name": "H", "targets": [0]}, element]))
    assert cli.main(["simulate", "--circuit", str(path), "--qubits", "2"]) == 2
    err = capsys.readouterr().err
    assert "circuit element 1" in err and complaint in err


def test_cli_simulate_rejects_acting_on_a_measured_qubit(tmp_path, capsys):
    from distillery.circuit import Gate, Measure, circuit_to_json

    path = tmp_path / "remeasure.json"
    circuit = [Gate("H", (0,)), Measure(0, "Z", "a"), Gate("H", (0,)), Measure(0, "Z", "b")]
    path.write_text(circuit_to_json(circuit))
    assert cli.main(["simulate", "--circuit", str(path), "--qubits", "1"]) == 2
    assert "measured qubit" in capsys.readouterr().err


def test_cli_simulate_reports_fidelity(tmp_path, capsys):
    from distillery.circuit import Barrier, circuit_to_json

    path = tmp_path / "idle.json"
    path.write_text(circuit_to_json([Barrier("t")]))
    rc = cli.main(
        [
            "simulate",
            "--circuit", str(path),
            "--qubits", "4",
            "--init-bell-pairs", "0-2,1-3",
            "--fidelity-pair", "0,2",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bell_fidelity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--init-bell-pairs", "0_2"),
        ("--init-bell-pairs", "0-1"),  # does not tile 4 qubits
        ("--init-bell-pairs", "0-4,1-2"),
        ("--fidelity-pair", "0"),
        ("--fidelity-pair", "0,x"),
        ("--fidelity-pair", "0,9"),
        ("--fidelity-pair", "1,1"),
    ],
)
def test_cli_simulate_names_a_malformed_pair_option(tmp_path, monkeypatch, capsys, flag, value):
    from distillery.circuit import Barrier, circuit_to_json

    monkeypatch.setattr(cli, "execute_exact", lambda *args: pytest.fail("the circuit ran"))
    path = tmp_path / "idle.json"
    path.write_text(circuit_to_json([Barrier("t")]))
    assert cli.main(["simulate", "--circuit", str(path), "--qubits", "4", flag, value]) == 2
    assert f"error: {flag[2:]}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value", [("--qubits", "0"), ("--qubits", "13"), ("--gate-error", "2"), ("--meas-error", "2"), ("--meas-error", "nan")]
)
def test_cli_simulate_names_a_numeric_flag_out_of_range(tmp_path, capsys, flag, value):
    from distillery.circuit import Barrier, circuit_to_json

    path = tmp_path / "idle.json"
    path.write_text(circuit_to_json([Barrier("t")]))
    assert cli.main(["simulate", "--circuit", str(path), "--qubits", "4", flag, value]) == 2
    assert f"error: {flag[2:]}: " in capsys.readouterr().err


def test_noiseless_bitflip_sweep_matches_closed_form():
    from distillery.analytic import recurrence_bitflip

    cfg = config_from_dict(
        minimal_config(
            noise_family="bitflip", sweep={"variable": "q", "start": 0.0, "stop": 0.5, "num": 11}
        )
    )
    rows = run_sweep(cfg)[0.0, 0.0]
    for row in rows:
        ref = recurrence_bitflip(row.sweep_value, row.sweep_value)
        assert abs(row.p_accept - ref.p_accept) <= 1e-10
        assert abs(row.f_after - ref.f_after) <= 1e-10


def test_rejected_rows_emit_empty_cells():
    from distillery.sweep import SweepRow

    row = SweepRow(0.9, None, 0.0, sweep_value=0.1, pair_fidelities=(0.9, 0.8))
    text = rows_to_csv([row], 2)
    last = text.strip().splitlines()[-1]
    assert last == "0.1,0.9,0.8,0.9,,0,,"


def test_staged_rows_match_benchmark_references(tmp_path):
    """One sweep value per zx3b config, every (g, m) CSV, against the stored rows."""
    picks = (
        (CONFIGS / "zx3b_local_equal.json", 7),
        (CONFIGS / "zx3b_global_asym.json", 20),  # asymmetry_ratio: runs the bisection
        (PERFBENCH / "configs" / "zx3b_bitflip.json", 33),
    )
    for path, index in picks:
        config = load_config(path)
        raw = json.loads(path.read_text())
        raw["sweep"] = {"variable": config.variable, "values": [config.sweep.values[index]]}
        raw["out"] = str(tmp_path / f"{path.stem}.csv")
        derived = tmp_path / path.name
        derived.write_text(json.dumps(raw))
        assert cli.main(["sweep", "--config", str(derived)]) == 0
        for g in config.gate_error:
            for m in config.meas_error:
                name = f"{path.stem}_g{g:g}_m{m:g}.csv"
                got = (tmp_path / name).read_text().splitlines()
                ref = (PERFBENCH / "reference" / "staged" / name).read_text().splitlines()
                assert got[:2] == ref[:2] and len(got) == 3, name
                for a, b in zip(got[2].split(","), ref[2 + index].split(","), strict=True):
                    assert (a == "") == (b == ""), name
                    if a:
                        assert float(a) == pytest.approx(float(b), abs=1e-10), name
