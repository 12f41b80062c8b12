"""Command-line front end.

Subcommands: sweep, analytic, enumerate, simulate-idle, simulate,
validate-config. Exit codes: 0 success, 2 configuration error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import analytic
from .circuit import NothingAcceptedError, circuit_from_list, execute_exact, with_gate_noise
from .densop import DensityOperator, _check_n_qubits, bell_fidelity_matrix, bell_pairs_on, ground_state
from .device import DD_MODES, CalibrationError, IdleSpec, check_chain, idle_distill_experiment, load_calibration
from .fields import read_json
from .protocols import PROTOCOL_NAMES, get_protocol
from .sweep import (
    ConfigError,
    config_to_dict,
    load_config,
    load_idle_calibration,
    rows_to_csv,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigError(f"out: cannot write {path}: {err.strerror or err}") from None


def _out_path_for(base: str, g: float, m: float, multiple: bool) -> str:
    if not multiple:
        return base
    p = Path(base)
    return str(p.with_name(f"{p.stem}_g{g:g}_m{m:g}{p.suffix or '.csv'}"))


def cmd_sweep(args) -> int:
    if args.print_config:
        return cmd_validate_config(args)
    config = load_config(args.config)
    out_base = args.out or config.out
    combos = [(g, m) for g in config.gate_error for m in config.meas_error]
    multiple = len(combos) > 1
    if out_base is None and multiple:
        raise ConfigError("out: an output path is required when gate/meas errors are lists")
    spec = get_protocol(config.protocol)
    results = run_sweep(config)
    for g, m in combos:
        text = rows_to_csv(results[g, m], spec.n_pairs)
        _write_text(None if out_base is None else _out_path_for(out_base, g, m, multiple), text)
    return EXIT_OK


def cmd_validate_config(args) -> int:
    config = load_config(args.config)
    if config.idle is not None:
        load_idle_calibration(config.idle)
    print(json.dumps(config_to_dict(config), indent=2))
    return EXIT_OK


def cmd_analytic(args) -> int:
    proto = args.protocol.lower()
    family = args.family.lower()
    if family == "global_depol":
        if args.lam is None:
            raise ConfigError("analytic: global_depol requires --lam")
        res = analytic.global_depol_distill(proto, args.lam)
        params = {"lam": args.lam}
    elif (proto, family) in analytic.REGION_FAMILIES:
        res = analytic.REGION_FAMILIES[proto, family](args.p, args.q)
        params = {"p": args.p, "q": args.q}
    else:
        supported = ", ".join(f"{p} {f}" for p, f in sorted(analytic.REGION_FAMILIES))
        raise ConfigError(
            f"analytic: no closed form for protocol {proto!r} with noise family {args.family!r} "
            f"(supported: {supported}, and global_depol for every protocol)"
        )
    payload = {
        "protocol": proto,
        "noise_family": family,
        **params,
        "p_accept": res.p_accept,
        "F_b": res.f_before,
        "F_a": res.f_after,
        "r": res.ratio,
    }
    _print_analytic(payload, args.json)
    return EXIT_OK


def _print_analytic(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        print(f"{key}: {value:.12g}" if isinstance(value, float) else f"{key}: {value}")


def cmd_enumerate(args) -> int:
    result = analytic.enumerate_protocol(args.protocol)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["error", "probability_monomial", "residual"])
    for row in result.rows:
        writer.writerow([row.error_label, row.monomial, row.residual_label])
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def _parse_chain(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"chain: expected comma-separated integers, got {text!r}") from None


def _parse_delays(text: str) -> list[float]:
    try:
        if ":" in text:
            start, stop, step = (float(tok) for tok in text.split(":"))
            if not (all(map(math.isfinite, (start, stop, step))) and step > 0):
                raise ValueError(text)
            values = []
            v = start
            while v <= stop + 1e-9:
                values.append(round(v, 9))
                v += step
        else:
            values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        if not values or not all(math.isfinite(v) and v >= 0 for v in values):
            raise ValueError(text)
        return values
    except ValueError:
        raise ConfigError(
            "delays: expected 'start:stop:step' (step > 0) or comma-separated values, "
            f"at least one delay and all finite and >= 0, got {text!r}"
        ) from None


def cmd_simulate_idle(args) -> int:
    calib = load_calibration(args.calibration)
    spec = get_protocol(args.protocol)
    chain = _parse_chain(args.chain)
    try:
        check_chain(calib, chain)
    except CalibrationError as err:
        raise ConfigError(f"chain: {err}") from None
    delays = _parse_delays(args.delays)
    model = IdleSpec(
        n_segments=args.segments,
        dd_mode=args.dd,
        zz_enabled=not args.no_zz,
        perfect_coherence=args.perfect_coherence,
    )
    rows = idle_distill_experiment(spec, chain, calib, delays, model, args.swap_decomposition)
    _write_text(args.out, rows_to_csv(rows, spec.n_pairs, idle=True))
    return EXIT_OK


def _parse_pair(text: str, sep: str, option: str, n_qubits: int) -> tuple[int, int]:
    """Two distinct register qubits written 'a<sep>b'; ConfigError naming ``option`` otherwise."""
    try:
        a, b = (int(tok) for tok in text.split(sep))
    except ValueError:
        raise ConfigError(f"{option}: expected two qubits as 'a{sep}b', got {text!r}") from None
    if a == b or not (0 <= a < n_qubits and 0 <= b < n_qubits):
        raise ConfigError(f"{option}: expected two distinct qubits in 0..{n_qubits - 1}, got {text!r}")
    return a, b


def cmd_simulate(args) -> int:
    n = args.qubits
    try:
        _check_n_qubits(n)
    except ValueError as err:
        raise ConfigError(f"qubits: {err}") from None
    for option, value in (("gate-error", args.gate_error), ("meas-error", args.meas_error)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{option}: must be in [0, 1], got {value}")
    pair = _parse_pair(args.fidelity_pair, ",", "fidelity-pair", n) if args.fidelity_pair else None
    circuit = circuit_from_list(read_json(args.circuit, "circuit", ConfigError))
    if args.init_bell_pairs:
        pairs = [_parse_pair(tok, "-", "init-bell-pairs", n) for tok in args.init_bell_pairs.split(",")]
        try:
            rho = bell_pairs_on(pairs, n)
        except ValueError as err:
            raise ConfigError(f"init-bell-pairs: {err}") from None
        init = DensityOperator(n, rho)
    else:
        init = ground_state(n)
    circuit = with_gate_noise(circuit, lambda a, b: args.gate_error)
    result = execute_exact(circuit, init, args.meas_error)
    payload = {
        "labels": [label for label, _ in result.measured],
        "outcomes": {
            "".join(str(bit) for bit in b.outcomes.values()): b.probability for b in result.branches
        },
    }
    if pair is not None:
        payload["bell_fidelity"] = bell_fidelity_matrix(result.matrix, pair, n)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillery",
        description="Simulate and analyze post-selected entanglement distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a parameter sweep from a JSON config, emit CSV")
    p.add_argument("--config", required=True, help="sweep configuration JSON")
    p.add_argument("--out", default=None, help="output CSV path (default: config 'out' or stdout)")
    p.add_argument("--print-config", action="store_true", help="print the resolved config and exit")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("analytic", help="evaluate closed-form distillation results")
    p.add_argument("protocol", choices=list(PROTOCOL_NAMES))
    p.add_argument("family", help="bitflip, local_depol, or global_depol")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--lam", type=float, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_analytic)

    p = sub.add_parser("enumerate", help="emit the accepted-error table as CSV")
    p.add_argument("protocol", choices=list(PROTOCOL_NAMES))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("simulate-idle", help="idle-then-distill experiment on a calibrated chain")
    p.add_argument("--calibration", required=True, help="calibration JSON path or bundled name")
    p.add_argument("--protocol", required=True, choices=list(PROTOCOL_NAMES))
    p.add_argument("--chain", required=True, help="comma-separated physical qubit ids")
    p.add_argument("--delays", required=True, help="'start:stop:step' in us, or comma list")
    p.add_argument(
        "--segments", type=int, default=IdleSpec.n_segments, help="Trotter segments per idle window"
    )
    p.add_argument("--dd", choices=list(DD_MODES), default=IdleSpec.dd_mode)
    p.add_argument("--no-zz", action="store_true", help="disable ZZ crosstalk")
    p.add_argument("--perfect-coherence", action="store_true", help="drop all T1/T2 damping")
    p.add_argument(
        "--swap-decomposition", choices=["three_cnots", "single_gate"], default="three_cnots"
    )
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate_idle)

    p = sub.add_parser("simulate", help="execute a circuit JSON file exactly")
    p.add_argument("--circuit", required=True, help="circuit JSON path")
    p.add_argument("--qubits", type=int, required=True, help="register size")
    p.add_argument("--init-bell-pairs", default=None, help="e.g. '0-2,1-3' (default: all zeros)")
    p.add_argument("--gate-error", type=float, default=0.0)
    p.add_argument("--meas-error", type=float, default=0.0)
    p.add_argument("--fidelity-pair", default=None, help="report Bell fidelity of 'a,b'")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("validate-config", help="validate a sweep config and print it resolved")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:  # ConfigError and CalibrationError are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NothingAcceptedError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
