"""Every JSON input goes through one field reader: malformed fields exit 2 naming their path."""

import copy
import json
import math
import re
from pathlib import Path

import pytest

from distillery import cli, device
from distillery.sweep import config_from_dict, config_to_dict, load_config

ROOT = Path(__file__).resolve().parents[1]
MISSING = object()

STAGED_CONFIG = {
    "protocol": "z2b",
    "noise_family": "local_depol",
    "sweep": {"variable": "q", "start": 0.0, "stop": 0.5, "num": 3},
    "asymmetry_p": 0.0,
    "asymmetry_ratio": 0.975,
    "gate_error": [0.0, 0.01],
    "meas_error": 0.01,
    "swap_decomposition": "single_gate",
    "out": "rows.csv",
}
IDLE_CONFIG = {
    "protocol": "z2b",
    "noise_family": "idle",
    "sweep": {"variable": "delay", "values": [0.1, 0.2]},
    "idle": {
        "calibration": "kyiv_z2b",
        "chain": [0, 1, 2, 3],
        "n_segments": 8,
        "dd_mode": "none",
        "zz_enabled": True,
        "perfect_coherence": False,
    },
}
IDENTITY = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
ELEMENTS = {
    "gate": {"type": "gate", "name": "CPhase", "targets": [0, 1], "angle": 0.5},
    "kraus": {"type": "channel", "channel": {"kind": "kraus", "target_qubits": [0], "kraus_ops": [IDENTITY]}},
    "depolarizing": {
        "type": "channel",
        "channel": {"kind": "global_depolarizing", "target_qubits": [0, 1], "lam": 0.1},
    },
    "delay": {"type": "delay", "duration": 1.0, "qubits": [0]},
    "measure": {"type": "measure", "qubit": 0, "basis": "Z", "label": "a"},
    "barrier": {"type": "barrier", "label": "t"},
}


def calibration():
    return device.calibration_to_dict(device.load_calibration("kyiv_z2b"))


# each input kind: its base documents, how the CLI reads it, the prefix of
# its error messages and the name of its top-level object
BASES = {
    "config": {"staged": lambda: STAGED_CONFIG, "idle": lambda: IDLE_CONFIG},
    "calibration": {"kyiv_z2b": calibration},
    "circuit": {name: lambda el=el: [{"type": "gate", "name": "H", "targets": [0]}, el] for name, el in ELEMENTS.items()},
}
ARGV = {
    "config": lambda path: ["validate-config", "--config", path],
    "calibration": lambda path: [
        "simulate-idle", "--calibration", path, "--protocol", "z2b", "--chain", "0,1,2,3", "--delays", "0"
    ],
    "circuit": lambda path: ["simulate", "--circuit", path, "--qubits", "2"],
}
PREFIX = {"config": "", "calibration": "", "circuit": "circuit element 1: "}
ROOT_NAME = {"config": "config", "calibration": "calibration", "circuit": ""}

# (input kind, base document, field path, kind of field, required)
FIELDS = [
    ("config", "staged", "protocol", "string", True),
    ("config", "staged", "noise_family", "choice", True),
    ("config", "staged", "sweep", "object", True),
    ("config", "staged", "sweep.variable", "string", False),
    ("config", "staged", "sweep.start", "number", True),
    ("config", "staged", "sweep.stop", "number", True),
    ("config", "staged", "sweep.num", "integer", True),
    ("config", "staged", "asymmetry_p", "number", False),
    ("config", "staged", "asymmetry_ratio", "number", False),
    ("config", "staged", "gate_error", "number or numbers", False),
    ("config", "staged", "meas_error", "number or numbers", False),
    ("config", "staged", "swap_decomposition", "choice", False),
    ("config", "staged", "out", "string", False),
    ("config", "idle", "sweep.values", "numbers", False),
    ("config", "idle", "idle", "object", False),
    ("config", "idle", "idle.calibration", "string", True),
    ("config", "idle", "idle.chain", "integers", True),
    ("config", "idle", "idle.n_segments", "integer", False),
    ("config", "idle", "idle.dd_mode", "string", False),
    ("config", "idle", "idle.zz_enabled", "boolean", False),
    ("config", "idle", "idle.perfect_coherence", "boolean", False),
    ("calibration", "kyiv_z2b", "qubits", "objects", True),
    ("calibration", "kyiv_z2b", "qubits[1].id", "integer", True),
    ("calibration", "kyiv_z2b", "qubits[1].T1", "number", True),
    ("calibration", "kyiv_z2b", "qubits[1].T2", "number", True),
    ("calibration", "kyiv_z2b", "qubits[1].meas_error", "number", True),
    ("calibration", "kyiv_z2b", "edges", "objects", True),
    ("calibration", "kyiv_z2b", "edges[2].q1", "integer", True),
    ("calibration", "kyiv_z2b", "edges[2].q2", "integer", True),
    ("calibration", "kyiv_z2b", "edges[2].zz_rate", "number", True),
    ("calibration", "kyiv_z2b", "edges[2].gate_error", "number", True),
    ("calibration", "kyiv_z2b", "meas_delay", "number", True),
    ("circuit", "gate", "type", "choice", True),
    ("circuit", "gate", "name", "string", True),
    ("circuit", "gate", "targets", "integers", True),
    ("circuit", "gate", "angle", "number", False),
    ("circuit", "kraus", "channel", "object", True),
    ("circuit", "kraus", "channel.kind", "choice", True),
    ("circuit", "kraus", "channel.target_qubits", "integers", True),
    ("circuit", "kraus", "channel.kraus_ops", "matrices", True),
    ("circuit", "depolarizing", "channel.lam", "number", True),
    ("circuit", "delay", "duration", "number", True),
    ("circuit", "delay", "qubits", "integers", True),
    ("circuit", "measure", "qubit", "integer", True),
    ("circuit", "measure", "basis", "string", False),
    ("circuit", "measure", "label", "string", False),
    ("circuit", "barrier", "label", "string", False),
]

# (label, bad value) for each kind of field; a bad item of a list of objects
# or matrices is named by its index
BAD_VALUES = {
    "number": [("list", [1.0]), ("bool", True), ("string", "0.9"), ("nan", math.nan), ("inf", math.inf),
               ("-inf", -math.inf), ("huge", 10**400)],
    "integer": [("list", [1]), ("bool", True), ("string", "3"), ("fraction", 0.5), ("nan", math.nan),
                ("inf", math.inf)],
    "boolean": [("number", 1), ("string", "false")],
    "string": [("number", 5), ("bool", True), ("list", ["a"])],
    "choice": [("number", 5), ("bool", True), ("unknown", "bogus")],
    "object": [("list", [1]), ("bool", True), ("string", "x")],
    "numbers": [("scalar", 0.1), ("bool", True), ("string", [0.1, "0.2"]), ("nan", [0.1, math.nan]),
                ("inf", [math.inf])],
    "number or numbers": [("object", {}), ("bool", True), ("string", "0.1"), ("string in list", [0.0, "0.1"]),
                          ("nan", math.nan), ("inf in list", [0.0, math.inf])],
    "integers": [("scalar", 5), ("bool", True), ("strings", ["0", "1", "2", "3"]), ("fraction", [0, 0.5]),
                 ("nan", [math.nan]), ("bool in list", [True])],
    "objects": [("number", 5), ("bool", True), ("object", {}), ("item", [5])],
    "matrices": [("number", 5), ("bool cells", [[[[True, 0], [0, 0]], [[0, 0], [False, 0]]]]),
                 ("string cells", [[[["1", "0"], [0, 0]], [[0, 0], [1, 0]]]]), ("flat", [[1, 0]]),
                 ("short cell", [[[[1], [0]], [[0], [1]]]])],
}


def rows():
    for source, base, path, kind, required in FIELDS:
        cases = BAD_VALUES[kind] + ([("null", None), ("missing", MISSING)] if required else [])
        for label, value in cases:
            indexed = kind in ("objects", "matrices") and isinstance(value, list)
            yield pytest.param(
                source, base, path + ("[0]" if indexed else ""), value, id=f"{source}-{base}-{path}-{label}"
            )


def tokens(path: str) -> list:
    return [int(t) if t.isdigit() else t for t in re.split(r"[.\[\]]", path) if t]


def with_field(document, source: str, path: str, value):
    """A copy of ``document`` with the field at ``path`` set to ``value`` (or removed)."""
    document = copy.deepcopy(document)
    *parents, key = ([1] if source == "circuit" else []) + tokens(path)
    target = document
    for token in parents:
        target = target[token]
    if value is MISSING:
        del target[key]
    else:
        target[key] = value
    return document


def run(tmp_path, source: str, document) -> int:
    path = tmp_path / f"{source}.json"
    path.write_text(json.dumps(document))
    return cli.main(ARGV[source](str(path)))


@pytest.mark.parametrize("source, base", [(s, b) for s, bases in BASES.items() for b in bases])
def test_every_base_document_is_accepted(tmp_path, capsys, source, base):
    assert run(tmp_path, source, BASES[source][base]()) == 0, capsys.readouterr().err


@pytest.mark.parametrize("source, base, path, value", rows())
def test_a_malformed_field_exits_2_naming_its_path(tmp_path, capsys, source, base, path, value):
    """A wrong type, a bool, a string holding a number, a fraction where an
    integer is due, NaN, an infinity, and on a required field null or a
    missing key: each is refused with the field's dotted path."""
    field = path.removesuffix("[0]")
    assert run(tmp_path, source, with_field(BASES[source][base](), source, field, value)) == 2
    err = capsys.readouterr().err
    if value is MISSING:
        parent, _, key = path.rpartition(".")
        where = parent or ROOT_NAME[source]
        assert f"error: {PREFIX[source]}{where + ': ' if where else ''}missing field {key!r}" in err
    else:
        assert f"error: {PREFIX[source]}{path}: expected " in err


CONFIGS = sorted([*(ROOT / "configs").glob("*.json"), *(ROOT / "perfbench" / "configs").glob("*.json")])


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_config_round_trips_through_its_resolved_form(path):
    cfg = load_config(path)
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


@pytest.mark.parametrize(
    "argv, name",
    [
        (["sweep", "--config", "{}"], "config"),
        (["validate-config", "--config", "{}"], "config"),
        (ARGV["calibration"]("{}"), "calibration"),
        (ARGV["circuit"]("{}"), "circuit"),
    ],
)
@pytest.mark.parametrize("problem", ["a directory", "not JSON", "missing"])
def test_an_unreadable_input_file_exits_2_naming_its_option(tmp_path, capsys, argv, name, problem):
    path = tmp_path / "input.json"
    if problem == "a directory":
        path.mkdir()
    elif problem == "not JSON":
        path.write_text("{oops")
    assert cli.main([str(path) if arg == "{}" else arg for arg in argv]) == 2
    assert f"error: {name}: " in capsys.readouterr().err
