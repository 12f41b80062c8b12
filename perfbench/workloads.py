"""The four benchmark workloads: inputs from a seed, one round of items, output checks.

A workload is built by ``make(name, seed, workdir, tiny=False)``. Its
``run_round()`` sends every item once, one after another, through
distillery's public API and returns the raw outputs; ``check(outputs)``
compares them with references that do not come from the route under test and
returns ``(attempted, failed)`` in items. ``warm_up()`` runs untimed work of
the same kind before measuring. ``calibrated`` says whether the workload's
items/s is rescaled by the reference slice (see worker.py). Nothing here
reads a clock.

Calls go through module attributes (``protocols.general_distill``, not a
name imported from it), so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from distillery import analytic, channels, cli, densop, device, protocols, sweep
from distillery.channels import PauliChannelParams
from distillery.circuit import Gate, Measure

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
GOLDEN_DIR = ROOT / "tests" / "goldens"

TOL = 1e-10
CSV_HEADER = "# distillery-csv v1"

STAGED_CONFIGS = (
    ROOT / "configs" / "zx3b_local_equal.json",
    ROOT / "configs" / "zx3b_global_asym.json",
    BENCH_DIR / "configs" / "zx3b_bitflip.json",
)
STAGED_POINTS = 4  # sweep points drawn per config; every (g, m) pair runs each

GOLDEN_RUNS = (
    ("idle_z2b_kyiv.csv",
     ["simulate-idle", "--calibration", "kyiv_z2b", "--protocol", "z2b",
      "--chain", "0,1,2,3", "--delays", "0:200:25"]),
    ("idle_x2b_kyiv.csv",
     ["simulate-idle", "--calibration", "kyiv_x2b", "--protocol", "x2b",
      "--chain", "0,1,2,3", "--delays", "0:200:25"]),
    ("idle_zx3b_kyiv.csv",
     ["simulate-idle", "--calibration", "kyiv_3bell", "--protocol", "zx3b",
      "--chain", "3,4,5,6,7,8", "--delays", "0:200:50"]),
)

TWIRL_K = (0, 2, 4, 6, 8, 10, 12)
TWIRL_SEEDS = 10  # mirror circuits per k in one round
TWIRL_GATE_ERROR = 0.004

SCALE_PAIRS = (4, 5)  # n = 8 and 10 qubits
SCALE_P_RANGE = (0.01, 0.15)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _unlink(path: Path) -> None:
    path.unlink(missing_ok=True)


class Staged:
    """``distillery sweep`` through cli.main on seeded subsets of three zx3b sweeps.

    One item is one CSV row. Each config keeps its (g, m) lists; the seed
    picks which of its sweep values run.
    """

    calibrated = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        points = 1 if tiny else STAGED_POINTS
        self.runs = []  # (argv, [(csv path, reference file, picked indices)])
        for path in STAGED_CONFIGS:
            config = sweep.load_config(path)
            picked = sorted(int(i) for i in rng.choice(len(config.sweep.values), points, replace=False))
            raw = json.loads(path.read_text())
            raw["sweep"] = {"variable": config.variable,
                            "values": [config.sweep.values[i] for i in picked]}
            raw["out"] = str(workdir / f"{path.stem}.csv")
            derived = workdir / path.name
            derived.write_text(json.dumps(raw))
            outputs = [
                (workdir / name, REFERENCE_DIR / "staged" / name, picked)
                for name in (f"{path.stem}_g{g:g}_m{m:g}.csv"
                             for g in config.gate_error for m in config.meas_error)
            ]
            self.runs.append((["sweep", "--config", str(derived)], outputs))
        self.items = sum(len(picked) for _, outs in self.runs for _, _, picked in outs)

    def warm_up(self) -> None:
        self.run_round()

    def run_round(self) -> list[str | None]:
        texts = []
        for argv, outputs in self.runs:
            for out, _, _ in outputs:
                _unlink(out)
            ok = cli.main(argv) == 0
            texts += [out.read_text() if ok and out.exists() else None for out, _, _ in outputs]
        return texts

    def check(self, texts: list[str | None]) -> tuple[int, int]:
        failed = 0
        outputs = [o for _, outs in self.runs for o in outs]
        for text, (_, reference, picked) in zip(texts, outputs):
            failed += _staged_failures(text, reference.read_text(), picked)
        return self.items, failed


def _staged_failures(text: str | None, reference: str, picked: list[int]) -> int:
    """Rows of one sweep CSV that are missing, off the reference, or break an invariant."""
    if text is None:
        return len(picked)
    lines = text.splitlines()
    ref_lines = reference.splitlines()
    if lines[:1] != [CSV_HEADER] or lines[1:2] != ref_lines[1:2]:
        return len(picked)
    header = lines[1].split(",")
    rows = lines[2:]
    failed = abs(len(rows) - len(picked))
    for row, i in zip(rows, picked):
        if not _staged_row_ok(header, row.split(","), ref_lines[2 + i].split(",")):
            failed += 1
    return failed


def _staged_row_ok(header: list[str], cells: list[str], ref: list[str]) -> bool:
    if len(cells) != len(header) or len(ref) != len(header):
        return False
    for a, b in zip(cells, ref):
        if (a == "") != (b == ""):
            return False
        if a and not _close(float(a), float(b)):
            return False
    row = {k: float(v) for k, v in zip(header, cells) if v}
    probs = [v for k, v in row.items() if k == "p_accept" or k.startswith("F")]
    if any(not -1e-12 <= v <= 1 + 1e-12 for v in probs):
        return False
    if "F_a" not in row:
        return "r" not in row and "eps_d" not in row
    f_a, f_b = row["F_a"], row["F_b"]
    if not _close(row["r"], f_a / f_b):
        return False
    # eps_d is a percentage rebuilt from 12-digit F cells: allow their rounding
    return abs(row["eps_d"] - 100 * (f_a - f_b) / (1 - f_b)) <= 1e-6


class Idle:
    """The three golden ``simulate-idle`` runs through cli.main; one item is one CSV row.

    The inputs are fixed by the goldens; the seed only orders the runs.
    """

    calibrated = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        runs = GOLDEN_RUNS[:1] if tiny else GOLDEN_RUNS
        order = np.random.default_rng(seed).permutation(len(runs))
        self.runs = []  # (argv, out path, golden bytes)
        for i in order:
            name, argv = runs[i]
            out = workdir / name
            self.runs.append((argv + ["--out", str(out)], out, (GOLDEN_DIR / name).read_bytes()))
        self.items = sum(len(golden.splitlines()) - 2 for _, _, golden in self.runs)

    def warm_up(self) -> None:
        self.run_round()

    def run_round(self) -> list[bytes | None]:
        outputs = []
        for argv, out, _ in self.runs:
            _unlink(out)
            ok = cli.main(argv) == 0
            outputs.append(out.read_bytes() if ok and out.exists() else None)
        return outputs

    def check(self, outputs: list[bytes | None]) -> tuple[int, int]:
        failed = 0
        for data, (_, _, golden) in zip(outputs, self.runs):
            if data == golden:
                continue
            want = golden.splitlines()
            got = [] if data is None else data.splitlines()
            if got[:2] != want[:2]:
                failed += len(want) - 2
            else:
                rows = list(zip(got[2:], want[2:]))
                failed += sum(a != b for a, b in rows) + abs(len(got) - len(want))
        return self.items, failed


class Twirl:
    """``device.mirror_twirl_experiment`` in the criterion-09 shape; one item is one circuit.

    Checked against the collapsed route: global depolarizing on a qubit pair
    commutes with every unitary on that pair and the noiseless mirror circuit
    is the identity, so a circuit with c CNOTs on a pair leaves one
    depolarizing channel of strength 1 - (1 - g)^c on it.
    """

    calibrated = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.spec = protocols.get_protocol("z2b")
        self.k_values = TWIRL_K[:2] if tiny else TWIRL_K
        self.n_seeds = 2 if tiny else TWIRL_SEEDS
        self.base_seed = seed
        self.items = len(self.k_values) * self.n_seeds
        self._expected = None

    def warm_up(self) -> None:
        self.run_round()

    def run_round(self):
        return device.mirror_twirl_experiment(
            self.spec, self.k_values, self.n_seeds, TWIRL_GATE_ERROR, base_seed=self.base_seed
        )

    def check(self, points) -> tuple[int, int]:
        if self._expected is None:
            self._expected = [self._collapsed(k) for k in self.k_values]
        failed = 0
        for k, want in zip(self.k_values, self._expected):
            got = next((p for p in points if p.k == k), None)
            if got is None or not all(
                _close(a, b) for a, b in zip((got.f_before, got.f_after, got.p_accept), want)
            ):
                failed += self.n_seeds
        return self.items, failed

    def _collapsed(self, k: int) -> tuple[float, float, float]:
        """(F_b, F_a, p_accept) of the seed average, by closed-form channels."""
        rho0 = _z2b_bell_pairs()
        acc = np.zeros_like(rho0)
        for s in range(self.n_seeds):
            # the experiment's own per-circuit seed derivation
            rng = np.random.default_rng(np.random.SeedSequence([self.base_seed, k, s]))
            layers = device.mirror_clifford_layers(k, rng)
            rho = rho0
            for pair in ((0, 1), (2, 3)):
                c = sum(g.name == "CNOT" and set(g.targets) == set(pair) for g in layers)
                rho = _depolarize_pair(rho, 1 - (1 - TWIRL_GATE_ERROR) ** c, pair)
            acc = acc + rho
        avg = acc / self.n_seeds
        t = avg.reshape((2,) * 8)
        f_before = max(_bell_fidelity(np.einsum("abcdebgd->aceg", t)),   # pair (0, 2)
                       _bell_fidelity(np.einsum("abcdafch->bdfh", t)))   # pair (1, 3)
        # perfect z2b check: CNOT(0,1), CNOT(2,3), keep when qubits 1 and 3 agree
        perm = _cnot_pair_permutation()
        t = avg[np.ix_(perm, perm)].reshape((2,) * 8)
        kept = np.einsum("axcxexgx->aceg", t).reshape(4, 4)
        p_accept = float(np.real(np.trace(kept)))
        return f_before, _bell_fidelity(kept.reshape(2, 2, 2, 2) / p_accept), p_accept


def _z2b_bell_pairs() -> np.ndarray:
    """Bell pairs on qubits (0, 2) and (1, 3) of four."""
    psi = np.zeros(16, dtype=complex)
    for b0 in (0, 1):
        for b1 in (0, 1):
            psi[8 * b0 + 4 * b1 + 2 * b0 + b1] = 0.5
    return np.outer(psi, psi.conj())


def _depolarize_pair(rho: np.ndarray, lam: float, pair: tuple[int, int]) -> np.ndarray:
    t = rho.reshape((2,) * 8)
    eye = np.eye(2)
    if pair == (0, 1):
        mixed = np.einsum("ae,bf,cdgh->abcdefgh", eye, eye, np.einsum("abcdabgh->cdgh", t))
    else:
        mixed = np.einsum("cg,dh,abef->abcdefgh", eye, eye, np.einsum("abcdefcd->abef", t))
    return (1 - lam) * rho + lam * mixed.reshape(16, 16) / 4


def _bell_fidelity(pair_tensor: np.ndarray) -> float:
    """<phi+| rho |phi+> for a two-qubit state given as a (2, 2, 2, 2) tensor."""
    t = pair_tensor
    return float(np.real(t[0, 0, 0, 0] + t[0, 0, 1, 1] + t[1, 1, 0, 0] + t[1, 1, 1, 1]) / 2)


def _cnot_pair_permutation() -> np.ndarray:
    """Basis permutation of CNOT(0,1) CNOT(2,3): new index -> old index (self-inverse)."""
    idx = np.arange(16)
    b = [(idx >> (3 - q)) & 1 for q in range(4)]
    return (b[0] << 3) | ((b[1] ^ b[0]) << 2) | (b[2] << 1) | (b[3] ^ b[2])


class Scale:
    """``protocols.general_distill`` on a CNOT-ladder parity check over 4 and 5 pairs.

    Inputs are Bell pairs whose remote halves carry seeded local
    depolarizing, applied with ``channels.apply_channel``. One item is one
    distillation, checked against ``analytic.enumerate_accepted``.
    """

    # large BLAS/LAPACK calls do not track the small-op reference slice: over
    # 10 seeds, rescaling the run by it spread 0.29 against 0.10 raw (and 0.14
    # against 0.09 round by round over 6), so this workload stays raw
    calibrated = False

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        rng = np.random.default_rng(seed)
        self.cases = []  # (n_pairs, depolarizing strengths, ladder unitary)
        for n_pairs in ((2, 3) if tiny else SCALE_PAIRS):
            probs = tuple(float(p) for p in rng.uniform(*SCALE_P_RANGE, size=n_pairs))
            self.cases.append((n_pairs, probs, _ladder_unitary(n_pairs)))
        self.items = len(self.cases)
        self._expected = None

    def warm_up(self) -> None:
        self._distill(*self.cases[0])

    def run_round(self) -> list[tuple[float, float]]:
        return [self._distill(*case) for case in self.cases]

    @staticmethod
    def _distill(n_pairs: int, probs: tuple[float, ...], u) -> tuple[float, float]:
        n = 2 * n_pairs
        pairs = [(i, n_pairs + i) for i in range(n_pairs)]
        rho = densop.DensityOperator(n, densop.bell_pairs_on(pairs, n))
        for i, p in enumerate(probs):
            rho = channels.apply_channel(rho, channels.depolarizing_local(p, qubit=n_pairs + i))
        p_accept, _, fidelity = protocols.general_distill(rho, u, 0)
        return p_accept, fidelity

    def check(self, outputs: list[tuple[float, float]]) -> tuple[int, int]:
        if self._expected is None:
            self._expected = []
            for n_pairs, probs, _ in self.cases:
                res = analytic.enumerate_accepted(
                    _ladder_spec(n_pairs),
                    [PauliChannelParams(1 - p, p / 3, p / 3, p / 3) for p in probs],
                )
                self._expected.append((res.acceptance_prob, res.fidelity_after))
        failed = sum(
            not (_close(p, p_want) and _close(f, f_want))
            for (p, f), (p_want, f_want) in zip(outputs, self._expected)
        )
        return self.items, failed + abs(len(outputs) - len(self._expected))


def _ladder_cnots(n_pairs: int) -> list[tuple[int, int]]:
    """CNOT(i, i+1) down each side: qubits 0..n-1 locally, n..2n-1 remotely."""
    return [(side + i, side + i + 1) for side in (0, n_pairs) for i in range(n_pairs - 1)]


def _ladder_unitary(n_pairs: int) -> densop.UnitaryOp:
    """The ladder as a basis permutation on all 2n qubits (qubit 0 most significant)."""
    n = 2 * n_pairs
    idx = np.arange(2**n)
    bits = (idx[:, None] >> (n - 1 - np.arange(n))) & 1
    for control, target in _ladder_cnots(n_pairs):
        bits[:, target] ^= bits[:, control]
    image = (bits << (n - 1 - np.arange(n))).sum(axis=1)
    u = np.zeros((2**n, 2**n), dtype=complex)
    u[image, idx] = 1.0
    return densop.UnitaryOp(u, tuple(range(n)))


def _ladder_spec(n_pairs: int) -> protocols.ProtocolSpec:
    """The same check as measurements: pair i (i > 0) is kept when its two Z outcomes agree."""
    circuit = [Gate("CNOT", cnot) for cnot in _ladder_cnots(n_pairs)]
    for i in range(1, n_pairs):
        circuit += [Measure(i, "Z", f"a{i}"), Measure(n_pairs + i, "Z", f"b{i}")]
    return protocols.ProtocolSpec(
        name=f"ladder{n_pairs}",
        n_pairs=n_pairs,
        pairs=tuple((i, n_pairs + i) for i in range(n_pairs)),
        circuit=tuple(circuit),
        checks=tuple(((f"a{i}",), (f"b{i}",)) for i in range(1, n_pairs)),
        kept_pair=(0, n_pairs),
    )


WORKLOADS = {"staged": Staged, "idle": Idle, "twirl": Twirl, "scale": Scale}


def make(name: str, seed: int, workdir: Path, tiny: bool = False):
    return WORKLOADS[name](seed, workdir, tiny)
