"""Write the staged workload's reference CSVs: every point of each full sweep.

    PYTHONPATH=src python3 perfbench/make_references.py

Run it only when a change is meant to move the staged numbers, and commit the
new references with that change.
"""

from __future__ import annotations

from distillery import cli

from workloads import REFERENCE_DIR, STAGED_CONFIGS


def main() -> int:
    out_dir = REFERENCE_DIR / "staged"
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in STAGED_CONFIGS:
        rc = cli.main(["sweep", "--config", str(path), "--out", str(out_dir / f"{path.stem}.csv")])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
