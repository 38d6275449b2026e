"""Golden result rows: every shipped config, seeds 0-2, byte for byte.

``tests/golden/<config>.csv`` holds ``rows_to_csv(rows, with_timing=False)``
for ``configs/<config>.json`` run on seeds 0, 1 and 2. Every column of
those rows is a pure function of config and seed, so any change to them
is a change in what the library computes. A change meant to alter results
rewrites the files by hand, from the rows this test prints on failure, in
the commit that alters them.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from oraclelab.harness import ExperimentConfig, rows_to_csv, run_experiment

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN_SEEDS = [0, 1, 2]


def golden_rows(config_path: Path) -> str:
    cfg = ExperimentConfig.from_json(config_path.read_text())
    cfg = dataclasses.replace(cfg, seeds=GOLDEN_SEEDS, output=None)
    return rows_to_csv(run_experiment(cfg), with_timing=False) + "\n"


def test_every_config_has_golden_rows():
    have = sorted(p.stem for p in (ROOT / "tests" / "golden").glob("*.csv"))
    assert have == [p.stem for p in CONFIGS]


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_rows_match_golden(config_path):
    want = (ROOT / "tests" / "golden" / f"{config_path.stem}.csv").read_text()
    got = golden_rows(config_path)
    assert got == want, f"rows for {config_path.name} changed:\n{got}"
