"""The number of knobs the learners and the CLI expose.

Each count is pinned, so a new option, or one that goes, changes a
number here in plain sight.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import fields

from oraclelab import cli
from oraclelab.agnostic import run_al, run_alarch
from oraclelab.anytime import run_aalarch
from oraclelab.harness import ExperimentConfig
from oraclelab.oracles import OracleBundle
from oraclelab.realizable import (
    run_binary_search_demo,
    run_cal,
    run_larch,
    run_seabel,
)

LEARNERS = (
    run_binary_search_demo, run_cal, run_larch, run_seabel, run_al,
    run_alarch, run_aalarch, OracleBundle.__init__,
)


def test_learner_parameters():
    counts = {
        f.__qualname__: len(
            [p for p in inspect.signature(f).parameters if p != "self"]
        )
        for f in LEARNERS
    }
    assert counts == {
        "run_binary_search_demo": 2,
        "run_cal": 4,
        "run_larch": 4,
        "run_seabel": 5,
        "run_al": 5,
        "run_alarch": 5,
        "run_aalarch": 6,
        "OracleBundle.__init__": 7,
    }
    assert sum(counts.values()) == 38


def test_experiment_config_fields():
    # every field enters config_hash
    assert len(fields(ExperimentConfig)) == 17


def test_cli_arguments():
    tree = ast.parse(inspect.getsource(cli))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
    ]
    assert len(calls) == 12
