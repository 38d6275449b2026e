"""The digest checker reports a stored digest that a cell does not give."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "check_digests.py"
spec = importlib.util.spec_from_file_location("check_digests", PATH)
check_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_digests)


def test_wrong_digest_is_reported():
    stored = json.loads((check_digests.PERFBENCH / "digests.json").read_text())
    passes = [list(p) for p in stored["agnostic-batch"]["0"]]
    passes[1][2] = "0" * 64
    runs, problems = check_digests.check({"agnostic-batch": {"0": passes}})
    assert runs == sum(len(p) for p in passes)
    assert len(problems) == 1
    assert problems[0].startswith("agnostic-batch seed 0 pass 1 slot 2 (")
    assert problems[0].endswith("!= 000000000000")


def test_misshapen_list_is_reported():
    runs, problems = check_digests.check({"agnostic-batch": {"0": [["0" * 64]]}})
    assert runs == 0
    assert problems == ["agnostic-batch seed 0: stored list is not shaped "
                        "like the workload's [6, 6, 6, 6]"]
