"""Every function the benchmark's tracer probes still exists.

``perfbench/tracer.py`` wraps the functions listed in its ``PROBES`` by
module and attribute path, so renaming or deleting one of them breaks
the traced benchmark run (``perfbench/run.py --trace 1``). This test
only reads ``PROBES``; it changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod.PROBES


PROBES = load_probes()


@pytest.mark.parametrize(
    "probe", PROBES, ids=lambda p: f"{p.module}:{p.path}"
)
def test_probe_resolves(probe):
    owner = importlib.import_module(probe.module)
    if "." in probe.path:
        # methods are wrapped through the class's own namespace
        cls_name, attr = probe.path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, probe.path))
