"""Self-tests of the benchmark's tracer and ledger reconciliation.

  python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts src/ on the path and imports oraclelab)
from tracer import PROBES, Probe, Tracer, module_self_s  # noqa: E402
from workloads import WORKLOADS, make_passes  # noqa: E402

import oraclelab  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every oraclelab module and of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "oraclelab" and not name.startswith("oraclelab."):
            continue
        for attr, value in list(vars(mod).items()):
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    out[(name, attr, cattr)] = cvalue
    return out


def test_uninstall_restores_every_patched_attribute():
    before = _bindings()
    sigma, sal_step = oraclelab.bounds.sigma, oraclelab.oracles.sal_step
    run_aalarch = oraclelab.anytime.run_aalarch
    tracer = Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        # sigma is bound by bounds, realizable, agnostic, anytime and the
        # package itself; every binding must route through the wrapper
        sigma_bindings = [k for k in changed if before[k] is sigma]
        assert len(sigma_bindings) == 5
        assert oraclelab.anytime.sal_step.__wrapped__ is sal_step
        assert oraclelab.harness.run_aalarch.__wrapped__ is run_aalarch
    finally:
        tracer.uninstall()
    after = _bindings()
    assert len(changed) >= len(PROBES)
    assert all(after[k] is before[k] for k in before)


def test_self_time_on_a_synthetic_span_tree(tmp_path):
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    def wrap(name, fn, span=True):
        return tracer.wrap(Probe("m", "f", name, span=span), fn)

    def d():
        work(6)

    def b():
        work(4)
        d_()
        work(5)

    def c():
        work(7)

    def a():
        work(1)
        b_()
        work(2)
        c_()
        work(3)
        f_(2)

    def f(depth):  # nested calls of one probe fold into the outer call
        work(1)
        if depth:
            f_(depth - 1)

    d_ = wrap("x.d", d, span=False)
    b_, c_, f_ = wrap("x.b", b), wrap("y.c", c), wrap("y.f", f)
    a_ = wrap("x.a", a)
    tracer.cell = 7
    a_()

    s = {name: (st.calls, st.s, st.self_s) for name, st in tracer.stats.items()}
    assert s["x.d"] == (1, 6, 6)
    assert s["x.b"] == (1, 15, 9)
    assert s["y.c"] == (1, 7, 7)
    assert s["y.f"] == (1, 3, 3)
    assert s["x.a"] == (1, 31, 6)
    self_s = {name: st.self_s for name, st in tracer.stats.items()}
    assert module_self_s(self_s) == {"x": 21, "y": 10}

    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    spans = {r["name"]: r for r in map(json.loads, path.read_text().split("\n")[:-1])}
    assert set(spans) == {"x.a", "x.b", "y.c", "y.f"}  # no span for x.d
    root = spans["x.a"]
    assert root["parent"] is None and (root["start"], root["end"]) == (0, 31)
    assert all(spans[n]["parent"] == root["id"] for n in ("x.b", "y.c", "y.f"))
    assert all(r["cell"] == 7 for r in spans.values())
    assert len({r["id"] for r in spans.values()}) == 4


def test_ledger_reconciles_on_one_small_cell_per_workload(tmp_path):
    for name in WORKLOADS:
        cells = make_passes(name, 0)[0]
        small = [c for c in cells if c.kind in (
            "larch-k3-1e-3", "alarch-k2-kstar2", "aalarch-k1-tau32")]
        out = worker.traced_loop([small[:1]], 0.0, tmp_path / f"{name}.jsonl")
        (rec,), (again,) = out["records"], out["replay"]
        assert rec["error"] is None, rec
        assert rec["digest"] == again["digest"]
        assert out["stats"]["oracles.label"]["points"] == rec["label_queries"]
        assert out["stats"]["oracles.search"]["calls"] == rec["search_queries"]
        assert out["stats"]["oracles.draw"]["points"] == rec["unlabeled_draws"]
