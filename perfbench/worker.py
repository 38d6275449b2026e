"""The workload process: runs one workload's cells in a closed loop.

Started fresh by ``run.py``; prints one JSON object on its last stdout
line. It imports oraclelab from ``src/`` of the checkout it lives in.

  python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (stop when the first cell would start), ``plain``
(untraced closed loop) or ``trace`` (traced loop, then the same cells
again untraced for the digest comparison and the tracing overhead).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

from oraclelab import harness  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import make_passes  # noqa: E402

# counters whose per-cell sums must equal the cell's ledger row
LEDGER = (
    ("oracles.label", "points", "label_queries"),
    ("oracles.search", "calls", "search_queries"),
    ("oracles.draw", "points", "unlabeled_draws"),
)


def run_cell(cell) -> dict:
    """Run one cell; ``ms`` is its wall time, ``cpu_ms`` the CPU time the
    process spent on it."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        row = harness.run_cell(cell.config, cell.seed, cell.epsilon)
    except Exception as exc:  # a failing cell is counted, not fatal
        return {"kind": cell.kind, "ms": (time.perf_counter() - t0) * 1e3,
                "cpu_ms": (time.process_time() - c0) * 1e3,
                "error": f"{type(exc).__name__}: {exc}"}
    ms = (time.perf_counter() - t0) * 1e3
    cpu_ms = (time.process_time() - c0) * 1e3
    csv = harness.rows_to_csv([row], with_timing=False)
    return {
        "kind": cell.kind, "ms": ms, "cpu_ms": cpu_ms,
        "digest": hashlib.sha256(csv.encode()).hexdigest(),
        "error": check_row(cell, row),
        "label_queries": row.label_queries,
        "search_queries": row.search_queries,
        "unlabeled_draws": row.unlabeled_draws,
    }


def check_row(cell, row) -> str | None:
    """Invariants every row satisfies whatever the seed."""
    cfg = cell.config
    tau = cfg.tau if cfg.algorithm == "aalarch" else 1.0
    floor = cfg.noise.get("eta", 0.0)
    if not floor - 1e-12 <= row.exact_error <= 1.0:
        return f"exact_error {row.exact_error} outside [{floor}, 1]"
    if row.label_queries > row.unlabeled_draws:
        return "more LABEL queries than draws"
    if abs(row.cost - (row.label_queries + tau * row.search_queries)) > 1e-9:
        return f"cost {row.cost} != labels + tau * searches"
    return None


def closed_loop(passes, seconds: float, min_passes: int, run=run_cell):
    """Run passes in order (wrapping around) until at least ``min_passes``
    ran and one more pass, as long as the last one, would end after
    ``seconds``. Returns the per-cell records and the elapsed wall time."""
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        t_pass = time.perf_counter()
        for slot, cell in enumerate(passes[done % len(passes)]):
            rec = run(cell)
            rec["pass"], rec["slot"] = done, slot
            records.append(rec)
        done += 1
        last = time.perf_counter() - t_pass
        elapsed = time.perf_counter() - start
        if done >= min_passes and elapsed + last > seconds:
            return records, elapsed


def traced_loop(passes, seconds: float, spans_path: Path) -> dict:
    """Traced closed loop with per-cell ledger reconciliation, then the
    same cells again untraced."""
    tracer = Tracer()

    def ledger_counts():
        return [
            tracer.stats[m].calls if k == "calls"
            else tracer.stats[m].counters.get(k, 0)
            for m, k, _ in LEDGER
        ]

    def traced_cell(cell):
        tracer.cell = next(cell_ids)
        before = ledger_counts()
        rec = run_cell(cell)
        if "digest" in rec and rec["error"] is None:
            for (m, k, field), b, a in zip(LEDGER, before, ledger_counts()):
                if a - b != rec[field]:
                    rec["error"] = (
                        f"ledger: {m}.{k} summed {a - b} != {field} "
                        f"{rec[field]}"
                    )
        return rec

    cell_ids = itertools.count()
    tracer.install()
    try:
        records, elapsed = closed_loop(passes, seconds, 1, traced_cell)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_path)
    replay, replay_elapsed = closed_loop(passes, 0.0, records[-1]["pass"] + 1)
    return {
        "records": records, "elapsed": elapsed,
        "replay": replay, "replay_elapsed": replay_elapsed,
        "stats": {name: {"calls": st.calls, "s": st.s, "self_s": st.self_s,
                         **st.counters}
                  for name, st in tracer.stats.items()},
        "spans": len(tracer.spans),
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    passes = make_passes(name, seed)
    # the parent reads the same monotonic clock to time set-up in wall
    # time. The CPU time is the main thread's since the process started:
    # the threads numpy's BLAS starts at import spin for a while, on
    # another CPU and off the path to the first cell
    result: dict = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC),
                    "setup_cpu": time.thread_time()}
    if mode == "plain":
        c0 = time.process_time()
        records, elapsed = closed_loop(passes, seconds, len(passes))
        result.update(records=records, elapsed=elapsed,
                      cpu=time.process_time() - c0)
    elif mode == "trace":
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        result.update(traced_loop(
            passes, 0.5 * seconds, out_dir / f"spans-{name}-seed{seed}.jsonl"
        ))
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    result["passes_per_list"] = len(passes)
    result["max_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
