"""Same-session parent/change pairs of the benchmark, summarized into a
``BENCH_<label>.json``.

  python3 tools/bench_pairs.py --parent REV --label L --pairs N \
      [--workload W ...] [--self-pairs M [--self-workload W ...]]

Run from the root of a checkout. Both sides run from fresh trees in two
sibling temporary directories: the parent side is ``git archive REV``
unpacked, the change side a copy of the working tree's tracked and
untracked, non-ignored files (``tree_files``), so neither side carries
``__pycache__`` or ``perfbench/out``. For each workload (all of
BENCHMARK.json's by default) and each pair, ``perfbench/run.py --trace
0`` runs once on each side, for BENCHMARK.json's ``run_seconds``, at
seed FIRST_SEED + pair index. The side that runs first alternates from
pair to pair, so a drift of the host over the session falls on both
sides alike. Only paired runs in one session can back a claim: the same
code can run twice as fast on another day.

The summary holds, per end-to-end metric, each side's median and
quartiles, the number of pairs the change won (strictly better, in the
direction BENCHMARK.json gives), whether the change's median beats
the parent's by more than the parent's interquartile range, and the
``no_worse`` verdict against BENCHMARK.json's bound.

With ``--self-pairs M``, each workload named by ``--self-workload`` (by
default every workload run) also gets M parent-against-parent pairs,
run right after its pairs at the same seeds, with the parent's tree on
both sides. Their ``self_spread`` summary is the session's noise floor:
how often identical code "wins", how far its median moves and how wide
its runs spread, next to the claim it has to back.

Per workload with enumerated classes, it also times one cell of the
largest enumerated class the workload uses (the first
``intervals-enumerated`` cell with the largest ``k_max``) in fresh
processes: the first run of that cell in the process and a second run of
the same cell right after. A cache that lives for the process shows as a
gap between the two; a faster enumeration shows in the first alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 11  # digests.json pins seeds 0-10
FIRST_CELL_RUNS = 3  # fresh processes per side

# CPU time of the first and of the second run of one cell, in a fresh
# interpreter that imports oraclelab from the given checkout
FIRST_CELL = """
import sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from workloads import make_passes
from oraclelab.harness import run_cell
cells = [c for c in make_passes(sys.argv[2], int(sys.argv[3]))[0]
         if c.config.family == "intervals-enumerated"]
if not cells:
    print("none")
    sys.exit()
cell = max(cells, key=lambda c: c.config.k_max)
times = []
for _ in range(2):
    t0 = time.process_time()
    run_cell(cell.config, cell.seed, cell.epsilon)
    times.append(time.process_time() - t0)
print(cell.kind, *times)
"""


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method); one value is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def no_worse(parent: list[float], change: list[float], way: str,
             bound: float) -> str:
    """"worse", "unresolved" or "not worse": the change's runs against
    the parent's, for a metric that may worsen by ``bound`` (a fraction
    of the parent's median) before it counts as a regression.

    Worse: the change's median is worse than the parent's by more than
    the bound. Unresolved: not worse, but the wider side's interquartile
    range exceeds the bound, so the runs spread too widely to tell, and
    not every run of the change beats every run of the parent."""
    sign = 1.0 if way == "higher" else -1.0
    ps, cs = quartiles(parent), quartiles(change)
    room = bound * abs(ps["median"])
    if sign * (cs["median"] - ps["median"]) < -room:
        return "worse"
    spread = max(ps["q3"] - ps["q1"], cs["q3"] - cs["q1"])
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > room and not beats_all:
        return "unresolved"
    return "not worse"


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: both sides' median and quartiles, the pairs the change
    won, whether its median clears the parent's interquartile range and,
    for a metric in ``bounds``, the ``no_worse`` verdict.

    ``pairs`` holds one ``{"parent": {metric: value}, "change": {...}}``
    per pair; ``better`` maps each metric to "higher" or "lower" and
    ``bounds`` to the fraction by which it may worsen."""
    out = {}
    for name, way in better.items():
        sign = 1.0 if way == "higher" else -1.0
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        ps, cs = quartiles(parent), quartiles(change)
        gain = sign * (cs["median"] - ps["median"])
        out[name] = {
            "better": way,
            "parent": ps,
            "change": cs,
            "change_won": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "change_over_parent": (
                cs["median"] / ps["median"] if ps["median"] else None
            ),
            "beyond_parent_iqr": gain > ps["q3"] - ps["q1"],
        }
        if bounds and name in bounds:
            out[name]["no_worse"] = no_worse(parent, change, way, bounds[name])
    return out


def self_spread(pairs: list[dict], better: dict[str, str]) -> dict:
    """``summarize`` of parent-against-parent pairs, plus per metric the
    interquartile range of both sides' runs pooled, over their median, and
    the median and largest gap within a pair, over its "parent" run.
    A claimed gain smaller than these is inside the noise."""
    out = summarize(pairs, better)
    for name, row in out.items():
        runs = [p[side][name] for p in pairs for side in ("parent", "change")]
        pooled = quartiles(runs)
        gaps = [abs(p["change"][name] - p["parent"][name]) / abs(p["parent"][name])
                for p in pairs if p["parent"][name]]
        row["pooled_iqr_over_median"] = (
            (pooled["q3"] - pooled["q1"]) / pooled["median"]
            if pooled["median"] else None)
        row["pair_gap_median"] = statistics.median(gaps) if gaps else None
        row["pair_gap_max"] = max(gaps) if gaps else None
    return out


def run_pairs(sides: dict[str, Path], workload: str, n: int,
              seconds: float) -> list[dict]:
    """n pairs of ``run_bench`` on sides["parent"] and sides["change"],
    pair i at seed FIRST_SEED + i, the side that runs first alternating."""
    pairs = []
    for i in range(n):
        seed = FIRST_SEED + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {side: run_bench(sides[side], workload, seed, seconds)
                for side in order}
        pairs.append({"seed": seed, "first": order[0], **runs})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {runs[side]['metrics']['cells_per_s']:.3g} cells/s"
            for side in order), file=sys.stderr, flush=True)
    return pairs


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy_version}


def tree_files(root: Path) -> list[str]:
    """The working tree's files as git sees them: tracked ones that still
    exist, plus untracked ones that no ignore rule covers."""
    out = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout.decode()
    return sorted({n for n in out.split("\0") if n and (root / n).is_file()})


def copy_tree(root: Path, dest: Path) -> None:
    """Copy ``tree_files(root)`` into dest, keeping their paths."""
    for name in tree_files(root):
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / name, dest / name)


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def first_cell(root: Path, workload: str, seed: int) -> dict | None:
    """CPU s of the first and second run of the workload's largest
    enumerated cell, or None if it has no enumerated cell."""
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_CELL, str(root), workload, str(seed)],
        capture_output=True, text=True, check=True)
    if proc.stdout.split() == ["none"]:
        return None
    kind, first, second = proc.stdout.split()
    return {"cell": kind, "first_s": float(first), "second_s": float(second)}


def first_cells(sides: dict[str, Path], workload: str) -> dict | None:
    """``first_cell`` in FIRST_CELL_RUNS fresh processes per side, the
    side that runs first alternating; None without enumerated cells."""
    if first_cell(sides["change"], workload, FIRST_SEED) is None:
        return None
    runs = []
    for i in range(FIRST_CELL_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs.append({side: first_cell(sides[side], workload, FIRST_SEED)
                     for side in order})
    return {
        "what": "CPU s of one cell of the workload's largest enumerated "
                "class, run twice in a fresh process",
        "cell": runs[0]["change"]["cell"],
        **{side: {key: statistics.median(r[side][key] for r in runs)
                  for key in ("first_s", "second_s")}
           for side in sides},
        "runs": runs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision")
    ap.add_argument("--label", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="repeat for several; default every workload")
    ap.add_argument("--self-pairs", type=int, default=0, metavar="M",
                    help="parent-against-parent pairs per --self-workload")
    ap.add_argument("--self-workload", action="append",
                    help="repeat for several; default every workload run")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    self_workloads = args.self_workload or workloads
    rev = subprocess.run(["git", "rev-parse", "--short", args.parent],
                         cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout.strip()
    report = {
        "label": args.label,
        "parent": rev,
        "change": "working tree of the checkout: tracked and untracked, "
                  "non-ignored files",
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": (
            "same session; the parent (git archive) and the change (a copy "
            "of the working tree), each unpacked into a sibling temporary "
            "directory, run in turn, the side that runs first alternating "
            "from pair to pair; "
            f"pair i runs at seed {FIRST_SEED} + i"),
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        sides["parent"].mkdir()
        archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(sides["parent"])],
                       stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")
        copy_tree(ROOT, sides["change"])
        for workload in workloads:
            pairs = run_pairs(sides, workload, args.pairs, seconds)
            report["workloads"][workload] = {
                "summary": summarize(
                    [{s: p[s]["metrics"] for s in sides} for p in pairs],
                    better, bounds),
                "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
                "pairs": pairs,
            }
            if args.self_pairs and workload in self_workloads:
                both = {side: sides["parent"] for side in sides}
                own = run_pairs(both, workload, args.self_pairs, seconds)
                report["workloads"][workload]["self_pairs"] = {
                    "what": "the parent against itself, same tree on both "
                            "sides, at the seeds of the pairs above",
                    "spread": self_spread(
                        [{s: p[s]["metrics"] for s in sides} for p in own],
                        better),
                    "all_correct": all(p[s]["correct"] for p in own
                                       for s in sides),
                    "pairs": own,
                }
            cells = first_cells(sides, workload)
            if cells is not None:
                report["workloads"][workload]["first_cell"] = cells
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
