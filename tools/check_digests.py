"""Run every benchmark cell that ``perfbench/digests.json`` pins and
compare its row digest with the stored one.

  python3 tools/check_digests.py

Run from anywhere in a checkout. For each stored (workload, seed) cell
list, the seed's cells (``workloads.make_passes``) run once, in this
process, through the benchmark's own ``worker.run_cell``, which imports
oraclelab from this checkout's ``src/``. Every cell that raises, breaks
a row invariant or gives another digest than the stored one is printed;
the exit status is 1 if there is any, else 0. Taking no timings, it
checks in about 40 s of CPU what a ``perfbench/run.py`` run at each of
those seeds would check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from worker import run_cell  # noqa: E402  (puts src/ on the path)
from workloads import make_passes  # noqa: E402


def check(stored: dict) -> tuple[int, list[str]]:
    """(cells run, one line per problem) for ``stored``, laid out as
    digests.json is: {workload: {seed: [[digest per slot] per pass]}}."""
    runs, problems = 0, []
    for workload, seeds in stored.items():
        for seed, want_passes in seeds.items():
            passes = make_passes(workload, int(seed))
            shape = [len(p) for p in passes]
            if [len(p) for p in want_passes] != shape:
                problems.append(f"{workload} seed {seed}: stored list is not "
                                f"shaped like the workload's {shape}")
                continue
            for p, (cells, wants) in enumerate(zip(passes, want_passes)):
                for slot, (cell, want) in enumerate(zip(cells, wants)):
                    rec = run_cell(cell)
                    runs += 1
                    where = f"{workload} seed {seed} pass {p} slot {slot} ({cell.kind})"
                    if rec["error"]:
                        problems.append(f"{where}: {rec['error']}")
                    elif rec["digest"] != want:
                        problems.append(
                            f"{where}: digest {rec['digest'][:12]} != {want[:12]}")
    return runs, problems


def main() -> int:
    runs, problems = check(json.loads((PERFBENCH / "digests.json").read_text()))
    for line in problems:
        print(line)
    print(f"{runs} cells run, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
