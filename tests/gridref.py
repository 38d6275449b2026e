"""Definition-level reference implementations on finite grids.

Deliberately naive and independent of the library's sweep machinery:
enumerate hypotheses explicitly, evaluate predictions pointwise, and
decide everything straight from the definitions. Slow on purpose.
"""

from __future__ import annotations

import itertools

import numpy as np

from oraclelab.hypotheses import EnumeratedClass, IntervalUnion, Threshold, predict


def grid_interval_hypotheses(k_max: int, resolution: int) -> list[IntervalUnion]:
    """Every union of at most k_max disjoint closed grid intervals."""
    grid = np.linspace(0.0, 1.0, resolution)
    hyps = [IntervalUnion(())]
    pairs = [
        (a, b) for a in range(resolution) for b in range(a, resolution)
    ]
    for k in range(1, k_max + 1):
        for combo in itertools.combinations(pairs, k):
            ok = all(combo[i][1] < combo[i + 1][0] for i in range(k - 1))
            if ok and sorted(combo) == list(combo):
                hyps.append(
                    IntervalUnion(tuple((grid[a], grid[b]) for a, b in combo))
                )
    return hyps


def grid_threshold_hypotheses(resolution: int) -> list[Threshold]:
    return [Threshold(w) for w in np.linspace(0.0, 1.0, resolution)]


def consistent(h, examples) -> bool:
    return all(predict(h, x) == y for x, y in examples)


def survivors(hyps, examples):
    return [h for h in hyps if consistent(h, examples)]


def ref_dis_contains(pool, x: float) -> bool:
    preds = {predict(h, x) for h in pool}
    return len(preds) > 1


def ref_dis_mask(pool, xs: np.ndarray) -> np.ndarray:
    """Disagreement indicator on a grid of evaluation points."""
    preds = np.stack([np.array([predict(h, x) for x in xs]) for h in pool])
    return (preds.max(axis=0) != preds.min(axis=0))


def ref_agreement_label(pool, x: float) -> int:
    preds = {predict(h, x) for h in pool}
    assert len(preds) == 1
    return preds.pop()


def ref_min_consistent_index(hyps_by_k, examples, k_lo: int = 0) -> int | None:
    for k in range(k_lo, len(hyps_by_k)):
        if survivors(hyps_by_k[k], examples):
            return k
    return None


def ref_erm(pool, sample):
    """(index, hypothesis, error count) with ties to the lowest index."""
    best = None
    for i, h in enumerate(pool):
        errs = sum(1 for x, y in sample if predict(h, x) != y)
        if best is None or errs < best[2]:
            best = (i, h, errs)
    return best


def sup_threshold_error(vs, wstar: float) -> float:
    """sup over surviving thresholds of Pr[h != h*]; all their disagreement
    with h* lies inside DIS(V) because h* survives too."""
    return max(wstar - vs.lo, vs.hi - wstar)


def sup_interval_error(examples, target) -> float:
    """sup over 1-interval hypotheses consistent with the examples of
    their symmetric difference to the (consistent) 1-interval target: the
    feasible endpoints form a box and the piecewise-linear objective peaks
    at a corner."""
    (a_star, b_star), = target.intervals
    pos = sorted(x for x, y in examples if y == 1)
    neg = sorted(x for x, y in examples if y == -1)
    assert pos, "needs at least one positive seed"
    p_lo, p_hi = pos[0], pos[-1]
    left_negs = [x for x in neg if x < p_lo]
    right_negs = [x for x in neg if x > p_hi]
    l_min = max(left_negs) if left_negs else 0.0
    r_max = min(right_negs) if right_negs else 1.0
    left = max(abs(l_min - a_star), abs(p_lo - a_star))
    right = max(abs(r_max - b_star), abs(p_hi - b_star))
    return left + right


def codes_of_bounds(bounds: np.ndarray):
    """(cuts, lo, hi) of an (n, slots, 2) float endpoint tensor whose
    unused slots hold an endpoint above 1: the cuts are the sorted distinct
    real endpoints, and each real slot's code range is found by searching
    them for its two endpoints."""
    ends = np.unique(bounds)
    cuts = ends[ends <= 1.0]
    real = bounds[:, :, 0] <= 1.0
    lo = np.where(real, 2 * np.searchsorted(cuts, bounds[:, :, 0]) + 1, 0)
    hi = np.where(real, 2 * np.searchsorted(cuts, bounds[:, :, 1]) + 1, -1)
    return cuts, lo, hi


def enumerated_class(class_id, k, vc_dim, bounds, kind="intervals"):
    """The EnumeratedClass whose members are the rows of ``bounds`` (see
    ``codes_of_bounds``), on the grid of their own cuts."""
    return EnumeratedClass(class_id, k, vc_dim, *codes_of_bounds(bounds), kind)
