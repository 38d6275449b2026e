"""Masked version spaces: the endpoint-count verdicts and breakpoints
against a dense float reference, and the survivors' predictions against
the class's."""

from __future__ import annotations

import numpy as np
import pytest

from oraclelab import hypotheses as hyp
from oraclelab.hypotheses import MaskedVersionSpace, NestedClassSequence
from test_cell_codes import dense_predictions


def dense_verdicts(vs, pts) -> np.ndarray:
    """The table rule. Per point: +1 if every survivor predicts +1 there,
    -1 if none does, 0 otherwise, with the (points, survivors) table of
    predictions from the dense float formula on the survivors' endpoints
    (an unused slot reads [1.5, 1.5], which no point reaches)."""
    cls = vs.cls
    probe = np.append(cls.grid, 1.5)
    lo, hi = cls._lo[vs.mask], cls._hi[vs.mask]
    bounds = np.stack([probe[(lo - 1) // 2], probe[(hi - 1) // 2]], axis=2)
    cols = dense_predictions(bounds, pts).T
    all_pos = cols.all(axis=1)
    verdict = np.where(all_pos, 1, -1)
    verdict[cols.any(axis=1) & ~all_pos] = 0
    return verdict


def endpoint_breaks(vs) -> np.ndarray:
    """0, 1 and every real endpoint of a survivor."""
    cls = vs.cls
    ends = np.concatenate([cls._lo[vs.mask], cls._hi[vs.mask]], axis=None)
    return np.unique(np.concatenate(([0.0, 1.0], cls.grid[(ends[ends > 0] - 1) // 2])))


def code_points(grid) -> np.ndarray:
    """One point in the cell of every code 0..2*len(grid), in order."""
    pts = np.empty(2 * len(grid) + 1)
    pts[0], pts[-1] = grid[0] - 1.0, grid[-1] + 1.0
    pts[1::2] = grid
    pts[2:-1:2] = 0.5 * (grid[:-1] + grid[1:])
    return pts


def masks(cls, rng, trials=8):
    n = len(cls)
    yield np.ones(n, dtype=bool)  # the full class
    for i in (0, n - 1, int(rng.integers(n))):  # lone survivors
        lone = np.zeros(n, dtype=bool)
        lone[i] = True
        yield lone
    for _ in range(trials):
        yield rng.random(n) < rng.choice([0.002, 0.05, 0.5, 0.95])


def fresh_class(k_max, r, k):
    """Class k of a sequence built apart from the shared one, so its
    arrays go when the test ends."""
    return hyp._enumerated_intervals.__wrapped__(k_max, r).classes[k]


@pytest.mark.parametrize("seed, make", [
    pytest.param(1, lambda: fresh_class(1, 41, 1), id="k1-r41"),
    pytest.param(2, lambda: fresh_class(2, 21, 2), id="k2-r21"),
    pytest.param(3, lambda: fresh_class(3, 21, 3), id="k3-r21"),
    pytest.param(4, lambda: NestedClassSequence.threshold_grid(201), id="thresholds-r201"),
])
def test_endpoint_pass_matches_table_rule(seed, make):
    cls = make()
    rng = np.random.default_rng(seed)
    pts = code_points(cls.grid)
    assert np.array_equal(cls.codes(pts), np.arange(cls._n_codes))
    seen = 0
    for mask in masks(cls, rng):
        if not mask.any():
            continue
        vs = MaskedVersionSpace(cls, mask)
        in_dis, label = vs._verdicts(pts)
        want = dense_verdicts(vs, pts)
        assert np.array_equal(label, want)
        assert np.array_equal(in_dis, want == 0)
        assert np.array_equal(vs._breakpoints(), endpoint_breaks(vs))
        seen += 1
    assert seen >= 4


def test_unused_slots_cancel():
    # in the k=3 class, member 0 is the empty union (three unused slots)
    # and the k=1 members leave two slots unused
    seq = hyp._enumerated_intervals.__wrapped__(3, 21)
    cls, n1 = seq.classes[3], len(seq.classes[1])
    pts = code_points(cls.grid)
    for picks in ([0], [5], [0, 5], [0, n1 - 1, n1, len(cls) - 1]):
        mask = np.zeros(len(cls), dtype=bool)
        mask[picks] = True
        vs = MaskedVersionSpace(cls, mask)
        assert (cls._lo[picks] == 0).any()
        assert np.array_equal(vs._verdicts(pts)[1], dense_verdicts(vs, pts))
        assert np.array_equal(vs._breakpoints(), endpoint_breaks(vs))


@pytest.mark.parametrize("seed, make", [
    pytest.param(5, lambda: fresh_class(3, 21, 3), id="k3-r21"),
    pytest.param(6, lambda: NestedClassSequence.threshold_grid(201), id="thresholds-r201"),
])
def test_survivor_rows_are_the_survivors_predictions(seed, make):
    cls = make()
    rng = np.random.default_rng(seed)
    # the k<=2 members of the k=3 class leave slots unused; a slot [g, g]
    # covers the one point code of g
    if cls.kind == "intervals":
        assert (cls._lo == 0).any() and (cls._lo[:, 0] == cls._hi[:, 0]).any()
    # half the points on the grid, where the point codes are
    xs = np.concatenate([rng.random(40), rng.choice(cls.grid, 40)])
    for mask in masks(cls, rng):
        vs = MaskedVersionSpace(cls, mask)
        want = cls.predictions(xs).T[:, mask]
        assert np.array_equal(vs.survivor_rows(xs), want)
        # the second call reads the kept endpoints
        assert np.array_equal(vs.survivor_rows(xs[::-1]), want[::-1])
