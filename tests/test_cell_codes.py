"""Cell-code evaluation of enumerated classes against independent references.

The references are a copy of the dense float formula the cell codes
replaced (every point compared with every endpoint), the pointwise
definitions in ``gridref``, and the recursive enumeration the vectorized
one replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

import gridref
from oraclelab.hypotheses import (
    POS,
    EnumeratedClass,
    Indexed,
    IntervalUnion,
    NestedClassSequence,
    Threshold,
    _exact_k_interval_rows,
    predict,
)


def dense_predictions(bounds, xs):
    xs = np.asarray(xs, dtype=np.float64)
    inside = (xs[None, None, :] >= bounds[:, :, 0:1]) & (
        xs[None, None, :] <= bounds[:, :, 1:2]
    )
    return inside.any(axis=1)


def dense_err_counts(bounds, xs, ys, indices=None):
    b = bounds if indices is None else bounds[indices]
    return (dense_predictions(b, xs) != (np.asarray(ys) == POS)[None, :]).sum(axis=1)


def recursive_rows(grid, k, slots):
    """The enumeration the vectorized one replaced, kept as a reference."""
    r = len(grid)
    rows = []

    def rec(start, chosen):
        if len(chosen) == k:
            rows.append([grid[i] for pair in chosen for i in pair])
            return
        remaining = k - len(chosen) - 1
        for a in range(start, r - remaining):
            for b in range(a, r - remaining):
                rec(b + 1, chosen + [(a, b)])

    rec(0, [])
    out = np.full((len(rows), slots, 2), 1.5)
    for i, row in enumerate(rows):
        out[i, :k] = np.reshape(row, (k, 2))
    return out


def probe_points(cls, rng, n_random=12):
    """Points on every cut, between every pair of cuts, 0.0, 1.0 and a few
    uniform draws."""
    cuts = cls.cuts
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return np.concatenate([cuts, mids, [0.0, 1.0], rng.random(n_random)])


def hand_built_class(rng, n=40, slots=3):
    """Off-grid endpoints: random sorted disjoint intervals, padded with
    the sentinel, some rows with fewer real slots than others."""
    bounds = np.full((n, slots, 2), 1.5)
    for i in range(n):
        used = int(rng.integers(0, slots + 1))
        ends = np.sort(rng.choice(rng.random(2 * slots + 4), 2 * used, replace=False))
        bounds[i, :used] = ends.reshape(used, 2)
    return EnumeratedClass("hand", slots, 2 * slots, bounds, "intervals", grid=None)


def random_classes(rng):
    r = int(rng.integers(5, 13))
    k_max = int(rng.integers(0, 4))
    seq = NestedClassSequence.enumerated_intervals(k_max, resolution=r)
    yield from seq.classes
    yield NestedClassSequence.threshold_grid(r)
    yield EnumeratedClass("k0", 0, 0, np.full((1, 1, 2), 1.5))
    yield hand_built_class(rng)


def test_codes_follow_the_definition():
    cls = hand_built_class(np.random.default_rng(0))
    cuts = cls.cuts
    for x in probe_points(cls, np.random.default_rng(1)):
        j = int(np.sum(cuts < x))
        want = 2 * j + 1 if j < len(cuts) and cuts[j] == x else 2 * j
        assert cls.codes(float(x)) == want
        assert cls.codes(np.array([x]))[0] == want
        assert cls.codes(np.array(x)) == want


@pytest.mark.parametrize("seed", range(12))
def test_kernels_match_dense_formula(seed):
    rng = np.random.default_rng(seed)
    for cls in random_classes(rng):
        xs = probe_points(cls, rng)
        ys = rng.choice([-1, 1], size=len(xs))
        size = max(1, len(cls) // 3)
        subset = np.sort(rng.choice(len(cls), size=size, replace=False))
        assert np.array_equal(cls.predictions(xs), dense_predictions(cls.bounds, xs))
        for idx in (None, subset):
            got = cls.err_counts(xs, ys, idx)
            assert got.dtype == np.int64
            assert np.array_equal(got, dense_err_counts(cls.bounds, xs, ys, idx))
        for j in rng.choice(len(xs), size=5):
            assert np.array_equal(cls.rows(float(xs[j])), cls.predictions(xs)[:, j])
        exs = list(zip(xs[:6].tolist(), ys[:6].tolist()))
        want = dense_err_counts(cls.bounds, xs[:6], ys[:6]) == 0
        assert np.array_equal(cls.consistent_mask(exs), want)


def test_empty_points_and_empty_selection():
    for cls in random_classes(np.random.default_rng(5)):
        empty = np.empty(0)
        assert cls.predictions(empty).shape == (len(cls), 0)
        assert np.array_equal(cls.err_counts(empty, empty), np.zeros(len(cls)))
        assert cls.consistent_mask([]).all()
        none = np.empty(0, dtype=np.intp)
        assert cls.err_counts([0.5], [1], none).shape == (0,)


@pytest.mark.parametrize("k_max,r", [(1, 9), (2, 7), (3, 6)])
def test_kernels_match_gridref(k_max, r):
    rng = np.random.default_rng(k_max * 100 + r)
    cls = NestedClassSequence.enumerated_intervals(k_max, resolution=r).classes[k_max]
    hyps = gridref.grid_interval_hypotheses(k_max, r)
    assert [cls.hypothesis(i) for i in range(len(cls))] == hyps
    xs = probe_points(cls, rng, n_random=6)
    ys = rng.choice([-1, 1], size=len(xs))
    want_pred = np.array([[predict(h, x) == POS for x in xs] for h in hyps])
    assert np.array_equal(cls.predictions(xs), want_pred)
    want_err = [sum(predict(h, x) != y for x, y in zip(xs, ys)) for h in hyps]
    assert cls.err_counts(xs, ys).tolist() == want_err
    exs = list(zip(xs[:4].tolist(), ys[:4].tolist()))
    want_mask = [gridref.consistent(h, exs) for h in hyps]
    assert cls.consistent_mask(exs).tolist() == want_mask


def test_threshold_grid_matches_gridref():
    cls = NestedClassSequence.threshold_grid(11)
    hyps = gridref.grid_threshold_hypotheses(11)
    xs = probe_points(cls, np.random.default_rng(3))
    want = np.array([[predict(h, x) == POS for x in xs] for h in hyps])
    assert np.array_equal(cls.predictions(xs), want)


@pytest.mark.parametrize("r", range(1, 10))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumeration_matches_recursive_order(r, k):
    grid = np.linspace(0.0, 1.0, r)
    got = _exact_k_interval_rows(grid, k, 3)
    assert np.array_equal(got, recursive_rows(grid, k, 3))


def loop_index_of(cls, h):
    """The member-by-member scan that index_of replaced."""
    if isinstance(h, Indexed):
        return h.index if h.class_id == cls.class_id else None
    for j in range(len(cls)):
        if cls.hypothesis(j) == h:
            return j
    return None


def test_index_of_matches_loop():
    rng = np.random.default_rng(11)
    seq = NestedClassSequence.enumerated_intervals(2, resolution=7)
    thresholds = NestedClassSequence.threshold_grid(9)
    probes = [
        IntervalUnion(()),
        IntervalUnion(((0.1, 0.2),)),  # off the grid
        IntervalUnion(((0.0, 1.0),)),
        IntervalUnion(((0.0, 0.5), (2 / 3, 1.0))),
        IntervalUnion(((0.0, 1 / 6), (1 / 3, 0.5), (2 / 3, 1.0))),  # k=3
        Threshold(0.5),
        Threshold(0.3),
        Indexed("intervals_k2", 17),
        Indexed("intervals_k1", 3),
        Indexed(thresholds.class_id, 4),
    ]
    for cls in [*seq.classes, thresholds, hand_built_class(rng)]:
        members = [cls.hypothesis(int(j)) for j in rng.choice(len(cls), size=5)]
        for h in probes + members:
            assert cls.index_of(h) == loop_index_of(cls, h), (cls.class_id, h)


def test_malformed_rows_are_rejected():
    overlap = np.array([[[0.1, 0.5], [0.4, 0.6]]])
    with pytest.raises(ValueError, match="disjoint"):
        EnumeratedClass("bad", 2, 4, overlap)
    gap_first = np.array([[[1.5, 1.5], [0.4, 0.6]]])
    with pytest.raises(ValueError, match="ahead of the empty"):
        EnumeratedClass("bad", 2, 4, gap_first)
    reversed_ends = np.array([[[0.6, 0.4]]])
    with pytest.raises(ValueError):
        EnumeratedClass("bad", 1, 2, reversed_ends)
