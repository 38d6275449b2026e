"""Cell-code evaluation of enumerated classes against independent references.

The references are float endpoint tensors held here, never read back from
a class: the recursive enumeration the vectorized one replaced, threshold
and hand-made rows built in the test, the dense float formula the cell
codes replaced (every point compared with every endpoint), and the
pointwise definitions in ``gridref``. Unused slots hold the endpoint 1.5,
which no point in [0,1] reaches.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import gridref
from oraclelab.hypotheses import (
    POS,
    EnumeratedClass,
    IntervalUnion,
    NestedClassSequence,
    Threshold,
    _combinations,
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


def sequence_rows(grid, k_max):
    """Reference rows of the top class of an enumerated sequence: H_0's
    one empty member, then every block of exactly k intervals."""
    slots = max(k_max, 1)
    return np.concatenate([recursive_rows(grid, k, slots) for k in range(k_max + 1)])


def threshold_rows(grid):
    rows = np.full((len(grid), 1, 2), 1.5)
    rows[:, 0, 0] = grid
    rows[:, 0, 1] = 1.0
    return rows


def code_floats(grid, lo, hi):
    """Endpoint tensor of code ranges on ``grid``, unused slots at 1.5."""
    out = np.full(lo.shape + (2,), 1.5)
    real = lo > 0
    out[real, 0] = grid[(lo[real] - 1) // 2]
    out[real, 1] = grid[(hi[real] - 1) // 2]
    return out


def probe_points(bounds, rng, n_random=12):
    """Points on every real endpoint, between every pair of neighbouring
    endpoints, 0.0, 1.0 and a few uniform draws."""
    cuts = np.unique(bounds[bounds <= 1.0])
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    return np.concatenate([cuts, mids, [0.0, 1.0], rng.random(n_random)])


def hand_built_rows(rng, n=40, slots=3):
    """Off-grid endpoints: random sorted disjoint intervals, some rows with
    fewer real slots than others."""
    bounds = np.full((n, slots, 2), 1.5)
    for i in range(n):
        used = int(rng.integers(0, slots + 1))
        ends = np.sort(rng.choice(rng.random(2 * slots + 4), 2 * used, replace=False))
        bounds[i, :used] = ends.reshape(used, 2)
    return bounds


def hand_built_class(rng):
    bounds = hand_built_rows(rng)
    return gridref.enumerated_class("hand", 3, 6, bounds), bounds


def random_classes(rng):
    """(class, its reference rows) pairs."""
    r = int(rng.integers(5, 13))
    k_max = int(rng.integers(0, 4))
    seq = NestedClassSequence.enumerated_intervals(k_max, resolution=r)
    ref = sequence_rows(np.linspace(0.0, 1.0, r), k_max)
    for cls in seq.classes:  # each class is a prefix of the top one
        yield cls, ref[: len(cls)]
    yield NestedClassSequence.threshold_grid(r), threshold_rows(np.linspace(0, 1, r))
    empty = np.full((1, 1, 2), 1.5)
    yield gridref.enumerated_class("k0", 0, 0, empty), empty
    yield hand_built_class(rng)


def test_codes_follow_the_definition():
    cls, bounds = hand_built_class(np.random.default_rng(0))
    cuts = cls.grid
    for x in probe_points(bounds, np.random.default_rng(1)):
        j = int(np.sum(cuts < x))
        want = 2 * j + 1 if j < len(cuts) and cuts[j] == x else 2 * j
        assert cls.codes(float(x)) == want
        assert cls.codes(np.array([x]))[0] == want
        assert cls.codes(np.array(x)) == want


@pytest.mark.parametrize("seed", range(12))
def test_kernels_match_dense_formula(seed):
    rng = np.random.default_rng(seed)
    for cls, bounds in random_classes(rng):
        assert len(cls) == len(bounds)
        xs = probe_points(bounds, rng)
        ys = rng.choice([-1, 1], size=len(xs))
        size = max(1, len(cls) // 3)
        subset = np.sort(rng.choice(len(cls), size=size, replace=False))
        assert np.array_equal(cls.predictions(xs), dense_predictions(bounds, xs))
        for idx in (None, subset):
            got = cls.err_counts(xs, ys, idx)
            assert got.dtype == np.int64
            assert np.array_equal(got, dense_err_counts(bounds, xs, ys, idx))
        for j in rng.choice(len(xs), size=5):
            one = cls.predictions([xs[j]])[:, 0]
            assert np.array_equal(one, cls.predictions(xs)[:, j])
        exs = list(zip(xs[:6].tolist(), ys[:6].tolist()))
        want = dense_err_counts(bounds, xs[:6], ys[:6]) == 0
        assert np.array_equal(cls.consistent_mask(exs), want)


def test_empty_points_and_empty_selection():
    for cls, _ in random_classes(np.random.default_rng(5)):
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
    xs = probe_points(np.linspace(0.0, 1.0, r), rng, n_random=6)
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
    assert [cls.hypothesis(i) for i in range(len(cls))] == hyps
    cuts, lo, hi = gridref.codes_of_bounds(threshold_rows(cls.grid))
    assert np.array_equal(cuts, cls.grid)
    assert np.array_equal(cls._lo, lo) and np.array_equal(cls._hi, hi)
    xs = probe_points(np.linspace(0.0, 1.0, 11), np.random.default_rng(3))
    want = np.array([[predict(h, x) == POS for x in xs] for h in hyps])
    assert np.array_equal(cls.predictions(xs), want)


@pytest.mark.parametrize("r", range(1, 10))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_enumeration_matches_recursive_order(r, k):
    grid = np.linspace(0.0, 1.0, r)
    lo, hi = _exact_k_interval_rows(r, k, 3)
    assert np.array_equal(code_floats(grid, lo, hi), recursive_rows(grid, k, 3))


@pytest.mark.parametrize("n,m", [(24, 6), (23, 4), (10, 4), (42, 2), (4, 6), (5, 0)])
def test_combinations_match_itertools(n, m):
    """The column-by-column generator emits itertools' order; (42, 2) is
    the k=1 block at r=41, (24, 6) the k=3 block at r=21."""
    want = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    got = _combinations(n, m)
    assert got.shape == (math.comb(n, m), m)
    assert np.array_equal(got, want.reshape(got.shape))


def test_k1_block_at_r41_matches_itertools():
    lo, hi = _exact_k_interval_rows(41, 1, 1)
    pairs = [(a, b - 1) for a, b in itertools.combinations(range(42), 2)]
    assert np.array_equal(lo[:, 0], [2 * a + 1 for a, _ in pairs])
    assert np.array_equal(hi[:, 0], [2 * b + 1 for _, b in pairs])


@pytest.mark.parametrize("r", range(1, 10))
@pytest.mark.parametrize("k_max", range(4))
def test_code_ranges_match_the_float_route(r, k_max):
    """The code ranges equal those found by searching the sorted distinct
    endpoints of the reference rows. Those endpoints are the grid, except
    in a K_max = 0 sequence, whose one member has none."""
    seq = NestedClassSequence.enumerated_intervals(k_max, resolution=r)
    cuts, lo, hi = gridref.codes_of_bounds(sequence_rows(seq.grid, k_max))
    top = seq.classes[k_max]
    assert np.array_equal(top._lo, lo) and np.array_equal(top._hi, hi)
    assert np.array_equal(cuts, seq.grid if k_max else [])


def loop_index_of(cls, h):
    """The member-by-member scan that index_of replaced."""
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
    ]
    for cls in [*seq.classes, thresholds, hand_built_class(rng)[0]]:
        members = [cls.hypothesis(int(j)) for j in rng.choice(len(cls), size=5)]
        for h in probes + members:
            assert cls.index_of(h) == loop_index_of(cls, h), (cls.class_id, h)


def test_malformed_rows_are_rejected():
    grid = np.linspace(0.0, 1.0, 6)

    def build(lo, hi, g=grid):
        return EnumeratedClass("bad", 2, 4, g, np.array([lo]), np.array([hi]))

    build([1, 5], [3, 7])  # [g0, g1] and [g2, g3]: well formed
    with pytest.raises(ValueError, match="disjoint"):
        build([1, 3], [5, 7])  # overlapping
    with pytest.raises(ValueError, match="ahead of the empty"):
        build([0, 5], [-1, 7])  # unused slot first
    for lo, hi in (
        ([5, 0], [3, -1]),  # reversed ends
        ([2, 0], [3, -1]),  # a gap code, not a grid point
        ([1, 0], [13, -1]),  # past the last grid point
        ([1, 0], [3, 5]),  # unused slot with a nonempty range
    ):
        with pytest.raises(ValueError):
            build(lo, hi)
    with pytest.raises(ValueError):
        build([1, 0], [3, -1], grid[::-1])  # unsorted grid
