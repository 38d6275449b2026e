"""Array kernels of the exact backend against the code they replaced.

The references are copies of the dict-based constraint dedupe, of the
threshold-range loop over (x, y) pairs and of the classify / dis_region
sweeps over every breakpoint (the unmerged partition), plus the pointwise
definitions in ``gridref``.
"""

from __future__ import annotations

import numpy as np
import pytest

import gridref
from oraclelab import hypotheses
from oraclelab.hypotheses import (
    IntervalVersionSpace,
    MaskedVersionSpace,
    NestedClassSequence,
    Partition,
    RegionOfDisagreement,
    ThresholdVersionSpace,
    _dedup_examples,
    predict,
    segments_mass,
)
from oraclelab.oracles import LabeledExample
from oraclelab.realizable import _joined


def dict_dedup(examples):
    """The dict loop the vectorized dedupe replaced."""
    pts: dict[float, int] = {}
    conflict = False
    for x, y in examples:
        y = int(y)
        if y not in (1, -1):
            raise ValueError(f"label must be +/-1, got {y}")
        if x in pts and pts[x] != y:
            conflict = True
        pts[x] = pts.get(x, y)
    xs = np.array(sorted(pts), dtype=np.float64)
    ys = np.array([pts[x] for x in xs], dtype=np.int8)
    return xs, ys, conflict


def threshold_loop(examples, lo=0.0, lo_closed=True, hi=1.0, hi_closed=True):
    """The pair loop the threshold space's array update replaced."""
    for x, y in examples:
        if y == 1:
            if x < hi:
                hi, hi_closed = float(x), True
        elif x > lo or (x == lo and lo_closed):
            lo, lo_closed = float(x), False
    return lo, lo_closed, hi, hi_closed


def threshold_range(vs):
    return vs.lo, vs.lo_closed, vs.hi, vs.hi_closed


def unmerged_classify(parts, xs):
    """Classify against every breakpoint, as before cells were merged.
    ``parts`` are Partition's arguments: breaks and the segment and
    breakpoint verdicts (0 in DIS)."""
    breaks, seg, pt = parts
    xs = np.asarray(xs, dtype=np.float64)
    idx = np.searchsorted(breaks, xs, side="right") - 1
    idx = np.clip(idx, 0, len(breaks) - 2)
    labels = seg[idx].copy()
    pt_idx = np.where(xs == breaks[-1], len(breaks) - 1, idx)
    exact = xs == breaks[pt_idx]
    where = np.nonzero(exact)[0]
    labels[where] = pt[pt_idx[where]]
    return labels == 0, labels.astype(np.int8)


def unmerged_dis_region(parts):
    breaks, seg, pt = parts
    seg_dis, pt_dis = seg == 0, pt == 0
    segs = []
    n_seg = len(seg_dis)
    i = 0
    while i < n_seg:
        if not seg_dis[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_seg and seg_dis[j + 1] and pt_dis[j + 1]:
            j += 1
        segs.append((float(breaks[i]), float(breaks[j + 1])))
        i = j + 1
    return RegionOfDisagreement(tuple(segs), segments_mass(segs))


@pytest.fixture
def captured(monkeypatch):
    """Records the unmerged arrays every version space hands to Partition."""
    seen = []

    class Recording(Partition):
        def __init__(self, *parts):
            seen.append(parts)
            super().__init__(*parts)

    monkeypatch.setattr(hypotheses, "Partition", Recording)
    return seen


def probes(breaks, rng, n_random=16):
    """Every breakpoint, every midpoint between two, 0, 1 and a few draws."""
    mids = 0.5 * (breaks[:-1] + breaks[1:])
    return np.concatenate([breaks, mids, [0.0, 1.0], rng.random(n_random)])


def random_examples(rng, n, grid):
    xs = rng.choice(grid, n)
    ys = rng.choice(np.array([1, -1], dtype=np.int8), n)
    return xs, ys


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(40))
def test_dedupe_matches_dict_loop(trial):
    rng = np.random.default_rng(trial)
    grid = np.round(rng.random(int(rng.integers(1, 12))), 3)  # repeated xs
    xs, ys = random_examples(rng, int(rng.integers(0, 30)), grid)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    want = dict_dedup(pairs)
    for given in (pairs, (xs, ys)):
        got = _dedup_examples(given)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].dtype == np.int8 and got[1].tolist() == want[1].tolist()
        assert got[2] == want[2]


def test_first_label_seen_wins():
    xs, ys, conflict = _dedup_examples([(0.5, 1), (0.2, -1), (0.5, -1)])
    assert xs.tolist() == [0.2, 0.5] and ys.tolist() == [-1, 1] and conflict
    xs, ys, conflict = _dedup_examples([(0.5, -1), (0.5, 1), (0.5, 1)])
    assert ys.tolist() == [-1] and conflict
    xs, ys, conflict = _dedup_examples([(0.5, 1), (0.5, 1)])
    assert xs.tolist() == [0.5] and ys.tolist() == [1] and not conflict


def test_tuple_of_two_pairs_is_read_as_pairs():
    xs, ys, conflict = _dedup_examples(((0.5, -1), (0.3, 1)))
    assert xs.tolist() == [0.3, 0.5] and ys.tolist() == [1, -1] and not conflict


@pytest.mark.parametrize(
    "given",
    [
        [(0.3, 1), (0.4, 0)],
        [(0.3, 2)],
        (np.array([0.3, 0.4]), np.array([1, 0], dtype=np.int8)),
        (np.array([0.3]), np.array([-2])),
    ],
)
def test_labels_must_be_plus_minus_one(given):
    for build in (
        _dedup_examples,
        ThresholdVersionSpace.from_examples,
        ThresholdVersionSpace(0.2, 0.8, True, True).with_examples,
    ):
        with pytest.raises(ValueError, match="label must be"):
            build(given)


@pytest.mark.parametrize(
    "given", [[], (), iter([]), (np.empty(0), np.empty(0, dtype=np.int8))]
)
def test_empty_constraint_set(given):
    xs, ys, conflict = _dedup_examples(given)
    assert xs.dtype == np.float64 and ys.dtype == np.int8
    assert len(xs) == len(ys) == 0 and not conflict


@pytest.mark.parametrize("trial", range(20))
def test_pairs_and_arrays_build_the_same_space(trial):
    rng = np.random.default_rng(100 + trial)
    grid = np.linspace(0.0, 1.0, 11)
    xs, ys = random_examples(rng, int(rng.integers(0, 12)), grid)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    k = int(rng.integers(0, 4))
    a, b = IntervalVersionSpace(k, pairs), IntervalVersionSpace(k, (xs, ys))
    assert a.xs.tolist() == b.xs.tolist() and a.ys.tolist() == b.ys.tolist()
    # the least consistent class of a sequence deeper than any run count
    deep = NestedClassSequence.exact_intervals(len(pairs))
    try:
        runs = deep.min_consistent_index(pairs)
    except hypotheses.ExhaustionError:
        runs = None
    assert a._runs == b._runs == runs
    ex, ey = random_examples(rng, 5, grid)
    a2 = a.with_examples(list(zip(ex.tolist(), ey.tolist())))
    b2 = b.with_examples((ex, ey))
    assert a2.xs.tolist() == b2.xs.tolist() and a2.ys.tolist() == b2.ys.tolist()
    # merging the extra points in gives the space built from all of them
    whole = IntervalVersionSpace(k, pairs + list(zip(ex.tolist(), ey.tolist())))
    assert a2._runs == b2._runs == whole._runs
    want = dict_dedup(pairs + list(zip(ex.tolist(), ey.tolist())))
    assert a2.xs.tolist() == want[0].tolist() and a2.ys.tolist() == want[1].tolist()
    ta = ThresholdVersionSpace.from_examples(pairs)
    tb = ThresholdVersionSpace.from_examples((xs, ys))
    assert threshold_range(ta) == threshold_range(tb) == threshold_loop(pairs)
    ta2 = ta.with_examples(list(zip(ex.tolist(), ey.tolist())))
    tb2 = tb.with_examples((ex, ey))
    want_t = threshold_loop(zip(ex.tolist(), ey.tolist()), *threshold_range(ta))
    assert threshold_range(ta2) == threshold_range(tb2) == want_t


def random_target(rng, grid):
    """A union of at most two intervals with ends on the grid."""
    ends = np.sort(rng.choice(grid, 2 * int(rng.integers(0, 3)), replace=False))
    return hypotheses.IntervalUnion(tuple(zip(ends[0::2].tolist(), ends[1::2].tolist())))


@pytest.mark.parametrize("trial", range(40))
def test_growing_a_space_chunk_by_chunk(trial):
    """Chunks of the target's labels, now and then flipped, on a coarse
    grid: repeats, runs that grow, split and appear, and conflicts. After
    every chunk the space equals the one built from all points at once."""
    rng = np.random.default_rng(1100 + trial)
    grid = np.linspace(0.0, 1.0, int(rng.integers(5, 40)))
    target = random_target(rng, grid)
    k = int(rng.integers(0, 4))
    vs, pairs = IntervalVersionSpace(k), []
    for _ in range(int(rng.integers(1, 15))):
        xs = rng.choice(grid, int(rng.integers(0, 8)))
        ys = np.array([predict(target, x) for x in xs.tolist()], dtype=np.int8)
        ys[rng.random(len(xs)) < 0.05] *= -1
        chunk = list(zip(xs.tolist(), ys.tolist()))
        vs = vs.with_examples(chunk if rng.random() < 0.5 else (xs, ys))
        pairs += chunk
        whole = IntervalVersionSpace(k, pairs)
        assert vs._runs == whole._runs and vs.is_empty() == whole.is_empty()
        if whole._runs is not None:
            assert [b.tolist() for b in vs._bounds] == [b.tolist() for b in whole._bounds]
        if not whole.is_empty():
            assert vs.canonical_member() == whole.canonical_member()
        if rng.random() < 0.3:  # reading the constraints merges the queue
            assert vs.xs.tolist() == whole.xs.tolist()
            assert vs.ys.dtype == np.int8 and vs.ys.tolist() == whole.ys.tolist()
            assert not vs._pending
    want = dict_dedup(pairs)
    assert vs.xs.tolist() == want[0].tolist() and vs.ys.tolist() == want[1].tolist()


def test_still_runs_queue_their_chunks():
    """Passive-baseline growth: once the run has its ends, a chunk is only
    queued, and the queue merges into the same constraints."""
    rng = np.random.default_rng(1200)
    target = hypotheses.IntervalUnion(((0.4, 0.6),))
    vs, chunks, queued = IntervalVersionSpace(1), [], 0
    for _ in range(40):
        xs = rng.random(64)
        chunks.append((xs, hypotheses.predict_batch(target, xs)))
        before = len(vs._pending)
        vs = vs.with_examples(chunks[-1])
        queued += len(vs._pending) == before + 1
    assert queued > 20
    whole = IntervalVersionSpace(1, tuple(np.concatenate(c) for c in zip(*chunks)))
    assert vs.canonical_member() == whole.canonical_member()
    assert vs.xs.tolist() == whole.xs.tolist() and vs.ys.tolist() == whole.ys.tolist()


def test_conflict_survives_with_examples():
    vs = IntervalVersionSpace(1, [(0.5, 1), (0.5, -1)])
    assert vs.is_empty()
    assert vs.with_examples([(0.7, -1)]).is_empty()
    assert vs.with_examples((np.array([0.2]), np.array([1]))).is_empty()


@pytest.mark.parametrize("trial", range(10))
def test_enumerated_paths_take_arrays(trial):
    rng = np.random.default_rng(200 + trial)
    seq = NestedClassSequence.enumerated_intervals(2, resolution=7)
    xs, ys = random_examples(rng, int(rng.integers(0, 6)), seq.grid)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    cls = seq.classes[2]
    assert np.array_equal(cls.consistent_mask(pairs), cls.consistent_mask((xs, ys)))
    vs = MaskedVersionSpace(cls)
    assert vs.erm_index(pairs) == vs.erm_index((xs, ys))
    exact = NestedClassSequence.exact_intervals(3)
    for s in (seq, exact):
        try:
            want = s.min_consistent_index(pairs)
        except hypotheses.ExhaustionError:
            with pytest.raises(hypotheses.ExhaustionError):
                s.min_consistent_index((xs, ys))
        else:
            assert s.min_consistent_index((xs, ys)) == want


@pytest.mark.parametrize("trial", range(20))
def test_canonical_member_spans_each_positive_run(trial):
    rng = np.random.default_rng(300 + trial)
    xs, ys = random_examples(rng, int(rng.integers(0, 15)), np.linspace(0, 1, 31))
    vs = IntervalVersionSpace(8, (xs, ys))
    if vs.is_empty():
        return
    runs, start = [], None
    for x, y in zip(vs.xs.tolist(), vs.ys.tolist()):  # the old loop
        if y == 1:
            start = x if start is None else start
            end = x
        elif start is not None:
            runs.append((start, end))
            start = None
    if start is not None:
        runs.append((start, end))
    assert vs.canonical_member().intervals == tuple(runs)


# ---------------------------------------------------------------------------
# merged partitions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trial", range(60))
def test_merged_classify_matches_unmerged_on_random_verdicts(trial):
    """Runs of equal verdicts make most breakpoints mergeable."""
    rng = np.random.default_rng(400 + trial)
    inner = np.unique(rng.random(int(rng.integers(0, 12))))
    breaks = np.concatenate(([0.0], inner, [1.0]))
    n = len(breaks)
    run_labels = rng.choice([-1, 0, 1], 4)
    seg = run_labels[np.sort(rng.integers(0, 4, n - 1))]
    pt = np.where(rng.random(n) < 0.7, np.append(seg, seg[-1]), rng.choice([-1, 0, 1], n))
    parts = (breaks, seg.astype(np.int8), pt.astype(np.int8))
    xs = np.concatenate([probes(breaks, rng), [-0.5, 1.5]])
    got = Partition(*parts).classify(xs)
    want = unmerged_classify(parts, xs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[1].dtype == np.int8
    assert np.array_equal(Partition(*parts).in_dis(xs), want[0])
    assert Partition(*parts).dis_region() == unmerged_dis_region(parts)


def check_against_unmerged(vs, parts, rng):
    xs = probes(parts[0], rng)
    got = vs.partition().classify(xs)
    want = unmerged_classify(parts, xs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(vs.partition().in_dis(xs), want[0])
    assert vs.partition().breaks is parts[0]  # SEARCH's candidates read these
    assert vs.dis_region() == unmerged_dis_region(parts)


def check_against_grid(vs, pool, points):
    """The partition's lookups, the batch rule ``_verdicts`` and the
    pointwise predicates, each against the definitions over ``pool``."""
    in_dis, labels = vs.partition().classify(points)
    v_dis, v_labels = vs._verdicts(points)
    assert np.array_equal(vs.partition().in_dis(points), in_dis)
    for x, d, lab, vd, vlab in zip(
        points.tolist(), in_dis.tolist(), labels.tolist(), v_dis.tolist(),
        v_labels.tolist(),
    ):
        want = gridref.ref_dis_contains(pool, x)
        assert d == vd == vs.dis_contains(x) == want, x
        if not d:
            want = gridref.ref_agreement_label(pool, x)
            assert lab == vlab == vs.agreement_label(x) == want, x


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("trial", range(6))
def test_interval_space_classify(captured, k, trial):
    rng = np.random.default_rng(500 + 10 * k + trial)
    r = 7 if k == 3 else 9
    grid = np.linspace(0.0, 1.0, r)
    hyps = gridref.grid_interval_hypotheses(k, r)
    target = hyps[int(rng.integers(0, len(hyps)))]
    xs = rng.choice(grid, int(rng.integers(0, 6)))
    s = [(x, predict(target, x)) for x in xs.tolist()]
    vs = IntervalVersionSpace(k, s)
    vs.partition()
    check_against_unmerged(vs, captured[-1], rng)
    if vs._runs == k:  # every gap away from a run's ends is decided
        assert len(vs.partition()._edges) <= 4 * k + 2
    # with constraints on the grid, the continuum space and the grid class
    # agree at grid points (not between them)
    check_against_grid(vs, gridref.survivors(hyps, s), grid)


@pytest.mark.parametrize("trial", range(12))
def test_threshold_space_classify(captured, trial):
    rng = np.random.default_rng(600 + trial)
    r = 11
    grid = np.linspace(0.0, 1.0, r)
    target = gridref.grid_threshold_hypotheses(r)[int(rng.integers(0, r))]
    xs = rng.choice(grid, int(rng.integers(0, 4)))
    s = [(x, predict(target, x)) for x in xs.tolist()]
    vs = ThresholdVersionSpace.from_examples(s)
    vs.partition()
    check_against_unmerged(vs, captured[-1], rng)
    # with constraints on the grid, the continuum space and the grid class
    # agree at grid points (not between them)
    pool = gridref.survivors(gridref.grid_threshold_hypotheses(r), s)
    check_against_grid(vs, pool, grid)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("trial", range(5))
def test_masked_space_classify(captured, k, trial):
    rng = np.random.default_rng(700 + 10 * k + trial)
    r = 6 if k == 3 else 8
    seq = NestedClassSequence.enumerated_intervals(k, resolution=r)
    cls = seq.classes[k]
    target = cls.hypothesis(int(rng.integers(0, len(cls))))
    xs = rng.choice(np.linspace(0.0, 1.0, 2 * r - 1), int(rng.integers(0, 5)))
    s = [(x, predict(target, x)) for x in xs.tolist()]
    vs = MaskedVersionSpace(cls, cls.consistent_mask(s))
    vs.partition()
    check_against_unmerged(vs, captured[-1], rng)
    pool = gridref.survivors(gridref.grid_interval_hypotheses(k, r), s)
    check_against_grid(vs, pool, probes(vs.partition().breaks, rng))


# ---------------------------------------------------------------------------
# the DIS query
# ---------------------------------------------------------------------------


def degenerate_masked_space():
    """The empty union and the one-point members [g, g] at three grid
    points: they disagree only on those points, lone edges of verdict 0
    between cells every survivor labels -1."""
    cls = NestedClassSequence.enumerated_intervals(1, resolution=9).classes[1]
    grid = cls.grid
    members = [hypotheses.ALWAYS_NEGATIVE] + [
        hypotheses.IntervalUnion(((g, g),)) for g in grid[[0, 3, 8]].tolist()
    ]
    mask = np.zeros(len(cls), dtype=bool)
    mask[[cls.index_of(h) for h in members]] = True
    return MaskedVersionSpace(cls, mask)


def many_negatives_space():
    xs = np.random.default_rng(800).random(300)
    return IntervalVersionSpace(1, (xs, np.full(300, -1, dtype=np.int8)))


DIS_CASES = {
    # one span [0, 1] with a stop at every negative
    "interval-negatives-only": (many_negatives_space, 1, 300),
    "interval-one-run": (
        lambda: IntervalVersionSpace(1, [(0.2, -1), (0.4, 1), (0.5, 1), (0.8, -1)]),
        2, 4,
    ),
    "interval-two-runs-of-three": (
        lambda: IntervalVersionSpace(
            3, [(0.1, 1), (0.2, -1), (0.3, 1), (0.3000001, -1), (0.9, 1)]
        ),
        None, None,
    ),
    "interval-constraints-on-0-and-1": (
        lambda: IntervalVersionSpace(2, [(0.0, 1), (0.5, -1), (1.0, 1)]), None, None,
    ),
    "interval-no-dis": (lambda: IntervalVersionSpace(0, [(0.5, -1)]), 0, 0),
    "interval-all-dis": (lambda: IntervalVersionSpace(1), 1, 0),
    "masked-degenerate-members": (degenerate_masked_space, 3, 0),
    "masked-all-dis": (
        lambda: MaskedVersionSpace(
            NestedClassSequence.enumerated_intervals(1, resolution=9).classes[1]
        ),
        None, None,
    ),
    "masked-no-dis": (
        lambda: MaskedVersionSpace(
            NestedClassSequence.enumerated_intervals(1, resolution=9).classes[1],
            np.arange(46) == 7,
        ),
        0, 0,
    ),
    # every member is positive at hi; the member w = lo only at a closed lo
    "threshold-closed-closed": (lambda: ThresholdVersionSpace(0.3, 0.7, True, True), 1, 1),
    "threshold-open-closed": (lambda: ThresholdVersionSpace(0.3, 0.7, False, True), 1, 2),
    "threshold-closed-open": (lambda: ThresholdVersionSpace(0.3, 0.7, True, False), 1, 1),
    "threshold-open-open": (lambda: ThresholdVersionSpace(0.3, 0.7, False, False), 1, 2),
    "threshold-from-0-to-1": (lambda: ThresholdVersionSpace(0.0, 1.0, True, True), 1, 1),
    "threshold-one-member": (lambda: ThresholdVersionSpace(0.4, 0.4, True, True), 0, 0),
}


@pytest.mark.parametrize("case", list(DIS_CASES))
def test_dis_query_follows_the_rule(case):
    build, n_spans, n_stops = DIS_CASES[case]
    vs = build()
    part = vs.partition()
    if n_spans is not None:
        assert len(part._spans) == n_spans and len(part._stops) == n_stops
    rng = np.random.default_rng(900)
    constraints = getattr(vs, "xs", np.empty(0))
    points = np.concatenate(
        [probes(part.breaks, rng, 64), part._edges, constraints, [0.0, 1.0]]
    )
    got = part.in_dis(points)
    assert got.dtype == bool and got.shape == points.shape
    assert np.array_equal(got, vs._verdicts(points)[0])
    assert np.array_equal(got, part.classify(points)[0])
    if case == "masked-degenerate-members":
        assert all(lo == hi for lo, hi in part._spans)
    if case.endswith("-all-dis"):
        assert got.all()
    if case.endswith("-no-dis"):
        assert not got.any() and not part.in_dis(rng.random(100)).any()


@pytest.mark.parametrize("trial", range(30))
def test_dis_query_on_random_interval_spaces(trial):
    """Random labels on a coarse grid: many runs, spaces at and over k."""
    rng = np.random.default_rng(1000 + trial)
    xs, ys = random_examples(rng, int(rng.integers(0, 40)), np.linspace(0, 1, 17))
    vs = IntervalVersionSpace(int(rng.integers(1, 6)), (xs, ys))
    if vs.is_empty():
        return
    points = np.concatenate([probes(vs.partition().breaks, rng), vs.xs])
    got = vs.partition().in_dis(points)
    assert np.array_equal(got, vs._verdicts(points)[0])
    assert np.array_equal(got, vs.partition().classify(points)[0])


# ---------------------------------------------------------------------------
# exact x collisions: the SIMD sort's stable fallback
# ---------------------------------------------------------------------------


def stable_dedup(examples):
    """The stable-sort dedupe, kept as the reference for the tie rule:
    the first label seen at an x wins."""
    xs, ys = hypotheses.as_arrays(examples)
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order].astype(np.int8)
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    conflict = bool(np.any(ys != ys[first][np.cumsum(first) - 1]))
    return xs[first], ys[first], conflict


def positive_runs(ys):
    pos = np.concatenate(([False], ys == 1))
    return int(np.count_nonzero(pos[1:] & ~pos[:-1]))


def assert_same_dedup(got, want):
    assert got[0].tobytes() == want[0].tobytes()  # -0.0 and 0.0 kept apart
    assert got[1].dtype == np.int8 and got[1].tolist() == want[1].tolist()
    assert got[2] == want[2]


def batch_with_repeat(rng, n, repeat_label):
    """A _joined-style constraint set: one counterexample whose x repeats
    a batch x, in front of the batch, with the batch's label or not."""
    xs = rng.random(n)
    ys = np.where((xs > 0.3) & (xs < 0.6), 1, -1).astype(np.int8)
    x = float(xs[n // 3])
    y = int(ys[n // 3]) * (1 if repeat_label else -1)
    return _joined([LabeledExample(x, y)], (xs, ys))


def _collision_cases():
    rng = np.random.default_rng(2400)
    spread = rng.random(200)  # enough points for the SIMD kernel
    labels = np.where(spread < 0.5, 1, -1).astype(np.int8)
    zeros = np.zeros(64)
    alternating = np.resize(np.array([1, -1], dtype=np.int8), 64)
    return {
        "same-label-twice": [(0.5, 1), (0.2, -1), (0.5, 1), (0.7, -1)],
        "conflict-pos-first": [(0.5, 1), (0.2, -1), (0.5, -1)],
        "conflict-neg-first": [(0.5, -1), (0.2, -1), (0.5, 1)],
        "zero-then-negative-zero": [(0.0, 1), (-0.0, 1), (0.4, -1)],
        "negative-zero-then-zero": [(-0.0, 1), (0.0, 1), (0.4, -1)],
        "signed-zeros-conflict": [(-0.0, -1), (0.3, 1), (0.0, 1)],
        "repeat-in-a-spread": (
            np.concatenate((spread, spread[[7, 150]])),
            np.concatenate((labels, -labels[[7, 150]])),
        ),
        "one-x-many-labels": (zeros, alternating),
        # many ties per x, which the SIMD sort leaves out of input order
        "coarse-grid": random_examples(rng, 200, np.linspace(0.0, 1.0, 5)),
        "joined-same-label": batch_with_repeat(rng, 300, True),
        "joined-other-label": batch_with_repeat(rng, 300, False),
        "distinct": (spread, labels),
    }


COLLISIONS = _collision_cases()


@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_collisions_match_the_stable_reference(case):
    given = COLLISIONS[case]
    want = stable_dedup(given)
    assert_same_dedup(_dedup_examples(given), want)
    for k in (1, 2, 3):
        vs = IntervalVersionSpace(k, given)
        assert vs.xs.tobytes() == want[0].tobytes()
        assert vs.ys.tolist() == want[1].tolist()
        runs = None if want[2] else positive_runs(want[1])
        assert vs._runs == runs
        assert vs.is_empty() == (want[2] or runs > k)


@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_collisions_added_later_keep_the_older_label(case):
    """``with_examples`` merges through the same dedupe; the constraint
    that was there first wins a repeated x."""
    xs, ys = hypotheses.as_arrays(COLLISIONS[case])
    half = len(xs) // 2
    older = IntervalVersionSpace(3, (xs[:half], ys[:half].astype(np.int8)))
    vs = older.with_examples((xs[half:], ys[half:].astype(np.int8)))
    want = stable_dedup((xs, ys))
    # a merge keeps the older constraint's x, so compare values, not signs
    assert vs.xs.tolist() == want[0].tolist()
    assert vs.ys.tolist() == want[1].tolist()
    assert vs.is_empty() == (want[2] or positive_runs(want[1]) > 3)


def test_nan_xs_take_the_stable_path():
    given = (np.array([np.nan, 0.2, np.nan]), np.array([1, -1, -1]))
    got = _dedup_examples(given)
    want = stable_dedup(given)
    assert got[1].tolist() == want[1].tolist() == [-1, 1, -1]
    assert np.array_equal(got[0], want[0], equal_nan=True)
