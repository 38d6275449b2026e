"""Binary classifiers on [0,1], nested classes, and exact version spaces.

Two backends share one interface:

* exact — unions of at most k closed intervals (``IntervalVersionSpace``)
  and threshold classifiers (``ThresholdVersionSpace``), with version
  spaces represented by their consistency constraints and all
  disagreement-region geometry computed by an O(n) sweep over the
  constraint points;
* enumerated — explicit finite hypothesis lists on an endpoint grid
  (``EnumeratedClass``) with survivor masks (``MaskedVersionSpace``),
  which is what the agnostic algorithms need since their version spaces
  are error balls, not consistency sets.

Every hypothesis has an interval-structured positive set, so masses
(disagreement regions, symmetric differences) are exact interval
arithmetic, never Monte Carlo.

Labels are +1 / -1. The instance distribution is uniform on [0,1].
"""

from __future__ import annotations

import bisect
import copy
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

POS = 1
NEG = -1


class ExhaustionError(RuntimeError):
    """No class index up to K_max admits a consistent hypothesis. Signals
    the nested sequence was materialized too shallow for the target."""


class EmptyVersionSpaceError(ValueError):
    """Operation requires a nonempty version space."""


class LabeledExample(NamedTuple):
    x: float
    y: int


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Threshold:
    """Predicts +1 on [w, 1] and -1 on [0, w)."""

    w: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"threshold must lie in [0,1], got {self.w}")


@dataclass(frozen=True)
class IntervalUnion:
    """Predicts +1 on a union of disjoint, sorted, closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"bad interval [{lo}, {hi}]")
            if lo <= prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            prev_hi = hi


@dataclass(frozen=True)
class Indexed:
    """Reference to a member of an enumerated class."""

    class_id: str
    index: int


Hypothesis = Union[Threshold, IntervalUnion, Indexed]

ALWAYS_NEGATIVE = IntervalUnion(())


def positive_segments(h: Hypothesis) -> tuple[tuple[float, float], ...]:
    if isinstance(h, Threshold):
        return ((h.w, 1.0),)
    if isinstance(h, IntervalUnion):
        return h.intervals
    raise TypeError(f"cannot take segments of {type(h).__name__}; resolve it first")


def predict(h: Hypothesis, x: float) -> int:
    """Deterministic +/-1 prediction at a point."""
    for lo, hi in positive_segments(h):
        if lo <= x <= hi:
            return POS
        if x < lo:
            break
    return NEG


def predict_batch(h: Hypothesis, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    out = np.zeros(xs.shape, dtype=bool)
    for lo, hi in positive_segments(h):
        out |= (xs >= lo) & (xs <= hi)
    return np.where(out, POS, NEG).astype(np.int8)


def positive_mass(h: Hypothesis) -> float:
    return float(sum(hi - lo for lo, hi in positive_segments(h)))


def ball_radius_pair_distance(h: Hypothesis, h2: Hypothesis) -> float:
    """Lebesgue measure of the symmetric difference of the positive sets;
    equals Pr[h(x) != h2(x)] under the uniform instance distribution."""
    return segments_mass(symmetric_difference_segments(h, h2))


# ---------------------------------------------------------------------------
# Segment arithmetic (sorted, disjoint (lo, hi) lists over [0,1])
# ---------------------------------------------------------------------------


def segments_mass(segments: Sequence[tuple[float, float]]) -> float:
    return float(sum(hi - lo for lo, hi in segments))


def intersect_segments(
    a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def symmetric_difference_segments(
    h: Hypothesis, h2: Hypothesis
) -> list[tuple[float, float]]:
    """Where the two positive sets differ, as disjoint segments."""
    segs_a, segs_b = positive_segments(h), positive_segments(h2)
    breaks = sorted({0.0, 1.0, *(v for lo, hi in segs_a for v in (lo, hi)),
                     *(v for lo, hi in segs_b for v in (lo, hi))})
    out: list[tuple[float, float]] = []
    for lo, hi in zip(breaks, breaks[1:]):
        if lo == hi:
            continue
        mid = 0.5 * (lo + hi)
        if predict(h, mid) != predict(h2, mid):
            if out and out[-1][1] == lo:
                out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
    return out


# ---------------------------------------------------------------------------
# Disagreement-region geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionOfDisagreement:
    """Finite union of disjoint segments whose interiors are in DIS(V).

    ``mass`` is the exact Lebesgue measure (segment boundaries are a null
    set; pointwise membership at boundaries is the version space's
    ``dis_contains``, which is exact).
    """

    segments: tuple[tuple[float, float], ...]
    mass: float


class Partition:
    """Piecewise classification of [0,1] induced by a version space.

    Breakpoints split [0,1] into open segments on which every member's
    prediction is constant; each segment (and each breakpoint) is either
    in the disagreement region or carries the unanimous label.

    ``breaks`` keeps every breakpoint the version space hands in. The
    lookups run on merged cells: a breakpoint whose verdict and both of
    whose segments' verdicts agree is dropped, so a version space with
    hundreds of constraint points classifies against a handful of cells.
    A verdict is the unanimous label, or 0 inside DIS.
    """

    def __init__(
        self,
        breaks: np.ndarray,
        seg_dis: np.ndarray,
        seg_label: np.ndarray,
        pt_dis: np.ndarray,
        pt_label: np.ndarray,
    ):
        self.breaks = breaks
        seg = np.where(seg_dis, 0, seg_label).astype(np.int8)
        pt = np.where(pt_dis, 0, pt_label).astype(np.int8)
        # segment j+1 opens a new cell unless breakpoint j+1 and the
        # segments on both sides of it share one verdict
        opens = (seg[1:] != seg[:-1]) | (pt[1:-1] != seg[1:])
        keep = np.concatenate(([True], opens, [True]))
        self._edges = breaks[keep]  # cell boundaries, 0 and 1 included
        self._cell = seg[keep[:-1]]
        # searchsorted(side="right") sends a point on an edge to the cell
        # on its right (on the last break, to the last cell); the edges
        # whose own verdict differs from that cell's are the exact hits
        # that need it
        edge_pt = pt[keep]
        right = np.minimum(np.arange(len(edge_pt)), len(self._cell) - 1)
        off = edge_pt != self._cell[right]
        self._hits, self._hit_verdict = self._edges[off], edge_pt[off]

    def classify(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (in disagreement region, unanimous label or 0)."""
        xs = np.asarray(xs, dtype=np.float64)
        labels = self._cell[np.searchsorted(self._edges[1:-1], xs, side="right")]
        if len(self._hits):
            hit = np.flatnonzero(np.isin(xs, self._hits))
            if len(hit):
                at = np.searchsorted(self._hits, xs[hit])
                labels[hit] = self._hit_verdict[at]
        return labels == 0, labels

    def dis_region(self) -> RegionOfDisagreement:
        # neighbouring DIS cells are always split by a forced edge, so
        # each DIS cell is one maximal segment
        dis = np.flatnonzero(self._cell == 0)
        segs = tuple(zip(self._edges[dis].tolist(), self._edges[dis + 1].tolist()))
        return RegionOfDisagreement(segs, segments_mass(segs))


# ---------------------------------------------------------------------------
# Exact backend: unions of <= k closed intervals
# ---------------------------------------------------------------------------


Examples = Union[Iterable[tuple[float, int]], tuple[np.ndarray, np.ndarray]]


def as_arrays(examples: Examples) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) columns of a constraint set given either as an iterable of
    (x, y) pairs or as an (xs, ys) pair of arrays; a tuple of two arrays
    is always read as columns."""
    if (
        isinstance(examples, tuple)
        and len(examples) == 2
        and all(isinstance(a, np.ndarray) for a in examples)
    ):
        xs, ys = examples
        return np.asarray(xs, dtype=np.float64), ys
    rows = np.array(list(examples), dtype=np.float64)
    if rows.size == 0:
        rows = rows.reshape(0, 2)
    return np.ascontiguousarray(rows[:, 0]), np.ascontiguousarray(rows[:, 1])


def _labeled_arrays(examples: Examples) -> tuple[np.ndarray, np.ndarray]:
    """``as_arrays``, rejecting any label other than +/-1."""
    xs, ys = as_arrays(examples)
    bad = (ys != POS) & (ys != NEG)
    if bad.any():
        raise ValueError(f"label must be +/-1, got {ys[bad][0]}")
    return xs, ys


def _dedup_examples(examples: Examples) -> tuple[np.ndarray, np.ndarray, bool]:
    """Sorted distinct constraint points, the first label seen at each x
    winning. Returns (xs, ys, conflict): conflict is True when some x
    also carries the other label."""
    xs, ys = _labeled_arrays(examples)
    order = np.argsort(xs, kind="stable")  # equal xs keep their input order
    xs, ys = xs[order], ys[order]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    ys_first = ys[first]
    conflict = bool(np.any(ys != ys_first[np.cumsum(first) - 1]))
    return xs[first], ys_first.astype(np.int8), conflict


def positive_run_count(examples: Examples) -> int | None:
    """Number of maximal runs of consecutive +1 labels in x-sorted order,
    or None when some point carries both labels (no classifier fits)."""
    xs, ys, conflict = _dedup_examples(examples)
    if conflict:
        return None
    return _count_runs(ys)


def is_realizable_by_k_intervals(examples: Examples, k: int) -> bool:
    """True iff some union of <= k closed intervals fits every example."""
    runs = positive_run_count(examples)
    return runs is not None and runs <= k


class IntervalVersionSpace:
    """H_k(S): unions of at most k closed intervals consistent with S."""

    def __init__(self, k: int, examples: Examples = ()):
        self.k = k
        self.xs, self.ys, conflict = _dedup_examples(examples)
        self._runs = None if conflict else _count_runs(self.ys)
        self._partition: Partition | None = None

    @property
    def vc_dim(self) -> int:
        return 2 * self.k

    def is_empty(self) -> bool:
        return self._runs is None or self._runs > self.k

    def with_examples(self, extra: Examples) -> "IntervalVersionSpace":
        """The constraints so far plus ``extra``; on a repeated x the
        older label wins. A space emptied by a conflict stays empty."""
        xs, ys = as_arrays(extra)
        merged = np.concatenate((self.xs, xs)), np.concatenate((self.ys, ys))
        vs = IntervalVersionSpace(self.k, merged)
        if self._runs is None:
            vs._runs = None
        return vs

    # Feasibility deltas for inserting a forced label into a gap: a new
    # positive between two negatives opens a run (+1); a new negative
    # between two consecutive positives splits their run (+1); everything
    # else leaves the run count unchanged.  Gap neighbors outside [0,1]
    # count as negative.
    def _gap_deltas(self, left_pos: bool, right_pos: bool) -> tuple[int, int]:
        d_pos = 0 if (left_pos or right_pos) else 1
        d_neg = 1 if (left_pos and right_pos) else 0
        return d_pos, d_neg

    def _feasible_labels(self, gap_index: int) -> tuple[bool, bool]:
        """(can force +1, can force -1) inside gap ``gap_index``; gaps are
        indexed 0..n with gap i lying between constraint i-1 and i."""
        runs = self._runs
        assert runs is not None
        left_pos = gap_index > 0 and self.ys[gap_index - 1] == POS
        right_pos = gap_index < len(self.xs) and self.ys[gap_index] == POS
        d_pos, d_neg = self._gap_deltas(left_pos, right_pos)
        return runs + d_pos <= self.k, runs + d_neg <= self.k

    def contains(self, h: Hypothesis) -> bool:
        """Membership: at most k intervals and consistent with every
        constraint."""
        if self.is_empty():
            return False
        if len(positive_segments(h)) > self.k:
            return False
        return bool(np.array_equal(predict_batch(h, self.xs), self.ys))

    def dis_contains(self, x: float) -> bool:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space has no DIS")
        i = int(np.searchsorted(self.xs, x))
        if i < len(self.xs) and self.xs[i] == x:
            return False  # constraint point: label forced
        ok_pos, ok_neg = self._feasible_labels(i)
        return ok_pos and ok_neg

    def agreement_label(self, x: float) -> int:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        i = int(np.searchsorted(self.xs, x))
        if i < len(self.xs) and self.xs[i] == x:
            return int(self.ys[i])
        ok_pos, ok_neg = self._feasible_labels(i)
        if ok_pos and ok_neg:
            raise ValueError(f"x={x} lies in the disagreement region")
        return POS if ok_pos else NEG

    def partition(self) -> Partition:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._partition is None:
            n = len(self.xs)
            pos = self.ys == POS
            # gap g in 0..n lies between constraint g-1 and constraint g
            left_pos = np.concatenate(([False], pos))
            right_pos = np.concatenate((pos, [False]))
            ok_pos = self._runs + ~(left_pos | right_pos) <= self.k
            ok_neg = self._runs + (left_pos & right_pos) <= self.k
            gap = np.where(ok_pos & ok_neg, 0, np.where(ok_pos, POS, NEG))
            raw = np.concatenate(([0.0], self.xs, [1.0]))
            keep = raw[1:] > raw[:-1]  # drop zero-length end gaps
            # 0 and 1 are breakpoints with the verdict of the gap they
            # bound, unless a constraint point sits on them
            on = np.concatenate((keep[:1], np.ones(n, dtype=bool), keep[-1:]))
            pt = np.concatenate((gap[:1], self.ys, gap[-1:]))[on]
            seg = gap[keep]
            self._partition = Partition(raw[on], seg == 0, seg, pt == 0, pt)
        return self._partition

    def dis_region(self) -> RegionOfDisagreement:
        return self.partition().dis_region()

    def canonical_member(self) -> IntervalUnion:
        """Minimal consistent hypothesis: one closed interval per positive
        run, spanning exactly that run's constraint points."""
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        starts, ends = _run_bounds(self.ys)
        return IntervalUnion(
            tuple(zip(self.xs[starts].tolist(), self.xs[ends].tolist()))
        )

    def erm(self, sample: Examples) -> IntervalUnion:
        """Exact backend supports only the consistent case (error 0)."""
        refined = self.with_examples(sample)
        if refined.is_empty():
            raise EmptyVersionSpaceError(
                "no member of the exact version space fits the sample; "
                "use the enumerated backend for agnostic ERM"
            )
        return refined.canonical_member()


def _run_bounds(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the first and the last point of each maximal run of +1
    labels."""
    pos = np.asarray(ys) == POS
    starts = pos & ~np.concatenate(([False], pos[:-1]))
    ends = pos & ~np.concatenate((pos[1:], [False]))
    return starts, ends


def _count_runs(ys: np.ndarray) -> int:
    return int(np.count_nonzero(_run_bounds(ys)[0]))


class ThresholdVersionSpace:
    """Thresholds h_w with w constrained to an interval of [0,1].

    Consistency with examples gives w in (max negative x, min positive x];
    the binary-search driver also builds half-open ranges directly.
    """

    def __init__(self, lo: float, hi: float, lo_closed: bool, hi_closed: bool):
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed
        self._partition: Partition | None = None

    vc_dim = 1

    @classmethod
    def from_examples(cls, examples: Examples = ()) -> "ThresholdVersionSpace":
        return cls(0.0, 1.0, True, True).with_examples(examples)

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.lo_closed and self.hi_closed)
        return False

    def with_examples(self, extra: Examples) -> "ThresholdVersionSpace":
        """Narrow the range to w > every negative x and w <= every
        positive x."""
        xs, ys = _labeled_arrays(extra)
        lo, lo_closed, hi, hi_closed = self.lo, self.lo_closed, self.hi, self.hi_closed
        pos, neg = xs[ys == POS], xs[ys == NEG]
        if len(pos) and pos.min() < hi:
            hi, hi_closed = float(pos.min()), True
        if len(neg) and (neg.max() > lo or (neg.max() == lo and lo_closed)):
            lo, lo_closed = float(neg.max()), False
        return ThresholdVersionSpace(lo, hi, lo_closed, hi_closed)

    def contains(self, h: Hypothesis) -> bool:
        if self.is_empty() or not isinstance(h, Threshold):
            return False
        above = (h.w >= self.lo) if self.lo_closed else (h.w > self.lo)
        below = (h.w <= self.hi) if self.hi_closed else (h.w < self.hi)
        return above and below

    def dis_contains(self, x: float) -> bool:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space has no DIS")
        # disagreement at x needs one member w <= x and another w > x
        has_leq = (x >= self.lo) if self.lo_closed else (x > self.lo)
        has_gt = x < self.hi
        return has_leq and has_gt

    def agreement_label(self, x: float) -> int:
        if self.dis_contains(x):
            raise ValueError(f"x={x} lies in the disagreement region")
        has_leq = (x >= self.lo) if self.lo_closed else (x > self.lo)
        return POS if has_leq else NEG

    def partition(self) -> Partition:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._partition is None:
            breaks = np.unique(np.array([0.0, self.lo, self.hi, 1.0]))
            mids = 0.5 * (breaks[:-1] + breaks[1:])
            seg_dis = np.array([self.dis_contains(m) for m in mids])
            seg_label = np.array(
                [0 if d else self.agreement_label(m) for d, m in zip(seg_dis, mids)],
                dtype=np.int8,
            )
            pt_dis = np.array([self.dis_contains(b) for b in breaks])
            pt_label = np.array(
                [0 if d else self.agreement_label(b) for d, b in zip(pt_dis, breaks)],
                dtype=np.int8,
            )
            self._partition = Partition(breaks, seg_dis, seg_label, pt_dis, pt_label)
        return self._partition

    def dis_region(self) -> RegionOfDisagreement:
        return self.partition().dis_region()

    def canonical_member(self) -> Threshold:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        # minimal positive set: the largest surviving threshold
        return Threshold(self.hi if self.hi_closed else np.nextafter(self.hi, 0.0))

    def erm(self, sample: Examples) -> Threshold:
        refined = self.with_examples(sample)
        if refined.is_empty():
            raise EmptyVersionSpaceError("no consistent threshold for the sample")
        return refined.canonical_member()


# ---------------------------------------------------------------------------
# Enumerated backend
# ---------------------------------------------------------------------------

_EMPTY_SLOT = 1.5  # sentinel endpoint outside [0,1]: empty interval slot


class EnumeratedClass:
    """Finite hypothesis class stored as an (n, slots, 2) endpoint array.

    Unused interval slots hold the out-of-range sentinel and come after
    the real ones, which are sorted and disjoint as in ``IntervalUnion``.
    ``kind`` only decides how a member materializes (Threshold vs
    IntervalUnion).

    Evaluation runs on cell codes. The sorted distinct real endpoints
    ``cuts`` (for a ``prefix`` class, those of the class it was cut from)
    split the line into 2*len(cuts)+1 cells: code 2j+1 is the
    point cuts[j], code 2j the open gap just below it, and code
    2*len(cuts) everything above the last cut. Every member predicts one
    label per cell, so a slot [cuts[a], cuts[b]] is the code range
    2a+1..2b+1 and an empty slot the empty range 0..-1.
    """

    def __init__(
        self,
        class_id: str,
        k: int,
        vc_dim: int,
        bounds: np.ndarray,
        kind: str = "intervals",
        grid: np.ndarray | None = None,
    ):
        self.class_id = class_id
        self.k = k
        self.vc_dim = vc_dim
        self.bounds = bounds
        self.kind = kind
        self.grid = grid
        ends = np.unique(bounds)
        self.cuts = ends[ends <= 1.0]
        # cuts plus +inf: defined at every index searchsorted can return
        self._probe = np.append(self.cuts, np.inf)
        self._probe_list = self._probe.tolist()
        self._n_codes = n_codes = 2 * len(self.cuts) + 1
        lo = 2 * np.searchsorted(self.cuts, bounds[:, :, 0]) + 1
        hi = 2 * np.searchsorted(self.cuts, bounds[:, :, 1]) + 1
        real = lo < n_codes  # an endpoint past 1 codes past the last cell
        self._lo = np.where(real, lo, 0)
        self._hi = np.where(real, hi, -1)
        ordered = real[:, :-1] & (lo[:, 1:] > hi[:, :-1])
        if not (
            np.all(self.cuts[:1] >= 0.0)
            and np.all(~real | ((lo <= hi) & (hi < n_codes)))
            and np.all(~real[:, 1:] | ordered)
        ):
            raise ValueError(
                f"{class_id}: real slots must be sorted, disjoint intervals "
                "in [0,1] ahead of the empty ones"
            )
        self._table: np.ndarray | None = None

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def prefix(
        self, n: int, class_id: str, k: int, vc_dim: int
    ) -> "EnumeratedClass":
        """The first n members as a class of their own. It keeps this
        class's cuts, so its codes are slices of these."""
        sub = copy.copy(self)
        sub.class_id, sub.k, sub.vc_dim = class_id, k, vc_dim
        sub.bounds, sub._lo, sub._hi = self.bounds[:n], self._lo[:n], self._hi[:n]
        sub._table = None
        return sub

    def hypothesis(self, index: int) -> Hypothesis:
        row = self.bounds[index]
        real = row[row[:, 0] <= 1.0]
        if self.kind == "thresholds":
            return Threshold(float(real[0, 0]))
        return IntervalUnion(tuple((float(lo), float(hi)) for lo, hi in real))

    def resolve(self, ref: Indexed) -> Hypothesis:
        if ref.class_id != self.class_id:
            raise KeyError(
                f"reference to {ref.class_id!r} cannot resolve in "
                f"{self.class_id!r}"
            )
        return self.hypothesis(ref.index)

    def index_of(self, h: Hypothesis) -> int | None:
        """Canonical index of an exact member, or None."""
        if isinstance(h, Indexed):
            return h.index if h.class_id == self.class_id else None
        if isinstance(h, Threshold) != (self.kind == "thresholds"):
            return None
        segs = positive_segments(h)
        row = np.full(self.bounds.shape[1:], _EMPTY_SLOT)
        if len(segs) > len(row):
            return None
        row[: len(segs)] = np.reshape(segs, (-1, 2))
        hits = np.flatnonzero((self.bounds == row).all(axis=(1, 2)))
        return int(hits[0]) if len(hits) else None

    def codes(self, xs) -> np.ndarray:
        """Cell code of each point; a scalar gives a scalar."""
        if isinstance(xs, float):  # one point: bisect skips numpy's call overhead
            j = bisect.bisect_left(self._probe_list, xs)
            return 2 * j + (self._probe_list[j] == xs)
        j = np.searchsorted(self.cuts, xs)
        return 2 * j + (self._probe[j] == xs)

    def rows(self, xs) -> np.ndarray:
        """Positive predictions of every member at each point, as rows of
        the (codes, members) table: (points, members), or (members,) for a
        scalar. The table is built on first use."""
        if self._table is None:
            c = np.arange(self._n_codes)[:, None]
            table = np.zeros((len(c), len(self)), dtype=bool)
            for s in range(self.bounds.shape[1]):
                table |= (c >= self._lo[:, s]) & (c <= self._hi[:, s])
            self._table = table
        return self._table[self.codes(xs)]

    def predictions(self, xs: np.ndarray) -> np.ndarray:
        """Boolean positive-prediction matrix, rows = hypotheses."""
        return np.ascontiguousarray(self.rows(np.asarray(xs, dtype=np.float64)).T)

    def err_counts(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Exact integer error counts of each (selected) hypothesis.

        A member errs on the positives outside its slots and the negatives
        inside them, so its count is #positives plus, per slot, the
        (negatives - positives) balance of the slot's code range: a
        difference of two prefix sums over the per-code histogram.
        """
        codes = self.codes(np.asarray(xs, dtype=np.float64))
        y_pos = np.asarray(ys) == POS
        balance = np.bincount(codes[~y_pos], minlength=self._n_codes) - np.bincount(
            codes[y_pos], minlength=self._n_codes
        )
        prefix = np.concatenate(([0], np.cumsum(balance)))
        lo, hi = self._lo, self._hi
        if indices is not None:
            lo, hi = lo[indices], hi[indices]
        return int(y_pos.sum()) + (prefix[hi + 1] - prefix[lo]).sum(axis=1)

    def consistent_mask(self, examples: Examples) -> np.ndarray:
        xs, ys = as_arrays(examples)
        if not len(xs):
            return np.ones(len(self), dtype=bool)
        return self.err_counts(xs, ys) == 0

    def distances_from(self, h: Hypothesis) -> np.ndarray:
        """Exact symmetric-difference measure from h to every member."""
        segs = positive_segments(h)
        b = self.bounds
        lengths = np.clip(b[:, :, 1] - b[:, :, 0], 0.0, None)
        mass_members = np.where(b[:, :, 0] <= 1.0, lengths, 0.0).sum(axis=1)
        mass_h = positive_mass(h)
        overlap = np.zeros(len(self))
        for lo, hi in segs:
            cut_lo = np.maximum(b[:, :, 0], lo)
            cut_hi = np.minimum(b[:, :, 1], hi)
            overlap += np.clip(cut_hi - cut_lo, 0.0, None).sum(axis=1)
        return mass_h + mass_members - 2.0 * overlap


class MaskedVersionSpace:
    """Survivor mask over an enumerated class."""

    def __init__(self, cls: EnumeratedClass, mask: np.ndarray | None = None):
        self.cls = cls
        self.mask = (
            np.ones(len(cls), dtype=bool) if mask is None else mask.astype(bool)
        )
        self._partition: Partition | None = None

    @property
    def vc_dim(self) -> int:
        return self.cls.vc_dim

    @property
    def k(self) -> int:
        return self.cls.k

    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    def survivor_indices(self) -> np.ndarray:
        return np.nonzero(self.mask)[0]

    def replace_mask(self, mask: np.ndarray) -> "MaskedVersionSpace":
        return MaskedVersionSpace(self.cls, mask)

    def contains(self, h: Hypothesis) -> bool:
        idx = self.cls.index_of(h)
        return idx is not None and bool(self.mask[idx])

    def with_examples(self, extra: Examples) -> "MaskedVersionSpace":
        return self.replace_mask(self.mask & self.cls.consistent_mask(extra))

    def _breakpoints(self) -> np.ndarray:
        """0, 1 and every real endpoint of a survivor."""
        cls = self.cls
        # np.compress gathers rows several times faster than a boolean index
        ends = np.concatenate(
            [np.compress(self.mask, c, axis=0) for c in (cls._lo, cls._hi)], axis=None
        )
        used = np.zeros(len(cls.cuts), dtype=bool)
        used[(ends[ends > 0] - 1) // 2] = True  # real codes are 2j+1
        return np.unique(np.concatenate(([0.0, 1.0], cls.cuts[used])))

    def _verdicts(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (in DIS, unanimous survivor label or 0)."""
        rows = np.compress(self.mask, self.cls.rows(xs), axis=1)
        all_pos = rows.all(axis=1)
        dis = rows.any(axis=1) & ~all_pos
        label = np.where(all_pos, POS, NEG).astype(np.int8)
        label[dis] = 0
        return dis, label

    def partition(self) -> Partition:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._partition is None:
            breaks = self._breakpoints()
            seg_dis, seg_label = self._verdicts(0.5 * (breaks[:-1] + breaks[1:]))
            pt_dis, pt_label = self._verdicts(breaks)
            self._partition = Partition(breaks, seg_dis, seg_label, pt_dis, pt_label)
        return self._partition

    def _votes(self, x: float) -> tuple[bool, bool]:
        """(some survivor predicts +1 at x, some survivor predicts -1)."""
        row = self.cls.rows(x)[self.mask]
        return bool(row.any()), not bool(row.all())

    def dis_contains(self, x: float) -> bool:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space has no DIS")
        some_pos, some_neg = self._votes(x)
        return some_pos and some_neg

    def agreement_label(self, x: float) -> int:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        some_pos, some_neg = self._votes(x)
        if some_pos and some_neg:
            raise ValueError(f"x={x} lies in the disagreement region")
        return POS if some_pos else NEG

    def dis_region(self) -> RegionOfDisagreement:
        return self.partition().dis_region()

    def canonical_member(self) -> Hypothesis:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        return self.cls.hypothesis(int(self.survivor_indices()[0]))

    def erm(self, sample: Examples) -> Hypothesis:
        """Empirical risk minimizer; ties go to the lowest canonical index."""
        idx, _ = self.erm_index(sample)
        return self.cls.hypothesis(idx)

    def erm_index(self, sample: Examples) -> tuple[int, int]:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        xs, ys = as_arrays(sample)
        idx = self.survivor_indices()
        if not len(xs):
            return int(idx[0]), 0
        counts = self.cls.err_counts(xs, ys, idx)
        best = int(np.argmin(counts))  # argmin keeps the lowest index on ties
        return int(idx[best]), int(counts[best])


# ---------------------------------------------------------------------------
# Nested class sequences
# ---------------------------------------------------------------------------

VersionSpace = Union[IntervalVersionSpace, ThresholdVersionSpace, MaskedVersionSpace]


class NestedClassSequence:
    """H_0 subset H_1 subset ... up to a materialized K_max.

    The interval family uses d_0 = 0 and d_k = 2k. Enumerated sequences
    keep each class as a prefix of the next, so canonical indices agree
    across levels and nesting holds by construction.
    """

    def __init__(
        self,
        backend: str,
        K_max: int,
        class_dims: dict[int, int],
        classes: list[EnumeratedClass] | None = None,
        grid: np.ndarray | None = None,
    ):
        self.backend = backend
        self.K_max = K_max
        self.class_dims = class_dims
        self.classes = classes
        self.grid = grid

    @classmethod
    def exact_intervals(cls, K_max: int) -> "NestedClassSequence":
        dims = {k: (0 if k == 0 else 2 * k) for k in range(K_max + 1)}
        return cls("exact-intervals", K_max, dims)

    @classmethod
    def enumerated_intervals(
        cls, K_max: int, resolution: int = 21
    ) -> "NestedClassSequence":
        # class size grows like resolution^(2k); 21 points keep the k=2,3
        # unions enumerable (thousands to ~100k rows), finer grids are for
        # single-interval or threshold classes
        grid = np.linspace(0.0, 1.0, resolution)
        dims = {k: (0 if k == 0 else 2 * k) for k in range(K_max + 1)}
        slots = max(K_max, 1)
        blocks = [np.full((1, slots, 2), _EMPTY_SLOT)] + [
            _exact_k_interval_rows(grid, k, slots) for k in range(1, K_max + 1)
        ]
        top = EnumeratedClass(
            f"intervals_k{K_max}", K_max, dims[K_max], np.concatenate(blocks),
            "intervals", grid,
        )
        sizes = np.cumsum([len(b) for b in blocks])
        classes = [
            top.prefix(int(sizes[k]), f"intervals_k{k}", k, dims[k])
            for k in range(K_max)
        ] + [top]
        return cls("enumerated", K_max, dims, classes, grid)

    @classmethod
    def threshold_grid(cls, resolution: int = 201) -> EnumeratedClass:
        """Standalone finite threshold class (not part of a sequence)."""
        grid = np.linspace(0.0, 1.0, resolution)
        bounds = np.full((resolution, 1, 2), _EMPTY_SLOT)
        bounds[:, 0, 0] = grid
        bounds[:, 0, 1] = 1.0
        return EnumeratedClass(
            f"thresholds_r{resolution}", 1, 1, bounds, "thresholds", grid
        )

    def d(self, k: int) -> int:
        return self.class_dims[k]

    def version_space(self, k: int, examples: Examples = ()) -> VersionSpace:
        if k > self.K_max:
            raise ExhaustionError(f"class index {k} above K_max={self.K_max}")
        if self.backend == "exact-intervals":
            return IntervalVersionSpace(k, examples)
        assert self.classes is not None
        cls_k = self.classes[k]
        return MaskedVersionSpace(cls_k, cls_k.consistent_mask(examples))

    def is_realizable(self, k: int, examples: Examples) -> bool:
        if self.backend == "exact-intervals":
            return is_realizable_by_k_intervals(examples, k)
        assert self.classes is not None
        return bool(self.classes[k].consistent_mask(examples).any())

    def min_consistent_index(self, examples: Examples, k_lo: int = 0) -> int:
        exs = as_arrays(examples)
        if self.backend == "exact-intervals":
            runs = positive_run_count(exs)
            if runs is not None:
                k = max(k_lo, runs)
                if k <= self.K_max:
                    return k
            raise ExhaustionError(
                f"no consistent class at any k in [{k_lo}, {self.K_max}]"
            )
        for k in range(k_lo, self.K_max + 1):
            if self.is_realizable(k, exs):
                return k
        raise ExhaustionError(
            f"no consistent class at any k in [{k_lo}, {self.K_max}]"
        )


def _exact_k_interval_rows(grid: np.ndarray, k: int, slots: int) -> np.ndarray:
    """All unions of exactly k disjoint nonempty closed grid intervals, in
    lexicographic order of their endpoint indices.

    Indices a1 <= b1 < a2 <= b2 < ... <= bk in range(r) map one to one,
    order preserving, onto the strictly increasing 2k-tuples
    (a1, b1+1, a2+1, b2+2, ..., bk+k) in range(r+k): the 2k-combinations,
    which itertools emits in lexicographic order.
    """
    n = math.comb(len(grid) + k, 2 * k)
    flat = itertools.chain.from_iterable(
        itertools.combinations(range(len(grid) + k), 2 * k)
    )
    shifted = np.fromiter(flat, dtype=np.intp, count=2 * k * n).reshape(n, 2 * k)
    ends = shifted - (np.arange(2 * k) + 1) // 2
    out = np.full((n, slots, 2), _EMPTY_SLOT)
    out[:, :k] = grid[ends].reshape(n, k, 2)
    return out


def disagreement_coefficient_estimate(
    vs: MaskedVersionSpace,
    center: Hypothesis | None = None,
    r: float = 0.05,
    n_radii: int = 16,
    max_centers: int = 64,
) -> float:
    """Grid lower bound on sup over centers h in V and radii r' >= r of
    Pr[DIS(B_V(h, r'))] / r'.

    Centers default to an evenly spaced subsample of the survivors; radii
    run a geometric grid from r to 1. Ball masses are exact.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0,1], got {r}")
    if vs.is_empty():
        raise EmptyVersionSpaceError("empty version space")
    if center is not None:
        centers = [center]
    else:
        idx = vs.survivor_indices()
        take = idx[np.linspace(0, len(idx) - 1, min(max_centers, len(idx))).astype(int)]
        centers = [vs.cls.hypothesis(int(i)) for i in np.unique(take)]
    if r >= 1.0:
        radii = np.array([1.0])
    else:
        radii = np.geomspace(r, 1.0, n_radii)
    best = 0.0
    for h in centers:
        dists = vs.cls.distances_from(h)
        for rp in radii:
            ball = vs.mask & (dists <= rp + 1e-12)
            if not ball.any():
                continue
            mass = MaskedVersionSpace(vs.cls, ball).dis_region().mass
            best = max(best, mass / rp)
    return best


# ---------------------------------------------------------------------------
# JSON schema (documented in README; used by the harness golden tests)
# ---------------------------------------------------------------------------


def hypothesis_to_json(h: Hypothesis) -> dict:
    if isinstance(h, Threshold):
        return {"type": "threshold", "w": h.w}
    if isinstance(h, IntervalUnion):
        return {"type": "interval_union", "intervals": [list(p) for p in h.intervals]}
    return {"type": "indexed", "class_id": h.class_id, "index": h.index}


def hypothesis_from_json(obj: dict) -> Hypothesis:
    t = obj["type"]
    if t == "threshold":
        return Threshold(float(obj["w"]))
    if t == "interval_union":
        return IntervalUnion(tuple((float(a), float(b)) for a, b in obj["intervals"]))
    if t == "indexed":
        return Indexed(obj["class_id"], int(obj["index"]))
    raise ValueError(f"unknown hypothesis type {t!r}")


def examples_to_json(examples: Iterable[tuple[float, int]]) -> list[dict]:
    return [{"x": float(x), "y": int(y)} for x, y in examples]


def examples_from_json(items: Iterable[dict]) -> list[LabeledExample]:
    return [LabeledExample(float(o["x"]), int(o["y"])) for o in items]
