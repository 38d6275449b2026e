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


Hypothesis = Union[Threshold, IntervalUnion]

ALWAYS_NEGATIVE = IntervalUnion(())


def positive_segments(h: Hypothesis) -> tuple[tuple[float, float], ...]:
    if isinstance(h, Threshold):
        return ((h.w, 1.0),)
    return h.intervals


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


class IntervalVersionSpace:
    """H_k(S): unions of at most k closed intervals consistent with S."""

    def __init__(self, k: int, examples: Examples = ()):
        self.k = k
        self.xs, self.ys, conflict = _dedup_examples(examples)
        self._runs = None if conflict else _count_runs(self.ys)
        self._gaps: np.ndarray | None = None
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

    def _gap_verdicts(self) -> np.ndarray:
        """The verdict (label every member gives, or 0 in DIS) of each gap
        between constraint points: gap g in 0..n lies between constraint
        g-1 and constraint g, outside [0,1] counting as negative.

        Forcing a label in a gap adds a run when a positive lands between
        two negatives or a negative splits a run of positives; the label
        is feasible iff the run count stays <= k."""
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._gaps is None:
            pos = self.ys == POS
            left_pos = np.concatenate(([False], pos))
            right_pos = np.concatenate((pos, [False]))
            ok_pos = self._runs + ~(left_pos | right_pos) <= self.k
            ok_neg = self._runs + (left_pos & right_pos) <= self.k
            self._gaps = np.where(
                ok_pos & ok_neg, 0, np.where(ok_pos, POS, NEG)
            ).astype(np.int8)
        return self._gaps

    def _verdicts(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (in DIS, the label every member gives it or 0). A
        constraint point's label is forced; any other point takes the
        verdict of its gap."""
        xs = np.asarray(xs, dtype=np.float64)
        gaps = self._gap_verdicts()
        at = self.xs.searchsorted(xs)
        label = gaps[at]
        on = np.append(self.xs, np.inf)[at] == xs
        label[on] = self.ys[at[on]]
        return label == 0, label

    def _verdict(self, x: float) -> int:
        return int(self._verdicts(np.array([x]))[1][0])

    def dis_contains(self, x: float) -> bool:
        return self._verdict(x) == 0

    def agreement_label(self, x: float) -> int:
        label = self._verdict(x)
        if label == 0:
            raise ValueError(f"x={x} lies in the disagreement region")
        return label

    def partition(self) -> Partition:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._partition is None:
            n = len(self.xs)
            gap = self._gap_verdicts()
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

    def _verdicts(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (in DIS, unanimous label or 0), point by point."""
        label = np.array(
            [
                0 if self.dis_contains(x) else self.agreement_label(x)
                for x in np.asarray(xs, dtype=np.float64).tolist()
            ],
            dtype=np.int8,
        )
        return label == 0, label

    def partition(self) -> Partition:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._partition is None:
            breaks = np.unique(np.array([0.0, self.lo, self.hi, 1.0]))
            seg_dis, seg_label = self._verdicts(0.5 * (breaks[:-1] + breaks[1:]))
            pt_dis, pt_label = self._verdicts(breaks)
            self._partition = Partition(breaks, seg_dis, seg_label, pt_dis, pt_label)
        return self._partition

    def dis_region(self) -> RegionOfDisagreement:
        return self.partition().dis_region()

    def canonical_member(self) -> Threshold:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        # minimal positive set: the largest surviving threshold
        return Threshold(self.hi if self.hi_closed else np.nextafter(self.hi, 0.0))


# ---------------------------------------------------------------------------
# Enumerated backend
# ---------------------------------------------------------------------------


class EnumeratedClass:
    """Finite hypothesis class whose members are unions of closed
    intervals with endpoints on a sorted ``grid`` in [0,1].

    The grid splits the line into 2*len(grid)+1 cells: code 2j+1 is the
    point grid[j], code 2j the open gap just below it, and code
    2*len(grid) everything above the last grid point. Every member
    predicts one label per cell, and it is stored only as per-slot code
    ranges ``lo``/``hi`` of shape (members, slots): a slot
    [grid[a], grid[b]] is the range 2a+1..2b+1 and an unused slot the
    empty range 0..-1. Real slots are sorted and disjoint as in
    ``IntervalUnion`` and come before the unused ones. ``kind`` only
    decides how a member materializes (Threshold vs IntervalUnion).
    """

    def __init__(
        self,
        class_id: str,
        k: int,
        vc_dim: int,
        grid: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        kind: str = "intervals",
    ):
        self.class_id = class_id
        self.k = k
        self.vc_dim = vc_dim
        self.grid = grid
        self.kind = kind
        # grid plus +inf: defined at every index searchsorted can return
        self._probe = np.append(grid, np.inf)
        self._probe_list = self._probe.tolist()
        self._n_codes = n_codes = 2 * len(grid) + 1
        self._lo, self._hi = lo, hi
        real = lo > 0
        ranges_ok = np.where(
            real,
            (lo % 2 == 1) & (hi % 2 == 1) & (lo <= hi) & (hi < n_codes),
            (lo == 0) & (hi == -1),
        )
        ordered = real[:, :-1] & (lo[:, 1:] > hi[:, :-1])
        if not (
            np.all(grid[1:] > grid[:-1])
            and np.all((grid >= 0.0) & (grid <= 1.0))
            and np.all(ranges_ok)
            and np.all(~real[:, 1:] | ordered)
        ):
            raise ValueError(
                f"{class_id}: real slots must be sorted, disjoint intervals "
                "in [0,1] ahead of the empty ones"
            )
        self._table: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._lo)

    def prefix(
        self, n: int, class_id: str, k: int, vc_dim: int
    ) -> "EnumeratedClass":
        """The first n members as a class of their own. It keeps this
        class's grid, so its codes are slices of these."""
        sub = copy.copy(self)
        sub.class_id, sub.k, sub.vc_dim = class_id, k, vc_dim
        sub._lo, sub._hi = self._lo[:n], self._hi[:n]
        sub._table = None
        return sub

    def hypothesis(self, index: int) -> Hypothesis:
        lo, hi = self._lo[index], self._hi[index]
        real = lo > 0
        starts = self.grid[(lo[real] - 1) // 2].tolist()
        if self.kind == "thresholds":
            return Threshold(starts[0])
        ends = self.grid[(hi[real] - 1) // 2].tolist()
        return IntervalUnion(tuple(zip(starts, ends)))

    def index_of(self, h: Hypothesis) -> int | None:
        """Canonical index of an exact member, or None."""
        if isinstance(h, Threshold) != (self.kind == "thresholds"):
            return None
        ends = np.ravel(positive_segments(h))
        slots = self._lo.shape[1]
        at = np.searchsorted(self.grid, ends)
        if len(ends) > 2 * slots or np.any(self._probe[at] != ends):
            return None  # more intervals than slots, or an endpoint off the grid
        n = len(ends) // 2
        lo, hi = np.zeros(slots, dtype=np.intp), np.full(slots, -1, dtype=np.intp)
        lo[:n], hi[:n] = 2 * at[0::2] + 1, 2 * at[1::2] + 1
        same = (self._lo == lo).all(axis=1) & (self._hi == hi).all(axis=1)
        hits = np.flatnonzero(same)
        return int(hits[0]) if len(hits) else None

    def codes(self, xs) -> np.ndarray:
        """Cell code of each point; a scalar gives a scalar."""
        if isinstance(xs, float):  # one point: bisect skips numpy's call overhead
            j = bisect.bisect_left(self._probe_list, xs)
            return 2 * j + (self._probe_list[j] == xs)
        j = np.searchsorted(self.grid, xs)
        return 2 * j + (self._probe[j] == xs)

    def table(self) -> np.ndarray:
        """The (codes, members) positive-prediction table, built on first
        use."""
        if self._table is None:
            c = np.arange(self._n_codes)[:, None]
            table = np.zeros((len(c), len(self)), dtype=bool)
            for s in range(self._lo.shape[1]):
                table |= (c >= self._lo[:, s]) & (c <= self._hi[:, s])
            self._table = table
        return self._table

    def rows(self, xs) -> np.ndarray:
        """Positive predictions of every member at each point, as rows of
        the table: (points, members), or (members,) for a scalar."""
        return self.table()[self.codes(xs)]

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

    def distances_from(
        self, h: Hypothesis, lo: float = 0.0, hi: float = 1.0
    ) -> np.ndarray:
        """Exact measure of the symmetric difference between h and every
        member inside [lo, hi] (by default all of [0,1])."""
        # an unused slot (codes 0..-1) reads +inf at both ends: it clips
        # to an empty piece
        a = self._probe[(self._lo - 1) // 2]
        b = self._probe[(self._hi - 1) // 2]

        def member_mass(s: float, t: float) -> np.ndarray:
            """Mass of every member inside [s, t]."""
            return np.clip(np.minimum(b, t) - np.maximum(a, s), 0.0, None).sum(axis=1)

        mass_h = 0.0
        overlap = np.zeros(len(self))
        for s, t in positive_segments(h):
            s, t = max(s, lo), min(t, hi)
            mass_h += max(t - s, 0.0)
            overlap += member_mass(s, t)
        return mass_h + member_mass(lo, hi) - 2.0 * overlap


class MaskedVersionSpace:
    """Survivor mask over an enumerated class."""

    def __init__(self, cls: EnumeratedClass, mask: np.ndarray | None = None):
        self.cls = cls
        self.mask = (
            np.ones(len(cls), dtype=bool) if mask is None else mask.astype(bool)
        )
        self._survivor_table: np.ndarray | None = None
        self._code_verdict: np.ndarray | None = None
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

    def with_examples(self, extra: Examples) -> "MaskedVersionSpace":
        return self.replace_mask(self.mask & self.cls.consistent_mask(extra))

    def _breakpoints(self) -> np.ndarray:
        """0, 1 and every real endpoint of a survivor."""
        cls = self.cls
        # np.compress gathers rows several times faster than a boolean index
        ends = np.concatenate(
            [np.compress(self.mask, c, axis=0) for c in (cls._lo, cls._hi)], axis=None
        )
        used = np.zeros(len(cls.grid), dtype=bool)
        used[(ends[ends > 0] - 1) // 2] = True  # real codes are 2j+1
        return np.unique(np.concatenate(([0.0, 1.0], cls.grid[used])))

    def _columns(self) -> np.ndarray:
        """The survivors' columns of the class table, (codes, survivors)."""
        return np.compress(self.mask, self.cls.table(), axis=1)

    def survivor_rows(self, xs: np.ndarray) -> np.ndarray:
        """Positive predictions of every survivor at each point, as
        (points, survivors). The columns are gathered once per space and
        kept, so no lookup spans the whole class."""
        if self._survivor_table is None:
            self._survivor_table = self._columns()
        return self._survivor_table[self.cls.codes(xs)]

    def _code_verdicts(self) -> np.ndarray:
        """Per cell code of the class grid: the unanimous survivor label,
        or 0 where the survivors disagree. Every point of a code's cell
        gets the same predictions, so this table is the whole verdict."""
        if self._code_verdict is None:
            rows = self._columns()
            all_pos = rows.all(axis=1)
            verdict = np.where(all_pos, POS, NEG).astype(np.int8)
            verdict[rows.any(axis=1) & ~all_pos] = 0
            self._code_verdict = verdict
        return self._code_verdict

    def _verdicts(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (in DIS, unanimous survivor label or 0)."""
        codes = self.cls.codes(np.asarray(xs, dtype=np.float64))
        label = self._code_verdicts()[codes]
        return label == 0, label

    def partition(self) -> Partition:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        if self._partition is None:
            breaks = self._breakpoints()
            seg_dis, seg_label = self._verdicts(0.5 * (breaks[:-1] + breaks[1:]))
            pt_dis, pt_label = self._verdicts(breaks)
            self._partition = Partition(breaks, seg_dis, seg_label, pt_dis, pt_label)
        return self._partition

    def _verdict(self, x: float) -> int:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        return int(self._code_verdicts()[self.cls.codes(float(x))])

    def dis_contains(self, x: float) -> bool:
        return self._verdict(x) == 0

    def agreement_label(self, x: float) -> int:
        label = self._verdict(x)
        if label == 0:
            raise ValueError(f"x={x} lies in the disagreement region")
        return label

    def dis_region(self) -> RegionOfDisagreement:
        return self.partition().dis_region()

    def canonical_member(self) -> Hypothesis:
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        return self.cls.hypothesis(int(self.survivor_indices()[0]))

    def erm_index(self, sample: Examples) -> tuple[int, int]:
        """(index, error count) of the empirical risk minimizer among the
        survivors; ties go to the lowest canonical index."""
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
        blocks = [
            _exact_k_interval_rows(resolution, k, slots) for k in range(K_max + 1)
        ]
        lo, hi = np.concatenate(blocks, axis=1)
        top = EnumeratedClass(f"intervals_k{K_max}", K_max, dims[K_max], grid, lo, hi)
        sizes = np.cumsum([b.shape[1] for b in blocks])
        classes = [
            top.prefix(int(sizes[k]), f"intervals_k{k}", k, dims[k])
            for k in range(K_max)
        ] + [top]
        return cls("enumerated", K_max, dims, classes, grid)

    @classmethod
    def threshold_grid(cls, resolution: int = 201) -> EnumeratedClass:
        """Standalone finite threshold class (not part of a sequence)."""
        if resolution < 2:
            raise ValueError("a threshold grid needs the points 0 and 1")
        grid = np.linspace(0.0, 1.0, resolution)
        # threshold grid[a] is the slot [grid[a], 1]: codes 2a+1..2r-1
        lo = 2 * np.arange(resolution).reshape(-1, 1) + 1
        hi = np.full_like(lo, 2 * resolution - 1)
        return EnumeratedClass(
            f"thresholds_r{resolution}", 1, 1, grid, lo, hi, "thresholds"
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
        assert self.classes is not None
        for k in range(k_lo, self.K_max + 1):
            if self.classes[k].consistent_mask(exs).any():
                return k
        raise ExhaustionError(
            f"no consistent class at any k in [{k_lo}, {self.K_max}]"
        )


def _exact_k_interval_rows(r: int, k: int, slots: int) -> np.ndarray:
    """All unions of exactly k disjoint nonempty closed intervals on a grid
    of r points (for k = 0, the one empty union), in lexicographic order
    of their endpoint indices, as a (2, n, slots) stack of slot code
    ranges (``lo``, then ``hi``; see ``EnumeratedClass``).

    Indices a1 <= b1 < a2 <= b2 < ... <= bk in range(r) map one to one,
    order preserving, onto the strictly increasing 2k-tuples
    (a1, b1+1, a2+1, b2+2, ..., bk+k) in range(r+k): the 2k-combinations,
    which itertools emits in lexicographic order.
    """
    n = math.comb(r + k, 2 * k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(r + k), 2 * k))
    shifted = np.fromiter(flat, dtype=np.intp, count=2 * k * n).reshape(n, 2 * k)
    codes = 2 * (shifted - (np.arange(2 * k) + 1) // 2) + 1
    out = np.empty((2, n, slots), dtype=np.intp)
    out[0], out[1] = 0, -1  # unused slots: the empty range 0..-1
    out[0, :, :k], out[1, :, :k] = codes[:, 0::2], codes[:, 1::2]
    return out


_N_RADII = 16


def disagreement_coefficient_estimate(
    vs: MaskedVersionSpace,
    center: Hypothesis | None = None,
    r: float = 0.05,
    max_centers: int = 64,
) -> float:
    """Grid lower bound on sup over centers h in V and radii r' >= r of
    Pr[DIS(B_V(h, r'))] / r'.

    Centers default to an evenly spaced subsample of the survivors; radii
    run a geometric grid of ``_N_RADII`` points from r to 1. Ball masses
    are exact.
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
        radii = np.geomspace(r, 1.0, _N_RADII)
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
    return {"type": "interval_union", "intervals": [list(p) for p in h.intervals]}


def hypothesis_from_json(obj: dict) -> Hypothesis:
    t = obj["type"]
    if t == "threshold":
        return Threshold(float(obj["w"]))
    if t == "interval_union":
        return IntervalUnion(tuple((float(a), float(b)) for a, b in obj["intervals"]))
    raise ValueError(f"unknown hypothesis type {t!r}")
