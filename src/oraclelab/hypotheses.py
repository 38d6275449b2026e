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

import copy
import functools
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
    prediction is constant. A verdict is the label every member gives, or
    0 inside the disagreement region: ``seg`` holds one per segment and
    ``pt`` one per breakpoint, as int8 arrays.

    ``breaks`` keeps every breakpoint the version space hands in. The
    lookups run on merged cells: a breakpoint whose verdict and both of
    whose segments' verdicts agree is dropped, so a version space with
    hundreds of constraint points classifies against a handful of cells.

    ``in_dis`` answers DIS membership alone from closed spans: each
    maximal run of neighbouring DIS cells with its two outer edges, and
    each lone edge whose own verdict is 0. Neighbouring DIS cells are
    always split by a forced edge, so a space that has seen only
    negatives is one span [0, 1]; the edges of the runs whose own verdict
    is not 0 are its stops, looked up only for the points inside a span.
    """

    def __init__(self, breaks: np.ndarray, seg: np.ndarray, pt: np.ndarray):
        self.breaks = breaks
        # segment j+1 opens a new cell unless breakpoint j+1 and the
        # segments on both sides of it share one verdict
        opens = (seg[1:] != seg[:-1]) | (pt[1:-1] != seg[1:])
        keep = np.concatenate(([True], opens, [True]))
        self._edges = edges = breaks[keep]  # cell boundaries, 0 and 1 included
        self._cell = seg[keep[:-1]]
        # searchsorted(side="right") sends a point on an edge to the cell
        # on its right (on the last break, to the last cell); the edges
        # whose own verdict differs from that cell's are the exact hits
        # that need it
        edge_pt = pt[keep]
        right = np.minimum(np.arange(len(edge_pt)), len(self._cell) - 1)
        off = edge_pt != self._cell[right]
        self._hits, self._hit_verdict = edges[off], edge_pt[off]
        # DIS cells padded with a non-DIS cell at each end: the edges where
        # DIS starts or stops are alternately the two ends of each span
        dis = np.concatenate(([False], self._cell == 0, [False]))
        ends = edges[dis[:-1] != dis[1:]].tolist()
        if dis[1]:  # classify extends the end cells past 0 and 1
            ends[0] = -np.inf
        if dis[-2]:
            ends[-1] = np.inf
        touched = dis[:-1] | dis[1:]
        lone = edges[~touched & (edge_pt == 0)].tolist()
        self._spans = list(zip(ends[0::2], ends[1::2])) + list(zip(lone, lone))
        self._stops = edges[touched & (edge_pt != 0)]

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

    def in_dis(self, xs: np.ndarray) -> np.ndarray:
        """Per point: in the disagreement region; ``classify(xs)[0]``
        without classifying."""
        xs = np.asarray(xs, dtype=np.float64)
        if not self._spans:
            return np.zeros(xs.shape, dtype=bool)
        (lo, hi), *rest = self._spans
        out = (xs >= lo) & (xs <= hi)
        for lo, hi in rest:
            out |= (xs >= lo) & (xs <= hi)
        cand = np.flatnonzero(out) if len(self._stops) else ()
        if len(cand):
            inside = xs[cand]
            at = np.minimum(self._stops.searchsorted(inside), len(self._stops) - 1)
            out[cand[self._stops[at] == inside]] = False
        return out

    def dis_region(self) -> RegionOfDisagreement:
        # neighbouring DIS cells are always split by a forced edge, so
        # each DIS cell is one maximal segment
        dis = np.flatnonzero(self._cell == 0)
        segs = tuple(zip(self._edges[dis].tolist(), self._edges[dis + 1].tolist()))
        return RegionOfDisagreement(segs, segments_mass(segs))


class _VersionSpace:
    """What every version space derives from its own verdict rule.

    A backend supplies ``is_empty()``, ``_rule(xs)``, the verdict of each
    point of a float64 array (the label every member gives it, or 0 in
    DIS) on a nonempty space, and, unless it builds its own partition,
    ``_breakpoints()``: the sorted points, 0 and 1 included, between
    which every member's prediction is constant.
    """

    _partition: Partition | None = None

    def _verdicts(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per point: (in DIS, the label every member gives it or 0)."""
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        label = self._rule(np.asarray(xs, dtype=np.float64))
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
        """The rule read at every breakpoint and at the midpoint of every
        segment between two (``_verdicts`` raises on an empty space)."""
        if self._partition is None:
            breaks = self._breakpoints()
            seg = self._verdicts(0.5 * (breaks[:-1] + breaks[1:]))[1]
            self._partition = Partition(breaks, seg, self._verdicts(breaks)[1])
        return self._partition

    def dis_region(self) -> RegionOfDisagreement:
        return self.partition().dis_region()


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
    order = np.argsort(xs)  # numpy's SIMD sort, not stable
    sx = xs[order]
    if (sx[1:] > sx[:-1]).all():  # distinct: the order is the stable one
        return sx, ys[order].astype(np.int8), False
    order = np.argsort(xs, kind="stable")  # equal xs keep their input order
    xs, ys = xs[order], ys[order]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    ys_first = ys[first]
    conflict = bool(np.any(ys != ys_first[np.cumsum(first) - 1]))
    return xs[first], ys_first.astype(np.int8), conflict


class IntervalVersionSpace(_VersionSpace):
    """H_k(S): unions of at most k closed intervals consistent with S."""

    def __init__(self, k: int, examples: Examples = ()):
        self.k = k
        self._xs, self._ys, conflict = _dedup_examples(examples)
        # (xs, ys) chunks added since and not merged in yet, oldest first
        self._pending: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
        # (first x, last x) of each maximal run of +1 labels, or None
        # when some point carries both labels
        self._bounds = None
        if not conflict:
            starts, ends = _run_bounds(self._ys)
            self._bounds = self._xs[starts], self._xs[ends]
        self._gaps: np.ndarray | None = None

    @property
    def xs(self) -> np.ndarray:
        """The sorted distinct constraint points."""
        self._merge_pending()
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """Their labels, int8."""
        self._merge_pending()
        return self._ys

    @property
    def vc_dim(self) -> int:
        return 2 * self.k

    @property
    def _runs(self) -> int | None:
        return None if self._bounds is None else len(self._bounds[0])

    def is_empty(self) -> bool:
        return self._bounds is None or self._runs > self.k

    def with_examples(self, extra: Examples) -> "IntervalVersionSpace":
        """The constraints so far plus ``extra``; on a repeated x the
        older label wins. A space emptied by a conflict stays empty.

        Points that cannot move a run bound (``_moves_a_bound``) are only
        queued, and merged into the sorted constraints when ``xs`` or
        ``ys`` is next read; a space grown chunk by chunk whose runs hold
        still (the passive baseline between two growths of its hypothesis)
        pays per chunk for the chunk alone."""
        xs, ys = _labeled_arrays(extra)
        vs = copy.copy(self)
        vs._pending = self._pending + ((xs, ys),)
        vs._gaps = vs._partition = None
        if self._bounds is not None and _moves_a_bound(self._bounds, xs, ys):
            if vs._merge_pending():
                vs._bounds = None
            else:
                starts, ends = _run_bounds(vs._ys)
                vs._bounds = vs._xs[starts], vs._xs[ends]
        return vs

    def _merge_pending(self) -> bool:
        """Merge the queued points into the sorted constraints; True when
        one of them carries the other label of a constraint or of an older
        queued point. Only the queued points are sorted."""
        if not self._pending:
            return False
        xs, ys, conflict = _dedup_examples(
            tuple(np.concatenate(col) for col in zip(*self._pending))
        )
        self._pending = ()
        at = self._xs.searchsorted(xs)
        old = self._xs.searchsorted(xs, side="right") > at  # repeats a constraint
        if old.any():
            conflict |= bool((self._ys[at[old]] != ys[old]).any())
            xs, ys, at = xs[~old], ys[~old], at[~old]
        self._xs = np.insert(self._xs, at, xs)
        self._ys = np.insert(self._ys, at, ys)
        return conflict

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

    def _rule(self, xs: np.ndarray) -> np.ndarray:
        """A constraint point's label is forced; any other point takes the
        verdict of its gap."""
        gaps = self._gap_verdicts()
        at = self.xs.searchsorted(xs)
        label = gaps[at]
        on = np.append(self.xs, np.inf)[at] == xs
        label[on] = self.ys[at[on]]
        return label

    def partition(self) -> Partition:
        """Built from the gaps, not sampled: two constraint points can be
        adjacent floats, with no midpoint between them."""
        if self._partition is None:
            n = len(self.xs)
            gap = self._gap_verdicts()
            raw = np.concatenate(([0.0], self.xs, [1.0]))
            keep = raw[1:] > raw[:-1]  # drop zero-length end gaps
            # 0 and 1 are breakpoints with the verdict of the gap they
            # bound, unless a constraint point sits on them
            on = np.concatenate((keep[:1], np.ones(n, dtype=bool), keep[-1:]))
            pt = np.concatenate((gap[:1], self.ys, gap[-1:]))[on]
            self._partition = Partition(raw[on], gap[keep], pt)
        return self._partition

    def canonical_member(self) -> IntervalUnion:
        """Minimal consistent hypothesis: one closed interval per positive
        run, spanning exactly that run's constraint points."""
        if self.is_empty():
            raise EmptyVersionSpaceError("empty version space")
        starts, ends = self._bounds
        return IntervalUnion(tuple(zip(starts.tolist(), ends.tolist())))


def _run_bounds(ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the first and the last point of each maximal run of +1
    labels."""
    pos = np.asarray(ys) == POS
    starts = pos & ~np.concatenate(([False], pos[:-1]))
    ends = pos & ~np.concatenate((pos[1:], [False]))
    return starts, ends


def _moves_a_bound(
    bounds: tuple[np.ndarray, np.ndarray], xs: np.ndarray, ys: np.ndarray
) -> bool:
    """Whether new constraint points can move a run bound or conflict.

    A positive inside a closed run lands between two positives or repeats
    one; a negative outside every closed run lands between negatives or
    next to a run's outer end, or repeats a negative. Either way the runs
    keep their bounds. Any other point may split a run, grow one, add one
    or relabel a constraint."""
    starts, ends = bounds
    inside = ((xs[:, None] >= starts) & (xs[:, None] <= ends)).any(axis=1)
    return bool((inside != (ys == POS)).any())


class ThresholdVersionSpace(_VersionSpace):
    """Thresholds h_w with w constrained to an interval of [0,1].

    Consistency with examples gives w in (max negative x, min positive x];
    the binary-search driver also builds half-open ranges directly.
    """

    def __init__(self, lo: float, hi: float, lo_closed: bool, hi_closed: bool):
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed

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

    def _rule(self, xs: np.ndarray) -> np.ndarray:
        """Member w predicts +1 at x iff w <= x: disagreement at x needs
        one member w <= x and another w > x."""
        has_leq = xs >= self.lo if self.lo_closed else xs > self.lo
        has_gt = xs < self.hi
        return np.where(has_leq, np.where(has_gt, 0, POS), NEG).astype(np.int8)

    def _breakpoints(self) -> np.ndarray:
        return np.unique(np.array([0.0, self.lo, self.hi, 1.0]))

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
        self._probe.setflags(write=False)  # shared with every prefix
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
        j = np.searchsorted(self.grid, xs)
        return 2 * j + (self._probe[j] == xs)

    def predictions(self, xs: np.ndarray) -> np.ndarray:
        """Boolean positive-prediction matrix, rows = hypotheses."""
        codes = self.codes(np.asarray(xs, dtype=np.float64))
        return np.ascontiguousarray(_covers(codes, self._lo, self._hi).T)

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
        difference of two prefix sums over the per-code histogram. The
        sums run one slot column at a time, gathering only the selected
        members' codes of that column; ``indices=None`` selects every
        member and gathers nothing.
        """
        codes = self.codes(np.asarray(xs, dtype=np.float64))
        y_pos = np.asarray(ys) == POS
        balance = np.bincount(codes[~y_pos], minlength=self._n_codes) - np.bincount(
            codes[y_pos], minlength=self._n_codes
        )
        # prefix[c] sums the codes below c; through end = prefix[1:] an
        # unused slot's hi = -1 reads the trailing 0, as its lo = 0 does
        prefix = np.concatenate(([0], np.cumsum(balance), [0]))
        end = prefix[1:]
        n = len(self) if indices is None else len(indices)
        counts = np.full(n, int(y_pos.sum()), dtype=prefix.dtype)
        for s in range(self._lo.shape[1]):
            lo, hi = self._lo[:, s], self._hi[:, s]
            if indices is not None:
                lo, hi = lo[indices], hi[indices]
            counts += end[hi]
            counts -= prefix[lo]
        return counts

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


def _covers(codes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(points, members): whether a slot of each member covers each cell
    code, from the members' slot code ranges ``lo``/``hi`` (an unused
    slot, 0..-1, covers none)."""
    c = codes[:, None]
    out = (c >= lo[:, 0]) & (c <= hi[:, 0])
    for s in range(1, lo.shape[1]):
        out |= (c >= lo[:, s]) & (c <= hi[:, s])
    return out


class MaskedVersionSpace(_VersionSpace):
    """Survivor mask over an enumerated class."""

    def __init__(self, cls: EnumeratedClass, mask: np.ndarray | None = None):
        self.cls = cls
        self.mask = (
            np.ones(len(cls), dtype=bool) if mask is None else mask.astype(bool)
        )
        self._survivor_ends: tuple[np.ndarray, np.ndarray] | None = None
        self._endpoints: tuple[np.ndarray, np.ndarray] | None = None

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

    def _endpoint_pass(self) -> tuple[np.ndarray, np.ndarray]:
        """(verdict per cell code, breakpoints) from one gather of the
        survivors' slot endpoints. A code's coverage, the number of
        survivors predicting +1 in its cell, is a running sum of slots
        opening (lo) minus slots closed below it (hi + 1); an unused slot
        (0..-1) cancels at code 0. The verdict is +1 at full coverage, -1
        at none and 0 otherwise; the breakpoints are 0, 1 and every grid
        point where a survivor's slot opens or closes."""
        if self._endpoints is None:
            cls = self.cls
            # np.compress gathers rows several times faster than a boolean index
            lo, hi = (np.compress(self.mask, c, axis=0) for c in (cls._lo, cls._hi))
            opens = np.bincount(lo.ravel(), minlength=cls._n_codes)
            closes = np.bincount(hi.ravel() + 1, minlength=cls._n_codes)
            coverage = np.cumsum(opens - closes)
            verdict = np.where(coverage > 0, 0, NEG).astype(np.int8)
            verdict[coverage == len(lo)] = POS
            # grid[j] is code 2j+1: a slot opens there, or closes just above
            used = (opens[1::2] > 0) | (closes[2::2] > 0)
            breaks = np.unique(np.concatenate(([0.0, 1.0], cls.grid[used])))
            self._endpoints = verdict, breaks
        return self._endpoints

    def _breakpoints(self) -> np.ndarray:
        return self._endpoint_pass()[1]

    def survivor_rows(self, xs: np.ndarray) -> np.ndarray:
        """Positive predictions of every survivor at each point, as
        (points, survivors). The survivors' slot endpoints are gathered
        once per space and kept, so no comparison spans the whole class."""
        if self._survivor_ends is None:
            self._survivor_ends = tuple(
                np.compress(self.mask, c, axis=0) for c in (self.cls._lo, self.cls._hi)
            )
        return _covers(self.cls.codes(xs), *self._survivor_ends)

    def _rule(self, xs: np.ndarray) -> np.ndarray:
        return self._endpoint_pass()[0][self.cls.codes(xs)]

    # bound in this class's own namespace, where perfbench's tracer wraps it
    partition = _VersionSpace.partition

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
        """The nested interval classes on ``np.linspace(0, 1, resolution)``.

        Built once per process for each (K_max, resolution) and shared by
        every caller (``_enumerated_intervals``); its arrays are read-only."""
        return _enumerated_intervals(K_max, resolution)

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

    def least_consistent(self, examples: Examples, k_lo: int = 0) -> VersionSpace:
        """H_k(S) for the least k >= k_lo where it is nonempty (its ``k``),
        from one consistency pass: S's run count on the exact backend, a
        mask scan from k_lo on the enumerated one. ExhaustionError past K_max."""
        if self.backend == "exact-intervals":
            vs = IntervalVersionSpace(k_lo, examples)
            if vs._runs is not None and max(k_lo, vs._runs) <= self.K_max:
                vs.k = max(k_lo, vs._runs)
                return vs
        else:
            exs = as_arrays(examples)
            for cls_k in self.classes[k_lo:]:
                mask = cls_k.consistent_mask(exs)
                if mask.any():
                    return MaskedVersionSpace(cls_k, mask)
        raise ExhaustionError(
            f"no consistent class at any k in [{k_lo}, {self.K_max}]"
        )

    def min_consistent_index(self, examples: Examples, k_lo: int = 0) -> int:
        return self.least_consistent(examples, k_lo).k


# A sequence is pure data, and every cell of a config asks for the same
# one. The bound keeps memory flat when many keys pass through (validate
# draws ten): the k=3, r=21 sequence keeps 6.9 MB of code ranges alive.
# ``__wrapped__`` builds a fresh one.
@functools.lru_cache(maxsize=4)
def _enumerated_intervals(K_max: int, resolution: int) -> NestedClassSequence:
    # class size grows like resolution^(2k); 21 points keep the k=2,3
    # unions enumerable (thousands to ~100k rows), finer grids are for
    # single-interval or threshold classes
    grid = np.linspace(0.0, 1.0, resolution)
    dims = {k: (0 if k == 0 else 2 * k) for k in range(K_max + 1)}
    slots = max(K_max, 1)
    blocks = [_exact_k_interval_rows(resolution, k, slots) for k in range(K_max + 1)]
    lo, hi = np.concatenate(blocks, axis=1)
    # the sequence is shared: an in-place write raises instead of changing
    # it under later cells (the prefixes are views)
    for a in (grid, lo, hi):
        a.setflags(write=False)
    top = EnumeratedClass(f"intervals_k{K_max}", K_max, dims[K_max], grid, lo, hi)
    sizes = np.cumsum([b.shape[1] for b in blocks])
    classes = [
        top.prefix(int(sizes[k]), f"intervals_k{k}", k, dims[k])
        for k in range(K_max)
    ] + [top]
    return NestedClassSequence("enumerated", K_max, dims, classes, grid)



def _combinations(n: int, m: int) -> np.ndarray:
    """All m-combinations of range(n), as rows of a (comb(n, m), m)
    array in lexicographic order (the order of ``itertools.combinations``).

    Built column by column: each row of the first j columns, whose next
    value can run from one above its last value up to n - m + j, repeats
    once per such value, and the new column counts up within its block.
    """
    if m > n:
        return np.zeros((0, m), dtype=np.intp)
    cols: list[np.ndarray] = []
    for j in range(m):
        first = cols[-1] + 1 if cols else np.zeros(1, dtype=np.intp)
        reps = n - m + j + 1 - first
        block_start = np.cumsum(reps) - reps
        cols = [np.repeat(c, reps) for c in cols]
        cols.append(np.arange(int(reps.sum())) + np.repeat(first - block_start, reps))
    if not cols:
        return np.zeros((1, 0), dtype=np.intp)
    return np.stack(cols, axis=1)


def _exact_k_interval_rows(r: int, k: int, slots: int) -> np.ndarray:
    """All unions of exactly k disjoint nonempty closed intervals on a grid
    of r points (for k = 0, the one empty union), in lexicographic order
    of their endpoint indices, as a (2, n, slots) stack of slot code
    ranges (``lo``, then ``hi``; see ``EnumeratedClass``).

    Indices a1 <= b1 < a2 <= b2 < ... <= bk in range(r) map one to one,
    order preserving, onto the strictly increasing 2k-tuples
    (a1, b1+1, a2+1, b2+2, ..., bk+k) in range(r+k): the 2k-combinations
    in lexicographic order.
    """
    shifted = _combinations(r + k, 2 * k)
    n = len(shifted)
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
