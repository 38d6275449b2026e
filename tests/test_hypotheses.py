"""Hypotheses module: exact backends cross-checked against grid enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from oraclelab.hypotheses import (
    ALWAYS_NEGATIVE,
    intersect_segments,
    EmptyVersionSpaceError,
    ExhaustionError,
    IntervalUnion,
    IntervalVersionSpace,
    MaskedVersionSpace,
    NestedClassSequence,
    Threshold,
    ThresholdVersionSpace,
    ball_radius_pair_distance,
    disagreement_coefficient_estimate,
    hypothesis_from_json,
    hypothesis_to_json,
    positive_run_count,
    predict,
    predict_batch,
    symmetric_difference_segments,
)

import gridref

THREE_POINTS = [(0.2, 1), (0.4, -1), (0.6, 1)]


class TestPredict:
    def test_threshold(self):
        assert predict(Threshold(0.5), 0.7) == 1
        assert predict(Threshold(0.5), 0.5) == 1
        assert predict(Threshold(0.5), 0.49) == -1

    def test_interval_union(self):
        h = IntervalUnion(((0.2, 0.4), (0.6, 0.8)))
        assert predict(h, 0.5) == -1
        assert predict(h, 0.3) == 1
        assert predict(h, 0.8) == 1

    def test_always_negative(self):
        for x in (0.0, 0.3, 1.0):
            assert predict(ALWAYS_NEGATIVE, x) == -1

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(0)
        xs = rng.random(200)
        for h in (Threshold(0.31), IntervalUnion(((0.1, 0.2), (0.5, 0.9)))):
            batch = predict_batch(h, xs)
            assert all(batch[i] == predict(h, x) for i, x in enumerate(xs))


class TestRealizability:
    """A sample fits some union of <= k closed intervals iff its positive
    runs number at most k."""

    def test_three_points(self):
        assert positive_run_count(THREE_POINTS) == 2

    def test_empty_set(self):
        assert positive_run_count([]) == 0

    def test_conflicting_duplicate_is_unrealizable(self):
        assert positive_run_count([(0.3, 1), (0.3, -1)]) is None
        with pytest.raises(ExhaustionError):
            NestedClassSequence.exact_intervals(5).min_consistent_index(
                [(0.3, 1), (0.3, -1)]
            )

    def test_against_grid_bruteforce(self):
        hyps1 = gridref.grid_interval_hypotheses(1, 101)
        hyps2 = gridref.grid_interval_hypotheses(2, 21)
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 21)
        for _ in range(50):
            n = rng.integers(1, 6)
            xs = rng.choice(grid[1:-1], size=n, replace=False)
            ys = rng.choice([-1, 1], size=n)
            s = list(zip(xs.tolist(), ys.tolist()))
            runs = positive_run_count(s)
            assert (runs is not None and runs <= 1) == bool(
                gridref.survivors(hyps1, s)
            )
            assert (runs is not None and runs <= 2) == bool(
                gridref.survivors(hyps2, s)
            )


class TestMinConsistentIndex:
    def test_single_positive_needs_one_interval(self):
        seq = NestedClassSequence.exact_intervals(3)
        assert seq.min_consistent_index([(0.5, 1)]) == 1

    def test_empty_set(self):
        seq = NestedClassSequence.exact_intervals(3)
        assert seq.min_consistent_index([]) == 0

    def test_three_points(self):
        seq = NestedClassSequence.exact_intervals(3)
        assert seq.min_consistent_index(THREE_POINTS) == 2

    def test_exhaustion(self):
        seq = NestedClassSequence.exact_intervals(1)
        with pytest.raises(ExhaustionError):
            seq.min_consistent_index(THREE_POINTS)

    def test_enumerated_agrees_with_exact(self):
        seq_e = NestedClassSequence.exact_intervals(3)
        seq_n = NestedClassSequence.enumerated_intervals(3, resolution=13)
        grid = np.linspace(0, 1, 13)
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = rng.integers(1, 7)
            xs = rng.choice(grid, size=n, replace=False)
            ys = rng.choice([-1, 1], size=n)
            s = list(zip(xs.tolist(), ys.tolist()))
            try:
                ke = seq_e.min_consistent_index(s)
            except ExhaustionError:
                ke = None
            try:
                kn = seq_n.min_consistent_index(s)
            except ExhaustionError:
                kn = None
            # grid endpoints make every run coverable on-grid, so they agree
            assert ke == kn


class TestThresholdVersionSpace:
    S = [(0.3, -1), (0.7, 1)]

    def test_dis_contains(self):
        vs = ThresholdVersionSpace.from_examples(self.S)
        assert vs.dis_contains(0.5)
        assert not vs.dis_contains(0.2)
        assert not vs.dis_contains(0.9)

    def test_dis_region(self):
        vs = ThresholdVersionSpace.from_examples(self.S)
        region = vs.dis_region()
        assert region.mass == pytest.approx(0.4, abs=1e-6)
        (lo, hi), = region.segments
        assert lo == pytest.approx(0.3, abs=1e-6)
        assert hi == pytest.approx(0.7, abs=1e-6)

    def test_agreement_labels(self):
        vs = ThresholdVersionSpace.from_examples(self.S)
        assert vs.agreement_label(0.9) == 1
        assert vs.agreement_label(0.1) == -1
        with pytest.raises(ValueError):
            vs.agreement_label(0.5)

    def test_singleton_has_empty_dis(self):
        vs = ThresholdVersionSpace(0.4, 0.4, True, True)
        assert not vs.is_empty()
        assert vs.dis_region().mass == 0.0
        assert not vs.dis_contains(0.4)
        assert vs.agreement_label(0.6) == predict(Threshold(0.4), 0.6)

    def test_against_grid_enumeration(self):
        hyps = gridref.grid_threshold_hypotheses(401)
        pool = gridref.survivors(hyps, self.S)
        vs = ThresholdVersionSpace.from_examples(self.S)
        xs = np.linspace(0, 1, 101)
        ref = gridref.ref_dis_mask(pool, xs)
        for x, r in zip(xs, ref):
            got = vs.dis_contains(float(x))
            # tolerate one grid cell around the exact region's endpoints
            if min(abs(x - 0.3), abs(x - 0.7)) > 1 / 400:
                assert got == bool(r), f"x={x}"

    def test_empty_version_space(self):
        vs = ThresholdVersionSpace.from_examples([(0.5, 1), (0.6, -1)])
        assert vs.is_empty()
        with pytest.raises(EmptyVersionSpaceError):
            vs.dis_region()


class TestIntervalVersionSpace:
    def test_single_positive_dis_is_everything_but_the_point(self):
        vs = IntervalVersionSpace(1, [(0.5, 1)])
        region = vs.dis_region()
        assert region.mass == pytest.approx(1.0, abs=1e-6)
        assert not vs.dis_contains(0.5)
        assert vs.dis_contains(0.2)
        assert vs.dis_contains(0.9)

    def test_h0_never_disagrees(self):
        vs = IntervalVersionSpace(0, [(0.2, -1)])
        assert vs.dis_region().mass == 0.0
        assert vs.agreement_label(0.7) == -1

    def test_canonical_member_minimal_cover(self):
        vs = IntervalVersionSpace(2, [(0.1, 1), (0.2, 1), (0.5, -1), (0.7, 1)])
        h = vs.canonical_member()
        assert h == IntervalUnion(((0.1, 0.2), (0.7, 0.7)))

    def test_erm_consistent_case(self):
        # a zero-error fit is the canonical member of the refined space
        vs = IntervalVersionSpace(1, []).with_examples([(0.4, 1), (0.6, 1), (0.1, -1)])
        h = vs.canonical_member()
        assert predict(h, 0.4) == 1 and predict(h, 0.1) == -1

    def test_erm_inconsistent_raises(self):
        vs = IntervalVersionSpace(0, []).with_examples([(0.4, 1)])
        assert vs.is_empty()
        with pytest.raises(EmptyVersionSpaceError):
            vs.canonical_member()

    def test_against_grid_enumeration(self):
        hyps = gridref.grid_interval_hypotheses(1, 41)
        rng = np.random.default_rng(11)
        grid = np.linspace(0, 1, 41)
        eval_xs = np.linspace(0, 1, 201)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            xs = rng.choice(grid, size=n, replace=False)
            ys = rng.choice([-1, 1], size=n)
            s = list(zip(xs.tolist(), ys.tolist()))
            pool = gridref.survivors(hyps, s)
            vs = IntervalVersionSpace(1, s)
            if not pool:
                assert vs.is_empty()
                continue
            assert not vs.is_empty()
            ref = gridref.ref_dis_mask(pool, eval_xs)
            got = np.array([vs.dis_contains(float(x)) for x in eval_xs])
            # the grid class is a subset of the continuum class, so its DIS
            # is contained in the exact one; at grid resolution they match
            # away from boundary cells
            mism = np.nonzero(ref != got)[0]
            for m in mism:
                d = np.min(np.abs(grid - eval_xs[m]))
                assert d <= 1 / 40 + 1e-9

    def test_dis_monotone_under_more_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pts = rng.random(6)
            target = IntervalUnion(((0.2, 0.45), (0.7, 0.9)))
            s = [(float(x), predict(target, float(x))) for x in pts[:3]]
            s_big = s + [(float(x), predict(target, float(x))) for x in pts[3:]]
            small = IntervalVersionSpace(2, s)
            big = IntervalVersionSpace(2, s_big)
            xs = np.linspace(0, 1, 301)
            for x in xs:
                if big.dis_contains(float(x)):
                    assert small.dis_contains(float(x))


class TestMaskedVersionSpace:
    def _threshold_class(self, ws):
        bounds = np.full((len(ws), 1, 2), 1.0)
        bounds[:, 0, 0] = ws
        return gridref.enumerated_class("t", 1, 1, bounds, "thresholds")

    def test_erm_counts(self):
        cls = self._threshold_class([0.25, 0.5, 0.75])
        vs = MaskedVersionSpace(cls)
        sample = [(0.3, 1), (0.6, 1), (0.1, -1)]
        idx, errs = vs.erm_index(sample)
        assert (idx, errs) == (0, 0) and cls.hypothesis(idx) == Threshold(0.25)
        ref = gridref.ref_erm([cls.hypothesis(i) for i in range(3)], sample)
        assert (ref[0], ref[2]) == (idx, errs)

    def test_erm_tie_breaks_to_lowest_index(self):
        cls = self._threshold_class([0.2, 0.4, 0.9])
        vs = MaskedVersionSpace(cls)
        assert vs.erm_index([]) == (0, 0)
        assert cls.hypothesis(0) == Threshold(0.2)
        # all three predict +1 at 0.95, so each errs once on a negative there
        assert vs.erm_index([(0.95, -1)]) == (0, 1)

    def test_erm_unique_perfect_fit_wins(self):
        cls = self._threshold_class([0.2, 0.4, 0.9])
        vs = MaskedVersionSpace(cls)
        # only the middle threshold fits both examples with zero error
        sample = [(0.3, -1), (0.5, 1)]
        idx, errs = vs.erm_index(sample)
        assert errs == 0 and cls.hypothesis(idx) == Threshold(0.4)

    def test_erm_exhaustive_optimality(self):
        rng = np.random.default_rng(13)
        cls = self._threshold_class(np.linspace(0, 1, 31))
        vs = MaskedVersionSpace(cls)
        for _ in range(20):
            xs = rng.random(17)
            ys = rng.choice([-1, 1], size=17)
            sample = list(zip(xs.tolist(), ys.tolist()))
            idx, errs = vs.erm_index(sample)
            counts = cls.err_counts(xs, ys)
            assert errs == counts.min()
            assert idx == int(np.argmin(counts))

    def test_dis_and_agreement_match_exact_backend(self):
        seq = NestedClassSequence.enumerated_intervals(2, resolution=21)
        rng = np.random.default_rng(17)
        grid = np.linspace(0, 1, 21)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            xs = rng.choice(grid, size=n, replace=False)
            ys = rng.choice([-1, 1], size=n)
            s = list(zip(xs.tolist(), ys.tolist()))
            vs_m = seq.version_space(2, s)
            vs_e = IntervalVersionSpace(2, s)
            if vs_m.is_empty():
                assert vs_e.is_empty()
                continue
            for x in np.linspace(0.001, 0.999, 97):
                got = vs_m.dis_contains(float(x))
                want = vs_e.dis_contains(float(x))
                d = np.min(np.abs(grid - x))
                if d > 1 / 20:
                    assert got == want
                if not got and not want:
                    assert vs_m.agreement_label(float(x)) == vs_e.agreement_label(
                        float(x)
                    )

    def test_singleton_region_empty(self):
        cls = self._threshold_class([0.25, 0.5])
        mask = np.array([True, False])
        vs = MaskedVersionSpace(cls, mask)
        assert vs.dis_region().mass == 0.0


class TestPairDistance:
    def test_identical(self):
        h = IntervalUnion(((0.2, 0.4),))
        assert ball_radius_pair_distance(h, h) == 0.0

    def test_thresholds(self):
        assert ball_radius_pair_distance(Threshold(0.3), Threshold(0.5)) == (
            pytest.approx(0.2, abs=1e-12)
        )

    def test_interval_vs_always_negative(self):
        h = IntervalUnion(((0.2, 0.4),))
        assert ball_radius_pair_distance(h, ALWAYS_NEGATIVE) == pytest.approx(0.2)

    def test_random_pairs_against_grid_integration(self):
        rng = np.random.default_rng(19)
        xs = np.linspace(0, 1, 200001)
        for _ in range(10):
            a = np.sort(rng.random(4))
            h1 = IntervalUnion(((a[0], a[1]), (a[2], a[3])))
            b = np.sort(rng.random(2))
            h2 = IntervalUnion(((b[0], b[1]),))
            approx = float(
                np.mean(predict_batch(h1, xs) != predict_batch(h2, xs))
            )
            assert ball_radius_pair_distance(h1, h2) == pytest.approx(
                approx, abs=2e-4
            )

    def test_enumerated_distances_match(self):
        seq = NestedClassSequence.enumerated_intervals(2, resolution=11)
        cls = seq.classes[2]
        h = IntervalUnion(((0.2, 0.5),))
        dists = cls.distances_from(h)
        for i in range(0, len(cls), 37):
            want = ball_radius_pair_distance(h, cls.hypothesis(i))
            assert dists[i] == pytest.approx(want, abs=1e-12)


class TestSymmetricDifference:
    def test_segments(self):
        segs = symmetric_difference_segments(
            IntervalUnion(((0.2, 0.6),)), IntervalUnion(((0.4, 0.8),))
        )
        assert segs == [(0.2, 0.4), (0.6, 0.8)]


class TestDisagreementCoefficient:
    def test_seeded_one_interval_bounded(self):
        seq = NestedClassSequence.enumerated_intervals(1, resolution=201)
        vs = seq.version_space(1, [(0.43, 1)])
        est = disagreement_coefficient_estimate(vs, r=0.05)
        assert est <= 4.0 * 1.25

    def test_unconstrained_one_interval_blows_up(self):
        seq = NestedClassSequence.enumerated_intervals(1, resolution=201)
        vs = seq.version_space(1, [])
        est = disagreement_coefficient_estimate(vs, center=ALWAYS_NEGATIVE, r=0.01)
        assert est >= 10.0

    def test_seeded_unions_bounded_by_4k(self):
        # k positive seeds in distinct intervals, separated by k-1 negatives
        # (without the separators a tiny second interval floats freely and
        # the coefficient legitimately blows up like 1/r)
        cases = {
            2: [(0.2, 1), (0.45, -1), (0.7, 1)],
            3: [(0.15, 1), (0.35, -1), (0.5, 1), (0.65, -1), (0.85, 1)],
        }
        for k, seeds in cases.items():
            seq = NestedClassSequence.enumerated_intervals(k, resolution=21)
            vs = seq.version_space(k, seeds)
            est = disagreement_coefficient_estimate(vs, r=0.05, max_centers=24)
            assert est <= 4.0 * k * 1.25


class TestNestedSequence:
    def test_dims(self):
        seq = NestedClassSequence.exact_intervals(3)
        assert seq.class_dims == {0: 0, 1: 2, 2: 4, 3: 6}

    def test_enumerated_nesting_by_prefix(self):
        seq = NestedClassSequence.enumerated_intervals(2, resolution=9)
        c1, c2 = seq.classes[1], seq.classes[2]
        assert len(c2) > len(c1)
        assert [c2.hypothesis(i) for i in range(len(c1))] == [
            c1.hypothesis(i) for i in range(len(c1))
        ]

    def test_enumerated_counts(self):
        seq = NestedClassSequence.enumerated_intervals(1, resolution=21)
        # 1 always-negative + all closed grid intervals
        assert len(seq.classes[1]) == 1 + 21 * 22 // 2

    def test_threshold_grid(self):
        cls = NestedClassSequence.threshold_grid(101)
        assert len(cls) == 101
        assert cls.hypothesis(50) == Threshold(0.5)


class TestJsonSchema:
    def test_hypothesis_roundtrip(self):
        for h in (
            Threshold(0.37),
            IntervalUnion(((0.1, 0.2), (0.5, 0.9))),
            ALWAYS_NEGATIVE,
        ):
            assert hypothesis_from_json(hypothesis_to_json(h)) == h


class TestPartitionConsistency:
    """The batched piecewise classifier and each backend's batch verdicts
    must agree with the pointwise predicates everywhere, including
    exactly on breakpoints and constraint points."""

    def _assert_consistent(self, vs, xs):
        in_dis, labels = vs.partition().classify(xs)
        v_dis, v_labels = vs._verdicts(xs)
        for x, d, lab, vd, vlab in zip(xs, in_dis, labels, v_dis, v_labels):
            assert bool(d) == bool(vd) == vs.dis_contains(float(x))
            if not d:
                assert int(lab) == int(vlab) == vs.agreement_label(float(x))
            else:
                assert int(vlab) == 0

    def test_interval_spaces(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(0, 6))
            pts = np.sort(rng.random(n))
            ys = rng.choice([-1, 1], size=n)
            vs = IntervalVersionSpace(2, list(zip(pts.tolist(), ys.tolist())))
            if vs.is_empty():
                continue
            probe = np.concatenate([rng.random(40), pts, [0.0, 1.0]])
            self._assert_consistent(vs, probe)

    def test_threshold_spaces(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(0, 5))
            pts = rng.random(n)
            ys = rng.choice([-1, 1], size=n)
            vs = ThresholdVersionSpace.from_examples(
                list(zip(pts.tolist(), ys.tolist()))
            )
            if vs.is_empty():
                continue
            probe = np.concatenate(
                [rng.random(40), pts, [0.0, 1.0, vs.lo, vs.hi]]
            )
            self._assert_consistent(vs, probe)

    def test_masked_spaces(self):
        rng = np.random.default_rng(37)
        seq = NestedClassSequence.enumerated_intervals(2, resolution=9)
        cls = seq.classes[2]
        for _ in range(15):
            mask = rng.random(len(cls)) < 0.02
            if not mask.any():
                mask[int(rng.integers(len(cls)))] = True
            vs = MaskedVersionSpace(cls, mask)
            probe = np.concatenate([rng.random(40), cls.grid, [0.0, 1.0]])
            self._assert_consistent(vs, probe)


class TestSegmentArithmetic:
    def test_symdiff_identity_against_masses(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        from oraclelab.hypotheses import segments_mass

        @st.composite
        def union(draw):
            n = draw(st.integers(0, 3))
            pts = sorted(
                draw(
                    st.lists(
                        st.floats(0, 1, allow_nan=False),
                        min_size=2 * n,
                        max_size=2 * n,
                        unique=True,
                    )
                )
            )
            return IntervalUnion(
                tuple((pts[2 * j], pts[2 * j + 1]) for j in range(n))
            )

        @given(union(), union())
        @settings(max_examples=150, deadline=None)
        def check(h1, h2):
            inter = intersect_segments(
                list(h1.intervals), list(h2.intervals)
            )
            sym = symmetric_difference_segments(h1, h2)
            lhs = segments_mass(sym)
            rhs = (
                segments_mass(h1.intervals) + segments_mass(h2.intervals)
                - 2 * segments_mass(inter)
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)
            assert lhs == pytest.approx(
                ball_radius_pair_distance(h1, h2), abs=1e-12
            )

        check()

    def test_intersection_commutes(self):
        a = [(0.1, 0.4), (0.5, 0.9)]
        b = [(0.0, 0.2), (0.35, 0.6)]
        assert intersect_segments(a, b) == intersect_segments(b, a)
        assert intersect_segments(a, []) == []


class TestBackendEquivalenceLarge:
    """Exact sweeps against the big enumerated class on a dense x-grid:
    random constraint sets, disagreement verdicts compared pointwise, with
    mismatches tolerated only within one hypothesis-grid cell of an exact
    region boundary (the grid class is a strict subset of the continuum)."""

    def test_dense_grid_agreement(self):
        res = 201
        seq = NestedClassSequence.enumerated_intervals(1, resolution=res)
        cls = seq.classes[1]
        assert len(cls) >= 1000
        cell = 1.0 / (res - 1)
        xs = np.linspace(0.0, 1.0, 10_001)
        rng = np.random.default_rng(41)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(0, 5))
            pts = rng.choice(seq.grid, size=n, replace=False)
            lab = rng.choice([-1, 1], size=n)
            s = list(zip(pts.tolist(), lab.tolist()))
            masked = seq.version_space(1, s)
            exact = IntervalVersionSpace(1, s)
            if masked.is_empty():
                assert exact.is_empty()
                continue
            assert not exact.is_empty()
            dis_m, lab_m = masked.partition().classify(xs)
            dis_e, lab_e = exact.partition().classify(xs)
            # containment is strict; the converse holds near boundaries
            assert not np.any(dis_m & ~dis_e)
            ends = np.array(
                [v for seg in exact.dis_region().segments for v in seg]
            )
            mism = np.nonzero(dis_e & ~dis_m)[0]
            if len(mism):
                gap = np.min(
                    np.abs(xs[mism][:, None] - ends[None, :]), axis=1
                )
                assert gap.max() <= cell + 1e-12
            both_agree = ~dis_e & ~dis_m
            assert np.array_equal(lab_m[both_agree], lab_e[both_agree])
            checked += 1
        assert checked >= 200
