"""Agnostic learners under random classification noise."""

from __future__ import annotations

import numpy as np

import gridref
from oraclelab.hypotheses import (
    IntervalUnion,
    MaskedVersionSpace,
    NestedClassSequence,
    Threshold,
    ball_radius_pair_distance,
    intersect_segments,
    segments_mass,
    symmetric_difference_segments,
)
from oraclelab.oracles import (
    ConstantGamma,
    NoiseModel,
    OracleBundle,
    RcnGamma,
)
from oraclelab.agnostic import run_al, run_alarch

ETA = 0.1


def threshold_class(n=101):
    return MaskedVersionSpace(NestedClassSequence.threshold_grid(n))


def rcn_bundle(target, seed, eta=ETA, **kw):
    return OracleBundle(
        target, NoiseModel("rcn", eta=eta), seed=seed, validate_search=True, **kw
    )


def dis_restricted_excess(outcome, bundle, gamma) -> float:
    """Exact Pr[hhat != y, x in DIS(V)] - gamma(V) under rcn noise:
    eta * |DIS| + (1 - 2 eta) * |{hhat != h*} ∩ DIS| - gamma(V)."""
    vs = outcome.version_space
    eta = bundle.noise.eta
    region = vs.dis_region()
    delta_segs = symmetric_difference_segments(outcome.hypothesis, bundle.target)
    overlap = segments_mass(intersect_segments(delta_segs, list(region.segments)))
    exact = eta * region.mass + (1.0 - 2.0 * eta) * overlap
    return exact - gamma(vs)


class TestRunAl:
    def test_success_and_retention_18_of_20(self):
        ok_success = 0
        ok_member = 0
        ok_excess = 0
        for seed in range(20):
            h = threshold_class()
            b = rcn_bundle(Threshold(0.5), seed)
            out = run_al(h, b, ConstantGamma(ETA), 0.05, 0.1)
            if out.reason == "success":
                ok_success += 1
                if out.version_space.mask[50]:
                    ok_member += 1
                if dis_restricted_excess(out, b, ConstantGamma(ETA)) <= 0.05:
                    ok_excess += 1
        assert ok_success >= 18
        assert ok_member >= 18
        assert ok_excess >= 18

    def test_epoch_masks_are_nested(self):
        h = threshold_class()
        b = rcn_bundle(Threshold(0.3), seed=5)
        out = run_al(h, b, ConstantGamma(ETA), 0.05, 0.1)
        prev = h.mask
        for m in out.epoch_masks:
            assert not np.any(m & ~prev)
            prev = m

    def test_singleton_realizable_success_without_labels(self):
        cls = gridref.enumerated_class("solo", 1, 2, np.array([[[0.4, 0.6]]]))
        h = MaskedVersionSpace(cls)
        target = IntervalUnion(((0.4, 0.6),))
        b = OracleBundle(target, seed=0)
        out = run_al(h, b, ConstantGamma(0.0), 0.1, 0.1)
        assert out.reason == "success"
        assert b.ledger.label_queries == 0
        assert out.hypothesis == target

    def test_early_reject_when_class_misses_target(self):
        # thresholds cannot mimic an interval: the best one errs by a
        # measure far above the exact gamma bound, so rejection must come
        target = IntervalUnion(((0.3, 0.6),))
        rejected = 0
        for seed in range(10):
            h = threshold_class(21)
            b = rcn_bundle(target, seed)
            out = run_al(h, b, RcnGamma(ETA), 0.05, 0.1)
            if out.rejected:
                rejected += 1
                assert out.version_space.is_empty()
        assert rejected >= 9

    def test_labels_only_queried_inside_dis(self):
        # the sampler infers agreement labels: with a singleton class no
        # LABEL call ever happens even under heavy noise
        cls = gridref.enumerated_class("solo", 1, 2, np.array([[[0.0, 1.0]]]))
        b = rcn_bundle(IntervalUnion(((0.0, 1.0),)), seed=2, eta=0.3)
        out = run_al(MaskedVersionSpace(cls), b, ConstantGamma(0.3), 0.2, 0.1)
        assert b.ledger.label_queries == 0
        assert out.reason == "success"


class TestRunAlarch:
    def setup_method(self):
        self.seq = NestedClassSequence.enumerated_intervals(2, resolution=21)
        g = self.seq.grid
        self.target = IntervalUnion(((g[3], g[7]), (g[12], g[17])))

    def test_two_interval_rcn_with_constant_gamma(self):
        errs, searches, kmax = [], [], []
        for seed in range(6):
            b = rcn_bundle(self.target, seed)
            h, ledger, rounds, _ = run_alarch(
                self.seq, b, ConstantGamma(ETA), 0.05, 0.1
            )
            errs.append(b.exact_error(h))
            searches.append(ledger.search_queries)
            kmax.append(max(r.k for r in rounds))
        assert sum(e <= 2 * ETA + 0.05 for e in errs) >= 5
        assert all(s <= 2 for s in searches)
        assert all(k <= 2 for k in kmax)

    def test_two_interval_rcn_with_exact_gamma(self):
        errs = []
        for seed in range(6):
            b = rcn_bundle(self.target, seed)
            h, ledger, rounds, _ = run_alarch(
                self.seq, b, RcnGamma(ETA), 0.05, 0.1
            )
            errs.append(b.exact_error(h))
        assert sum(e <= ETA + 0.05 for e in errs) >= 5

    def test_realizable_collapses_to_epsilon(self):
        for seed in range(3):
            b = OracleBundle(self.target, seed=seed, validate_search=True)
            h, ledger, rounds, outcomes = run_alarch(
                self.seq, b, ConstantGamma(0.0), 0.05, 0.1
            )
            assert ball_radius_pair_distance(h, self.target) <= 0.05
            # no early rejection once the class is rich enough for h*
            assert not outcomes[-1].rejected

    def test_k_strictly_increases_per_counterexample(self):
        b = rcn_bundle(self.target, seed=11)
        _, _, rounds, _ = run_alarch(self.seq, b, ConstantGamma(ETA), 0.05, 0.1)
        ks = [r.k for r in rounds]
        assert ks == sorted(ks)
        for a, b2 in zip(rounds, rounds[1:]):
            if a.search_result == "counterexample":
                assert b2.k > a.k

    def test_hstar_retention_at_kstar(self):
        b = rcn_bundle(self.target, seed=1)
        _, _, rounds, outcomes = run_alarch(
            self.seq, b, ConstantGamma(ETA), 0.05, 0.1
        )
        final = outcomes[-1]
        assert final.reason == "success"
        idx = self.seq.classes[rounds[-1].k].index_of(self.target)
        assert idx is not None
        assert final.epoch_masks and all(m[idx] for m in final.epoch_masks)
