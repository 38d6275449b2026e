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


def replace_every_epoch_run_al(h_class, bundle, gamma, epsilon, delta):
    """The inner loop as it ran before it kept unchanged version spaces:
    every epoch counts the survivors by index and builds a new space from
    its pruned mask. Returns (reason, hhat index, trace, epoch masks)."""
    import math

    from oraclelab.agnostic import _epoch_cap
    from oraclelab.bounds import delta_schedule, sigma
    from oraclelab.oracles import event, sal_batch

    vs, trace, masks = h_class, [], []
    for i in range(1, _epoch_cap(vs.vc_dim, bundle.noise.nu, epsilon, delta) + 1):
        m = 2**i
        batch, _ = sal_batch(vs, bundle, m)
        idx = vs.survivor_indices()
        counts = vs.cls.err_counts(batch.xs, batch.ys, idx)
        best = int(np.argmin(counts))
        b = counts[best] / m
        g = float(gamma(vs))
        s = sigma(vs.vc_dim, m, delta_schedule(delta, i))
        new_mask = np.zeros(len(vs.cls), dtype=bool)
        new_mask[idx] = counts / m <= b + 3.0 * math.sqrt(b * s) + 4.0 * s
        row = event("al-epoch", bundle.ledger, k=vs.k, i=i, empirical_error=b,
                    gamma_prev=g, sigma_value=s,
                    survivors=int(new_mask.sum()), outcome="continue")
        trace.append(row)
        masks.append(new_mask)
        if b > g + math.sqrt(g * s) + s:
            row.outcome = "early-reject"
        elif b + math.sqrt(b * s) + s <= g + epsilon:
            row.outcome = "success"
        if row.outcome != "continue":
            return row.outcome, int(idx[best]), trace, masks
        vs = vs.replace_mask(new_mask)
    raise AssertionError("reference passed the epoch cap")


class TestKeptVersionSpace:
    """run_al keeps its space when a prune removes nobody; every record,
    mask and oracle call stays that of a loop that replaces it each epoch."""

    def test_matches_replacing_every_epoch(self):
        seq = NestedClassSequence.enumerated_intervals(2, resolution=21)
        g = seq.grid
        target = IntervalUnion(((g[3], g[7]), (g[12], g[17])))
        kept_epochs = 0
        cases = [(seq.classes[k], target, gamma) for k in (1, 2)
                 for gamma in (ConstantGamma(ETA), RcnGamma(ETA))]
        # pruned threshold spaces shrink DIS, so a stale space would
        # query other points
        cases.append((NestedClassSequence.threshold_grid(41), Threshold(0.5),
                      ConstantGamma(ETA)))
        for cls, h_star, gamma in cases:
            for seed in range(4):
                start = MaskedVersionSpace(cls)
                b, b_ref = rcn_bundle(h_star, seed), rcn_bundle(h_star, seed)
                out = run_al(start, b, gamma, 0.05, 0.1)
                reason, hhat, trace, masks = replace_every_epoch_run_al(
                    start, b_ref, gamma, 0.05, 0.1)
                assert (out.reason, out.hypothesis_index) == (reason, hhat)
                assert [vars(r) for r in out.trace] == [vars(r) for r in trace]
                assert len(out.epoch_masks) == len(masks)
                assert all(np.array_equal(a, c) for a, c in zip(out.epoch_masks, masks))
                assert b.ledger == b_ref.ledger
                survivors = [len(cls)] + [r.survivors for r in trace]
                kept_epochs += sum(a == c for a, c in zip(survivors, survivors[1:-1]))
        assert kept_epochs > 0  # the kept-space path ran
