"""Realizable-case learners: demo, CAL, and the two nested-class learners."""

from __future__ import annotations

import math

import numpy as np

from oraclelab.bounds import phi, delta_schedule
from oraclelab.hypotheses import (
    ALWAYS_NEGATIVE,
    IntervalUnion,
    IntervalVersionSpace,
    NestedClassSequence,
    Threshold,
    ThresholdVersionSpace,
    ball_radius_pair_distance,
)
from oraclelab.oracles import OracleBundle
from oraclelab.realizable import (
    run_binary_search_demo,
    run_cal,
    run_larch,
    run_seabel,
)


import gridref
from gridref import sup_interval_error, sup_threshold_error


def bundle_for(target, seed=0, **kw):
    return OracleBundle(target, seed=seed, validate_search=True, **kw)


class TestBinarySearchDemo:
    def test_query_budget_and_error(self):
        eps = 2.0**-10
        b = bundle_for(Threshold(0.37))
        h, ledger = run_binary_search_demo(b, eps)
        assert ledger.search_queries <= 12
        assert ledger.label_queries == 0
        assert abs(h.w - 0.37) <= eps

    def test_trivial_accuracy_needs_no_queries(self):
        b = bundle_for(Threshold(0.9))
        _, ledger = run_binary_search_demo(b, 1.0)
        assert ledger.search_queries == 0 and ledger.label_queries == 0

    def test_adversarial_policy_still_halts(self):
        eps = 2.0**-8
        b = bundle_for(Threshold(0.613), search_policy="adversarial-boundary")
        h, ledger = run_binary_search_demo(b, eps)
        assert abs(h.w - 0.613) <= eps
        assert ledger.search_queries <= 10

    def test_many_targets(self):
        for seed, w in enumerate((0.0, 0.031, 0.5, 0.77, 1.0)):
            b = bundle_for(Threshold(w), seed=seed)
            h, ledger = run_binary_search_demo(b, 1e-3)
            assert abs(h.w - w) <= 1e-3
            assert ledger.search_queries <= math.log2(1e3) + 2


class TestCal:
    def test_singleton_version_space_never_queries(self):
        vs = ThresholdVersionSpace(0.5, 0.5, True, True)
        b = bundle_for(Threshold(0.5))
        res = run_cal(vs, b, 0.25, 0.1)
        assert b.ledger.label_queries == 0
        assert res.epochs == next(
            i for i in range(1, 40)
            if phi(1, 2**i, delta_schedule(0.1, i) / 2) <= 0.25
        )

    def test_threshold_contract_18_of_20(self):
        hits = 0
        for seed in range(20):
            b = bundle_for(Threshold(0.5), seed=seed)
            v0 = ThresholdVersionSpace.from_examples([])
            res = run_cal(v0, b, 0.05, 0.1)
            assert not res.empty
            if sup_threshold_error(res.final_version_space, 0.5) <= 0.05:
                hits += 1
        assert hits >= 18

    def test_seeded_interval_contract_18_of_20(self):
        target = IntervalUnion(((0.3, 0.6),))
        hits = 0
        for seed in range(20):
            b = bundle_for(target, seed=seed)
            seed_ex = [(0.45, 1)]
            v0 = IntervalVersionSpace(1, seed_ex)
            res = run_cal(v0, b, 0.05, 0.1)
            assert not res.empty
            sup = sup_interval_error(seed_ex + list(res.examples), target)
            if sup <= 0.05:
                hits += 1
        assert hits >= 18

    def test_all_queries_inside_dis_at_query_time(self):
        target = IntervalUnion(((0.3, 0.6),))
        b = bundle_for(target, seed=4)
        v0 = IntervalVersionSpace(1, [(0.45, 1)])
        res = run_cal(v0, b, 0.03, 0.1)
        vs = v0
        pos = 0
        for epoch, count in enumerate(res.per_epoch):
            batch = res.examples[pos : pos + count]
            for ex in batch:
                assert vs.dis_contains(ex.x)
            vs = vs.with_examples(batch)
            pos += count

    def test_version_space_can_empty_when_target_outside(self):
        # two thresholds, both wrong on sizeable regions around the true
        # one: queried labels eliminate both; a legal empty outcome
        import numpy as np
        from oraclelab.hypotheses import MaskedVersionSpace

        rows = np.array([[[0.2, 1.0]], [[0.8, 1.0]]])
        cls = gridref.enumerated_class("pair", 1, 1, rows, "thresholds")
        v0 = MaskedVersionSpace(cls)
        # seed chosen so the first epoch straddles the true threshold and
        # eliminates both members at once
        b = bundle_for(Threshold(0.5), seed=3)
        res = run_cal(v0, b, 0.01, 0.1)
        assert res.empty
        assert res.epochs == 1

    def test_polylog_scaling_ratio(self):
        target = IntervalUnion(((0.3, 0.6),))
        queries = {}
        for eps in (1e-3, 1e-4):
            b = bundle_for(target, seed=8)
            v0 = IntervalVersionSpace(1, [(0.45, 1)])
            run_cal(v0, b, eps, 0.1)
            queries[eps] = b.ledger.label_queries
        assert queries[1e-4] <= 3 * queries[1e-3]


class TestLarch:
    def test_always_negative_target(self):
        seq = NestedClassSequence.exact_intervals(2)
        b = bundle_for(ALWAYS_NEGATIVE)
        h, ledger, trace = run_larch(seq, b, 0.1, 0.1)
        assert ball_radius_pair_distance(h, ALWAYS_NEGATIVE) == 0.0
        assert len(trace) == math.ceil(math.log2(1 / 0.1)) + 1
        assert all(row.search_result in ("bot", "return") for row in trace)
        assert all(row.k == 0 for row in trace)

    def test_single_interval_target(self):
        seq = NestedClassSequence.exact_intervals(2)
        target = IntervalUnion(((0.3, 0.6),))
        b = bundle_for(target)
        h, ledger, trace = run_larch(seq, b, 1e-3, 0.1)
        assert ball_radius_pair_distance(h, target) <= 1e-3
        assert max(row.k for row in trace) == 1

    def test_trace_invariants_k_star_two(self):
        seq = NestedClassSequence.exact_intervals(3)
        target = IntervalUnion(((0.1, 0.3), (0.6, 0.8)))
        for seed in range(5):
            b = bundle_for(target, seed=seed)
            h, ledger, trace = run_larch(seq, b, 1e-2, 0.1)
            ks = [row.k for row in trace]
            assert ks == sorted(ks) and max(ks) <= 2
            # monotone progress: k + ell grows after every non-halting round
            # (the final "return" row by design adds nothing)
            tot = [row.k + row.ell for row in trace]
            assert all(
                tot[j + 1] >= tot[j] + 1 for j in range(len(tot) - 2)
            )
            assert trace[-1].search_result == "return"
            assert ball_radius_pair_distance(h, target) <= 1e-2

    def test_sharp_query_bound(self):
        # the provable bound for the listing as implemented; the headline
        # k* + log2(1/eps) misses the final certifying SEARCH round
        seq = NestedClassSequence.exact_intervals(3)
        cases = [
            (ALWAYS_NEGATIVE, 0),
            (IntervalUnion(((0.3, 0.6),)), 1),
            (IntervalUnion(((0.1, 0.3), (0.6, 0.8))), 2),
        ]
        eps = 1e-2
        for target, kstar in cases:
            for seed in range(3):
                b = bundle_for(target, seed=seed)
                _, ledger, _ = run_larch(seq, b, eps, 0.1)
                assert (
                    ledger.search_queries
                    <= kstar + math.ceil(math.log2(1 / eps)) + 1
                )

    def test_enumerated_backend(self):
        seq = NestedClassSequence.enumerated_intervals(2, resolution=21)
        # enumerated targets live on the class grid (same float values),
        # otherwise off-grid endpoints make constraints unrealizable
        g = seq.grid
        target = IntervalUnion(((g[6], g[12]),))
        b = bundle_for(target, seed=2)
        h, _, trace = run_larch(seq, b, 0.02, 0.1)
        assert ball_radius_pair_distance(h, target) <= 0.02


class TestSeabel:
    def test_h0_target_no_counterexamples(self):
        seq = NestedClassSequence.exact_intervals(2)
        b = bundle_for(ALWAYS_NEGATIVE)
        h, ledger, trace = run_seabel(seq, b, 0.05, 0.1, strict=True)
        assert sum(row.counterexamples for row in trace) == 0
        assert ball_radius_pair_distance(h, ALWAYS_NEGATIVE) == 0.0

    def test_three_interval_target(self):
        seq = NestedClassSequence.exact_intervals(4)
        target = IntervalUnion(((0.05, 0.2), (0.4, 0.55), (0.75, 0.9)))
        b = bundle_for(target, seed=3)
        h, ledger, trace = run_seabel(seq, b, 1e-3, 0.1, strict=True)
        assert ball_radius_pair_distance(h, target) <= 1e-3
        assert sum(row.counterexamples for row in trace) <= 3
        assert max(row.k for row in trace) <= 3

    def test_k_never_decreases(self):
        seq = NestedClassSequence.exact_intervals(3)
        target = IntervalUnion(((0.2, 0.4), (0.6, 0.8)))
        b = bundle_for(target, seed=9)
        _, _, trace = run_seabel(seq, b, 0.01, 0.1, strict=True)
        ks = [row.k for row in trace]
        assert ks == sorted(ks)

    def test_halting_uses_current_class_sigma(self):
        seq = NestedClassSequence.exact_intervals(2)
        target = IntervalUnion(((0.3, 0.6),))
        b = bundle_for(target, seed=5)
        _, _, trace = run_seabel(seq, b, 0.02, 0.1)
        assert trace[-1].sigma_value <= 0.02
        for row in trace[:-1]:
            assert row.sigma_value > 0.02
