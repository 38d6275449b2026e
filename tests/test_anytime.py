"""Anytime learner: subroutines against brute force, invariants on runs."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from oraclelab.anytime import (
    AalarchDiagnostics,
    error_at_cost,
    error_check,
    favorable_bias_violations,
    _CountTracker,
    prune_version_space,
    run_aalarch,
    timeline_to_csv,
    upgrade_version_space,
)
from oraclelab.bounds import sigma
from oraclelab.hypotheses import (
    ExhaustionError,
    IntervalUnion,
    LabeledExample,
    MaskedVersionSpace,
    NestedClassSequence,
    Threshold,
    as_arrays,
    predict_batch,
)
from oraclelab import anytime
from oraclelab.oracles import (
    SEARCH_POLICIES,
    NoiseModel,
    OracleBundle,
    QueryLedger,
    events_to_jsonl,
    sal_batch,
)

import aalarch_ref
import gridref


def seq_r21(K=2):
    return NestedClassSequence.enumerated_intervals(K, resolution=21)


def rcn_bundle(target, seed, eta=0.1, **kw):
    return OracleBundle(
        target, NoiseModel("rcn", eta=eta), seed=seed, validate_search=True, **kw
    )


class TestTrueError:
    """The true error err(h), as ``OracleBundle.exact_error`` computes it."""

    def test_at_target(self):
        b = rcn_bundle(IntervalUnion(((0.2, 0.5),)), 0)
        assert b.exact_error(b.target) == pytest.approx(0.1)

    def test_mixes_noise_and_distance(self):
        b = rcn_bundle(IntervalUnion(((0.2, 0.5),)), 0)
        h = IntervalUnion(((0.2, 0.7),))  # delta mass 0.2
        assert b.exact_error(h) == pytest.approx(0.1 + 0.8 * 0.2)

    def test_realizable_reduces_to_distance(self):
        b = OracleBundle(IntervalUnion(((0.2, 0.5),)), seed=0)
        h = IntervalUnion(((0.4, 0.8),))
        # symmetric difference [0.2,0.4) u (0.5,0.8]
        assert b.exact_error(h) == pytest.approx(0.5)

    def test_pointwise_pool_average(self):
        noise = NoiseModel("pointwise", table=((0.0, 1.0, 0.25),))
        b = OracleBundle(Threshold(0.5), noise, seed=0)
        assert b.exact_error(Threshold(0.5)) == pytest.approx(0.25, abs=1e-3)

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel("pointwise", table=((0.0, 0.5, 0.2), (0.5, 1.0, 0.4))),
            NoiseModel(
                "pointwise",
                table=((0.35, 0.8, 0.3), (0.0, 0.35, 0.1), (0.8, 1.0, 0.05)),
            ),
            NoiseModel("rcn", eta=0.15),
            NoiseModel(),
        ],
    )
    def test_diagnostics_match_per_member_errors(self, noise):
        seq = NestedClassSequence.enumerated_intervals(2, resolution=11)
        top = seq.classes[2]
        # one endpoint off the grid, one on it, and a one-point interval
        target = IntervalUnion(((0.12, 0.5), (0.63, 0.63)))
        b = OracleBundle(target, noise, seed=0)
        diag = AalarchDiagnostics.for_run(seq, b)
        want = [b.exact_error(top.hypothesis(j)) for j in range(len(top))]
        np.testing.assert_allclose(diag.exact_errors, want, rtol=0, atol=1e-12)


class TestUpgradeVersionSpace:
    def test_no_seed_moves_one_level(self):
        seq = seq_r21()
        k, s, vs = upgrade_version_space(0, [], None, seq)
        assert k == 1 and s == [] and not vs.is_empty()

    def test_seed_forcing_two_runs(self):
        seq = seq_r21()
        g = seq.grid
        s0 = [LabeledExample(float(g[4]), 1), LabeledExample(float(g[10]), -1)]
        k, s, vs = upgrade_version_space(
            0, s0, LabeledExample(float(g[16]), 1), seq
        )
        assert k == 2
        assert len(s) == 3

    def test_strictly_increases(self):
        seq = seq_r21()
        for k0 in (0, 1):
            k, _, _ = upgrade_version_space(k0, [], None, seq)
            assert k > k0

    def test_exhaustion(self):
        seq = seq_r21(K=1)
        with pytest.raises(ExhaustionError):
            upgrade_version_space(1, [], None, seq)


class TestPruneVersionSpace:
    def test_ties_keep_everything(self):
        # two survivors with identical predictions on the sample: both stay
        cls = NestedClassSequence.threshold_grid(5)
        vs = MaskedVersionSpace(cls, np.array([True, True, False, False, False]))
        labeled = [(0.9, 1), (0.8, 1), (0.6, -1)]  # both thresholds <= 0.25
        counts = cls.err_counts(*as_arrays(labeled))
        out = prune_version_space(counts, vs, 3, 0.1, 1)
        assert np.array_equal(out.mask, vs.mask)

    def test_empty_dataset_prunes_nothing(self):
        seq = seq_r21(K=1)
        vs = seq.version_space(1, [])
        out = prune_version_space(np.zeros(len(vs.cls), np.int64), vs, 0, 0.1, 1)
        assert np.array_equal(out.mask, vs.mask)

    def test_singleton_unchanged(self):
        seq = seq_r21(K=1)
        vs = seq.version_space(0, [])
        counts = seq.classes[1].err_counts(*as_arrays([(0.3, 1), (0.6, -1)]))
        out = prune_version_space(counts, vs, 2, 0.1, 1)
        assert np.array_equal(out.mask, vs.mask)

    def test_matches_bruteforce_on_rcn_sample(self):
        cls = NestedClassSequence.threshold_grid(41)
        vs = MaskedVersionSpace(cls)
        b = rcn_bundle(Threshold(0.52), 3)
        xs = b.draw(64)
        ys = b.label_query_batch(xs)
        labeled = list(zip(xs.tolist(), ys.tolist()))
        # independent recomputation straight from the definition
        hyps = [cls.hypothesis(j) for j in range(len(cls))]
        errs = np.array(
            [sum(1 for x, y in labeled if gridref.predict(h, x) != y) for h in hyps]
        ) / len(labeled)
        bmin = errs.min()
        for i in (1, 7):
            out = prune_version_space(cls.err_counts(xs, ys), vs, 64, 0.1, i)
            s = sigma(1, 64, 0.1 / (i * (i + 1)) / ((1 + 1) * (1 + 2)))
            want = errs <= bmin + 2 * math.sqrt(bmin * s) + 3 * s
            assert np.array_equal(out.mask, want)

    def test_never_empties(self):
        cls = NestedClassSequence.threshold_grid(21)
        vs = MaskedVersionSpace(cls)
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.random(32)
            ys = rng.choice([-1, 1], 32)
            out = prune_version_space(cls.err_counts(xs, ys), vs, 32, 0.05, 1)
            assert not out.is_empty()


class TestErrorCheck:
    def test_false_when_version_space_holds_the_minimizer(self):
        seq = seq_r21(K=2)
        vs = seq.version_space(2, [])  # full class: contains every ERM
        b = rcn_bundle(IntervalUnion(((0.2, 0.5),)), 5)
        xs = b.draw(256)
        ys = b.label_query_batch(xs)
        counts = seq.classes[2].err_counts(xs, ys)
        assert not error_check(counts, vs, 256, 0.1, 1, seq)

    def test_true_for_uniformly_bad_survivors(self):
        seq = seq_r21(K=2)
        target = IntervalUnion(((0.2, 0.5),))
        b = rcn_bundle(target, 7)
        xs = b.draw(2048)
        ys = b.label_query_batch(xs)
        counts = seq.classes[2].err_counts(xs, ys)
        # survivors: H_0 only (always-negative), errs ~ 0.34 while H_1
        # holds a near-perfect hypothesis
        vs = seq.version_space(0, [])
        assert error_check(counts, vs, 2048, 0.1, 1, seq)

    def test_matches_definition(self):
        # independent recomputation, class by class from pointwise
        # predictions, against the prefix slices of one count vector
        seq = NestedClassSequence.enumerated_intervals(2, resolution=7)
        g = seq.grid
        b = rcn_bundle(IntervalUnion(((g[1], g[3]), (g[4], g[5]))), 11)
        xs = b.draw(3000)
        ys = b.label_query_batch(xs)
        outcomes = set()
        for l in (300, 3000):
            mins = [
                min(
                    int((predict_batch(cls.hypothesis(j), xs[:l]) != ys[:l]).sum())
                    for j in range(len(cls))
                ) / l
                for cls in seq.classes
            ]
            counts = seq.classes[2].err_counts(xs[:l], ys[:l])
            for k in (0, 1, 2):
                i = 3
                s = [
                    sigma(seq.d(kp), l, 0.1 / (i * (i + 1)) / ((kp + 1) * (kp + 2)))
                    for kp in range(3)
                ]
                gamma = min(
                    mins[kp] + 2 * math.sqrt(mins[kp] * s[kp]) + 3 * s[kp]
                    for kp in range(k, 3)
                )
                want = mins[k] > gamma + 2 * math.sqrt(gamma * s[k]) + 3 * s[k]
                got = error_check(counts, seq.version_space(k, []), l, 0.1, i, seq)
                assert got == want, (l, k)
                outcomes.add(got)
        assert outcomes == {True, False}

    def test_empty_dataset_never_trips(self):
        seq = seq_r21(K=1)
        counts = np.zeros(len(seq.classes[1]), np.int64)
        assert not error_check(counts, seq.version_space(0, []), 0, 0.1, 1, seq)


class TestRunAalarch:
    def setup_method(self):
        self.seq = NestedClassSequence.enumerated_intervals(1, resolution=41)
        g = self.seq.grid
        self.target = IntervalUnion(((g[12], g[24]),))  # k* = 1

    def run_one(self, seed, tau=8.0, eta=0.1, n_cap=1500, cost_cap=1200.0):
        b = rcn_bundle(self.target, seed, eta=eta, tau=tau)
        diag = AalarchDiagnostics.for_run(self.seq, b)
        res = run_aalarch(
            self.seq, b, 0.1, n_cap, cost_cap, diagnostics=diag
        )
        return b, diag, res

    def test_tau_comes_from_the_ledger_and_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="tau"):
            self.run_one(0, tau=0.5)
        b, _, res = self.run_one(0, tau=8.0, cost_cap=100.0)
        assert res.ledger is b.ledger and b.ledger.tau == 8.0

    def test_cost_accounting_every_row(self):
        _, _, res = self.run_one(0)
        for row in res.timeline:
            led = row.ledger
            assert led["cost"] == pytest.approx(
                led["label_queries"] + res.ledger.tau * led["search_queries"]
            )

    def test_k_bounded_and_unverified_bounded(self):
        for seed in range(5):
            _, diag, res = self.run_one(seed)
            assert res.final_k <= diag.kstar
            assert all(r.k <= diag.kstar for r in res.trace)
            assert res.unverified_iterations <= diag.kstar

    def test_once_at_kstar_everything_verifies(self):
        for seed in range(5):
            _, diag, res = self.run_one(seed)
            at = [j for j, r in enumerate(res.trace) if r.k == diag.kstar]
            assert at, "run never reached k*"
            first = at[0]
            # the row landing on k* may itself be the upgrade; afterwards
            # every event verifies, k stays put, and the target survives
            for r in res.trace[first + 1 :]:
                assert r.event == "verified"
                assert r.k == diag.kstar
                if r.hstar_in_vs is not None:
                    assert r.hstar_in_vs
            if res.trace[first].hstar_in_vs is not None:
                assert res.trace[first].hstar_in_vs

    def test_favorable_bias_on_every_verified_prefix(self):
        b, _, res = self.run_one(1, cost_cap=600.0)
        top = self.seq.classes[self.seq.K_max]
        assert favorable_bias_violations(
            res.working, top, b.target, res.verified_size
        ) == 0

    def test_errh_envelope_at_verified_steps(self):
        ok = 0
        for seed in range(8):
            _, diag, res = self.run_one(seed)
            good = all(
                r.max_survivor_error <= r.errh_bound
                for r in res.trace
                if r.event == "verified" and r.max_survivor_error is not None
            )
            ok += good
        assert ok >= 7

    def test_solution_error_approaches_noise_floor(self):
        _, _, res = self.run_one(2, cost_cap=1500.0, n_cap=2500)
        last = [r for r in res.timeline if not math.isnan(r.solution_error)]
        assert last and last[-1].solution_error <= 0.1 + 0.05

    def test_discarded_bounded_by_kstar_times_cap(self):
        _, diag, res = self.run_one(3)
        assert res.discarded_examples <= diag.kstar * 1500

    def test_timeline_csv_shape(self):
        _, _, res = self.run_one(0, cost_cap=300.0)
        csv = timeline_to_csv(res.timeline)
        lines = csv.splitlines()
        assert lines[0].startswith("cost,label_queries")
        assert len(lines) == len(res.timeline) + 1

    def test_error_at_cost_lookup(self):
        _, _, res = self.run_one(0)
        c = res.timeline[-1].ledger["cost"]
        e = error_at_cost(res.timeline, c)
        assert not math.isnan(e)
        assert math.isnan(error_at_cost(res.timeline, -1.0))

    def test_tracker_counts_match_err_counts(self):
        # after every extend, commit and rollback the tracker holds the
        # top class's error counts on the matching working prefix
        b = rcn_bundle(self.target, 4)
        xs = b.draw(300)
        ys = b.label_query_batch(xs)
        top = self.seq.classes[self.seq.K_max]
        tracker = _CountTracker(self.seq)
        cut = 120
        for lo, hi in ((0, 1), (1, 8), (8, cut)):
            tracker.extend(xs[lo:hi], ys[lo:hi])
        tracker.commit()
        tracker.extend(xs[cut:], ys[cut:])
        full, prefix = top.err_counts(xs, ys), top.err_counts(xs[:cut], ys[:cut])
        assert np.array_equal(tracker.counts, full)
        assert np.array_equal(tracker.committed, prefix)
        tracker.rollback()
        assert np.array_equal(tracker.counts, prefix)
        for j in range(cut, len(xs)):
            tracker.extend(xs[j : j + 1], ys[j : j + 1])
        assert np.array_equal(tracker.counts, full)
        assert np.array_equal(tracker.committed, prefix)


EC_UPGRADE_PIN = Path(__file__).resolve().parent / "golden" / "ec_upgrade_run.json"


def ec_upgrade_run(run=run_aalarch):
    # with SEARCH priced high, blocks run long and the structural error
    # check upgrades the class from data alone before the next probe
    seq = NestedClassSequence.enumerated_intervals(2, resolution=13)
    g = seq.grid
    target = IntervalUnion(((g[2], g[4]), (g[7], g[10])))
    b = rcn_bundle(target, 0, tau=4096.0)
    diag = AalarchDiagnostics.for_run(seq, b)
    res = run(seq, b, 0.1, n_cap=30000, cost_cap=22000.0, diagnostics=diag)
    return seq, target, diag, res


def run_record(res) -> dict:
    """Everything a run reports, as JSON-ready values; the working set
    enters as its length and a digest of its records."""
    working = "\n".join(
        f"{r.x!r},{r.y},{int(r.queried)},{r.shadow_y}" for r in res.working
    )
    return {
        "timeline": timeline_to_csv(res.timeline),
        "trace": events_to_jsonl(res.trace).splitlines(),
        "working_size": len(res.working),
        "working_sha256": hashlib.sha256(working.encode()).hexdigest(),
        "final_k": res.final_k,
        "verified_size": res.verified_size,
        "unverified_iterations": res.unverified_iterations,
        "discarded_examples": res.discarded_examples,
    }


class TestErrorCheckUpgradePath:
    @classmethod
    def setup_class(cls):
        cls.seq, cls.target, cls.diag, cls.res = ec_upgrade_run()

    def test_ec_upgrade_fires_when_search_is_expensive(self):
        # invariants must survive the snapshot rollback the upgrade causes
        res, diag = self.res, self.diag
        events = [r.event for r in res.trace]
        assert "ec-upgrade" in events
        assert res.final_k == diag.kstar == 2
        assert res.unverified_iterations <= diag.kstar
        assert all(r.k <= diag.kstar for r in res.trace)
        # the rollback restored a committed prefix: favorable bias intact
        assert not favorable_bias_violations(
            res.working, self.seq.classes[2], self.target, res.verified_size
        )

    def test_run_matches_pinned_record(self):
        # the rollback path is reached by no golden row; this pins the
        # whole run (timeline, trace, working set) byte for byte
        want = json.loads(EC_UPGRADE_PIN.read_text())
        assert run_record(self.res) == want


# ---------------------------------------------------------------------------
# The blocked sampling loop against the per-step reference
# ---------------------------------------------------------------------------

NOISES = {
    "realizable": NoiseModel(),
    "rcn": NoiseModel("rcn", eta=0.1),
    "pointwise": NoiseModel(
        "pointwise", table=((0.0, 0.45, 0.05), (0.45, 1.0, 0.25))
    ),
}


def blocked_and_stepwise(k_max, tau, noise, policy, seed, n_cap, cost_cap):
    """run_record of the blocked run and of the per-step reference, and
    both ledgers, on the same instance."""
    seq = NestedClassSequence.enumerated_intervals(
        k_max, resolution=21 if k_max == 1 else 13
    )
    g = seq.grid
    target = (
        IntervalUnion(((g[6], g[13]),)) if k_max == 1
        else IntervalUnion(((g[2], g[4]), (g[7], g[10])))
    )
    out = []
    for run in (run_aalarch, aalarch_ref.run_aalarch_stepwise):
        b = OracleBundle(
            target, NOISES[noise], seed=seed, tau=tau, search_policy=policy,
            validate_search=True,
        )
        diag = AalarchDiagnostics.for_run(seq, b)
        res = run(seq, b, 0.1, n_cap, cost_cap, diagnostics=diag)
        out.append((run_record(res), b.ledger.snapshot()))
    return out


class TestBlockedMatchesStepwise:
    @pytest.mark.parametrize("policy", SEARCH_POLICIES)
    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("tau", [1.0, 4.0, 32.0, 4096.0])
    @pytest.mark.parametrize("k_max", [1, 2])
    def test_same_run(self, k_max, tau, noise, policy):
        # n_cap and cost_cap are not block sizes, so both stops land
        # inside a block; the seed moves with the case
        seed = (7 * k_max + int(tau) + len(noise) + len(policy)) % 5
        blocked, stepwise = blocked_and_stepwise(
            k_max, tau, noise, policy, seed, n_cap=333, cost_cap=250.5
        )
        assert blocked == stepwise

    def test_one_step_blocks(self, monkeypatch):
        # with a budget of one element every block holds a single step
        monkeypatch.setattr(anytime, "_BLOCK_ELEMENTS", 1)
        for k_max, tau in ((1, 4.0), (2, 32.0)):
            blocked, stepwise = blocked_and_stepwise(
                k_max, tau, "rcn", "sweep", 3, n_cap=333, cost_cap=250.5
            )
            assert blocked == stepwise

    def test_block_length_finds_the_first_state_change(self):
        # random states and peeks against the per-step checks themselves:
        # the block never runs past a step where the per-step loop stops
        # or changes state, and reports the prune exactly; a shorter
        # block could only come from the error-check screen
        seq = NestedClassSequence.enumerated_intervals(2, resolution=9)
        top = seq.classes[2]
        g = seq.grid
        rng = np.random.default_rng(5)
        delta, n = 0.1, 48
        outcomes = set()
        for trial in range(150):
            noise = NoiseModel("rcn", eta=float(rng.choice([0.0, 0.1, 0.3])))
            b = OracleBundle(
                IntervalUnion(((g[1], g[3]), (g[5], g[7]))), noise, seed=trial
            )
            l0 = int(rng.integers(0, 3000))
            i0 = l0 + int(rng.integers(0, 50))
            xs0 = b.draw(l0)
            counts = top.err_counts(xs0, b.label_query_batch(xs0))
            # a space pruned at a smaller delta keeps survivors just
            # outside this run's ball, so prunes come early in the block
            k = int(rng.integers(0, 3))
            vs = prune_version_space(
                counts, seq.version_space(k), l0,
                delta * float(rng.choice([1.0, 0.5, 0.1])), max(i0, 1),
            )
            xs, ys, queried = peek = b.peek_sal(vs, n)
            tau = float(rng.choice([1.0, 4.0, 1e9]))
            c0 = int(rng.integers(0, tau)) if tau < 1e9 else 0
            ledger = QueryLedger(
                label_queries=l0, search_queries=int(rng.integers(0, 9)), tau=tau
            )
            cost_cap = ledger.cost + float(rng.choice([3.5, 10.0, 1e9]))
            search_cost = ledger.tau * ledger.search_queries
            m, pruned = anytime._block_length(
                seq, vs, counts, peek, l0, i0, c0, ledger, delta, cost_cap
            )
            want_m, want_pruned, kind = n, False, "end"
            c = counts.copy()
            for step in range(n):
                l, labels = l0 + step, c0 + int(queried[:step].sum())
                if step and error_check(c, vs, l, delta, i0 + step, seq):
                    want_m, kind = step, "error check"
                    break
                cost = ledger.label_queries + (labels - c0) + search_cost
                if step and cost >= cost_cap:
                    want_m, kind = step, "cost"
                    break
                c += top.err_counts(xs[step : step + 1], ys[step : step + 1])
                after = prune_version_space(c, vs, l + 1, delta, i0 + step + 1)
                if not np.array_equal(after.mask, vs.mask):
                    want_m, want_pruned, kind = step + 1, True, "prune"
                    break
                if labels + int(queried[step]) >= tau:
                    want_m, kind = step + 1, "tau"
                    break
            assert m <= want_m, (trial, kind)
            assert pruned == (m == want_m and want_pruned), trial
            outcomes.add(kind if m == want_m else "screen")
        assert outcomes >= {"error check", "prune", "tau", "cost", "end"}

    def test_ec_upgrade_fixture(self):
        # the blocked run matches the pin (TestErrorCheckUpgradePath)
        *_, res = ec_upgrade_run(aalarch_ref.run_aalarch_stepwise)
        assert run_record(res) == json.loads(EC_UPGRADE_PIN.read_text())

    def test_peek_changes_no_state(self):
        seq = NestedClassSequence.enumerated_intervals(1, resolution=21)
        vs = seq.version_space(1, [(0.3, 1), (0.9, -1)])
        transcript: list = []
        b = OracleBundle(
            IntervalUnion(((0.3, 0.6),)), NOISES["rcn"], seed=2, tau=4.0,
            transcript=transcript,
        )
        b.draw(5)
        b.label_query_batch(np.array([0.1, 0.5]))
        rngs = (b._sampler_rng, b._noise_rng, b._shadow_rng, b._policy_rng)
        before = (
            b.ledger.snapshot(), len(transcript),
            [json.dumps(r.bit_generator.state) for r in rngs],
        )
        xs, ys, queried = b.peek_sal(vs, 200)
        after = (
            b.ledger.snapshot(), len(transcript),
            [json.dumps(r.bit_generator.state) for r in rngs],
        )
        assert after == before
        assert queried.any() and not queried.all()
        # the peek is what the batch then draws, as a whole and as a prefix
        batch, n_queried = sal_batch(vs, b, 120)
        assert n_queried == int(queried[:120].sum())
        for got, want in zip((batch.xs, batch.ys, batch.queried), (xs, ys, queried)):
            assert np.array_equal(got, want[:120])
        batch, _ = sal_batch(vs, b, 80)
        for got, want in zip((batch.xs, batch.ys, batch.queried), (xs, ys, queried)):
            assert np.array_equal(got, want[120:])
