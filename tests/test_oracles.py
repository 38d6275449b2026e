"""Oracle bundle: LABEL noise, SEARCH soundness, gamma bounds, SAL."""

from __future__ import annotations

import numpy as np
import pytest

from oraclelab.hypotheses import (
    ALWAYS_NEGATIVE,
    predict_batch,
    IntervalUnion,
    IntervalVersionSpace,
    MaskedVersionSpace,
    NestedClassSequence,
    Partition,
    Threshold,
    ThresholdVersionSpace,
    predict,
)
from oraclelab.anytime import run_aalarch
from oraclelab.oracles import (
    ConstantGamma,
    DrawnExample,
    NoiseModel,
    OracleBundle,
    RcnGamma,
    SearchSoundnessError,
    events_to_jsonl,
    sal_batch,
    sal_step,
)


def make_bundle(target, noise=None, seed=0, **kw):
    return OracleBundle(target, noise=noise, seed=seed, **kw)


def shadow_column(batch, bundle):
    """A batch's shadow labels as AA-LARCH draws them: a queried point
    keeps its label, the inferred ones read the shadow stream in draw
    order."""
    shadow = batch.ys.copy()
    inferred = ~batch.queried
    shadow[inferred] = bundle.shadow_labels(batch.xs[inferred])
    return shadow


class TestNoiseModel:
    def test_nu(self):
        assert NoiseModel().nu == 0.0
        assert NoiseModel("rcn", eta=0.1).nu == 0.1
        pw = NoiseModel("pointwise", table=((0.0, 0.5, 0.2), (0.5, 1.0, 0.0)))
        assert pw.nu == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("rcn", eta=0.5)
        with pytest.raises(ValueError):
            NoiseModel("bogus")

    @pytest.mark.parametrize(
        "table,match",
        [
            (((0.0, 0.5, 0.9),), "outside"),  # used to give nu=0.45 silently
            (((0.0, 0.5, 0.1),), "covers"),
            (((0.0, 0.4, 0.1), (0.5, 1.0, 0.1)), "tile"),
            (((0.0, 0.6, 0.1), (0.5, 1.0, 0.1)), "tile"),
            (((0.1, 1.0, 0.1),), "tile"),
            (((0.0, 0.5, 0.1), (0.5, 0.5, 0.1), (0.5, 1.0, 0.1)), "empty"),
            (((0.0, 1.0, 0.5),), "outside"),
            (((0.0, 1.0, -0.1),), "outside"),
        ],
    )
    def test_pointwise_table_must_tile_unit_interval(self, table, match):
        with pytest.raises(ValueError, match=match):
            NoiseModel("pointwise", table=table)

    def test_pointwise_table_in_any_order(self):
        pw = NoiseModel("pointwise", table=((0.5, 1.0, 0.0), (0.0, 0.5, 0.2)))
        assert pw.nu == pytest.approx(0.1)

    def test_pointwise_exact_error_is_exact(self):
        # h = [0.4, 0.8] differs from the target [0.3, 0.6] on [0.3, 0.4]
        # and [0.6, 0.8]. Piece [0, 0.5] (p = 0.1) holds 0.1 of that and
        # 0.4 of agreement, piece [0.5, 1] (p = 0.2) holds 0.2 and 0.3:
        # 0.1 * 0.4 + 0.9 * 0.1 + 0.2 * 0.3 + 0.8 * 0.2 = 0.35
        table = ((0.0, 0.5, 0.1), (0.5, 1.0, 0.2))
        b = make_bundle(
            IntervalUnion(((0.3, 0.6),)), NoiseModel("pointwise", table=table)
        )
        assert b.exact_error(IntervalUnion(((0.4, 0.8),))) == pytest.approx(
            0.35, abs=1e-12
        )
        assert b.exact_error(b.target) == pytest.approx(b.noise.nu, abs=1e-12)


class TestLabelOracle:
    def test_realizable_returns_target_label(self):
        b = make_bundle(Threshold(0.5))
        assert b.label_query(0.7) == 1
        assert b.label_query(0.2) == -1

    def test_rcn_flip_fraction(self):
        b = make_bundle(Threshold(0.5), NoiseModel("rcn", eta=0.1), seed=42)
        n = 10_000
        ys = np.array([b.label_query(0.7) for _ in range(n)])
        flip_frac = float(np.mean(ys != 1))
        assert abs(flip_frac - 0.1) <= 0.02

    def test_ledger_increments_per_call(self):
        b = make_bundle(Threshold(0.5))
        for i in range(5):
            b.label_query(0.3)
            assert b.ledger.label_queries == i + 1
        b.label_query_batch(np.array([0.1, 0.2, 0.3]))
        assert b.ledger.label_queries == 8

    def test_batch_matches_sequential_stream(self):
        b1 = make_bundle(Threshold(0.5), NoiseModel("rcn", eta=0.3), seed=9)
        b2 = make_bundle(Threshold(0.5), NoiseModel("rcn", eta=0.3), seed=9)
        xs = np.linspace(0.01, 0.99, 57)
        batch = b1.label_query_batch(xs)
        seq = np.array([b2.label_query(float(x)) for x in xs])
        assert np.array_equal(batch, seq)


class TestSearchOracle:
    def test_counterexample_to_always_negative(self):
        target = IntervalUnion(((0.3, 0.6),))
        b = make_bundle(target, validate_search=True)
        vs = IntervalVersionSpace(0, [])
        e = b.search_query(vs, k=0)
        assert e is not None
        assert e.y == 1 and 0.3 <= e.x <= 0.6
        assert b.ledger.search_queries == 1

    def test_target_in_version_space_gives_bot(self):
        target = IntervalUnion(((0.3, 0.6),))
        b = make_bundle(target, validate_search=True)
        vs = IntervalVersionSpace(1, [(0.4, 1)])
        assert b.search_query(vs, k=1) is None

    def test_threshold_halfspace_counterexample(self):
        b = make_bundle(Threshold(0.8), validate_search=True)
        vs = ThresholdVersionSpace(0.0, 0.4, True, True)  # all predict +1 at 0.4
        e = b.search_query(vs)
        assert e is not None
        assert e.y == -1 and e.x >= 0.4

    def test_search_labels_never_noisy(self):
        target = IntervalUnion(((0.3, 0.6),))
        b = make_bundle(target, NoiseModel("rcn", eta=0.4), seed=3,
                        validate_search=True)
        for _ in range(20):
            e = b.search_query(IntervalVersionSpace(0, []))
            assert e is not None and e.y == predict(target, e.x)

    def test_empty_version_space_returns_example(self):
        target = IntervalUnion(((0.3, 0.6),))
        b = make_bundle(target, validate_search=True)
        vs = IntervalVersionSpace(0, [(0.4, 1)])  # conflict: empty
        assert vs.is_empty()
        e = b.search_query(vs, k=0)
        assert e is not None and e.y == predict(target, e.x)

    def test_policies_all_sound(self):
        target = IntervalUnion(((0.2, 0.4), (0.7, 0.9)))
        for policy in ("sweep", "uniform-random-valid", "adversarial-boundary"):
            b = make_bundle(target, seed=5, search_policy=policy,
                            validate_search=True)
            # every member lives inside (0.05, 0.5), so all of them predict
            # -1 on the second target interval: systematic mistakes there
            vs = IntervalVersionSpace(1, [(0.25, 1), (0.05, -1), (0.5, -1)])
            e = b.search_query(vs, k=1)
            assert e is not None and e.y == 1 and 0.7 <= e.x <= 0.9

    def test_adversarial_policy_hugs_boundary_in_demo_query(self):
        b = make_bundle(Threshold(0.8), search_policy="adversarial-boundary",
                        validate_search=True)
        vs = ThresholdVersionSpace(0.0, 0.5, True, False)  # w in [0, 0.5)
        e = b.search_query(vs)
        # valid set is [0.5, 0.8); the DIS boundary sits at 0.5
        assert e is not None and abs(e.x - 0.5) < 1e-9

    def test_soundness_checker_catches_corruption(self):
        target = IntervalUnion(((0.3, 0.6),))
        b = make_bundle(target, validate_search=True)
        vs = IntervalVersionSpace(1, [(0.4, 1)])
        from oraclelab.hypotheses import LabeledExample

        with pytest.raises(SearchSoundnessError):
            b._check_search(vs, LabeledExample(0.45, -1))  # wrong label
        with pytest.raises(SearchSoundnessError):
            b._check_search(vs, LabeledExample(0.1, -1))  # in DIS
        # completeness: claiming bot when a counterexample exists
        vs0 = IntervalVersionSpace(0, [])
        with pytest.raises(SearchSoundnessError):
            b._check_search(vs0, None)

    @pytest.mark.parametrize("backend", ["exact", "masked"])
    def test_check_does_not_trust_the_partition(self, backend, monkeypatch):
        # with classify putting every point in DIS, _search sees no valid
        # candidate and returns None; the check must still find one
        def all_in_dis(self, xs):
            n = len(np.asarray(xs))
            return np.ones(n, dtype=bool), np.zeros(n, dtype=np.int8)

        if backend == "exact":
            vs = IntervalVersionSpace(0, [])
        else:
            seq = NestedClassSequence.enumerated_intervals(1, 21)
            vs = seq.version_space(0)
        monkeypatch.setattr(Partition, "classify", all_in_dis)
        b = make_bundle(IntervalUnion(((0.3, 0.6),)), validate_search=True)
        with pytest.raises(SearchSoundnessError, match="returned None"):
            b.search_query(vs, k=0)

    @pytest.mark.parametrize("validate", [False, True])
    def test_repeat_none_on_the_same_space_skips_the_scan(
        self, validate, monkeypatch
    ):
        seq = NestedClassSequence.enumerated_intervals(1, resolution=21)
        target = IntervalUnion(((0.3, 0.6),))
        transcript: list = []
        b = make_bundle(target, validate_search=validate,
                        transcript=transcript)
        calls = {"_search": 0, "_check_search": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(b, name)):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(b, name, counted)
        vs = seq.version_space(1, [(0.45, 1)])
        assert b.search_query(vs, k=1) is None
        assert b.search_query(vs, k=1) is None
        assert calls == {"_search": 1, "_check_search": 2 * validate}
        assert b.ledger.search_queries == 2
        assert [r.event for r in transcript] == ["search", "search"]
        assert [r.ledger["search_queries"] for r in transcript] == [1, 2]
        # an equal space that is another object is searched again
        twin = MaskedVersionSpace(vs.cls, vs.mask.copy())
        assert b.search_query(twin, k=1) is None
        assert calls["_search"] == 2
        # a counterexample is not remembered: the next query scans
        vs0 = seq.version_space(0)
        assert b.search_query(vs0, k=0) is not None
        assert b.search_query(vs0, k=0) is not None
        assert calls["_search"] == 4
        assert b.ledger.search_queries == 5

    def test_masked_backend_search(self):
        seq = NestedClassSequence.enumerated_intervals(1, resolution=21)
        target = IntervalUnion(((0.3, 0.6),))
        b = make_bundle(target, validate_search=True)
        vs = seq.version_space(0, [])
        e = b.search_query(vs, k=0)
        assert e is not None and e.y == 1 and 0.3 <= e.x <= 0.6


class TestGammaOracles:
    def test_constant(self):
        g = ConstantGamma(0.1)
        vs = IntervalVersionSpace(1, [(0.5, 1)])
        assert g(vs) == 0.1
        assert ConstantGamma(0.0)(vs) == 0.0

    def test_rcn_product(self):
        g = RcnGamma(0.1)
        vs = ThresholdVersionSpace.from_examples([(0.3, -1), (0.7, 1)])
        assert g(vs) == pytest.approx(0.1 * 0.4)

    def test_rcn_zero_mass(self):
        g = RcnGamma(0.25)
        vs = ThresholdVersionSpace(0.4, 0.4, True, True)
        assert g(vs) == 0.0

    def test_sandwich_under_rcn(self):
        # Pr[h* != y, x in DIS(V)] = eta * dis_mass <= gamma(V) <= nu
        eta = 0.1
        for s in ([(0.3, -1), (0.7, 1)], [(0.5, 1)], []):
            vs = ThresholdVersionSpace.from_examples(s)
            exact = eta * vs.dis_region().mass
            assert exact <= RcnGamma(eta)(vs) + 1e-12
            assert RcnGamma(eta)(vs) <= ConstantGamma(eta)(vs) + 1e-12

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            RcnGamma(0.5)


class TestSal:
    def test_singleton_never_queries(self):
        vs = ThresholdVersionSpace(0.4, 0.4, True, True)
        b = make_bundle(Threshold(0.4))
        L, c = [], 0
        for _ in range(50):
            L, c = sal_step(vs, b, L, c)
        assert c == 0 and b.ledger.label_queries == 0
        assert all(not r.queried for r in L)
        assert all(r.y == predict(Threshold(0.4), r.x) for r in L)

    def test_step_appends_in_place(self):
        vs = IntervalVersionSpace(1, [(0.5, 1)])
        b = make_bundle(IntervalUnion(((0.4, 0.6),)))
        L: list[DrawnExample] = []
        out, _ = sal_step(vs, b, L, 0)
        assert out is L and len(L) == 1

    def test_full_disagreement_always_queries(self):
        vs = IntervalVersionSpace(1, [(0.5, 1)])  # DIS mass 1
        b = make_bundle(IntervalUnion(((0.4, 0.6),)))
        L, c = sal_batch(vs, b, 64)
        assert c == 64 and b.ledger.label_queries == 64

    def test_query_fraction_tracks_dis_mass(self):
        vs = ThresholdVersionSpace.from_examples([(0.3, -1), (0.7, 1)])
        b = make_bundle(Threshold(0.5), seed=11)
        L, c = sal_batch(vs, b, 10_000)
        assert abs(c / 10_000 - 0.4) <= 0.02

    def test_step_and_batch_agree(self):
        vs = ThresholdVersionSpace.from_examples([(0.3, -1), (0.7, 1)])
        b1 = make_bundle(Threshold(0.5), NoiseModel("rcn", eta=0.2), seed=23)
        b2 = make_bundle(Threshold(0.5), NoiseModel("rcn", eta=0.2), seed=23)
        L1: list[DrawnExample] = []
        c1 = 0
        for _ in range(200):
            L1, c1 = sal_step(vs, b1, L1, c1)
        batch, c2 = sal_batch(vs, b2, 200)
        assert c1 == c2 and len(L1) == len(batch) == 200
        assert [r.x for r in L1] == batch.xs.tolist()
        assert [r.y for r in L1] == batch.ys.tolist()
        assert [r.queried for r in L1] == batch.queried.tolist()
        assert [r.shadow_y for r in L1] == shadow_column(batch, b2).tolist()

    def test_shadow_equals_label_when_queried(self):
        # AA-LARCH is the one learner that records shadow labels
        seq = NestedClassSequence.enumerated_intervals(1, resolution=5)
        b = make_bundle(IntervalUnion(((0.25, 0.75),)),
                        NoiseModel("rcn", eta=0.05), seed=7, tau=4.0)
        res = run_aalarch(seq, b, delta=0.5, n_cap=3000, cost_cap=3000.0)
        q = np.array([r.queried for r in res.working])
        ys = np.array([r.y for r in res.working])
        shadow_ys = np.array([r.shadow_y for r in res.working])
        assert q.any() and not q.all()
        assert np.array_equal(shadow_ys[q], ys[q])
        assert np.any(shadow_ys[~q] != ys[~q])  # inferred: an independent draw


def eager_sal_batch(vs, bundle, n):
    """The eager reference for ``sal_batch``: classify every draw, then
    LABEL the DIS points."""
    xs = bundle.draw(n)
    queried, ys = vs.partition().classify(xs)
    if queried.any():
        ys[queried] = bundle.label_query_batch(xs[queried])
    return xs, ys, queried


def bundle_state(bundle, transcript):
    rngs = (bundle._sampler_rng, bundle._noise_rng, bundle._shadow_rng,
            bundle._policy_rng)
    return (events_to_jsonl(transcript), bundle.ledger.snapshot(),
            [str(g.bit_generator.state) for g in rngs])


LAZY_CASES = {
    "interval": (lambda: IntervalVersionSpace(1, [(0.2, -1), (0.3, 1), (0.6, -1)]),
                 IntervalUnion(((0.25, 0.45),))),
    "interval-negatives-only": (
        lambda: IntervalVersionSpace(1, [(x, -1) for x in np.linspace(0, 1, 41)]),
        IntervalUnion(((0.45, 0.5),)),
    ),
    "threshold": (lambda: ThresholdVersionSpace(0.3, 0.7, False, True), Threshold(0.5)),
    "masked": (
        lambda: MaskedVersionSpace(
            NestedClassSequence.enumerated_intervals(2, resolution=9).classes[2]
        ).with_examples([(0.25, 1), (0.5, -1)]),
        IntervalUnion(((0.125, 0.375),)),
    ),
}


class TestLazySalBatch:
    @pytest.mark.parametrize("noise", [None, NoiseModel("rcn", eta=0.2)])
    @pytest.mark.parametrize("case", list(LAZY_CASES))
    def test_matches_the_eager_classify_path(self, case, noise):
        build, target = LAZY_CASES[case]
        vs = build()
        runs = []
        for sample in (sal_batch, eager_sal_batch):
            t: list = []
            b = make_bundle(target, noise, seed=31, transcript=t)
            out = sample(vs, b, 500)
            runs.append((b, t, out, bundle_state(b, t)))
        (b, t, (batch, n_queried), state), (b2, t2, (xs, ys, queried), want) = runs
        assert state == want
        assert n_queried == int(queried.sum()) > 0
        # DIS is all of [0, 1] but the constraint points before a positive
        assert (n_queried == 500) == (case == "interval-negatives-only")
        assert np.array_equal(batch.xs, xs) and len(batch) == 500
        assert np.array_equal(batch.queried, queried)
        assert np.array_equal(batch.queried_ys, ys[queried])
        assert batch._ys is None  # nothing classified yet
        # more draws on the same bundle change neither the labels nor,
        # once read, the streams
        sal_batch(vs, b, 64)
        eager_sal_batch(vs, b2, 64)
        before = bundle_state(b, t)
        first = batch.ys
        assert bundle_state(b, t) == before == bundle_state(b2, t2)
        assert first.dtype == np.int8 and np.array_equal(first, ys)
        again = batch.ys
        assert again is first and np.array_equal(again, ys)

    def test_no_dis_labels_nothing(self):
        vs = ThresholdVersionSpace(0.4, 0.4, True, True)
        t: list = []
        b = make_bundle(Threshold(0.4), transcript=t)
        batch, n_queried = sal_batch(vs, b, 100)
        assert n_queried == 0 and not batch.queried.any()
        assert len(batch.queried_ys) == 0 and b.ledger.label_queries == 0
        assert [e.event for e in t] == ["draw"]
        assert np.array_equal(batch.ys, predict_batch(Threshold(0.4), batch.xs))


class TestDeterminism:
    def test_identical_seeds_identical_transcripts(self):
        def run(seed):
            t: list = []
            b = OracleBundle(
                IntervalUnion(((0.3, 0.6),)),
                NoiseModel("rcn", eta=0.1),
                seed=seed,
                transcript=t,
            )
            vs = IntervalVersionSpace(1, [(0.4, 1)])
            batch, _ = sal_batch(vs, b, 100)
            b.search_query(vs, k=1)
            recs = [
                col.tolist()
                for col in (batch.xs, batch.ys, batch.queried,
                            shadow_column(batch, b))
            ]
            return events_to_jsonl(t), b.ledger.snapshot(), recs

        assert run(123) == run(123)
        assert run(123)[2] != run(124)[2]

    def test_ledger_cost(self):
        b = make_bundle(Threshold(0.5), tau=16.0)
        b.label_query(0.3)
        b.search_query(IntervalVersionSpace(1, [(0.5, 1)]))
        assert b.ledger.cost == 1 + 16.0


class TestSearchThresholdCompleteness:
    """Random threshold version spaces against a fine definitional scan:
    the oracle's verdict must match existence of a systematic mistake."""

    def test_random_instances(self):
        rng = np.random.default_rng(53)
        scan = np.linspace(0.0, 1.0, 4001)
        for trial in range(60):
            wstar = float(rng.random())
            b = make_bundle(Threshold(wstar), seed=trial, validate_search=True)
            n = int(rng.integers(0, 4))
            pts = rng.random(n)
            labels = [predict(Threshold(wstar), float(x)) for x in pts]
            if rng.random() < 0.3 and n:
                labels[0] = -labels[0]  # sometimes inconsistent with target
            vs = ThresholdVersionSpace.from_examples(list(zip(pts, labels)))
            if vs.is_empty():
                continue
            e = b.search_query(vs)
            in_dis, lab = vs.partition().classify(scan)
            star = predict_batch(Threshold(wstar), scan)
            exists = np.any(~in_dis & (lab != star))
            if exists:
                assert e is not None, f"missed counterexample (trial {trial})"
            else:
                assert e is None, f"phantom counterexample (trial {trial})"
