"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Tolerances are the stated ones; nothing is calibrated at runtime.

Criterion 3 contains a subcheck that is expected to fail: the conservative
nested-class learner provably issues one more SEARCH query than its
headline bound admits (the final certifying round; see README, "Acceptance
suite"). The subcheck is asserted as stated anyway, and the provable sharp
bound is asserted green in tests/test_realizable.py.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from oraclelab.agnostic import run_al, run_alarch
from oraclelab.anytime import (
    AalarchDiagnostics,
    error_at_cost,
    run_aalarch,
)
from oraclelab.bounds import (
    bernstein_upper,
    delta_schedule,
    freedman_count_bound,
    phi,
    sample_size_cap,
    sigma,
    sigma_k,
)
from oraclelab.harness import (
    ExperimentConfig,
    run_cell,
    validate_against_bruteforce,
)
from oraclelab.hypotheses import (
    ALWAYS_NEGATIVE,
    IntervalUnion,
    IntervalVersionSpace,
    MaskedVersionSpace,
    NestedClassSequence,
    Threshold,
    ThresholdVersionSpace,
    disagreement_coefficient_estimate,
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
from oraclelab.realizable import run_binary_search_demo, run_cal, run_larch, run_seabel

from aalarch_ref import favorable_bias_violations
from gridref import sup_interval_error, sup_threshold_error

SEEDS = list(range(20))


def report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"{criterion}: {failures}"


# -------------------------------------------------------------------------
# 1. Oracle-power separation
# -------------------------------------------------------------------------


def test_acceptance_1_oracle_power_separation():
    t0 = time.perf_counter()
    eps_grid = [1e-2, 1e-3, 1e-4]
    failures: list[str] = []

    def medians(algorithm, **kw):
        cfg = ExperimentConfig(
            algorithm=algorithm,
            family="intervals-exact",
            k_max=1,
            target={"type": "auto-interval", "width_factor": 4.0, "center": 0.5},
            epsilons=eps_grid,
            seeds=SEEDS,
            **kw,
        )
        rows = {e: [run_cell(cfg, s, e) for s in SEEDS] for e in eps_grid}
        return rows

    def per_decade_rate(meds):
        decades = math.log10(eps_grid[0] / eps_grid[-1])
        return (meds[-1] / max(meds[0], 1.0)) ** (1.0 / decades)

    for alg, low, high in (
        ("passive-baseline", 8.0, None),
        ("cal", 8.0, None),
        ("larch", None, 3.0),
    ):
        rows = medians(alg)
        meds = [
            statistics.median(r.label_queries for r in rows[e]) for e in eps_grid
        ]
        rate = per_decade_rate(meds)
        if low is not None and rate < low:
            failures.append(f"{alg} grows {rate:.2f}x/decade < {low} ({meds})")
        if high is not None and rate > high:
            failures.append(f"{alg} grows {rate:.2f}x/decade > {high} ({meds})")

    for e in eps_grid:
        for s in SEEDS:
            b = OracleBundle(Threshold(0.37), seed=s)
            run_binary_search_demo(b, e)
            if b.ledger.search_queries > math.log2(1 / e) + 2:
                failures.append(
                    f"demo used {b.ledger.search_queries} SEARCH at eps={e}"
                )
                break

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"criterion took {elapsed:.1f}s >= 60s")
    report("1 (oracle-power separation)", failures)


# -------------------------------------------------------------------------
# 2. CAL contract
# -------------------------------------------------------------------------


def test_acceptance_2_cal_contract():
    eps, delta = 0.05, 0.1
    failures: list[str] = []

    hits = 0
    for seed in SEEDS:
        b = OracleBundle(Threshold(0.5), seed=seed)
        res = run_cal(ThresholdVersionSpace.from_examples([]), b, eps, delta)
        if sup_threshold_error(res.final_version_space, 0.5) <= eps:
            hits += 1
        _check_queries_in_dis(ThresholdVersionSpace.from_examples([]), res, failures)
    if hits < 18:
        failures.append(f"threshold contract held in only {hits}/20 seeds")

    target = IntervalUnion(((0.3, 0.6),))
    seed_ex = [(0.45, 1)]
    hits = 0
    for seed in SEEDS:
        b = OracleBundle(target, seed=seed)
        v0 = IntervalVersionSpace(1, seed_ex)
        res = run_cal(v0, b, eps, delta)
        if sup_interval_error(seed_ex + list(res.examples), target) <= eps:
            hits += 1
        _check_queries_in_dis(IntervalVersionSpace(1, seed_ex), res, failures)
    if hits < 18:
        failures.append(f"seeded-interval contract held in only {hits}/20 seeds")
    report("2 (CAL contract)", failures)


def _check_queries_in_dis(v0, res, failures):
    vs = v0
    pos = 0
    for count in res.per_epoch:
        for ex in res.examples[pos : pos + count]:
            if not vs.dis_contains(ex.x):
                failures.append(f"query at {ex.x} outside DIS")
                return
        vs = vs.with_examples(res.examples[pos : pos + count])
        pos += count


# -------------------------------------------------------------------------
# 3. LARCH/SEABEL invariants
# -------------------------------------------------------------------------

TARGETS_BY_KSTAR = {
    0: ALWAYS_NEGATIVE,
    1: IntervalUnion(((0.3, 0.6),)),
    2: IntervalUnion(((0.1, 0.3), (0.6, 0.8))),
    3: IntervalUnion(((0.05, 0.2), (0.4, 0.55), (0.75, 0.9))),
}


def test_acceptance_3_larch_seabel_invariants():
    eps, delta = 0.01, 0.1
    seq = NestedClassSequence.exact_intervals(4)
    failures: list[str] = []
    for kstar, target in TARGETS_BY_KSTAR.items():
        for seed in SEEDS:
            b = OracleBundle(target, seed=seed, validate_search=True)
            h, ledger, trace = run_larch(seq, b, eps, delta)
            if b.exact_error(h) > eps:
                failures.append(f"LARCH err > eps (k*={kstar}, seed={seed})")
            if any(row.k > kstar for row in trace):
                failures.append(f"LARCH k exceeded k*={kstar} (seed={seed})")
            if ledger.search_queries > kstar + math.log2(1 / eps):
                failures.append(
                    f"LARCH SEARCH queries {ledger.search_queries} > "
                    f"k*+log2(1/eps)={kstar + math.log2(1 / eps):.2f} "
                    f"(k*={kstar}, every seed) [known off-by-one defect in "
                    "the stated bound: the final certifying SEARCH round is "
                    "uncounted; see README]"
                )

            b = OracleBundle(target, seed=seed, validate_search=True)
            h, ledger, strace = run_seabel(seq, b, eps, delta, strict=True)
            if b.exact_error(h) > eps:
                failures.append(f"SEABEL err > eps (k*={kstar}, seed={seed})")
            if any(row.k > kstar for row in strace):
                failures.append(f"SEABEL k exceeded k*={kstar} (seed={seed})")
            if sum(row.counterexamples for row in strace) > kstar:
                failures.append(
                    f"SEABEL counterexamples > k*={kstar} (seed={seed})"
                )
    # soundness of every SEARCH reply was enforced per call (validate_search)
    dedup = sorted(set(failures))
    report("3 (LARCH/SEABEL invariants)", dedup)


# -------------------------------------------------------------------------
# 4. AL guarantees
# -------------------------------------------------------------------------


def test_acceptance_4_al_guarantees():
    eps, delta, eta = 0.05, 0.1, 0.1
    gamma = ConstantGamma(eta)
    failures: list[str] = []
    successes = members = excesses = 0
    for seed in SEEDS:
        h_class = MaskedVersionSpace(NestedClassSequence.threshold_grid(101))
        b = OracleBundle(Threshold(0.5), NoiseModel("rcn", eta=eta), seed=seed)
        out = run_al(h_class, b, gamma, eps, delta)
        prev = h_class.mask
        for m in out.epoch_masks:
            if np.any(m & ~prev):
                failures.append(f"nesting violated (seed={seed})")
                break
            prev = m
        if out.reason != "success":
            continue
        successes += 1
        if out.version_space.mask[50]:
            members += 1
        region = out.version_space.dis_region()
        overlap = segments_mass(
            intersect_segments(
                symmetric_difference_segments(out.hypothesis, b.target),
                list(region.segments),
            )
        )
        exact = eta * region.mass + (1 - 2 * eta) * overlap
        if exact - gamma(out.version_space) <= eps:
            excesses += 1
    for name, count in (
        ("success", successes), ("h* membership", members), ("excess", excesses),
    ):
        if count < 18:
            failures.append(f"{name} held in only {count}/20 seeds")
    report("4 (AL guarantees)", failures)


# -------------------------------------------------------------------------
# 5. A-LARCH error bounds
# -------------------------------------------------------------------------


def test_acceptance_5_alarch_error_bounds():
    eps, delta, eta = 0.05, 0.1, 0.1
    seq = NestedClassSequence.enumerated_intervals(2, resolution=21)
    g = seq.grid
    target = IntervalUnion(((g[3], g[7]), (g[12], g[17])))  # k* = 2
    failures: list[str] = []
    for gamma, bound, name in (
        (ConstantGamma(eta), 2 * eta + eps, "2nu+eps"),
        (RcnGamma(eta), eta + eps, "nu+eps"),
    ):
        hits = 0
        for seed in SEEDS:
            b = OracleBundle(
                target, NoiseModel("rcn", eta=eta), seed=seed,
                validate_search=True,
            )
            h, ledger, rounds, _ = run_alarch(seq, b, gamma, eps, delta)
            if b.exact_error(h) <= bound:
                hits += 1
            if ledger.search_queries > 2:
                failures.append(
                    f"SEARCH queries {ledger.search_queries} > k*=2 "
                    f"({name}, seed={seed})"
                )
            if any(r.k > 2 for r in rounds):
                failures.append(f"k exceeded k*=2 ({name}, seed={seed})")
        if hits < 18:
            failures.append(f"err <= {name} held in only {hits}/20 seeds")
    report("5 (A-LARCH error bounds)", failures)


# -------------------------------------------------------------------------
# 6. AA-LARCH invariants and paired-run comparison
# -------------------------------------------------------------------------


def test_acceptance_6_aalarch():
    eps, delta, eta = 0.05, 0.1, 0.1
    seq = NestedClassSequence.enumerated_intervals(1, resolution=41)
    g = seq.grid
    target = IntervalUnion(((g[12], g[24]),))
    top = seq.classes[seq.K_max]
    n_cap = 4000
    failures: list[str] = []

    # one matched fixed-accuracy run per seed; its queries are tau-free
    matched = {}
    for seed in SEEDS:
        b = OracleBundle(target, NoiseModel("rcn", eta=eta), seed=seed)
        h, ledger, _, _ = run_alarch(seq, b, ConstantGamma(eta), eps, delta)
        matched[seed] = (ledger.label_queries, ledger.search_queries,
                         b.exact_error(h))

    pair_hits = 0
    pair_total = 0
    for tau in (4.0, 32.0):
        envelope_hits = 0
        for seed in SEEDS:
            labels_a, searches_a, err_a = matched[seed]
            cost_a = labels_a + tau * searches_a
            b = OracleBundle(
                target, NoiseModel("rcn", eta=eta), seed=seed + 1000, tau=tau,
            )
            diag = AalarchDiagnostics.for_run(seq, b)
            res = run_aalarch(
                seq, b, delta, n_cap, cost_a + 2 * tau, diagnostics=diag
            )
            if res.final_k > diag.kstar or any(
                r.k > diag.kstar for r in res.trace
            ):
                failures.append(f"k exceeded k* (tau={tau}, seed={seed})")
            if res.unverified_iterations > diag.kstar:
                failures.append(
                    f"{res.unverified_iterations} unverified iterations > k* "
                    f"(tau={tau}, seed={seed})"
                )
            if favorable_bias_violations(
                res.working, top, target, res.verified_size
            ):
                failures.append(
                    f"favorable bias violated (tau={tau}, seed={seed})"
                )
            verified_rows = [
                r for r in res.trace
                if r.event == "verified" and r.max_survivor_error is not None
            ]
            if all(r.max_survivor_error <= r.errh_bound for r in verified_rows):
                envelope_hits += 1
            pair_total += 1
            err_at = error_at_cost(res.timeline, cost_a)
            if not math.isnan(err_at) and err_at <= err_a + eps:
                pair_hits += 1
        if envelope_hits < 18:
            failures.append(
                f"error envelope held in only {envelope_hits}/20 seeds "
                f"(tau={tau})"
            )
    if pair_hits < math.ceil(0.9 * pair_total):
        failures.append(
            f"paired check held in only {pair_hits}/{pair_total} pairs"
        )
    report("6 (AA-LARCH)", failures)


# -------------------------------------------------------------------------
# 7. Disagreement-coefficient values
# -------------------------------------------------------------------------


def test_acceptance_7_disagreement_coefficients():
    failures: list[str] = []
    seq1 = NestedClassSequence.enumerated_intervals(1, resolution=201)
    est = disagreement_coefficient_estimate(
        seq1.version_space(1, [(0.43, 1)]), r=0.05
    )
    if est > 4.0 * 1.25:
        failures.append(f"seeded 1-interval estimate {est:.2f} > 5")

    seeded = {
        2: [(0.2, 1), (0.45, -1), (0.7, 1)],
        3: [(0.15, 1), (0.35, -1), (0.5, 1), (0.65, -1), (0.85, 1)],
    }
    for k, seeds in seeded.items():
        seq = NestedClassSequence.enumerated_intervals(k, resolution=21)
        est = disagreement_coefficient_estimate(
            seq.version_space(k, seeds), r=0.05, max_centers=24
        )
        if est > 4.0 * k * 1.25:
            failures.append(f"seeded {k}-union estimate {est:.2f} > {5 * k}")

    est = disagreement_coefficient_estimate(
        seq1.version_space(1, []), center=ALWAYS_NEGATIVE, r=0.01
    )
    if est < 10.0:
        failures.append(f"unconstrained estimate {est:.2f} < 10")
    report("7 (disagreement coefficients)", failures)


# -------------------------------------------------------------------------
# 8. Bounds module
# -------------------------------------------------------------------------


def test_acceptance_8_bounds():
    failures: list[str] = []

    frozen = [
        (phi(1, 1, 2), 1.0),
        (phi(2, 4, 2), 1.88629436112),
        (phi(0, 10, 0.1), 0.299573227355),
        (sigma(1, 1, 6), 1.0),
        (sigma(1, 2, 0.3), 2.69101331734),
        (sigma_k(0, 10, 0.3, {0: 0}), 0.299573227355),
        (sigma_k(1, 1, 6, {1: 2}), 2.0),
        (float(sample_size_cap(0, 0.5, 0.5)), 496.0),
        (float(sample_size_cap(1, 0.5, 0.5)), 1383.0),
        (bernstein_upper(0.0, 3, math.exp(-1)), 2.0 / 9.0),
        (bernstein_upper(0.5, 8, math.exp(-1)), 0.936886723927),
        (freedman_count_bound(1.0, 1, math.log(4) / math.e), 14.0 / 3.0),
        (delta_schedule(0.12, 3), 0.01),
        (delta_schedule(0.12, 3, 1), 1.0 / 600.0),
    ]
    for got, want in frozen:
        if abs(got - want) > 1e-6 * max(abs(want), 1e-12):
            failures.append(f"closed form {got} != {want}")

    rng = np.random.default_rng(8)
    for _ in range(1000):
        d = int(rng.integers(0, 11))
        eps = float(rng.uniform(0.1, 0.9))
        delta = float(rng.uniform(0.1, 0.9))
        cap = sample_size_cap(d, eps, delta)
        m = np.arange(2, 2 * cap + 1, dtype=np.float64)
        logm = np.log(m)
        sched = delta / (2.0 * logm * (logm + 1.0))
        sig = (d * np.log(np.e * m * m) + np.log(6.0 / sched)) / m
        hot = np.nonzero(sig >= eps)[0]
        if len(hot) and m[hot[-1]] > cap:
            failures.append(
                f"m={int(m[hot[-1]])} beats cap={cap} at d={d}, "
                f"eps={eps:.3f}, delta={delta:.3f}"
            )
            break
        for probe in (4 * cap, 64 * cap, 2**40):
            lp = math.log(probe)
            sp = sigma(d, probe, delta / (2 * lp * (lp + 1)))
            if sp >= eps:
                failures.append(f"sigma at probe {probe} still >= eps")
                break
    report("8 (bounds)", failures)


# -------------------------------------------------------------------------
# 9. Brute-force equivalence
# -------------------------------------------------------------------------


def test_acceptance_9_bruteforce_equivalence():
    rep = validate_against_bruteforce(1000, seed=2026)
    failures = list(rep.mismatches[:20])
    print(f"\n    checked {rep.checks} properties over {rep.instances} instances")
    report("9 (brute-force equivalence)", failures)
