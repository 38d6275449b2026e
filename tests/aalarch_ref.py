"""Per-step reference for the AA-LARCH sampling loop.

``run_aalarch_stepwise`` is ``oraclelab.anytime.run_aalarch`` with its
sampling block written one step at a time: one ``sal_step`` draw, one
count update, one ``prune_version_space`` per step and one
``error_check`` before each. The library's blocked loop must reproduce
it exactly; tests compare the two runs record for record.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from oraclelab.anytime import (
    AalarchDiagnostics,
    AalarchResult,
    _CountTracker,
    _errh_bound,
    error_check,
    prune_version_space,
    upgrade_version_space,
)
from oraclelab.hypotheses import (
    POS,
    Hypothesis,
    LabeledExample,
    MaskedVersionSpace,
    NestedClassSequence,
)
from oraclelab.oracles import DrawnExample, OracleBundle, event, sal_step


def run_aalarch_stepwise(
    seq: NestedClassSequence,
    bundle: OracleBundle,
    delta: float,
    n_cap: int,
    cost_cap: float,
    diagnostics: AalarchDiagnostics | None = None,
) -> AalarchResult:
    tau = bundle.ledger.tau
    if tau < 1.0:
        raise ValueError(f"cost ratio tau must be >= 1, got {tau}")
    if n_cap < 1:
        raise ValueError(f"dataset bound must be >= 1, got {n_cap}")
    if seq.backend != "enumerated":
        raise ValueError("the anytime learner needs the enumerated backend")
    tracker = _CountTracker(seq)
    k = 0
    s: list[LabeledExample] = []
    vs = seq.version_space(0, [])
    assert isinstance(vs, MaskedVersionSpace)
    working: list[DrawnExample] = []
    tilde_len = 0
    i = 0
    solution: Hypothesis | None = None
    solution_err = math.nan
    unverified = 0
    discarded = 0
    timeline: list[SimpleNamespace] = []
    trace: list[SimpleNamespace] = []

    def mark(verified: bool) -> None:
        timeline.append(
            event(
                "timeline", bundle.ledger, k=k, verified_size=tilde_len,
                solution_error=solution_err, verified=verified,
            )
        )

    def note(kind: str) -> None:
        diag = {"max_survivor_error": None, "errh_bound": None,
                "hstar_in_vs": None}
        if diagnostics is not None:
            surv = vs.survivor_indices()
            if len(surv):
                diag["max_survivor_error"] = float(
                    diagnostics.exact_errors[surv].max()
                )
            j = diagnostics.hstar_index
            if j is not None:
                diag["hstar_in_vs"] = j < len(vs.mask) and bool(vs.mask[j])
            diag["errh_bound"] = _errh_bound(
                bundle.noise.nu, seq, diagnostics.kstar,
                max(len(working), 1), max(i, 1), delta,
            )
        trace.append(
            event(
                kind, bundle.ledger, i=i, k=k, working_size=len(working),
                verified_size=tilde_len, labels_since_reset=c, **diag,
            )
        )

    def restart(kind: str, e: LabeledExample | None) -> None:
        nonlocal k, s, vs, working, discarded, unverified
        k, s, vs = upgrade_version_space(k, s, e, seq)
        vs = prune_version_space(
            tracker.committed, vs, tilde_len, delta, max(i, 1)
        )
        discarded += len(working) - tilde_len
        working = working[:tilde_len]
        tracker.rollback()
        unverified += 1
        note(kind)

    mark(False)
    while bundle.ledger.cost < cost_cap:
        c = 0
        upgraded = False
        while True:  # sampling block; exits on label budget, size, or upgrade
            if error_check(
                tracker.counts, vs, len(working), delta, max(i, 1), seq
            ):
                restart("ec-upgrade", None)
                upgraded = True
                break
            if bundle.ledger.cost >= cost_cap or len(working) >= n_cap:
                break
            i += 1
            working, c = sal_step(vs, bundle, working, c)
            rec = working[-1]
            tracker.counts += tracker.top.rows(rec.x) != (rec.y == POS)
            vs = prune_version_space(tracker.counts, vs, len(working), delta, i)
            if c >= tau or len(working) >= n_cap:
                break
        if upgraded:
            continue  # restart the block, resetting the label counter
        if bundle.ledger.cost >= cost_cap:
            break
        e = bundle.search_query(vs, k=k)
        if e is not None:
            restart("counterexample", e)
            mark(False)
        else:
            tilde_len = len(working)
            tracker.commit()
            surv = vs.survivor_indices()
            counts = tracker.committed[surv]
            best = int(surv[int(np.argmin(counts))]) if len(surv) else None
            if best is not None:
                solution = vs.cls.hypothesis(best)
                solution_err = bundle.exact_error(solution)
            note("verified")
            mark(True)
    return AalarchResult(
        timeline,
        trace,
        bundle.ledger,
        solution,
        k,
        working,
        tilde_len,
        unverified,
        discarded,
    )
