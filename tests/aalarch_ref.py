"""Per-step reference for the AA-LARCH sampling loop, and the
favorable-bias diagnostic.

``run_aalarch_stepwise`` is ``oraclelab.anytime.run_aalarch`` with its
sampling block written one step at a time: one ``sal_step`` draw, one
count update, one ``prune_version_space`` per step and one
``error_check`` before each. The library's blocked loop must reproduce
it exactly; tests compare the two runs record for record.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Sequence

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
    predict_batch,
)
from oraclelab.oracles import DrawnExample, OracleBundle, event, sal_step


def favorable_bias_violations(
    working: Sequence[DrawnExample],
    cls,
    target: Hypothesis,
    upto: int,
) -> int:
    """Number of (hypothesis, prefix) pairs violating the favorable-bias
    inequality

        errcount(h, L^D) - errcount(h*, L^D)
            <= errcount(h, L) - errcount(h*, L)

    over every prefix L of length 1..upto; L^D relabels inferred points
    with their shadow labels (queried points keep the labels they got).
    Zero means the bias holds at every verified step, and for every class
    that is a prefix of ``cls``.

    The two sides differ only at points whose shadow label is not their
    label. At such a point (shadow = -y) the left side minus the right
    moves by a(h) - a(h*), with a = +1 where the prediction is y and -1
    where it is not; elsewhere it stays. So the difference is a cumulative
    sum over those points alone, constant on the prefixes up to the next
    one, and each violating value counts once per such prefix."""
    recs = working[:upto]
    flips = [j for j, r in enumerate(recs) if r.shadow_y != r.y]
    if not flips:
        return 0
    xs = np.array([recs[j].x for j in flips])
    ys = np.array([recs[j].y for j in flips], dtype=np.int8)
    agree = np.where(cls.predictions(xs) == (ys == POS)[None, :], 1, -1)
    star = np.where(predict_batch(target, xs) == ys, 1, -1)
    gap = np.cumsum(agree - star[None, :], axis=1)
    # prefixes of length flips[r] + 1 .. flips[r + 1] share column r
    spans = np.diff(np.append(flips, len(recs)))
    return int((gap > 0).sum(axis=0) @ spans)


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
