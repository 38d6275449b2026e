"""Anytime cost-amortized learner and its subroutines.

Instead of a target accuracy, this learner takes a SEARCH-to-LABEL cost
ratio tau and keeps improving until a cost budget runs out. It buys one
SEARCH after every (at most) tau LABEL queries, so class upgrades arrive
as early as the budget allows. Between probes it runs selective sampling
with per-step version-space pruning; an error check against a structural
minimum over all higher classes can force an upgrade even sooner.

A SEARCH that returns None *verifies* the current iteration: the working
dataset becomes the trusted snapshot and the empirical minimizer of the
surviving hypotheses becomes the stored solution. A counterexample (or a
failed error check) instead discards everything gathered since the last
snapshot and restarts on the upgraded class.

State bookkeeping relies on the fact that the trusted snapshot is always
a prefix of the working dataset, and that nested enumerated classes are
stored prefix-first, so one error-count vector over the top class serves
every class and version space at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .bounds import delta_schedule, sigma
from .hypotheses import (
    POS,
    Hypothesis,
    LabeledExample,
    MaskedVersionSpace,
    NestedClassSequence,
)
from .oracles import DrawnExample, OracleBundle, QueryLedger, event, sal_batch
from .oracles import sal_step  # noqa: F401  (perfbench's tracer probes this binding)

__all__ = [
    "AalarchDiagnostics",
    "AalarchResult",
    "error_at_cost",
    "error_check",
    "prune_version_space",
    "run_aalarch",
    "timeline_to_csv",
    "upgrade_version_space",
]


def error_check(
    counts: np.ndarray,
    vs: MaskedVersionSpace,
    l: int,
    delta: float,
    i: int,
    seq: NestedClassSequence,
) -> bool:
    """True iff the version space's best empirical error is implausibly
    high against the structural bound

        gamma = min over k' >= k, h in H_k' of
                err(h,L) + 2 sqrt(err(h,L) s_k') + 3 s_k',

    i.e. min over V of err(h,L) > gamma + 2 sqrt(gamma s_k) + 3 s_k,
    with s_j = sigma(d_j, l, delta_schedule(delta, i, j)).

    ``counts`` holds the per-hypothesis error counts of the l-point
    dataset L over a class that has V's class and every H_k' as a prefix.
    The structural min is truncated at the sequence's K_max. Empty
    datasets never trip it."""
    if l == 0 or vs.is_empty():
        return False
    assert seq.classes is not None
    class_mins = [
        counts[: len(seq.classes[kp])].min() for kp in range(vs.k, seq.K_max + 1)
    ]
    return _fires(
        class_mins, counts[vs.survivor_indices()].min(), l,
        _sigmas(seq, vs.k, l, delta, i),
    )


def _ball(b: float, s: float) -> float:
    """b + 2 sqrt(b s) + 3 s: the edge of the Bernstein ball around an
    empirical error b. The error check, the prune and the block scan all
    evaluate it here, so they round alike."""
    return b + 2.0 * math.sqrt(b * s) + 3.0 * s


def _sigmas(
    seq: NestedClassSequence, k: int, l: int, delta: float, i: int
) -> list[float]:
    """s_k' = sigma(d_k', l, delta_schedule(delta, i, k')) for k' = k..K_max."""
    return [
        sigma(seq.d(kp), l, delta_schedule(delta, i, kp))
        for kp in range(k, seq.K_max + 1)
    ]


def _fires(class_mins, survivor_min, l: int, sigmas: list[float]) -> bool:
    """The error check's test on an l-point dataset, from the minimum
    count over each class H_k' (k' = k..K_max), the version space's
    minimum count and the matching ``_sigmas``. Every rounded operation
    in the bound is non-decreasing, so lowering a class minimum can only
    turn False into True: with lower bounds for the minima it may fire
    where the exact test would not, but never misses a firing."""
    gamma = math.inf
    for m, s in zip(class_mins, sigmas):
        gamma = min(gamma, _ball(m / l, s))
    return survivor_min / l > _ball(gamma, sigmas[0])


def prune_version_space(
    counts: np.ndarray,
    vs: MaskedVersionSpace,
    l: int,
    delta: float,
    i: int,
) -> MaskedVersionSpace:
    """Keep the hypotheses whose empirical error is within the Bernstein
    ball of the version space's own minimizer:

        err(h,L) <= b + 2 sqrt(b s) + 3 s,  b = min over V of err(h,L),

    with s = sigma(d_k, l, delta_schedule(delta, i, k)). ``counts`` is as
    in ``error_check``. Never empties (the minimizer always survives); an
    empty dataset prunes nothing."""
    if l == 0 or vs.is_empty():
        return vs
    idx = vs.survivor_indices()
    errs = counts[idx]
    b = errs.min() / l
    s = sigma(vs.vc_dim, l, delta_schedule(delta, i, vs.k))
    keep = errs / l <= _ball(b, s)
    mask = np.zeros(len(vs.cls), dtype=bool)
    mask[idx[keep]] = True
    return vs.replace_mask(mask)


def upgrade_version_space(
    k: int,
    s: list[LabeledExample],
    seed_example: LabeledExample | None,
    seq: NestedClassSequence,
) -> tuple[int, list[LabeledExample], MaskedVersionSpace]:
    """Add the optional counterexample to the seed set and move to the
    least class index above k consistent with it. Raises ExhaustionError
    past K_max."""
    s_new = list(s) + ([seed_example] if seed_example is not None else [])
    vs = seq.least_consistent(s_new, k_lo=k + 1)
    assert isinstance(vs, MaskedVersionSpace)
    return vs.k, s_new, vs


# ---------------------------------------------------------------------------
# Incremental error counts over the prefix-nested top class
# ---------------------------------------------------------------------------


class _CountTracker:
    """Per-hypothesis error counts of the working dataset over the top
    class, with a committed copy for snapshot rollbacks. Because each
    class is a prefix of the next, slice [:|H_k|] serves class k."""

    def __init__(self, seq: NestedClassSequence):
        assert seq.classes is not None
        self.top = seq.classes[seq.K_max]
        self.counts = np.zeros(len(self.top), dtype=np.int64)
        self.committed = self.counts.copy()

    def extend(self, xs: np.ndarray, ys: np.ndarray) -> None:
        self.counts += self.top.err_counts(xs, ys)

    def commit(self) -> None:
        self.committed = self.counts.copy()

    def rollback(self) -> None:
        self.counts = self.committed.copy()


# ---------------------------------------------------------------------------
# Blocks of selective-sampling steps against one version space
# ---------------------------------------------------------------------------

# Largest steps x survivors error matrix a block may gather (int32, so
# about 0.5 MB); a block is cut to fit.
_BLOCK_ELEMENTS = 1 << 17
# Steps in the first block after the version space changes; the block
# doubles after every block that runs to its end.
_FIRST_BLOCK = 16


def _block_length(
    seq: NestedClassSequence,
    vs: MaskedVersionSpace,
    counts: np.ndarray,
    peek: tuple[np.ndarray, np.ndarray, np.ndarray],
    l0: int,
    i0: int,
    c0: int,
    ledger: QueryLedger,
    delta: float,
    cost_cap: float,
    crossing: bool,
) -> tuple[int, bool, list[int]]:
    """(m, pruned, ends): how many of the peeked steps the per-step loop
    takes against vs before its state changes, whether the prune after
    the m-th step drops a survivor, and the round ends the block runs
    across (as step counts below m).

    Step t (from 0) of the peek is step i0 + t + 1 of the run, on a
    dataset of l0 + t points with c0 + (labels so far) labels bought.
    Before it, the loop checks the error and the cost; after it, it
    prunes and checks the label budget. The tests here go through the
    same ``_sigmas``, ``_ball`` and ``_fires`` as the loop's own, on
    Python scalars:

    * prune: a survivor drops iff the largest survivor count over l lies
      outside the ball around the smallest;
    * error check: the class minima over each H_k' are taken at the
      block's start. Counts only grow, so they are lower bounds, and a
      step that passes with them cannot fire; the block is cut at the
      first step that does not pass, and the exact ``error_check``
      decides there.

    ``crossing`` says that vs's SEARCH is known to answer None. A round
    that ends on its label budget then changes no state but the trusted
    snapshot, so the scan runs on past it: the SEARCH adds tau to the
    cost and the next round counts labels from 0. The next step's error
    check and cost stop are the scan's own; the cost only grows, so a
    cost that stops the round before its SEARCH stops that step too. A
    round end that no step follows is not crossed: the caller's loop
    issues that SEARCH.

    A block that queries no label, against survivors that have made no
    error, changes no state: their counts stay 0, so neither the prune
    nor the error check can fire, and neither the cost nor the label
    budget moves. It is taken whole without a scan.

    The caller bounds the peek by n_cap, so the n_cap stop needs no test.
    """
    xs, ys, queried = peek
    idx = vs.survivor_indices()
    if not queried.any() and not counts[idx].any():
        return len(xs), False, []
    # survivor counts after each step, as (steps, survivors)
    errs = np.cumsum(
        vs.survivor_rows(xs) != (ys == POS)[:, None], axis=0, dtype=np.int32
    )
    errs += counts[idx].astype(np.int32)
    lo, hi = errs.min(axis=1).tolist(), errs.max(axis=1).tolist()
    labels = np.cumsum(queried).tolist()
    class_lo = [
        int(counts[: len(seq.classes[kp])].min())
        for kp in range(vs.k, seq.K_max + 1)
    ]
    searches = ledger.search_queries
    m, pruned, ends = len(xs), False, []
    s: list[float] = []
    for t in range(len(xs)):
        # s holds the sigmas at (l0 + t, i0 + t) from the last step
        if t and (
            _fires(class_lo, lo[t - 1], l0 + t, s)
            or ledger.label_queries + labels[t - 1] + ledger.tau * searches
            >= cost_cap
        ):
            m = t
            break
        l = l0 + t + 1
        s = _sigmas(seq, vs.k, l, delta, i0 + t + 1)
        if hi[t] / l > _ball(lo[t] / l, s[0]):
            m, pruned = t + 1, True
            break
        if c0 + labels[t] >= ledger.tau:
            if not crossing:
                m = t + 1
                break
            ends.append(t + 1)
            searches += 1
            c0 = -labels[t]
    if ends and ends[-1] == m:
        ends.pop()
    return m, pruned, ends


# ---------------------------------------------------------------------------
# The anytime driver
# ---------------------------------------------------------------------------


TIMELINE_HEADER = (
    "cost,label_queries,search_queries,k,verified_size,"
    "exact_error_of_solution,verified"
)


def timeline_to_csv(timeline: list[SimpleNamespace]) -> str:
    lines = [TIMELINE_HEADER]
    for r in timeline:
        led = r.ledger
        err = "" if math.isnan(r.solution_error) else f"{r.solution_error:.10g}"
        lines.append(
            f"{led['cost']:.10g},{led['label_queries']},{led['search_queries']},"
            f"{r.k},{r.verified_size},{err},{int(r.verified)}"
        )
    return "\n".join(lines)


def error_at_cost(timeline: list[SimpleNamespace], cost: float) -> float:
    """Exact error of the stored solution at the moment the spent cost
    first reaches ``cost`` (nan if no solution was stored by then)."""
    err = math.nan
    for row in timeline:
        if row.ledger["cost"] > cost:
            break
        if not math.isnan(row.solution_error):
            err = row.solution_error
    return err


@dataclass
class AalarchDiagnostics:
    """Target-aware instrumentation (never used for decisions): exact
    errors of all top-class hypotheses, the target's index there (if it is
    a class member), and its least class index."""

    exact_errors: np.ndarray
    hstar_index: int | None
    kstar: int

    @classmethod
    def for_run(
        cls, seq: NestedClassSequence, bundle: OracleBundle
    ) -> "AalarchDiagnostics":
        assert seq.classes is not None
        top = seq.classes[seq.K_max]
        if bundle.noise.kind == "pointwise":
            # OracleBundle.exact_error's sum over table pieces, for every
            # member at once
            errors = np.zeros(len(top))
            for lo, hi, p in sorted(bundle.noise.table):
                inside = top.distances_from(bundle.target, lo, hi)
                errors += p * (hi - lo - inside) + (1.0 - p) * inside
        else:
            eta = bundle.noise.nu  # 0 when realizable
            errors = eta + (1.0 - 2.0 * eta) * top.distances_from(bundle.target)
        hstar_index = top.index_of(bundle.target)
        if hstar_index is not None:
            # classes are prefix-nested: the least class holding the target
            # is the first one long enough to contain its index
            kstar = next(
                kk for kk in range(seq.K_max + 1)
                if hstar_index < len(seq.classes[kk])
            )
        else:
            kstar = len(getattr(bundle.target, "intervals", ())) or seq.K_max
        return cls(errors, hstar_index, kstar)


@dataclass
class AalarchResult:
    timeline: list[SimpleNamespace]
    trace: list[SimpleNamespace]
    ledger: QueryLedger
    solution: Hypothesis | None
    final_k: int
    working: list[DrawnExample]
    verified_size: int
    unverified_iterations: int
    discarded_examples: int


def run_aalarch(
    seq: NestedClassSequence,
    bundle: OracleBundle,
    delta: float,
    n_cap: int,
    cost_cap: float,
    diagnostics: AalarchDiagnostics | None = None,
) -> AalarchResult:
    """Run the anytime loop until the tau-weighted cost reaches cost_cap.
    tau, the SEARCH-to-LABEL cost ratio, is the one the bundle's ledger
    charges.

    One round: selective-sampling steps with per-step pruning until tau
    labels were bought or the working dataset reaches n_cap, with an error
    check before every step that can force a class upgrade and a restart
    from the trusted snapshot. Then one SEARCH: a counterexample upgrades
    the class and restarts from the snapshot; None commits the working
    dataset as the new snapshot and stores the surviving empirical
    minimizer as the current solution. The steps run in blocks against a
    fixed version space, each cut where the per-step loop would change
    state (``_block_length``), with the same results. Once the version
    space's SEARCH has answered None, a block runs on across the round
    ends it meets: each round is committed, searched and verified in
    turn, since none of them can change the version space.

    The working dataset is bounded by n_cap, so a degenerate round (no
    room to sample) still issues its SEARCH and the budget drains.

    ``trace`` gets one "ec-upgrade", "counterexample" or "verified"
    record per restart or SEARCH; ``timeline`` gets one "timeline"
    record at the start and after every SEARCH.
    """
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
        """Append a trace record; its target-aware fields stay None
        without diagnostics."""
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
                # classes are prefix-nested: an index past the current
                # class's length means the target is not a member at all
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
        """Upgrade the class (past the counterexample e, if any) and roll
        the working dataset back to the trusted snapshot."""
        nonlocal k, s, vs, working, discarded, unverified, block
        k, s, vs = upgrade_version_space(k, s, e, seq)
        vs = prune_version_space(
            tracker.committed, vs, tilde_len, delta, max(i, 1)
        )
        discarded += len(working) - tilde_len
        working = working[:tilde_len]
        tracker.rollback()
        unverified += 1
        block = _FIRST_BLOCK
        note(kind)

    def verify() -> None:
        """A SEARCH answered None: the working dataset becomes the trusted
        snapshot and the surviving empirical minimizer the solution."""
        nonlocal tilde_len, solution, solution_index, solution_err
        tilde_len = len(working)
        tracker.commit()
        surv = vs.survivor_indices()
        if len(surv):
            best = int(surv[int(np.argmin(tracker.committed[surv]))])
            if best != solution_index:
                solution_index = best
                solution = vs.cls.hypothesis(best)
                solution_err = bundle.exact_error(solution)
        note("verified")
        mark(True)

    block = _FIRST_BLOCK
    solution_index = None
    searched = None  # the version space whose last SEARCH answered None
    mark(False)
    while bundle.ledger.cost < cost_cap:
        c = 0
        upgraded = False
        while True:  # sampling round; exits on label budget, size, or upgrade
            if error_check(
                tracker.counts, vs, len(working), delta, max(i, 1), seq
            ):
                restart("ec-upgrade", None)
                upgraded = True
                break
            if bundle.ledger.cost >= cost_cap or len(working) >= n_cap:
                break
            n = min(
                block,
                n_cap - len(working),
                max(1, _BLOCK_ELEMENTS // int(np.count_nonzero(vs.mask))),
            )
            peek = bundle.peek_sal(vs, n)
            m, pruned, ends = _block_length(
                seq, vs, tracker.counts, peek, len(working), i, c,
                bundle.ledger, delta, cost_cap, searched is vs,
            )
            # one sal_batch per round, so the ledger and the transcript
            # interleave draws, labels and SEARCHes as step by step
            start = 0
            for end in ends + [m]:
                batch, n_queried = sal_batch(vs, bundle, end - start)
                # the peek already classified these draws, so the batch's
                # own inferred labels are never built
                xs, ys, queried = (col[start:end] for col in peek)
                assert (
                    np.array_equal(batch.xs, xs)
                    and np.array_equal(batch.queried, queried)
                    and np.array_equal(batch.queried_ys, ys[queried])
                ), "sal_batch drew other steps than the peek"
                # a queried point's shadow label is its label; the
                # inferred ones draw theirs from the shadow stream, in
                # draw order
                shadow_ys = ys.copy()
                if n_queried < len(xs):
                    shadow_ys[~queried] = bundle.shadow_labels(xs[~queried])
                working.extend(
                    map(
                        DrawnExample, xs.tolist(), ys.tolist(),
                        queried.tolist(), shadow_ys.tolist(),
                    )
                )
                tracker.extend(xs, ys)
                i += len(xs)
                c += n_queried
                if end < m:  # a round end the block ran across
                    e = bundle.search_query(vs, k=k)
                    assert c >= tau and e is None, "a crossed round changed"
                    verify()
                    c = 0
                start = end
            if pruned:
                vs = prune_version_space(
                    tracker.counts, vs, len(working), delta, i
                )
                block = _FIRST_BLOCK
            elif m == n:
                block *= 2
            if c >= tau or len(working) >= n_cap:
                break
        if upgraded:
            continue  # restart the round, resetting the label counter
        if bundle.ledger.cost >= cost_cap:
            break
        e = bundle.search_query(vs, k=k)
        if e is not None:
            restart("counterexample", e)
            mark(False)
        else:
            searched = vs
            verify()
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


def _errh_bound(
    nu: float, seq: NestedClassSequence, kstar: int, l: int, i: int,
    delta: float,
) -> float:
    """nu + 8 sqrt(nu s) + 35 s at the top-relevant class scale, the error
    envelope every survivor of a verified step must satisfy."""
    s = sigma(seq.d(kstar), l, delta_schedule(delta, i, kstar))
    return nu + 8.0 * math.sqrt(nu * s) + 35.0 * s

