"""Realizable-case learners: the SEARCH-only binary-search demo, the
disagreement-based sampler CAL, and the two nested-class learners that
combine SEARCH with LABEL (one conservative, one eager).

All of them assume the hidden target has zero error, so LABEL returns the
target's label on every point of the support and every SEARCH example is
consistent with the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .bounds import delta_schedule, phi, sigma
from .hypotheses import (
    Hypothesis,
    LabeledExample,
    NestedClassSequence,
    Threshold,
    ThresholdVersionSpace,
    VersionSpace,
    as_arrays,
    predict_batch,
)
from .oracles import OracleBundle, QueryLedger, event, sal_batch

__all__ = [
    "CalResult",
    "run_binary_search_demo",
    "run_cal",
    "run_larch",
    "run_seabel",
]


# ---------------------------------------------------------------------------
# SEARCH-only binary search for thresholds
# ---------------------------------------------------------------------------


def run_binary_search_demo(
    bundle: OracleBundle, epsilon: float
) -> tuple[Hypothesis, QueryLedger]:
    """Locate a threshold target to accuracy epsilon using SEARCH alone.

    Query the half-space version space V_x = {h_w : w < x} at the midpoint
    x of the surviving threshold range: None means the target threshold is
    <= x, a counterexample (x0, -1) proves it is > x0. Either way the
    range at least halves, so log2(1/epsilon) + O(1) queries suffice and
    LABEL is never used.
    """
    if not isinstance(bundle.target, Threshold):
        raise ValueError("binary-search demo needs a threshold target")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0,1], got {epsilon}")
    lo, hi = 0.0, 1.0
    while hi - lo > epsilon:
        x = 0.5 * (lo + hi)
        vx = ThresholdVersionSpace(lo, x, True, False)
        e = bundle.search_query(vx)
        if e is None:
            hi = x
        else:
            if e.y != -1 or e.x < x:
                raise AssertionError(f"inconsistent SEARCH reply {e}")
            lo = e.x
    return Threshold(0.5 * (lo + hi)), bundle.ledger


# ---------------------------------------------------------------------------
# CAL
# ---------------------------------------------------------------------------


@dataclass
class CalResult:
    """Labeled examples collected by CAL, with the final version space.

    ``examples`` holds only queried points (all inside the disagreement
    region of the version space current at query time); ``per_epoch`` are
    the per-epoch query counts, so constraint prefixes can be replayed.
    """

    examples: list[LabeledExample]
    epochs: int
    final_version_space: VersionSpace
    per_epoch: list[int] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return self.final_version_space.is_empty()


def run_cal(
    v0: VersionSpace,
    bundle: OracleBundle,
    epsilon: float,
    delta: float,
) -> CalResult:
    """Disagreement-based selective sampling on a fixed version space.

    Epoch i draws 2^i unlabeled points and queries LABEL exactly on those
    inside DIS of the version space carried into the epoch; it halts once
    phi(d, 2^i, delta_i/2) <= epsilon or the version space empties, with
    d the VC dimension of v0. The input space need not contain the
    target; an empty outcome is legal and reported, not raised.
    """
    d = v0.vc_dim
    examples: list[LabeledExample] = []
    per_epoch: list[int] = []
    vs = v0
    i = 0
    while True:
        i += 1
        if vs.is_empty():
            return CalResult(examples, i - 1, vs, per_epoch)
        batch, n_queried = sal_batch(vs, bundle, 2**i)
        # only the LABEL answers: reading batch.ys would classify every draw
        xs, ys = batch.xs[batch.queried], batch.queried_ys
        del batch  # the epoch's draws must not live through the next one's
        if n_queried:
            examples.extend(map(LabeledExample, xs.tolist(), ys.tolist()))
            vs = vs.with_examples((xs, ys))
        per_epoch.append(n_queried)
        if phi(d, 2**i, delta_schedule(delta, i) / 2.0) <= epsilon or vs.is_empty():
            return CalResult(examples, i, vs, per_epoch)


# ---------------------------------------------------------------------------
# Conservative nested-class learner (one SEARCH per iteration)
# ---------------------------------------------------------------------------


def run_larch(
    seq: NestedClassSequence,
    bundle: OracleBundle,
    epsilon: float,
    delta: float,
) -> tuple[Hypothesis, QueryLedger, list[SimpleNamespace]]:
    """Alternate one SEARCH query with a CAL pass at the current accuracy.

    State: consistency constraints S (SEARCH counterexamples plus CAL
    labels), class index k, and the accuracy exponent ell. A None from
    SEARCH either halts (once 2^-ell <= epsilon) or halves the working
    accuracy; a counterexample advances k to the least consistent class.
    Non-halting iterations increase k + ell, so the loop runs at most
    k* + ceil(log2(1/epsilon)) + 1 times on realizable targets.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    s: list[LabeledExample] = []
    ell = 0
    trace: list[SimpleNamespace] = []
    max_iters = seq.K_max + int(math.ceil(math.log2(1.0 / epsilon))) + 3
    vs = seq.version_space(0, s)
    for i in range(1, max_iters + 1):
        e = bundle.search_query(vs, k=vs.k)
        if e is None:
            if 2.0**-ell <= epsilon:
                h = vs.canonical_member()
                trace.append(_larch_row(i, ell, "return", vs, h, bundle))
                return h, bundle.ledger, trace
            ell += 1
            outcome = "bot"
        else:
            s.append(e)
            vs = seq.least_consistent(s)
            outcome = "counterexample"
        cal = run_cal(vs, bundle, 2.0**-ell, delta / (i * i + i))
        s.extend(cal.examples)
        # CAL's last space is H_k(S) for the extended S: the next SEARCH's
        vs = cal.final_version_space
        h_now = vs.canonical_member() if not vs.is_empty() else None
        trace.append(_larch_row(i, ell, outcome, vs, h_now, bundle))
    raise RuntimeError(
        f"no convergence within {max_iters} iterations; "
        "is the target realizable within K_max?"
    )


def _larch_row(i, ell, outcome, vs, h, bundle) -> SimpleNamespace:
    """A "larch" record; ``search_result`` is "bot", "counterexample" or
    "return"."""
    mass = 0.0 if vs.is_empty() else vs.dis_region().mass
    err = math.nan if h is None else bundle.exact_error(h)
    return event(
        "larch", bundle.ledger, i=i, k=vs.k, ell=ell, search_result=outcome,
        dis_mass=mass, exact_error=err,
    )


# ---------------------------------------------------------------------------
# Eager nested-class learner (SEARCH until None, then selective sampling)
# ---------------------------------------------------------------------------


def run_seabel(
    seq: NestedClassSequence,
    bundle: OracleBundle,
    epsilon: float,
    delta: float,
    strict: bool = False,
) -> tuple[Hypothesis, QueryLedger, list[SimpleNamespace]]:
    """Each iteration first *verifies*: SEARCH is called repeatedly,
    advancing k past every counterexample until None certifies that the
    version space's agreement region matches the target. Then it *samples*:
    2^(i+1) selective-sampling draws form the next constraint batch, with
    labels inferred for free outside the disagreement region (the
    verification stage makes those inferences provably correct). Halts
    when sigma at the current class and batch size drops below epsilon.

    ``strict`` additionally asserts, per iteration, that inferred labels
    match the target and queried points lay inside the disagreement region
    (the run never uses the target for decisions, only for assertions).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    s_prev: list[LabeledExample] = []
    k_prev = 0
    first = bundle.draw(2)
    t_cur = first, bundle.label_query_batch(first)
    trace: list[SimpleNamespace] = []
    i = 0
    while True:
        i += 1
        s = list(s_prev)
        # constraints: the SEARCH counterexamples so far, then the last batch
        vs = seq.least_consistent(_joined(s, t_cur), k_lo=k_prev)
        calls = 0
        cexs = 0
        while True:
            e = bundle.search_query(vs, k=vs.k)
            calls += 1
            if e is None:
                break
            cexs += 1
            s.append(e)
            vs = seq.least_consistent(_joined(s, t_cur), k_lo=vs.k + 1)
        batch, _ = sal_batch(vs, bundle, 2 ** (i + 1))
        if strict:
            _assert_sampling_stage(vs, batch, bundle)
        sigma_value = sigma(seq.d(vs.k), 2**i, delta_schedule(delta, i, vs.k))
        h = vs.canonical_member()
        trace.append(
            event(
                "seabel", bundle.ledger, i=i, k=vs.k, sigma_value=sigma_value,
                search_calls=calls, counterexamples=cexs,
                dis_mass=vs.dis_region().mass, exact_error=bundle.exact_error(h),
            )
        )
        if sigma_value <= epsilon:
            return h, bundle.ledger, trace
        s_prev, k_prev = s, vs.k
        t_cur = batch.xs, batch.ys


def _joined(
    s: list[LabeledExample], t: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Counterexamples s followed by the columns t, as one column pair."""
    sx, sy = as_arrays(s)
    return np.concatenate((sx, t[0])), np.concatenate((sy, t[1]))


def _assert_sampling_stage(vs, batch, bundle) -> None:
    if not np.array_equal(batch.ys, predict_batch(bundle.target, batch.xs)):
        raise AssertionError("sampling-stage label disagrees with the target")
    # the version space's own rule, not the partition sal_batch classified by
    if not np.array_equal(vs._verdicts(batch.xs)[0], batch.queried):
        raise AssertionError("query decision inconsistent with DIS")
