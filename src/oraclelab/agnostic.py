"""Agnostic learners on the enumerated backend.

The inner loop doubles an iid epoch sample, queries LABEL only inside the
current disagreement region (agreement labels are inferred for free),
keeps every hypothesis whose empirical error sits within a
Bernstein-style ball of the epoch minimizer, and stops either by
*rejecting* the class (the best survivor is empirically worse than the
gamma oracle's bound on the target's error in the disagreement region)
or by *succeeding* (the minimizer's bound meets gamma + epsilon).

The outer loop walks the nested classes: a rejected class bumps k by one,
a successful one is probed with SEARCH; a counterexample forces k up to
the next class consistent with all counterexamples so far, and None ends
the run. Version spaces here are empirical error balls, not consistency
sets, which is why everything runs on explicit finite classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .bounds import delta_schedule, sample_size_cap, sigma
from .hypotheses import (
    EmptyVersionSpaceError,
    Hypothesis,
    LabeledExample,
    MaskedVersionSpace,
    NestedClassSequence,
)
from .oracles import GammaOracle, OracleBundle, QueryLedger, event, sal_batch

__all__ = ["AlOutcome", "run_al", "run_alarch"]


@dataclass
class AlOutcome:
    """Return value of the inner agnostic loop.

    ``version_space`` is empty exactly when the class was rejected;
    on success it is the version space the winning epoch sampled against
    (not the post-update one), matching the guarantee it certifies.
    """

    version_space: MaskedVersionSpace
    hypothesis: Hypothesis
    hypothesis_index: int
    halting_epoch: int
    reason: str  # "early-reject" | "success"
    trace: list[SimpleNamespace] = field(default_factory=list)
    epoch_masks: list[np.ndarray] = field(default_factory=list)

    @property
    def rejected(self) -> bool:
        return self.reason == "early-reject"


def _epoch_cap(d: int, nu: float, epsilon: float, delta: float) -> int:
    """Defensive bound on the number of doubling epochs: the loop provably
    stops once sigma is small against max(epsilon, epsilon^2/nu)-type
    scales; the cap turns a logic bug into a loud failure, not a hang."""
    eps_eff = min(epsilon, epsilon * epsilon / (nu + epsilon))
    eps_eff = max(eps_eff, 1e-12)
    return int(math.ceil(math.log2(sample_size_cap(d, min(eps_eff, 0.999), delta)))) + 2


def run_al(
    h_class: MaskedVersionSpace,
    bundle: OracleBundle,
    gamma: GammaOracle,
    epsilon: float,
    delta: float,
) -> AlOutcome:
    """Inner agnostic loop over a finite hypothesis class.

    Epoch i draws 2^i points (LABEL inside DIS, inferred agreement labels
    outside), takes the empirical minimizer hhat_i over the pre-epoch
    version space, prunes to the Bernstein ball

        err(h) <= err(hhat_i) + 3 sqrt(err(hhat_i) s) + 4 s,
        s = sigma(d, 2^i, delta_i),  d = VC dimension of h_class,

    then rejects if err(hhat_i) > gamma + sqrt(gamma s) + s and succeeds
    if err(hhat_i) + sqrt(err(hhat_i) s) + s <= gamma + epsilon, where
    gamma is the oracle's bound for the pre-epoch version space.
    Empirical errors are exact integer counts over the 2^i sample.

    Each epoch appends one "al-epoch" record; its ``outcome`` is
    "continue", "early-reject" or "success". ``epoch_masks[j]`` is the
    survivor mask epoch j + 1 pruned to, so whether a given member
    survived an epoch can be read off it.
    """
    if h_class.is_empty():
        raise EmptyVersionSpaceError("input class must be nonempty")
    d = h_class.vc_dim
    cap = _epoch_cap(d, bundle.noise.nu, epsilon, delta)
    vs = h_class
    trace: list[SimpleNamespace] = []
    masks: list[np.ndarray] = []
    for i in range(1, cap + 1):
        m = 2**i
        batch, _ = sal_batch(vs, bundle, m)
        idx = vs.survivor_indices()
        whole = len(idx) == len(vs.cls)  # no gather while nothing is pruned
        counts = vs.cls.err_counts(batch.xs, batch.ys, None if whole else idx)
        best_local = int(np.argmin(counts))
        hhat_index = int(idx[best_local])
        b = counts[best_local] / m  # exact: power-of-two denominator
        gamma_prev = float(gamma(vs))
        s = sigma(d, m, delta_schedule(delta, i))
        ball = b + 3.0 * math.sqrt(b * s) + 4.0 * s
        keep = counts / m <= ball
        survivors = int(np.count_nonzero(keep))
        new_mask = np.zeros(len(vs.cls), dtype=bool)
        new_mask[idx] = keep
        row = event(
            "al-epoch", bundle.ledger, k=vs.k, i=i, empirical_error=b,
            gamma_prev=gamma_prev, sigma_value=s,
            survivors=survivors, outcome="continue",
        )
        trace.append(row)
        masks.append(new_mask)
        hhat = vs.cls.hypothesis(hhat_index)
        if b > gamma_prev + math.sqrt(gamma_prev * s) + s:
            row.outcome = "early-reject"
            empty = vs.replace_mask(np.zeros(len(vs.cls), dtype=bool))
            return AlOutcome(empty, hhat, hhat_index, i, "early-reject", trace, masks)
        if b + math.sqrt(b * s) + s <= gamma_prev + epsilon:
            row.outcome = "success"
            return AlOutcome(vs, hhat, hhat_index, i, "success", trace, masks)
        if survivors == 0:
            # cannot happen: the ball always contains the minimizer
            raise AssertionError("pruning emptied the version space")
        # new_mask lies inside vs.mask, so a prune that kept every survivor
        # left it unchanged: keep vs and the partition it has cached
        if survivors < len(idx):
            vs = vs.replace_mask(new_mask)
    raise RuntimeError(
        f"inner loop passed its defensive epoch cap ({cap}); "
        "check epsilon/delta/gamma consistency"
    )


def run_alarch(
    seq: NestedClassSequence,
    bundle: OracleBundle,
    gamma: GammaOracle,
    epsilon: float,
    delta: float,
) -> tuple[Hypothesis, QueryLedger, list[SimpleNamespace], list[AlOutcome]]:
    """Structural-risk walk over the nested classes with SEARCH probes.

    Round at class k runs the inner loop on H_k(S) with confidence
    delta/((k+1)(k+2)) (the schedule telescopes to delta over k >= 0;
    the k-th round's class index is unique per run since k strictly
    increases). Rejected class: k+1. Success: SEARCH the returned
    version space; None returns its hypothesis, a counterexample lands
    in S and k jumps to the next consistent class. Each round appends
    one "alarch-round" record; its ``search_result`` is "skipped" (after
    a rejection), "bot" or "counterexample".
    """
    if seq.backend != "enumerated":
        raise ValueError("the agnostic learners need the enumerated backend")
    s: list[LabeledExample] = []
    k = 0
    rounds: list[SimpleNamespace] = []
    outcomes: list[AlOutcome] = []
    while True:
        h_class = seq.least_consistent(s, k_lo=k)
        assert isinstance(h_class, MaskedVersionSpace)
        k = h_class.k
        delta_k = delta / ((k + 1) * (k + 2))
        outcome = run_al(h_class, bundle, gamma, epsilon, delta_k)
        outcomes.append(outcome)
        e, result = None, "skipped"
        if not outcome.rejected:
            e = bundle.search_query(outcome.version_space, k=k)
            result = "bot" if e is None else "counterexample"
        rounds.append(
            event(
                "alarch-round", bundle.ledger, k=k, al_reason=outcome.reason,
                al_epochs=outcome.halting_epoch, search_result=result,
            )
        )
        if e is not None:
            s.append(e)
        elif not outcome.rejected:
            return outcome.hypothesis, bundle.ledger, rounds, outcomes
        k += 1
