"""LABEL and SEARCH oracles, noise models, gamma oracles, and the
selective-sampling step.

An ``OracleBundle`` owns the hidden target, the noise model, one child RNG
per randomness consumer (unlabeled sampler, label noise, shadow labels,
search policy), and a mutable ``QueryLedger``. A bundle is single-owner
state: one run per bundle, never shared.

SEARCH semantics: given a version space V inside some class, return an
example (x, h*(x)) on which *every* member of V errs, or None when no such
point exists. The returned label is always the target's, noise-free. For
an empty V the oracle must still return an example; it returns the first
sweep candidate. The choice among valid counterexamples is a policy:

* ``sweep`` (default) — ascending deterministic scan over the breakpoints
  of V, the target's interval endpoints, the midpoints they induce, and a
  uniform fallback grid; first valid point wins.
* ``uniform-random-valid`` — uniformly random valid candidate.
* ``adversarial-boundary`` — the valid candidate nearest the boundary of
  the disagreement region (least informative counterexamples).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .hypotheses import (
    Hypothesis,
    LabeledExample,
    Partition,
    VersionSpace,
    ball_radius_pair_distance,
    intersect_segments,
    positive_segments,
    predict,
    predict_batch,
    segments_mass,
    symmetric_difference_segments,
)

SEARCH_POLICIES = ("sweep", "uniform-random-valid", "adversarial-boundary")

_FALLBACK_GRID = np.linspace(0.0, 1.0, 129)


class SearchSoundnessError(AssertionError):
    """A SEARCH result failed the definitional check (validation mode)."""


@dataclass(frozen=True)
class NoiseModel:
    """Conditional label noise on top of the hidden target.

    kind: ``realizable`` (labels are exactly h*), ``rcn`` (each label
    flipped independently with probability eta), or ``pointwise`` (a step
    function of flip probabilities given as (lo, hi, p) pieces covering
    [0,1]).
    """

    kind: str = "realizable"
    eta: float = 0.0
    table: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("realizable", "rcn", "pointwise"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "rcn" and not 0.0 <= self.eta < 0.5:
            raise ValueError(f"rcn noise rate must lie in [0, 1/2), got {self.eta}")
        if self.kind == "pointwise":
            _check_noise_table(self.table)

    @property
    def nu(self) -> float:
        """err(h*) implied by the model (uniform instance distribution)."""
        if self.kind == "realizable":
            return 0.0
        if self.kind == "rcn":
            return self.eta
        return float(sum(p * (hi - lo) for lo, hi, p in self.table))

    def flip_probs(self, xs: np.ndarray) -> np.ndarray:
        if self.kind == "realizable":
            return np.zeros(len(xs))
        if self.kind == "rcn":
            return np.full(len(xs), self.eta)
        out = np.zeros(len(xs))
        for lo, hi, p in self.table:
            out[(xs >= lo) & (xs <= hi)] = p
        return out


def _check_noise_table(table) -> None:
    """A pointwise table must tile [0,1] with pieces (lo, hi, p), lo < hi,
    each piece starting where the previous one ends, and p in [0, 1/2)."""
    if not table:
        raise ValueError("pointwise noise needs a flip-probability table")
    end = 0.0
    for lo, hi, p in sorted(table):
        if lo != end:
            raise ValueError(
                f"noise table pieces must tile [0,1]: piece ({lo}, {hi}) "
                f"starts at {lo}, the previous one ends at {end}"
            )
        if not lo < hi:
            raise ValueError(f"noise table piece ({lo}, {hi}) is empty")
        if not 0.0 <= p < 0.5:
            raise ValueError(f"flip probability {p} outside [0, 1/2)")
        end = hi
    if end != 1.0:
        raise ValueError(f"noise table covers [0, {end}], not [0, 1]")


@dataclass
class QueryLedger:
    """Monotone counters plus the tau-weighted cost of a run."""

    label_queries: int = 0
    search_queries: int = 0
    unlabeled_draws: int = 0
    tau: float = 1.0

    @property
    def cost(self) -> float:
        return self.label_queries + self.tau * self.search_queries

    def snapshot(self) -> dict:
        return {
            "label_queries": self.label_queries,
            "search_queries": self.search_queries,
            "unlabeled_draws": self.unlabeled_draws,
            "cost": self.cost,
        }


def event(kind: str, ledger: QueryLedger, **fields) -> SimpleNamespace:
    """The one record every trace, timeline and transcript holds: its
    kind as ``event``, the ledger at that moment, and the kind's own
    fields, all flat attributes."""
    return SimpleNamespace(event=kind, ledger=ledger.snapshot(), **fields)


def events_to_jsonl(events: Iterable[SimpleNamespace]) -> str:
    """One JSON object per record and line, keys sorted."""
    return "\n".join(json.dumps(vars(e), sort_keys=True) for e in events)


class DrawnExample(NamedTuple):
    """One selective-sampling record.

    ``queried`` says whether the label came from LABEL (True) or was
    inferred from version-space agreement. ``shadow_y`` is what LABEL
    *would* have returned, drawn from an independent child stream for
    inferred points and equal to y for queried ones; it exists so the
    favorable-bias diagnostic has a well-defined fully-queried twin of
    the dataset, and costs nothing on the ledger.
    """

    x: float
    y: int
    queried: bool
    shadow_y: int


class SalBatch:
    """n selective-sampling records as columns, one entry per draw in
    draw order; the fields mean what ``DrawnExample``'s do.

    ``queried_ys`` holds the LABEL answers at ``xs[queried]``. ``ys``,
    every draw's label with the inferred ones filled in from the
    partition the batch was drawn against, is built the first time it is
    read and then kept: CAL reads only the answers and never builds it,
    SEABEL and the inner agnostic loop read it, and AA-LARCH takes the
    inferred labels from its ``peek_sal``. Shadow labels are not drawn:
    their one reader, AA-LARCH, draws them itself."""

    def __init__(self, xs: np.ndarray, queried: np.ndarray,
                 queried_ys: np.ndarray, partition: Partition):
        self.xs, self.queried, self.queried_ys = xs, queried, queried_ys
        self._partition = partition
        self._ys: np.ndarray | None = None

    @property
    def ys(self) -> np.ndarray:
        if self._ys is None:
            ys = self._partition.classify(self.xs)[1]
            ys[self.queried] = self.queried_ys
            self._ys = ys
        return self._ys

    def __len__(self) -> int:
        return len(self.xs)


class OracleBundle:
    """Hidden target + noise + seeded streams + ledger, single-owner."""

    def __init__(
        self,
        target: Hypothesis,
        noise: NoiseModel | None = None,
        seed: int = 0,
        tau: float = 1.0,
        search_policy: str = "sweep",
        validate_search: bool = False,
        transcript: list | None = None,
    ):
        if search_policy not in SEARCH_POLICIES:
            raise ValueError(f"unknown search policy {search_policy!r}")
        self.target = target
        self.noise = noise or NoiseModel()
        self.search_policy = search_policy
        self.validate_search = validate_search
        self.transcript = transcript
        self.ledger = QueryLedger(tau=tau)
        self._none_for: VersionSpace | None = None
        ss = np.random.SeedSequence(seed)
        kids = ss.spawn(4)
        self._sampler_rng = np.random.default_rng(kids[0])
        self._noise_rng = np.random.default_rng(kids[1])
        self._shadow_rng = np.random.default_rng(kids[2])
        self._policy_rng = np.random.default_rng(kids[3])

    # -- unlabeled sampler -------------------------------------------------

    def draw(self, n: int = 1) -> np.ndarray:
        xs = self._sampler_rng.random(n)
        self.ledger.unlabeled_draws += n
        self._log("draw", {"n": n}, None)
        return xs

    # -- LABEL ---------------------------------------------------------------

    def true_labels(self, xs: np.ndarray) -> np.ndarray:
        return predict_batch(self.target, xs)

    def label_query(self, x: float) -> int:
        return int(self.label_query_batch(np.array([x]))[0])

    def label_query_batch(self, xs: np.ndarray) -> np.ndarray:
        """Noisy labels; one fresh conditional draw per call and point."""
        ys = self._noisy_labels(xs, self._noise_rng)
        self.ledger.label_queries += len(ys)
        self._log("label", {"n": len(ys)}, None)
        return ys

    def shadow_labels(self, xs: np.ndarray) -> np.ndarray:
        """Off-ledger iid relabeling used for inferred points only."""
        return self._noisy_labels(xs, self._shadow_rng)

    def _noisy_labels(self, xs, rng: np.random.Generator) -> np.ndarray:
        """Target labels at xs, each flipped with the noise model's
        probability there by one draw from ``rng``."""
        xs = np.asarray(xs, dtype=np.float64)
        clean = self.true_labels(xs)
        if self.noise.kind == "realizable":
            return clean
        flips = rng.random(len(xs)) < self.noise.flip_probs(xs)
        return np.where(flips, -clean, clean).astype(np.int8)

    def peek_sal(
        self, vs: VersionSpace, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(xs, ys, queried) of the next n selective-sampling steps
        against vs: the columns of ``sal_batch(vs, self, n)``. Its one
        caller, AA-LARCH, keeps every label of the steps it commits, so
        the peek classifies every draw. The ledger, the transcript and
        every stream are left as they were: the sampler and noise streams
        are restored after the read-ahead. A ``Generator.random(n)`` call
        yields what n one-point calls would, so any prefix of the peek is
        what a shorter batch draws."""
        gens = (self._sampler_rng.bit_generator, self._noise_rng.bit_generator)
        saved = [g.state for g in gens]
        try:
            xs = self._sampler_rng.random(n)
            queried, ys = vs.partition().classify(xs)
            if queried.any():
                ys[queried] = self._noisy_labels(xs[queried], self._noise_rng)
        finally:
            for g, state in zip(gens, saved):
                g.state = state
        return xs, ys, queried

    # -- exact evaluation (simulation plumbing, not visible to algorithms) --

    def exact_error(self, h: Hypothesis) -> float:
        """err(h) under the bundle's noise, by exact interval measure.

        Under pointwise noise h errs with probability p off the region
        where it differs from the target and 1 - p on it, so each table
        piece adds p |piece minus diff| + (1 - p) |piece and diff|."""
        if self.noise.kind == "pointwise":
            diff = symmetric_difference_segments(h, self.target)
            err = 0.0
            for lo, hi, p in sorted(self.noise.table):
                inside = segments_mass(intersect_segments([(lo, hi)], diff))
                err += p * (hi - lo - inside) + (1.0 - p) * inside
            return err
        delta_mass = ball_radius_pair_distance(h, self.target)
        if self.noise.kind == "realizable":
            return delta_mass
        eta = self.noise.eta
        return eta + (1.0 - 2.0 * eta) * delta_mass

    # -- SEARCH ----------------------------------------------------------------

    def search_query(
        self, vs: VersionSpace, k: int | None = None
    ) -> LabeledExample | None:
        """One charged SEARCH on vs. A None answer depends on vs and the
        target alone and draws nothing from the policy stream, and a
        version space is never mutated, so a repeat SEARCH on the object
        the last None answer was for answers None without ``_search``; it
        is still charged, logged and, under ``validate_search``, checked."""
        self.ledger.search_queries += 1
        result = None if vs is self._none_for else self._search(vs)
        if result is None:
            self._none_for = vs
        if self.validate_search:
            self._check_search(vs, result)
        self._log(
            "search",
            {"k": k},
            None if result is None else {"x": result.x, "y": result.y},
        )
        return result

    def _candidates(self, vs: VersionSpace) -> np.ndarray:
        pts = [np.array([0.0, 1.0]), _FALLBACK_GRID]
        for lo, hi in positive_segments(self.target):
            pts.append(np.array([lo, hi]))
        if not vs.is_empty():
            pts.append(vs.partition().breaks)
        base = np.unique(np.concatenate(pts))
        mids = 0.5 * (base[:-1] + base[1:])
        return np.unique(np.concatenate([base, mids]))

    def _search(self, vs: VersionSpace) -> LabeledExample | None:
        cands = self._candidates(vs)
        if vs.is_empty():
            # the oracle must still produce an example; first sweep point
            x = float(cands[0])
            return LabeledExample(x, predict(self.target, x))
        in_dis, labels = vs.partition().classify(cands)
        target_labels = self.true_labels(cands)
        valid = (~in_dis) & (labels != target_labels)
        if not valid.any():
            return None
        idx = np.nonzero(valid)[0]
        if self.search_policy == "sweep":
            pick = idx[0]
        elif self.search_policy == "uniform-random-valid":
            pick = idx[self._policy_rng.integers(len(idx))]
        else:  # adversarial-boundary
            region = vs.dis_region()
            if not region.segments:
                pick = idx[0]
            else:
                ends = np.array(
                    [v for seg in region.segments for v in seg], dtype=np.float64
                )
                dist = np.min(
                    np.abs(cands[idx][:, None] - ends[None, :]), axis=1
                )
                pick = idx[int(np.argmin(dist))]
        x = float(cands[pick])
        return LabeledExample(x, int(target_labels[pick]))

    def _check_search(
        self, vs: VersionSpace, result: LabeledExample | None
    ) -> None:
        """Definitional soundness: a returned (x,y) has y = h*(x) and every
        member of V wrong at x; None requires no candidate to be valid.
        The verdicts come from the version space's own rule
        (``_verdicts``, which ``dis_contains``/``agreement_label`` read
        one point at a time), not from ``_search``'s partition lookups."""
        if result is not None:
            x, y = result
            if y != predict(self.target, x):
                raise SearchSoundnessError(f"label {y} != target label at {x}")
            if not vs.is_empty():
                if vs.dis_contains(x):
                    raise SearchSoundnessError(f"{x} is in DIS, not systematic")
                if vs.agreement_label(x) == y:
                    raise SearchSoundnessError(f"members agree with target at {x}")
            return
        if vs.is_empty():
            raise SearchSoundnessError("empty version space must yield an example")
        cands = self._candidates(vs)
        dis, labels = vs._verdicts(cands)
        valid = np.flatnonzero(~dis & (labels != self.true_labels(cands)))
        if len(valid):
            raise SearchSoundnessError(
                f"returned None but {float(cands[valid[0]])} is a valid "
                "counterexample"
            )

    # -- transcript -----------------------------------------------------------

    def _log(self, kind: str, inp: dict, out: dict | None) -> None:
        if self.transcript is not None:
            self.transcript.append(
                event(kind, self.ledger, input=inp, output=out)
            )


# ---------------------------------------------------------------------------
# gamma oracles: upper bounds on Pr[h*(x) != y, x in DIS(V)]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantGamma:
    """Always returns nu, an upper bound on err(h*); valid for every V by
    the law of total probability."""

    nu: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.nu < 1.0:
            raise ValueError(f"nu must lie in [0,1), got {self.nu}")

    def __call__(self, vs: VersionSpace) -> float:
        return self.nu


@dataclass(frozen=True)
class RcnGamma:
    """Under random classification noise at rate <= eta_bar, the target's
    error inside DIS(V) is exactly eta * Pr[x in DIS(V)], so
    eta_bar * dis_mass(V) is a valid (and usually much tighter) bound."""

    eta_bar: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta_bar < 0.5:
            raise ValueError(f"eta_bar must lie in [0, 1/2), got {self.eta_bar}")

    def __call__(self, vs: VersionSpace) -> float:
        return self.eta_bar * vs.dis_region().mass


GammaOracle = Callable[[VersionSpace], float]


# ---------------------------------------------------------------------------
# Selective sampling (single step and fixed-version-space batch)
# ---------------------------------------------------------------------------


def sal_step(
    vs: VersionSpace,
    bundle: OracleBundle,
    labeled: list[DrawnExample],
    counter: int,
) -> tuple[list[DrawnExample], int]:
    """Draw one x; query LABEL inside DIS(V), infer the agreement label
    outside. Appends the record to ``labeled`` in place and returns that
    same list with the updated query counter. No learner calls it: AA-LARCH
    commits its steps through ``sal_batch``, and the tests keep the
    per-step loop on it as a reference."""
    x = float(bundle.draw(1)[0])
    if vs.dis_contains(x):
        y = bundle.label_query(x)
        rec = DrawnExample(x, int(y), True, int(y))
        counter += 1
    else:
        y = vs.agreement_label(x)
        shadow = int(bundle.shadow_labels(np.array([x]))[0])
        rec = DrawnExample(x, int(y), False, shadow)
    labeled.append(rec)
    return labeled, counter


def sal_batch(
    vs: VersionSpace, bundle: OracleBundle, n: int
) -> tuple[SalBatch, int]:
    """n selective-sampling steps against a fixed version space. One draw
    call, then LABEL on the DIS points: the sampler and noise streams
    yield what n ``sal_step`` calls would get. DIS membership comes from
    ``Partition.in_dis``, and nothing is classified until the batch's
    ``ys`` is read: CAL takes only the LABEL answers (``queried_ys``),
    while SEABEL and the inner agnostic loop read ``ys``."""
    xs = bundle.draw(n)
    partition = vs.partition()
    queried = partition.in_dis(xs)
    n_queried = int(np.count_nonzero(queried))
    if n_queried:
        answers = bundle.label_query_batch(xs[queried])
    else:
        answers = np.empty(0, dtype=np.int8)
    return SalBatch(xs, queried, answers, partition), n_queried
