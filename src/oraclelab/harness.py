"""Experiment runner: configs, per-cell dispatch, CSV emission, the
brute-force validation suite, and query-complexity sweeps.

A run is a grid of (seed, epsilon) cells; each cell owns a fresh oracle
bundle, so cells are independent and reproducible in isolation. Output
rows reconcile exactly with the cell's ledger.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import statistics
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .agnostic import run_al, run_alarch
from .anytime import run_aalarch
from .bounds import sample_size_cap
from .hypotheses import (
    IntervalUnion,
    IntervalVersionSpace,
    MaskedVersionSpace,
    NestedClassSequence,
    Threshold,
    ThresholdVersionSpace,
    hypothesis_from_json,
    hypothesis_to_json,
    positive_segments,
    predict,
)
from .oracles import (SEARCH_POLICIES, ConstantGamma, NoiseModel,
                      OracleBundle, RcnGamma)
from .realizable import run_binary_search_demo, run_cal, run_larch, run_seabel

FAMILIES = ("intervals-exact", "intervals-enumerated", "thresholds-exact",
            "thresholds-grid")

# each algorithm and the families it runs on: the nested-class learners
# need a sequence (only the interval families define one), the agnostic
# and anytime learners an explicit finite class
INTERVALS = ("intervals-exact", "intervals-enumerated")
ALGORITHMS = {
    "binary-search-demo": FAMILIES, "cal": FAMILIES,
    "larch": INTERVALS, "seabel": INTERVALS,
    "al": ("intervals-enumerated", "thresholds-grid"),
    "alarch": ("intervals-enumerated",), "aalarch": ("intervals-enumerated",),
    "passive-baseline": FAMILIES,
}

GAMMAS = ("constant-nu", "rcn-exact", "zero")

CSV_SCHEMA_COMMENT = "# oraclelab results v1"
CSV_HEADER = (
    "config_hash,seed,epsilon,label_queries,search_queries,"
    "unlabeled_draws,cost,exact_error,iterations,wall_time"
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One experiment: an algorithm, a problem instance, and a cell grid.

    ``target`` uses the hypothesis JSON schema; the sentinel
    {"type": "auto-interval", "width_factor": w, "center": c} builds a
    per-epsilon interval of width w*epsilon around c, which is how the
    oracle-separation experiments tie the rare-class mass to the accuracy
    target. Enumerated families snap interval targets onto the class grid.
    """

    algorithm: str
    family: str = "intervals-exact"
    k_max: int = 2
    resolution: int = 21
    target: dict = field(default_factory=lambda: hypothesis_to_json(
        IntervalUnion(((0.3, 0.6),))
    ))
    seed_examples: list = field(default_factory=list)
    noise: dict = field(default_factory=lambda: {"kind": "realizable"})
    epsilons: list[float] = field(default_factory=lambda: [0.05])
    delta: float = 0.1
    tau: float = 1.0
    n_cap: int = 1000
    cost_cap: float = 1000.0
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    search_policy: str = "sweep"
    gamma: str = "constant-nu"
    validate_search: bool = False
    output: str | None = None

    def _check_types(self) -> None:
        def want(name: str, what: str, ok: bool) -> None:
            if not ok:
                got = getattr(self, name)
                raise ConfigError(f"{name} must be {what}, got {got!r}")

        def is_int(v) -> bool:
            return isinstance(v, numbers.Integral) and not isinstance(v, bool)

        def is_num(v) -> bool:
            return isinstance(v, numbers.Real) and not isinstance(v, bool)

        for name in ("algorithm", "family", "search_policy", "gamma"):
            want(name, "a string", isinstance(getattr(self, name), str))
        for name in ("k_max", "resolution", "n_cap"):
            want(name, "an integer", is_int(getattr(self, name)))
        for name in ("delta", "tau", "cost_cap"):
            want(name, "a number", is_num(getattr(self, name)))
        for name, ok, what in (
            ("epsilons", is_num, "numbers"),
            ("seeds", lambda v: is_int(v) and v >= 0, "integers >= 0"),
        ):
            v = getattr(self, name)
            want(name, f"a list of {what}",
                 isinstance(v, (list, tuple)) and all(ok(e) for e in v))
        for name in ("target", "noise"):
            want(name, "an object", isinstance(getattr(self, name), dict))
        want("seed_examples", "a list of [x, +1 or -1] pairs",
             isinstance(self.seed_examples, (list, tuple)) and all(
                 isinstance(e, (list, tuple)) and len(e) == 2
                 and is_num(e[0]) and e[1] in (1, -1)
                 for e in self.seed_examples))
        want("validate_search", "true or false",
             isinstance(self.validate_search, bool))
        want("output", "a path or null",
             self.output is None or isinstance(self.output, str))

    def validate(self) -> None:
        """ConfigError for any config a cell would fail on before its
        learner starts; builds each epsilon's target, noise and gamma."""
        self._check_types()
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; "
                f"pick one of {tuple(ALGORITHMS)}"
            )
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; pick one of {FAMILIES}"
            )
        if self.family not in ALGORITHMS[self.algorithm]:
            raise ConfigError(
                f"{self.algorithm} does not run on {self.family}; it runs on "
                f"{', '.join(ALGORITHMS[self.algorithm])}"
            )
        if self.gamma not in GAMMAS:
            raise ConfigError(f"unknown gamma oracle {self.gamma!r}")
        if self.search_policy not in SEARCH_POLICIES:
            raise ConfigError(f"unknown search policy {self.search_policy!r}")
        for eps in self.epsilons:
            if not 0.0 < eps < 1.0:
                raise ConfigError(f"epsilon {eps} outside (0,1)")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta {self.delta} outside (0,1)")
        if self.tau < 1.0:
            raise ConfigError(f"tau {self.tau} must be >= 1")
        if self.n_cap < 1:
            raise ConfigError(f"n_cap {self.n_cap} must be >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.k_max < 0 or self.resolution < 3:
            raise ConfigError("k_max must be >= 0 and resolution >= 3")
        try:
            noise = build_noise(self)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad noise spec {self.noise!r}: {e}") from None
        try:
            targets = [build_target(self, eps) for eps in self.epsilons]
        except KeyError as e:
            raise ConfigError(f"target {self.target!r} lacks {e}") from None
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad target {self.target!r}: {e}") from None
        if self.algorithm in ("al", "alarch"):
            build_gamma(self, noise)
        if self.algorithm == "binary-search-demo" and not all(
            isinstance(t, Threshold) for t in targets
        ):
            raise ConfigError("binary-search-demo needs a threshold target")
        if self.algorithm in ("larch", "seabel", "passive-baseline"):
            # these learners need a consistent hypothesis of at most
            # k_max intervals (a threshold is one)
            if noise.nu > 0.0:
                raise ConfigError(f"{self.algorithm} needs noise-free labels")
            most = max(len(positive_segments(t)) for t in targets)
            if most > self.k_max:
                raise ConfigError(
                    f"{self.algorithm} needs a target of at most k_max="
                    f"{self.k_max} intervals; the target has {most}"
                )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config field(s) {', '.join(unknown)}")
        try:
            cfg = cls(**raw)
        except TypeError as e:  # a required field is missing
            raise ConfigError(str(e)) from None
        cfg.validate()
        return cfg

    def config_hash(self) -> str:
        ident = asdict(self)
        ident.pop("output")  # where rows land is not part of the experiment
        return hashlib.sha1(
            json.dumps(ident, sort_keys=True).encode()
        ).hexdigest()[:12]


@dataclass
class ResultRow:
    config_hash: str
    seed: int
    epsilon: float
    label_queries: int
    search_queries: int
    unlabeled_draws: int
    cost: float
    exact_error: float
    iterations: int
    wall_time: float

    def to_csv(self, with_timing: bool = True) -> str:
        base = (
            f"{self.config_hash},{self.seed},{self.epsilon:.10g},"
            f"{self.label_queries},{self.search_queries},"
            f"{self.unlabeled_draws},{self.cost:.10g},"
            f"{self.exact_error:.10g},{self.iterations}"
        )
        return f"{base},{self.wall_time:.3f}" if with_timing else base


def rows_to_csv(rows: list[ResultRow], with_timing: bool = True) -> str:
    """CSV with a schema comment line. Every column except the trailing
    wall_time is a pure function of config and seeds; strip the timing
    column (``with_timing=False``) to compare runs bit-for-bit."""
    header = CSV_HEADER if with_timing else CSV_HEADER.rsplit(",", 1)[0]
    return "\n".join(
        [CSV_SCHEMA_COMMENT, header] + [r.to_csv(with_timing) for r in rows]
    )


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def _snap_to_grid(value: float, grid: np.ndarray) -> float:
    return float(grid[int(np.argmin(np.abs(grid - value)))])


def build_target(config: ExperimentConfig, epsilon: float):
    spec = config.target
    if spec["type"] == "auto-interval":
        w = spec.get("width_factor", 4.0) * epsilon
        c = spec.get("center", 0.5)
        return IntervalUnion(((max(0.0, c - w / 2), min(1.0, c + w / 2)),))
    h = hypothesis_from_json(spec)
    if config.family == "intervals-enumerated" and isinstance(h, IntervalUnion):
        grid = np.linspace(0.0, 1.0, config.resolution)
        h = IntervalUnion(
            tuple(
                (_snap_to_grid(lo, grid), _snap_to_grid(hi, grid))
                for lo, hi in h.intervals
            )
        )
    if config.family == "thresholds-grid" and isinstance(h, Threshold):
        grid = np.linspace(0.0, 1.0, config.resolution)
        h = Threshold(_snap_to_grid(h.w, grid))
    return h


def build_noise(config: ExperimentConfig) -> NoiseModel:
    spec = dict(config.noise)
    kind = spec.pop("kind", "realizable")
    if kind == "pointwise":
        spec["table"] = tuple(tuple(row) for row in spec.get("table", ()))
    return NoiseModel(kind, **spec)


def build_sequence(config: ExperimentConfig) -> NestedClassSequence:
    """The nested classes of an interval family (``ALGORITHMS``)."""
    if config.family == "intervals-exact":
        return NestedClassSequence.exact_intervals(config.k_max)
    return NestedClassSequence.enumerated_intervals(
        config.k_max, config.resolution
    )


def build_gamma(config: ExperimentConfig, noise: NoiseModel):
    if config.gamma == "zero":
        return ConstantGamma(0.0)
    if config.gamma == "constant-nu":
        return ConstantGamma(noise.nu)
    if noise.kind != "rcn":
        raise ConfigError("gamma 'rcn-exact' needs rcn noise")
    return RcnGamma(noise.eta)


def make_bundle(config: ExperimentConfig, target, seed: int) -> OracleBundle:
    return OracleBundle(
        target,
        build_noise(config),
        seed=seed,
        tau=config.tau,
        search_policy=config.search_policy,
        validate_search=config.validate_search,
    )


# ---------------------------------------------------------------------------
# Cell dispatch
# ---------------------------------------------------------------------------


def run_cell(config: ExperimentConfig, seed: int, epsilon: float) -> ResultRow:
    """One (seed, epsilon) cell: fresh bundle, one run, one row.

    ``iterations`` is the algorithm's own progress unit: SEARCH probes for
    the demo, epochs for the samplers, loop rounds for the nested-class
    learners, timeline rows for the anytime learner, draws for the passive
    baseline.
    """
    target = build_target(config, epsilon)
    bundle = make_bundle(config, target, seed)
    t0 = time.perf_counter()
    alg = config.algorithm
    if alg == "binary-search-demo":
        h, _ = run_binary_search_demo(bundle, epsilon)
        iterations = bundle.ledger.search_queries
    elif alg == "cal":
        v0 = _cal_start_space(config)
        res = run_cal(v0, bundle, epsilon, config.delta)
        iterations = res.epochs
        h = (
            res.final_version_space.canonical_member()
            if not res.empty
            else None
        )
    elif alg == "larch":
        h, _, trace = run_larch(build_sequence(config), bundle, epsilon,
                                config.delta)
        iterations = len(trace)
    elif alg == "seabel":
        h, _, trace = run_seabel(build_sequence(config), bundle, epsilon,
                                 config.delta)
        iterations = len(trace)
    elif alg == "al":
        out = run_al(_cal_start_space(config), bundle,
                     build_gamma(config, bundle.noise), epsilon, config.delta)
        h = out.hypothesis
        iterations = out.halting_epoch
    elif alg == "alarch":
        h, _, rounds, _ = run_alarch(
            build_sequence(config), bundle,
            build_gamma(config, bundle.noise), epsilon, config.delta,
        )
        iterations = len(rounds)
    elif alg == "aalarch":
        res = run_aalarch(
            build_sequence(config), bundle, config.delta, config.n_cap,
            config.cost_cap,
        )
        h = res.solution
        iterations = len(res.timeline)
    elif alg == "passive-baseline":
        h, iterations = _run_passive(config, bundle, epsilon)
    else:  # pragma: no cover - validate() guards this
        raise ConfigError(alg)
    wall = time.perf_counter() - t0
    err = bundle.exact_error(h) if h is not None else 1.0
    led = bundle.ledger
    return ResultRow(
        config.config_hash(), seed, epsilon, led.label_queries,
        led.search_queries, led.unlabeled_draws, led.cost, err, iterations,
        wall,
    )


def _cal_start_space(config: ExperimentConfig):
    """The family's top class narrowed by the seed examples: CAL's and
    the inner agnostic loop's input space."""
    seeds = [tuple(e) for e in config.seed_examples]
    if config.family == "thresholds-exact":
        return ThresholdVersionSpace.from_examples(seeds)
    if config.family == "intervals-exact":
        return IntervalVersionSpace(config.k_max, seeds)
    if config.family == "thresholds-grid":
        cls = NestedClassSequence.threshold_grid(config.resolution)
    else:
        cls = build_sequence(config).classes[config.k_max]
    return MaskedVersionSpace(cls).with_examples(seeds)


def _run_passive(config, bundle, epsilon) -> tuple:
    """Label every draw, keep the canonical minimal consistent hypothesis
    (one closed interval per maximal positive run), stop once its exact
    error reaches epsilon (the harness may consult the exact error; it is
    the simulation's measurement device)."""
    d = 2 * max(config.k_max, 1)
    cap = 4 * sample_size_cap(d, epsilon, config.delta)
    sx = np.empty(0)  # the sample so far, sorted by x
    sy = np.empty(0, dtype=np.int8)
    h = IntervalUnion(())
    steps = 0
    chunk = 64
    while bundle.exact_error(h) > epsilon and steps < cap:
        xs = bundle.draw(chunk)
        ys = bundle.label_query_batch(xs)
        steps += chunk
        # merge the sorted chunk in; new points go after equal old ones,
        # as a stable sort of the whole sample would put them
        order = np.argsort(xs, kind="stable")
        cx, cy = xs[order], ys[order]
        at = np.searchsorted(sx, cx, side="right")
        sx, sy = np.insert(sx, at, cx), np.insert(sy, at, cy)
        pos = sy == 1
        starts = pos & ~np.concatenate(([False], pos[:-1]))
        ends = pos & ~np.concatenate((pos[1:], [False]))
        intervals = tuple(
            (float(a), float(b))
            for a, b in zip(sx[starts], sx[ends])
        )
        if len(intervals) > config.k_max:
            raise RuntimeError("passive baseline needs realizable labels")
        h = IntervalUnion(intervals)
    return h, steps


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    config.validate()
    rows = [
        run_cell(config, seed, eps)
        for eps in config.epsilons
        for seed in config.seeds
    ]
    if config.output:
        path = Path(config.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rows_to_csv(rows) + "\n")
    return rows


# ---------------------------------------------------------------------------
# Query-complexity sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    epsilons: list[float]
    median_labels: list[float]
    median_searches: list[float]
    label_growth_per_decade: list[float]
    search_growth_per_decade: list[float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def sweep_query_complexity(config: ExperimentConfig) -> SweepReport:
    """Medians per epsilon plus decade-normalized growth ratios between
    consecutive epsilon values. Needs >= 3 epsilons spanning >= 2 decades."""
    eps = sorted(config.epsilons, reverse=True)
    if len(eps) < 3 or math.log10(eps[0] / eps[-1]) < 2.0 - 1e-9:
        raise ConfigError(
            "sweep needs at least 3 epsilons spanning at least two decades"
        )
    labels, searches = [], []
    for e in eps:
        cell_rows = [run_cell(config, s, e) for s in config.seeds]
        labels.append(statistics.median(r.label_queries for r in cell_rows))
        searches.append(statistics.median(r.search_queries for r in cell_rows))
    label_growth, search_growth = [], []
    for j in range(len(eps) - 1):
        decades = math.log10(eps[j] / eps[j + 1])
        label_growth.append(
            (labels[j + 1] / max(labels[j], 1.0)) ** (1.0 / decades)
        )
        search_growth.append(
            (searches[j + 1] / max(searches[j], 1.0)) ** (1.0 / decades)
        )
    return SweepReport(eps, labels, searches, label_growth, search_growth)


# ---------------------------------------------------------------------------
# Brute-force validation suite
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    instances: int
    checks: int
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def validate_against_bruteforce(
    instances: int = 1000,
    seed: int = 0,
    bundle_cls=OracleBundle,
) -> ValidationReport:
    """Random small instances, everything re-derived by definition.

    Per instance: a small endpoint grid, a nested enumerated sequence and
    its exact twin, a random on-grid constraint set, and a random target.
    Checks disagreement regions (masked backend against naive enumeration,
    exact backend against the masked one at cell midpoints), minimum
    consistent indices, ERM, version-space pruning (on the sample, and on
    error counts placed at the pruning radius), and SEARCH soundness plus
    grid completeness. Returns every mismatch found.
    """
    from .anytime import prune_version_space
    from .bounds import sigma as _sigma

    rng = np.random.default_rng(seed)
    # the radius cases draw from their own stream, so the other checks
    # see the same instances with or without them
    edge_rng = np.random.default_rng([seed, 1])
    mismatches: list[str] = []
    checks = 0
    for inst in range(instances):
        r = int(rng.integers(5, 10))
        k_max = int(rng.integers(1, 3))
        seq = NestedClassSequence.enumerated_intervals(k_max, resolution=r)
        exact = NestedClassSequence.exact_intervals(k_max)
        grid = seq.grid
        n_s = int(rng.integers(0, 5))
        xs = rng.choice(grid, size=min(n_s, r), replace=False)
        ys = rng.choice([-1, 1], size=len(xs))
        s = [(float(x), int(y)) for x, y in zip(xs, ys)]
        cls = seq.classes[k_max]
        preds_cache: dict = {}

        def pred_all(points, _cls=cls, _cache=preds_cache):
            key = tuple(points)
            if key not in _cache:
                _cache[key] = _cls.predictions(np.asarray(points))
            return _cache[key]

        mask = cls.consistent_mask(s)
        vs = MaskedVersionSpace(cls, mask)

        # minimum consistent index, both backends vs direct scan
        want = next(
            (
                k
                for k in range(k_max + 1)
                if seq.classes[k].consistent_mask(s).any()
            ),
            None,
        )
        for backend, sq in (("enum", seq), ("exact", exact)):
            try:
                got = sq.min_consistent_index(s)
            except Exception:
                got = None
            checks += 1
            if got != want:
                mismatches.append(
                    f"[{inst}] min_consistent_index {backend}: {got} != {want}"
                )

        if not mask.any():
            continue

        # disagreement region of the masked backend vs naive enumeration
        mids = 0.5 * (grid[:-1] + grid[1:])
        eval_pts = np.concatenate([grid, mids])
        preds = pred_all(eval_pts)[mask]
        naive_dis = preds.any(axis=0) & ~preds.all(axis=0)
        checks += 1
        got_dis = np.array([vs.dis_contains(float(x)) for x in eval_pts])
        if not np.array_equal(naive_dis, got_dis):
            mismatches.append(f"[{inst}] masked dis_contains != enumeration")
        region = vs.dis_region()
        mass_naive = float(np.mean(naive_dis[len(grid):]))
        checks += 1
        if abs(region.mass - mass_naive) > 1e-9:
            mismatches.append(
                f"[{inst}] dis mass {region.mass} vs naive {mass_naive}"
            )

        # The grid survivors are a subset of the continuum ones, so the
        # masked disagreement region must sit inside the exact one; the
        # other direction holds up to one grid cell around exact-region
        # endpoints (degenerate survivor sets shrink the grid region).
        evs = exact.version_space(k_max, s)
        checks += 1
        cell = 1.0 / (r - 1)
        if evs.is_empty():
            mismatches.append(f"[{inst}] exact empty but masked nonempty")
        else:
            exact_ends = [v for seg in evs.dis_region().segments for v in seg]
            for x, want_d in zip(mids, naive_dis[len(grid):]):
                exact_d = evs.dis_contains(float(x))
                if bool(want_d) and not exact_d:
                    mismatches.append(
                        f"[{inst}] masked DIS escapes the exact one at {x}"
                    )
                    break
                if exact_d and not bool(want_d):
                    near = exact_ends and min(
                        abs(x - v) for v in exact_ends
                    ) <= cell + 1e-12
                    if not near:
                        mismatches.append(
                            f"[{inst}] exact DIS at {x} unmatched beyond "
                            "one grid cell"
                        )
                        break

        # ERM against a scalar-path exhaustive scan on sampled survivors
        m = int(rng.integers(1, 24))
        sx = rng.random(m)
        sy = rng.choice([-1, 1], size=m)
        sample = list(zip(sx.tolist(), sy.tolist()))
        idx, errs = vs.erm_index(sample)
        surv = vs.survivor_indices()
        probe = np.unique(
            np.concatenate(
                [[idx], rng.choice(surv, size=min(60, len(surv)), replace=False)]
            )
        )
        checks += 1
        scalar_errs = {
            int(j): sum(
                1 for x, y in sample if predict(cls.hypothesis(int(j)), x) != y
            )
            for j in probe
        }
        if scalar_errs[idx] != errs or any(
            c < errs or (c == errs and j < idx)
            for j, c in scalar_errs.items()
        ):
            mismatches.append(f"[{inst}] erm not the lowest-index minimizer")

        # pruning against its definition, counts re-derived independently
        delta = 0.1
        pruned = prune_version_space(cls.err_counts(sx, sy), vs, m, delta, 1)
        counts = (pred_all(sx)[surv] != (sy[None, :] == 1)).sum(axis=1)
        b = counts.min() / m
        # one iteration (i = 1) and class k: delta / (1*2) / ((k+1)(k+2))
        sg = _sigma(cls.vc_dim, m, delta / 2 / ((cls.k + 1) * (cls.k + 2)))
        want_mask = np.zeros(len(cls), dtype=bool)
        want_mask[surv] = counts / m <= b + 2.0 * math.sqrt(b * sg) + 3.0 * sg
        checks += 1
        if not np.array_equal(pruned.mask, want_mask):
            mismatches.append(f"[{inst}] pruned mask deviates from definition")

        # pruning at its radius: one member's count sits on floor(n radius),
        # one a count past it; n is large enough that moving any constant
        # of the radius by 0.1 moves that floor by at least one count
        n = int(edge_rng.integers(4000, 20000))
        low, on, past = edge_rng.choice(len(cls), size=3, replace=False)
        least = int(edge_rng.integers(n // 20, n // 4))
        b = least / n
        sg = _sigma(cls.vc_dim, n, delta / 2 / ((cls.k + 1) * (cls.k + 2)))
        radius = b + 2.0 * math.sqrt(b * sg) + 3.0 * sg
        edge = math.floor(n * radius)
        counts = np.full(len(cls), n)
        counts[[low, on, past]] = least, edge, edge + 1
        pruned = prune_version_space(counts, MaskedVersionSpace(cls), n, delta, 1)
        checks += 1
        if not np.array_equal(pruned.mask, counts / n <= radius):
            mismatches.append(f"[{inst}] pruning radius deviates at n={n}")

        # SEARCH soundness and grid completeness
        t_idx = int(rng.integers(len(cls)))
        target = cls.hypothesis(t_idx)
        bundle = bundle_cls(target, seed=int(rng.integers(2**31)))
        e = bundle.search_query(vs, k=k_max)
        star = pred_all(eval_pts)[t_idx]
        surv = pred_all(eval_pts)[mask]
        all_err = (surv != star[None, :]).all(axis=0)
        checks += 1
        if e is None:
            if all_err.any():
                mismatches.append(
                    f"[{inst}] search returned bot, counterexample exists"
                )
        else:
            ok_label = e.y == predict(target, e.x)
            member_preds = pred_all(np.array([e.x]))[mask][:, 0]
            wrong_all = bool(
                (np.where(member_preds, 1, -1) != e.y).all()
            )
            if not (ok_label and wrong_all):
                mismatches.append(f"[{inst}] search returned unsound example")
    return ValidationReport(instances, checks, mismatches)
