"""Simulation lab for active learning with LABEL and SEARCH oracles over
nested hypothesis classes on [0,1]."""

from .bounds import (
    bernstein_upper,
    delta_schedule,
    freedman_count_bound,
    phi,
    sample_size_cap,
    sigma,
    sigma_k,
)
from .hypotheses import (
    ALWAYS_NEGATIVE,
    IntervalUnion,
    IntervalVersionSpace,
    LabeledExample,
    MaskedVersionSpace,
    NestedClassSequence,
    Threshold,
    ThresholdVersionSpace,
    ball_radius_pair_distance,
    disagreement_coefficient_estimate,
    predict,
)
from .oracles import ConstantGamma, NoiseModel, OracleBundle, RcnGamma
from .realizable import run_binary_search_demo, run_cal, run_larch, run_seabel
from .agnostic import run_al, run_alarch
from .anytime import (
    error_check,
    prune_version_space,
    run_aalarch,
    upgrade_version_space,
)
from .harness import (
    ExperimentConfig,
    run_experiment,
    sweep_query_complexity,
    validate_against_bruteforce,
)

__version__ = "0.1.0"
