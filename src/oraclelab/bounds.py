"""Closed-form deviation bounds and confidence-splitting schedules.

Every quantity here is a pure function of its arguments: the VC-style
sample-complexity term ``phi``, its failure-probability-split variant
``sigma``, the per-class variant ``sigma_k``, inverted Bernstein and
Freedman tail bounds, and the telescoping delta schedules used to spread
a global failure probability over iterations and class indices.

All logarithms are natural.
"""

from __future__ import annotations

import math

__all__ = [
    "phi",
    "sigma",
    "sigma_k",
    "sample_size_cap",
    "bernstein_upper",
    "freedman_count_bound",
    "delta_schedule",
]


def phi(d: int, m: int, delta: float) -> float:
    """(1/m)(d ln(e m^2) + ln(2/delta)).

    delta > 1 is tolerated so the raw formula can be unit-tested at
    degenerate points such as delta = 2 where the log term vanishes.
    """
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m}")
    if d < 0:
        raise ValueError(f"VC dimension must be >= 0, got {d}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return (d * math.log(math.e * m * m) + math.log(2.0 / delta)) / m


def sigma(d: int, m: int, delta: float) -> float:
    """phi with a three-way split of the failure probability."""
    return phi(d, m, delta / 3.0)


def sigma_k(k: int, m: int, delta: float, class_dims: dict[int, int]) -> float:
    """sigma evaluated at the VC dimension of class k."""
    if k not in class_dims:
        raise KeyError(f"unknown class index {k}; known: {sorted(class_dims)}")
    return sigma(class_dims[k], m, delta)


def sample_size_cap(d: int, epsilon: float, delta: float) -> int:
    """Hard upper bound on any sample size m whose scheduled sigma still
    exceeds epsilon: ceil((64/eps)(d ln(512/eps) + ln(24/delta))).

    Used to size loops, hence ceiled to an integer.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if d < 0:
        raise ValueError(f"VC dimension must be >= 0, got {d}")
    raw = (64.0 / epsilon) * (d * math.log(512.0 / epsilon) + math.log(24.0 / delta))
    return int(math.ceil(raw))


def bernstein_upper(p: float, n: int, delta: float) -> float:
    """Upper confidence limit for the mean of n iid Bernoulli(p) draws:
    p + sqrt(2 p ln(1/delta) / n) + 2 ln(1/delta) / (3n).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    log_term = math.log(1.0 / delta)
    return p + math.sqrt(2.0 * p * log_term / n) + 2.0 * log_term / (3.0 * n)


def freedman_count_bound(v_n: float, n: int, delta: float) -> float:
    """Upper confidence limit on a sum of conditionally-Bernoulli counts:
    2 v_n + sqrt(4 v_n ln(ln(4n)/delta)) + (2/3) ln(ln(4n)/delta),
    where the caller has already applied v_n = max(sum p_i, 1).
    """
    if v_n < 1.0:
        raise ValueError(f"v_n must be >= 1 (caller applies the max), got {v_n}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    log_term = math.log(math.log(4.0 * n) / delta)
    return 2.0 * v_n + math.sqrt(4.0 * v_n * log_term) + 2.0 * log_term / 3.0


def delta_schedule(delta: float, i: int, k: int | None = None) -> float:
    """Per-iteration split delta_i = delta/(i(i+1)); with a class index,
    the further split delta_{i,k} = delta_i/((k+1)(k+2)).

    Both telescope: sum_i delta_i = delta and sum_k delta_{i,k} = delta_i.
    """
    if i < 1:
        raise ValueError(f"iteration index must be >= 1, got {i}")
    d_i = delta / (i * (i + 1))
    if k is None:
        return d_i
    if k < 0:
        raise ValueError(f"class index must be >= 0, got {k}")
    return d_i / ((k + 1) * (k + 2))
