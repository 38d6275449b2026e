"""Bounds module: frozen closed-form values and structural properties.

Expected values were computed independently with mpmath at 40 decimal
digits from the defining expressions, then frozen here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclelab.bounds import (
    bernstein_upper,
    delta_schedule,
    freedman_count_bound,
    phi,
    sample_size_cap,
    sigma,
    sigma_k,
)


class TestPhi:
    def test_unit_point(self):
        # ln(e*1) = 1 and ln(2/2) = 0
        assert phi(1, 1, 2) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_values(self):
        assert phi(2, 4, 2) == pytest.approx(1.88629436112, rel=1e-9)
        assert phi(0, 10, 0.1) == pytest.approx(0.299573227355, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            phi(1, 0, 0.5)
        with pytest.raises(ValueError):
            phi(1, 4, 0.0)
        with pytest.raises(ValueError):
            phi(-1, 4, 0.5)

    @given(
        d=st.integers(0, 20),
        delta=st.floats(1e-6, 0.999),
        m=st.integers(2, 10**6),
    )
    @settings(max_examples=200)
    def test_decreasing_in_m(self, d, delta, m):
        assert phi(d, m + 1, delta) < phi(d, m, delta)

    @given(
        d=st.integers(0, 20),
        delta=st.floats(1e-6, 0.999),
        m=st.integers(1, 10**6),
    )
    @settings(max_examples=200)
    def test_increasing_in_d(self, d, delta, m):
        assert phi(d + 1, m, delta) > phi(d, m, delta)


class TestSigma:
    def test_reduces_to_phi_with_third_delta(self):
        assert sigma(1, 1, 6) == pytest.approx(1.0, rel=1e-12)
        for d, m, delta in [(0, 7, 0.3), (3, 129, 0.05), (5, 2, 0.9)]:
            assert sigma(d, m, delta) == phi(d, m, delta / 3)

    def test_frozen_value(self):
        # (1/2)(ln(4e) + ln 20); the formula's own arithmetic, mpmath-checked
        assert sigma(1, 2, 0.3) == pytest.approx(2.69101331734, rel=1e-9)

    @given(
        d=st.integers(0, 15),
        m=st.integers(1, 10**5),
        delta=st.floats(1e-6, 0.999),
    )
    @settings(max_examples=200)
    def test_dominates_phi(self, d, m, delta):
        assert sigma(d, m, delta) >= phi(d, m, delta)


class TestSigmaK:
    DIMS = {0: 0, 1: 2, 2: 4, 3: 6}

    def test_frozen_values(self):
        assert sigma_k(0, 10, 0.3, {0: 0}) == pytest.approx(0.299573227355, rel=1e-9)
        assert sigma_k(1, 1, 6, {1: 2}) == pytest.approx(2.0, rel=1e-12)

    def test_unknown_index(self):
        with pytest.raises(KeyError):
            sigma_k(5, 10, 0.3, self.DIMS)

    def test_monotone_in_k(self):
        vals = [sigma_k(k, 64, 0.2, self.DIMS) for k in sorted(self.DIMS)]
        assert vals == sorted(vals)


class TestSampleSizeCap:
    def test_frozen_values(self):
        assert sample_size_cap(0, 0.5, 0.5) == 496
        assert sample_size_cap(1, 0.5, 0.5) == 1383

    def test_nonincreasing_in_epsilon(self):
        eps_grid = np.linspace(0.01, 0.99, 50)
        caps = [sample_size_cap(2, e, 0.1) for e in eps_grid]
        assert all(a >= b for a, b in zip(caps, caps[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_size_cap(1, 1.5, 0.5)
        with pytest.raises(ValueError):
            sample_size_cap(1, 0.5, 0.0)


class TestBernsteinUpper:
    def test_frozen_values(self):
        assert bernstein_upper(0.0, 3, math.exp(-1)) == pytest.approx(2 / 9, rel=1e-12)
        assert bernstein_upper(0.5, 8, math.exp(-1)) == pytest.approx(
            0.936886723927, rel=1e-9
        )

    @given(
        p=st.floats(0, 1),
        n=st.integers(1, 10**6),
        delta=st.floats(1e-9, 0.999),
    )
    @settings(max_examples=300)
    def test_dominates_mean(self, p, n, delta):
        assert bernstein_upper(p, n, delta) >= p


class TestFreedmanCountBound:
    def test_frozen_value(self):
        # delta chosen so the log term is exactly 1: 2 + 2 + 2/3
        assert freedman_count_bound(1.0, 1, math.log(4) / math.e) == pytest.approx(
            14 / 3, rel=1e-12
        )

    @given(
        v=st.floats(1, 1e6),
        n=st.integers(1, 10**6),
        delta=st.floats(1e-9, 0.3),
    )
    @settings(max_examples=300)
    def test_dominates_twice_variance(self, v, n, delta):
        assert freedman_count_bound(v, n, delta) >= 2 * v

    def test_monotone_in_v(self):
        vals = [freedman_count_bound(v, 100, 0.05) for v in (1, 2, 5, 17, 400)]
        assert vals == sorted(vals)

    def test_rejects_small_variance(self):
        with pytest.raises(ValueError):
            freedman_count_bound(0.5, 10, 0.1)


class TestDeltaSchedule:
    def test_frozen_values(self):
        assert delta_schedule(0.12, 3) == pytest.approx(0.01, rel=1e-12)
        assert delta_schedule(0.12, 3, 1) == pytest.approx(0.0016666666667, rel=1e-9)

    def test_telescoping_iterations(self):
        delta = 0.37
        i = np.arange(1, 10**6 + 1, dtype=np.float64)
        total = float(np.sum(delta / (i * (i + 1))))
        assert total <= delta
        assert total == pytest.approx(delta, rel=1e-5)

    def test_telescoping_classes(self):
        delta_i = delta_schedule(0.5, 4)
        k = np.arange(0, 10**6, dtype=np.float64)
        total = float(np.sum(delta_i / ((k + 1) * (k + 2))))
        assert total <= delta_i
        assert total == pytest.approx(delta_i, rel=1e-5)

    def test_rejects_bad_iteration(self):
        with pytest.raises(ValueError):
            delta_schedule(0.1, 0)


class TestBoundParams:
    """The (d, m, delta, epsilon) ranges every bound accepts, checked at
    the functions that consume them."""

    def test_validation(self):
        phi(0, 1, 0.5)
        sample_size_cap(0, 0.5, 0.5)
        with pytest.raises(ValueError):
            phi(-1, 1, 0.5)
        with pytest.raises(ValueError):
            sample_size_cap(-1, 0.5, 0.5)
        with pytest.raises(ValueError):
            phi(1, 0, 0.5)
        with pytest.raises(ValueError):
            sample_size_cap(1, 0.5, 1.5)
        with pytest.raises(ValueError):
            sample_size_cap(1, 0.0, 0.5)
