import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds.hypothesis import FunctionTable
from riskbounds.rademacher import (
    EXACT_MAX_N,
    RademacherEstimate,
    massart_bound,
    rademacher_cover_bound,
    rademacher_exact,
    rademacher_mc,
)


def brute_force(values: np.ndarray) -> float:
    """Independent reference: average the row-maximum over every sign vector."""
    n = values.shape[1]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        total += max(float(np.dot(signs, row)) for row in values)
    return total / 2**n


IDENTITY_2 = FunctionTable(values=np.array([[1.0, 0.0], [0.0, 1.0]]))
BALANCED_4 = FunctionTable(
    values=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
)
ALL_SIGNS_4 = FunctionTable(
    values=np.array(list(itertools.product((-1.0, 1.0), repeat=4)))
)


class TestExact:
    def test_two_point_identity(self):
        est = rademacher_exact(IDENTITY_2)
        assert est.value == pytest.approx(0.5, abs=1e-15)
        assert est.mode == "exact"
        assert est.std_error == 0.0
        assert est.draws == 4

    def test_balanced_hull(self):
        assert rademacher_exact(BALANCED_4).value == pytest.approx(1.0, abs=1e-15)

    def test_single_row_is_zero(self):
        t = FunctionTable(values=np.array([[3.0, 4.0]]))
        assert rademacher_exact(t).value == pytest.approx(0.0, abs=1e-15)

    def test_all_sign_patterns_saturate(self):
        # the maximizing row always aligns with the drawn signs
        assert rademacher_exact(ALL_SIGNS_4).value == pytest.approx(4.0, abs=1e-15)

    def test_chunked_enumeration_matches_combinatorial_value(self):
        # n=19 forces two enumeration chunks; E|sum of signs| has a closed form
        n = 19
        row = np.ones((1, n))
        t = FunctionTable(values=np.vstack([row, -row]))
        expect = sum(
            math.comb(n, k) * abs(2 * k - n) for k in range(n + 1)
        ) / 2**n
        assert rademacher_exact(t).value == pytest.approx(expect, rel=1e-12)

    def test_refuses_large_n(self):
        t = FunctionTable(values=np.zeros((1, EXACT_MAX_N + 1)))
        with pytest.raises(ValueError, match="rademacher_mc"):
            rademacher_exact(t)

    @given(
        st.integers(1, 5),
        st.integers(1, 8),
        st.integers(0, 10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, m, n, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(m, n))
        t = FunctionTable(values=vals)
        assert rademacher_exact(t).value == pytest.approx(
            brute_force(vals), rel=1e-12, abs=1e-12
        )

    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative_and_scale_equivariant(self, m, n, seed):
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(m, n))
        base = rademacher_exact(FunctionTable(values=vals)).value
        assert base >= -1e-12
        scaled = rademacher_exact(FunctionTable(values=2.5 * vals)).value
        assert scaled == pytest.approx(2.5 * base, rel=1e-12, abs=1e-12)

    def test_duplicate_rows_do_not_change_value(self):
        vals = np.array([[1.0, -0.5], [0.3, 0.8]])
        doubled = np.vstack([vals, vals])
        a = rademacher_exact(FunctionTable(values=vals)).value
        b = rademacher_exact(FunctionTable(values=doubled)).value
        assert a == pytest.approx(b, abs=1e-15)


class TestMonteCarlo:
    def test_deterministic_given_seed(self):
        a = rademacher_mc(IDENTITY_2, draws=500, seed=7)
        b = rademacher_mc(IDENTITY_2, draws=500, seed=7)
        assert a.value == b.value and a.std_error == b.std_error
        assert a.seed == 7 and a.mode == "monte_carlo" and a.draws == 500

    def test_draw_floor(self):
        with pytest.raises(ValueError, match=">= 100"):
            rademacher_mc(IDENTITY_2, draws=99, seed=0)

    def test_zero_variance_table(self):
        # every sign draw attains row-max exactly 1 on the balanced table
        est = rademacher_mc(BALANCED_4, draws=250, seed=3)
        assert est.value == pytest.approx(1.0, abs=1e-15)
        assert est.std_error == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_exact_within_error(self):
        exact = rademacher_exact(IDENTITY_2).value
        est = rademacher_mc(IDENTITY_2, draws=20_000, seed=11)
        assert abs(est.value - exact) <= 5.0 * est.std_error + 1e-12


class TestEstimateRecord:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RademacherEstimate(value=1.0, std_error=0.0, draws=4, mode="guess")

    def test_exact_requires_zero_error(self):
        with pytest.raises(ValueError, match="std_error"):
            RademacherEstimate(value=1.0, std_error=0.1, draws=4, mode="exact")


class TestFiniteClassBound:
    def test_two_point_identity(self):
        assert massart_bound(IDENTITY_2) == pytest.approx(
            1.1774100225154747, abs=1e-12
        )

    def test_all_sign_patterns(self):
        assert massart_bound(ALL_SIGNS_4) == pytest.approx(
            4.709640090061899, abs=1e-12
        )

    def test_single_row_gives_zero(self):
        assert massart_bound(FunctionTable(values=np.array([[3.0, 4.0]]))) == 0.0

    @given(st.integers(1, 5), st.integers(1, 8), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_dominates_exact(self, m, n, seed):
        rng = np.random.default_rng(seed)
        t = FunctionTable(values=rng.normal(size=(m, n)))
        assert rademacher_exact(t).value <= massart_bound(t) + 1e-12


class TestCoverBound:
    def test_zero_radius(self):
        assert rademacher_cover_bound(math.sqrt(2.0), 0.0, 5, 2) == pytest.approx(
            1.6651092223153956, abs=1e-12
        )

    def test_radius_term_scales_with_n(self):
        assert rademacher_cover_bound(10.0, 0.01, 100, 40) == pytest.approx(
            28.16203031481239, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="cover_size"):
            rademacher_cover_bound(1.0, 0.0, 5, 0)
        with pytest.raises(ValueError, match="radius"):
            rademacher_cover_bound(1.0, -0.1, 5, 2)
