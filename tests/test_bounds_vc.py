import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskbounds import bounds_vc
from riskbounds.bounds_vc import (
    SMALL_LAMBDA_MAX,
    BoundParams,
    OptimizedConstants,
    V_function,
    _box_lower_bound,
    _coarse_argmin,
    _grid_factors,
    _q_values,
    _v_grid,
    b_coeff,
    bounded_class_ci,
    epsilon_n,
    epsilon_n_upper,
    log_a_from_entropy,
    optimize_v,
    optimized_bound,
    radius_A,
    refined_bound,
    small_lambda_bound,
    unbounded_response_ci,
    vc_mixing_second_term,
)
from riskbounds.covering import EntropyEstimate, vc_entropy

from oracles import constant_profile

P_2_2 = BoundParams(n=100, B=1.0, delta=0.05, c=2.0, lam=2.0)

STEP = 0.005
COARSE_CS = np.arange(1.5, 50.0 + STEP / 2, STEP)
COARSE_LAMS = np.arange(1.05, 3.0 + STEP / 2, STEP)
FACTORS = _grid_factors(COARSE_CS, COARSE_LAMS)


def _v_scalar(c, lam):
    """The scalar V formula that `V_function` used before it called `_v_grid`."""
    q0, q1, q2, q3 = _q_values(lam)
    p = c / (c - 1.0)
    poly = q1 * p + q2 * p * p + q3 * p**3
    return 32.0 * max(q0 * c * (c + 1.0), poly * math.log(2.0 * (c + 1.0) * (2.0 * c + 3.0)))


def _optimize_v_full_scan():
    """Reference: `optimize_v` as it was with a full scan of the coarse grid."""
    step = 0.005
    cs = np.arange(1.5, 50.0 + step / 2, step)
    lams = np.arange(1.05, 3.0 + step / 2, step)
    grid = _v_grid(cs, lams)
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    del grid
    c_best, l_best = float(cs[i]), float(lams[j])
    while step > 1e-4:
        step /= 5.0
        cs = c_best + np.arange(-10, 11) * step
        lams = l_best + np.arange(-10, 11) * step
        cs = cs[cs > 1.0 + 1e-9]
        lams = lams[lams > 1.0 + 1e-9]
        grid = _v_grid(cs, lams)
        i, j = np.unravel_index(np.argmin(grid), grid.shape)
        c_best, l_best = float(cs[i]), float(lams[j])
    v0 = _v_scalar(c_best, l_best)
    coeff = (1.0 / (4.0 * (math.sqrt(2.0) + 1.0))) * (1.0 - 1.0 / c_best)
    return OptimizedConstants(c0=c_best, lambda0=l_best, V0=v0, radius_coeff=coeff)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must"):
            BoundParams(n=0, B=1.0, delta=0.1, c=2.0, lam=2.0)
        with pytest.raises(ValueError, match="B must"):
            BoundParams(n=10, B=0.0, delta=0.1, c=2.0, lam=2.0)
        with pytest.raises(ValueError, match="delta"):
            BoundParams(n=10, B=1.0, delta=0.0, c=2.0, lam=2.0)
        with pytest.raises(ValueError, match="c must"):
            BoundParams(n=10, B=1.0, delta=0.1, c=1.0, lam=2.0)
        with pytest.raises(ValueError, match="lambda"):
            BoundParams(n=10, B=1.0, delta=0.1, c=2.0, lam=1.0)
        with pytest.raises(ValueError, match="eta must"):
            unbounded_response_ci(P_2_2, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestCriticalLevel:
    def test_reference(self):
        assert epsilon_n(P_2_2) == pytest.approx(0.9084229805280355, abs=1e-14)

    def test_majorant_reference(self):
        assert epsilon_n_upper(P_2_2) == pytest.approx(0.96, abs=1e-14)

    @given(
        st.floats(1.05, 50.0),
        st.floats(1.05, 5.0),
        st.sampled_from([10, 100, 10**4, 10**6]),
    )
    @settings(max_examples=60)
    def test_majorant_dominates(self, c, lam, n):
        p = BoundParams(n=n, B=1.0, delta=0.1, c=c, lam=lam)
        assert 0 < epsilon_n(p) <= epsilon_n_upper(p) * (1 + 1e-12)

    def test_shrinks_with_n(self):
        big = BoundParams(n=10**6, B=1.0, delta=0.05, c=2.0, lam=2.0)
        assert epsilon_n(big) < epsilon_n(P_2_2)


class TestRateCoefficient:
    def test_reference(self):
        assert b_coeff(P_2_2) == pytest.approx(0.00020544192841490138, abs=1e-18)
        assert 1.0 / b_coeff(P_2_2) == pytest.approx(4867.555555555556, rel=1e-12)

    def test_reciprocal_identity(self):
        # 1/b equals 32 B^2 times the weighted p-polynomial of the q constants
        for c, lam in [(2.0, 2.0), (11.465, 1.295), (1.2, 4.0)]:
            prof = constant_profile(c, lam)
            poly = prof.q1 * prof.p + prof.q2 * prof.p**2 + prof.q3 * prof.p**3
            p = BoundParams(n=10, B=1.0, delta=0.1, c=c, lam=lam)
            assert b_coeff(p) * 32.0 * poly == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_reference(self):
        prof = constant_profile(2.0, 2.0)
        poly = prof.q1 * prof.p + prof.q2 * prof.p**2 + prof.q3 * prof.p**3
        assert poly == pytest.approx(152.11111111111111, rel=1e-13)

    def test_scales_inverse_square_in_B(self):
        p1 = BoundParams(n=10, B=1.0, delta=0.1, c=2.0, lam=2.0)
        p3 = BoundParams(n=10, B=3.0, delta=0.1, c=2.0, lam=2.0)
        assert b_coeff(p3) == pytest.approx(b_coeff(p1) / 9.0, rel=1e-12)


class TestCoveringFactor:
    def test_radius_reference(self):
        assert radius_A(P_2_2, 1.0) == pytest.approx(1.0 / 192.0, abs=1e-16)

    def test_radius_needs_positive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            radius_A(P_2_2, 0.0)

    def test_entropy_plugin_default_epsilon(self):
        est = EntropyEstimate.vc(V=1, B=1.0)
        r = radius_A(P_2_2, epsilon_n(P_2_2))
        expect = math.log(42.0) + vc_entropy(1, 1.0, r)
        assert log_a_from_entropy(P_2_2, est) == pytest.approx(expect, rel=1e-14)

    def test_entropy_plugin_explicit_epsilon(self):
        est = EntropyEstimate.vc(V=1, B=1.0)
        expect = math.log(42.0) + vc_entropy(1, 1.0, radius_A(P_2_2, 0.5))
        assert log_a_from_entropy(P_2_2, est, epsilon=0.5) == pytest.approx(
            expect, rel=1e-14
        )


class TestPrefactor:
    def test_reference_values(self):
        assert V_function(2.0, 2.0) == pytest.approx(18193.31451530642, rel=1e-12)
        assert V_function(11.465, 1.295) == pytest.approx(3291.24644593559, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            V_function(1.0, 2.0)
        with pytest.raises(ValueError):
            V_function(2.0, 1.0)


class TestOptimizer:
    def test_located_minimum(self):
        opt = optimize_v()
        assert 11.46 < opt.c0 < 11.47
        assert 1.29 < opt.lambda0 < 1.30
        assert 3291.0 < opt.V0 < 3292.0
        assert 0.0935 < opt.radius_coeff < 0.0955

    def test_radius_coefficient_formula(self):
        opt = optimize_v()
        expect = (1.0 / (4.0 * (math.sqrt(2.0) + 1.0))) * (1.0 - 1.0 / opt.c0)
        assert opt.radius_coeff == pytest.approx(expect, rel=1e-14)

    def test_deterministic(self):
        a, b = optimize_v(), optimize_v()
        assert (a.c0, a.lambda0, a.V0) == (b.c0, b.lambda0, b.V0)

    def test_beats_nearby_grid(self):
        opt = optimize_v()
        for dc in (-0.05, 0.05):
            for dl in (-0.02, 0.02):
                assert opt.V0 <= V_function(opt.c0 + dc, opt.lambda0 + dl) + 1e-9

    def test_equals_full_scan(self):
        ref = _optimize_v_full_scan()
        opt = optimize_v()
        for field in ("c0", "lambda0", "V0", "radius_coeff"):
            assert getattr(opt, field) == getattr(ref, field), field

    def test_coarse_argmin_is_the_full_scan_argmin(self):
        i, j, evaluated = _coarse_argmin(COARSE_CS, COARSE_LAMS)
        grid = _v_grid(COARSE_CS, COARSE_LAMS)
        assert (i, j) == (1992, 49)
        assert (i, j) == np.unravel_index(np.argmin(grid), grid.shape)
        assert _v_grid(COARSE_CS[i : i + 1], COARSE_LAMS[j : j + 1])[0, 0] == grid.min()
        assert evaluated < grid.size // 100

    @pytest.mark.parametrize("leaf_points", [1, 256])
    def test_tie_goes_to_lowest_flat_index(self, monkeypatch, leaf_points):
        # repeated rows and columns make the minimum a 48-way tie; with
        # one-point leaves a later tie is evaluated before an earlier one
        monkeypatch.setattr(bounds_vc, "_LEAF_POINTS", leaf_points)
        cs, lams = np.repeat(COARSE_CS[1908:1910], 16), np.repeat(COARSE_LAMS[47:69], 3)
        i, j, _ = _coarse_argmin(cs, lams)
        grid = _v_grid(cs, lams)
        assert np.count_nonzero(grid == grid.min()) == 48
        assert (i, j) == np.unravel_index(np.argmin(grid), grid.shape)

    def test_peak_memory(self):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            optimize_v()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


_ROW, _COL = len(COARSE_CS), len(COARSE_LAMS)


@st.composite
def _index_boxes(draw):
    i0 = draw(st.integers(0, _ROW - 1))
    i1 = draw(st.integers(i0 + 1, min(_ROW, i0 + 300)))
    j0 = draw(st.integers(0, _COL - 1))
    j1 = draw(st.integers(j0 + 1, _COL))
    return i0, i1, j0, j1


class TestBoxLowerBound:
    @given(_index_boxes())
    @example((1992, 1993, 49, 50))  # the coarse argmin, one point
    @example((0, 1, 0, 1))
    @example((_ROW - 1, _ROW, _COL - 1, _COL))
    @example((1992, 1993, 0, _COL))  # one row
    @example((0, 300, 49, 50))  # one column
    @example((100, 101, FACTORS.j_q0, FACTORS.j_q0 + 1))  # lambda = 2, one point
    @example((100, 400, FACTORS.j_q0 - 3, FACTORS.j_q0 + 4))  # contains lambda = 2
    @example((1900, 2100, FACTORS.j_q3 - 5, FACTORS.j_q3 + 5))  # contains q3's minimum
    @example((1990, 1995, FACTORS.j_q3, FACTORS.j_q3 + 1))
    @settings(max_examples=200, deadline=None)
    def test_bound_holds_on_box(self, box):
        i0, i1, j0, j1 = box
        block = _v_grid(COARSE_CS[i0:i1], COARSE_LAMS[j0:j1])
        assert _box_lower_bound(FACTORS, i0, i1, j0, j1) <= block.min()

    @given(st.integers(0, _ROW - 1), st.integers(0, _COL - 1))
    @settings(max_examples=100)
    def test_one_point_box_is_exact(self, i, j):
        v = _v_grid(COARSE_CS[i : i + 1], COARSE_LAMS[j : j + 1])[0, 0]
        assert _box_lower_bound(FACTORS, i, i + 1, j, j + 1) == v

    def test_factors_are_monotone_where_the_bound_assumes(self):
        # the bound reads each factor's least value off the box's ends
        p = COARSE_CS / (COARSE_CS - 1.0)
        q0, q1, q2, q3 = FACTORS.q
        assert np.all(np.diff(p) < 0) and np.all(np.diff(FACTORS.p3) < 0)
        assert np.all(np.diff(FACTORS.log_a) > 0)
        assert np.all(np.diff(q1) > 0) and np.all(np.diff(q2) > 0)
        for q, k in ((q0, FACTORS.j_q0), (q3, FACTORS.j_q3)):
            assert np.all(np.diff(q[: k + 1]) < 0) and np.all(np.diff(q[k:]) > 0)
        assert COARSE_LAMS[FACTORS.j_q0] == pytest.approx(2.0)


class TestHeadlineBound:
    def test_reference(self):
        assert optimized_bound(1000, 1.0, 0.05, 0.0) == pytest.approx(
            13.153950644539739, rel=1e-13
        )

    def test_unit_log_inverse_delta(self):
        assert optimized_bound(1000, 1.0, 1.0 / math.e, 0.0) == pytest.approx(
            6.584, abs=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="log cover"):
            optimized_bound(1000, 1.0, 0.05, -1.0)
        with pytest.raises(ValueError):
            optimized_bound(0, 1.0, 0.05, 0.0)

    def test_one_over_n_rate(self):
        w1 = optimized_bound(10**3, 1.0, 0.05, 2.0)
        w2 = optimized_bound(10**6, 1.0, 0.05, 2.0)
        assert w2 == pytest.approx(w1 / 1000.0, rel=1e-12)


def lambda_sum_coefficient(lam: float) -> float:
    """C(lambda) = (lambda - 1)(q1 + q2 + q3), which the 64/(lambda - 1) factor of
    small_lambda_bound needs below 2 on (1, 13/12]."""
    _, q1, q2, q3 = _q_values(lam)
    return (lam - 1.0) * (q1 + q2 + q3)


class TestSmallLambdaRegime:
    def test_sum_coefficient_references(self):
        assert lambda_sum_coefficient(13.0 / 12.0) == pytest.approx(
            1.540064102564102, rel=1e-12
        )
        assert lambda_sum_coefficient(1.0001) == pytest.approx(
            1.0005667611149998, rel=1e-12
        )

    def test_sum_coefficient_below_two_on_regime(self):
        for lam in np.linspace(1.0 + 1e-6, SMALL_LAMBDA_MAX, 200):
            assert lambda_sum_coefficient(float(lam)) < 2.0

    def test_bound_reference(self):
        assert small_lambda_bound(1000, 1.0, 0.05, 13.0 / 12.0, 0.0) == pytest.approx(
            5.171252652931097, rel=1e-12
        )

    def test_lambda_regime_enforced(self):
        with pytest.raises(ValueError, match="13/12"):
            small_lambda_bound(1000, 1.0, 0.05, 1.2, 0.0)
        with pytest.raises(ValueError, match="13/12"):
            small_lambda_bound(1000, 1.0, 0.05, 1.0, 0.0)

    def test_blows_up_as_lambda_drops(self):
        hi = small_lambda_bound(1000, 1.0, 0.05, 1.0001, 0.0)
        lo = small_lambda_bound(1000, 1.0, 0.05, 13.0 / 12.0, 0.0)
        assert hi > 100 * lo


class TestRefinedBound:
    ENTROPY = EntropyEstimate.vc(V=2, B=1.0)

    def test_reference(self):
        assert refined_bound(10**4, 1.0, 0.05, 2.0, self.ENTROPY) == pytest.approx(
            74.30904083847409, rel=1e-12
        )

    def test_quadruple_n_roughly_halves(self):
        r = refined_bound(4 * 10**4, 1.0, 0.05, 2.0, self.ENTROPY) / refined_bound(
            10**4, 1.0, 0.05, 2.0, self.ENTROPY
        )
        assert r == pytest.approx(0.5264962248063276, rel=1e-12)
        assert 0.45 < r < 0.55

    def test_decreasing_in_n_at_fixed_c(self):
        vals = [
            refined_bound(n, 1.0, 0.05, 2.0, self.ENTROPY)
            for n in (10**3, 10**5, 10**7)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_small_sample_warns(self):
        with pytest.warns(UserWarning, match="finite-sample"):
            refined_bound(50, 1.0, 0.05, 2.0, self.ENTROPY)

    def test_validation(self):
        with pytest.raises(ValueError, match="B_n"):
            refined_bound(10**4, 0.5, 0.05, 2.0, self.ENTROPY)
        with pytest.raises(ValueError, match="c_n"):
            refined_bound(10**4, 1.0, 0.05, 1.0, self.ENTROPY)


class TestBoundedClassCI:
    def test_reference_zero_inf_risk(self):
        assert bounded_class_ci(P_2_2, 0.0, math.log(42.0)) == pytest.approx(
            2168.948411757208, rel=1e-12
        )

    def test_reference_with_inf_risk(self):
        p = BoundParams(n=2000, B=1.0, delta=0.1, c=2.0, lam=2.0)
        assert bounded_class_ci(p, 0.01, math.log(42.0) + 5.0) == pytest.approx(
            171.408956692537, rel=1e-12
        )

    def test_inf_risk_coefficient(self):
        # widths at inf_risk 0 and 1 differ by exactly 6 lam - 5
        a = bounded_class_ci(P_2_2, 0.0, 1.0)
        b = bounded_class_ci(P_2_2, 1.0, 1.0)
        assert b - a == pytest.approx(6.0 * P_2_2.lam - 5.0, rel=1e-12)

    def test_negative_inf_risk_rejected(self):
        with pytest.raises(ValueError, match="inf_risk"):
            bounded_class_ci(P_2_2, -0.1, 1.0)


class TestUnboundedResponseCI:
    def test_hand_value(self):
        p = BoundParams(n=100, B=1.0, delta=0.1, c=2.0, lam=2.0)
        # 2(14*0.5 + 2) + 30*0.1 = 21
        assert unbounded_response_ci(p, 1.0, 1.0, 0.5, 0.1, 2.0) == pytest.approx(21.0, abs=1e-12)

    def test_hand_value_zero_risk(self):
        p = BoundParams(n=100, B=1.0, delta=0.1, c=2.0, lam=2.0)
        # 2*bounded_tail + 30*0.2 = 2*2 + 6 = 10
        assert unbounded_response_ci(p, 1.0, 1.0, 0.0, 0.2, 2.0) == pytest.approx(10.0, abs=1e-12)

    def test_requires_eta(self):
        with pytest.raises(ValueError, match="eta"):
            unbounded_response_ci(P_2_2, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_reduces_toward_bounded_tail_for_zero_overflow(self):
        # no truncation loss: width = (1+eta)(bounded tail) when inf risk is 0
        p = BoundParams(n=100, B=1.0, delta=0.1, c=2.0, lam=2.0)
        assert unbounded_response_ci(p, 0.25, 1.0, 0.0, 0.0, 4.0) == pytest.approx(5.0)


class TestMixingSecondTerm:
    def test_reference(self):
        p = BoundParams(n=1000, B=1.0, delta=0.05, c=2.0, lam=2.0)
        assert vc_mixing_second_term(
            1000, 0.05, math.e, p, math.log(42.0)
        ) == pytest.approx(47821.02865270357, rel=1e-12)

    def test_too_slow_mixing_rejected(self):
        p = BoundParams(n=5, B=1.0, delta=0.1, c=2.0, lam=2.0)
        with pytest.raises(ValueError, match="mixing too slow"):
            vc_mixing_second_term(5, 0.1, 1.01, p, 0.0)

    def test_rate_validation(self):
        p = BoundParams(n=100, B=1.0, delta=0.1, c=2.0, lam=2.0)
        with pytest.raises(ValueError, match="rate_r"):
            vc_mixing_second_term(100, 0.1, 1.0, p, 0.0)
