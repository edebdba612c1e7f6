import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds.mixing import (
    beta_exact_discrete,
    block_indices,
    blocked_deviation_bound,
    choose_block_size,
    markov_beta_of_lag,
    stationary_distribution,
)

STAY_9 = np.array([[0.9, 0.1], [0.1, 0.9]])
HALF = np.array([0.5, 0.5])


class TestBlockIndices:
    def test_seven_into_three(self):
        blocks = block_indices(7, 3)
        assert [list(b) for b in blocks] == [[3, 6], [1, 4, 7], [2, 5]]

    def test_single_block(self):
        assert list(block_indices(4, 1)[0]) == [1, 2, 3, 4]

    def test_validation(self):
        with pytest.raises(ValueError, match="1 <= m <= n"):
            block_indices(3, 4)
        with pytest.raises(ValueError, match="1 <= m <= n"):
            block_indices(3, 0)

    @given(st.integers(1, 60), st.integers(1, 60))
    @settings(max_examples=60)
    def test_partition_properties(self, n, m):
        if m > n:
            n, m = m, n
        blocks = block_indices(n, m)
        assert len(blocks) == m
        merged = sorted(i for b in blocks for i in b)
        assert merged == list(range(1, n + 1))
        sizes = [len(b) for b in blocks]
        assert max(sizes) - min(sizes) <= 1
        for b in blocks:
            gaps = np.diff(b)
            assert np.all(gaps == m) or len(b) <= 1


class TestBetaExact:
    def test_independent_table_is_zero(self):
        rows = np.array([0.3, 0.7])
        cols = np.array([0.4, 0.6])
        assert beta_exact_discrete(np.outer(rows, cols)) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_coupling(self):
        assert beta_exact_discrete(np.diag([0.5, 0.5])) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-d"):
            beta_exact_discrete(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="negative"):
            beta_exact_discrete(np.array([[1.5, -0.5], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="sums to"):
            beta_exact_discrete(np.array([[0.5, 0.1], [0.1, 0.1]]))

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_in_unit_interval(self, a, b, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(size=(a, b))
        p /= p.sum()
        assert 0.0 <= beta_exact_discrete(p) <= 1.0


class TestStationary:
    def test_symmetric_chain(self):
        np.testing.assert_allclose(stationary_distribution(STAY_9), HALF, atol=1e-12)

    def test_asymmetric_chain(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        np.testing.assert_allclose(
            stationary_distribution(P), [1.0 / 3.0, 2.0 / 3.0], atol=1e-12
        )

    def test_rejects_nonstochastic(self):
        with pytest.raises(ValueError, match="stochastic"):
            stationary_distribution(np.array([[0.9, 0.2], [0.1, 0.9]]))

    @pytest.mark.parametrize("P", [
        np.eye(2),
        np.eye(3),
        [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.2, 0.8], [0.0, 0.0, 1.0, 0.0]],
        [[1.0, 0.0, 0.0], [0.3, 0.4, 0.3], [0.0, 0.0, 1.0]],  # two absorbing states
    ], ids=["I2", "I3", "two-blocks", "two-absorbing"])
    def test_refuses_two_closed_classes(self, P):
        with pytest.raises(ValueError, match="no unique stationary law"):
            stationary_distribution(np.asarray(P))

    def test_periodic_chain_has_one_law(self):
        np.testing.assert_allclose(
            stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]])), HALF, atol=1e-12
        )

    def test_transient_state_gets_no_mass(self):
        P = np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.0, 0.6, 0.4]])
        np.testing.assert_allclose(
            stationary_distribution(P), [0.0, 6.0 / 13.0, 7.0 / 13.0], atol=1e-12
        )


class TestMarkovBeta:
    def test_geometric_decay_reference(self):
        # two-state symmetric chain: beta(m) = (2*stay-1)^m / 2
        assert markov_beta_of_lag(STAY_9, HALF, 1) == pytest.approx(0.4, abs=1e-12)
        assert markov_beta_of_lag(STAY_9, HALF, 2) == pytest.approx(0.32, abs=1e-12)
        assert markov_beta_of_lag(STAY_9, HALF, 5) == pytest.approx(
            0.8**5 / 2.0, abs=1e-12
        )

    def test_stationary_computed_when_omitted(self):
        assert markov_beta_of_lag(STAY_9, None, 1) == pytest.approx(0.4, abs=1e-12)

    def test_nonstationary_pi_rejected(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        with pytest.raises(ValueError, match="stationary"):
            markov_beta_of_lag(P, HALF, 1)

    @pytest.mark.parametrize("pi", [[0.5, float("nan")], [0.5, 0.25, 0.25], [1.5, -0.5]],
                             ids=["nan", "length", "negative"])
    def test_pi_must_be_a_distribution_over_the_states(self, pi):
        with pytest.raises(ValueError, match="field 'pi' must be a distribution over the 2 "):
            markov_beta_of_lag(STAY_9, np.array(pi), 1)

    def test_lag_validation(self):
        with pytest.raises(ValueError, match="lag"):
            markov_beta_of_lag(STAY_9, HALF, 0)

    def test_decreasing_in_lag(self):
        vals = [markov_beta_of_lag(STAY_9, HALF, m) for m in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_iid_chain_has_zero_beta(self):
        P = np.tile(np.array([0.3, 0.7]), (2, 1))
        assert markov_beta_of_lag(P, np.array([0.3, 0.7]), 3) == pytest.approx(
            0.0, abs=1e-12
        )


class TestChooseBlockSize:
    def test_reference(self):
        assert choose_block_size(1000, 0.05, math.e) == 10

    def test_minimality(self):
        n, delta, r = 1000, 0.05, 1.5
        m = choose_block_size(n, delta, r)
        assert r ** (-m) <= delta / n
        assert m == 1 or r ** (-(m - 1)) > delta / n

    def test_delta_window(self):
        with pytest.raises(ValueError, match="delta must lie"):
            choose_block_size(5, 1e-9, 1.5)

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate_r"):
            choose_block_size(100, 0.1, 1.0)


def _binom_tail(t: float, s: int) -> float:
    """Exact P(|sum of s iid signs| > t)."""
    return sum(
        math.comb(s, k) / 2**s for k in range(s + 1) if abs(2 * k - s) > t
    )


def _exact_chain_tail(stay: float, n: int, thr: float) -> float:
    """Exact P(|sum_i h(X_i)| > thr) for h = (+1, -1) by path enumeration."""
    P = np.array([[stay, 1 - stay], [1 - stay, stay]])
    h = np.array([1.0, -1.0])
    total = 0.0
    for path in itertools.product((0, 1), repeat=n):
        p = 0.5
        for a, b in zip(path, path[1:]):
            p *= P[a, b]
        if abs(sum(h[s] for s in path)) > thr:
            total += p
    return total


class TestBlockedBound:
    @pytest.mark.parametrize("stay", [0.55, 0.7])
    def test_dominates_exact_chain_tail(self, stay):
        n, m = 6, 2
        P = np.array([[stay, 1 - stay], [1 - stay, stay]])
        beta = markov_beta_of_lag(P, HALF, m)
        for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            exact = _exact_chain_tail(stay, n, m * t)
            bound = blocked_deviation_bound(_binom_tail, t, n, m, beta)
            assert exact <= bound.probability + 1e-12

    def test_raw_additive_structure(self):
        # constant per-block tail makes the bound m*tail + n*beta exactly
        bound = blocked_deviation_bound(lambda t, s: 0.01, 1.0, 10, 3, 0.002)
        assert bound.raw == pytest.approx(3 * 0.01 + 10 * 0.002, abs=1e-15)

    def test_probability_clipped(self):
        bound = blocked_deviation_bound(lambda t, s: 1.0, 0.0, 10, 5, 0.5)
        assert bound.raw > 1.0 and bound.probability == 1.0

    def test_beta_validation(self):
        with pytest.raises(ValueError, match="beta_m"):
            blocked_deviation_bound(lambda t, s: 0.0, 1.0, 10, 2, -0.1)
