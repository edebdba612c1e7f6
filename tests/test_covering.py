import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds.covering import (
    EXACT_MAX_ROWS,
    EntropyEstimate,
    classify_entropy,
    exact_cover_size,
    greedy_cover,
    nn_entropy,
    vc_entropy,
)
from riskbounds.hypothesis import FunctionTable


def _custom(fn, validity):
    """An entropy estimate of any evaluator, built from its fields."""
    return EntropyEstimate(kind="custom", evaluator=fn, validity=tuple(validity))


CHAIN = FunctionTable(values=np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))


class TestGreedyCover:
    def test_middle_row_not_found(self):
        # row 1 covers everything at radius 1, but greedy starts at row 0
        res = greedy_cover(CHAIN, 1.0)
        assert res.size == 2
        assert res.cover_indices == (0, 2)
        assert res.method == "greedy"

    def test_zero_radius_counts_distinct_rows(self):
        t = FunctionTable(values=np.array([[1.0], [1.0], [2.0]]))
        assert greedy_cover(t, 0.0).size == 2

    def test_huge_radius_single_center(self):
        assert greedy_cover(CHAIN, 100.0).size == 1

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            greedy_cover(CHAIN, -0.5)

    @given(st.integers(1, 10), st.integers(1, 4), st.floats(0.0, 3.0), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_centers_actually_cover(self, m, n, r, seed):
        rng = np.random.default_rng(seed)
        t = FunctionTable(values=rng.uniform(-2, 2, size=(m, n)))
        res = greedy_cover(t, r)
        dmin = np.full(m, np.inf)
        for c in res.cover_indices:
            dc = np.mean(np.abs(t.values - t.values[c]), axis=1)
            dmin = np.minimum(dmin, dc)
        assert np.all(dmin <= r + 1e-9)


class TestExactCover:
    def test_chain_radius_one(self):
        assert exact_cover_size(CHAIN, 1.0).size == 1

    def test_two_rows(self):
        t = FunctionTable(values=np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert exact_cover_size(t, 1.0).size == 1

    def test_row_limit(self):
        t = FunctionTable(values=np.zeros((EXACT_MAX_ROWS + 1, 1)))
        with pytest.raises(ValueError, match="16"):
            exact_cover_size(t, 1.0)

    def test_negative_radius(self):
        with pytest.raises(ValueError, match="radius"):
            exact_cover_size(CHAIN, -1.0)

    @given(st.integers(1, 8), st.integers(1, 3), st.floats(0.0, 2.0), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_greedy(self, m, n, r, seed):
        rng = np.random.default_rng(seed)
        t = FunctionTable(values=rng.uniform(-1, 1, size=(m, n)))
        exact = exact_cover_size(t, r).size
        assert 1 <= exact <= greedy_cover(t, r).size

    @given(st.integers(2, 7), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_shrinks_as_radius_grows(self, m, seed):
        rng = np.random.default_rng(seed)
        t = FunctionTable(values=rng.uniform(-1, 1, size=(m, 2)))
        sizes = [exact_cover_size(t, r).size for r in (0.1, 0.5, 1.0, 2.5)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestVCEntropy:
    def test_reference_values(self):
        assert vc_entropy(1, 1.0, 0.25) == pytest.approx(5.426495087914157, abs=1e-12)
        assert vc_entropy(0, 1.0, 0.25) == pytest.approx(math.log(3), abs=1e-12)
        assert vc_entropy(2, 1.0, 0.25) == pytest.approx(9.754377887160203, abs=1e-12)

    def test_validity_range(self):
        with pytest.raises(ValueError, match="validity"):
            vc_entropy(1, 1.0, 0.26)
        with pytest.raises(ValueError, match="validity"):
            vc_entropy(1, 1.0, 0.0)
        with pytest.raises(ValueError, match="B"):
            vc_entropy(1, 0.0, 0.1)
        with pytest.raises(ValueError, match="V"):
            vc_entropy(-1, 1.0, 0.1)

    def test_monotone_in_radius_and_dimension(self):
        rs = np.geomspace(1e-4, 0.25, 30)
        vals = [vc_entropy(3, 1.0, float(r)) for r in rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vc_entropy(4, 1.0, 0.1) > vc_entropy(3, 1.0, 0.1)


class TestNNEntropy:
    def test_reference_values(self):
        assert nn_entropy(1, 1, 1.0, 0.25) == pytest.approx(44.51478553174269, abs=1e-12)
        assert nn_entropy(2, 1, 1.0, 0.25) == pytest.approx(55.64348191467836, abs=1e-12)

    def test_validity_range(self):
        with pytest.raises(ValueError, match="validity"):
            nn_entropy(1, 1, 1.0, 0.5)
        with pytest.raises(ValueError, match=">= 1"):
            nn_entropy(0, 1, 1.0, 0.1)

    def test_grows_with_width(self):
        assert nn_entropy(2, 5, 1.0, 0.1) > nn_entropy(2, 1, 1.0, 0.1)


class TestEntropyEstimate:
    def test_vc_wrapper_matches_function(self):
        est = EntropyEstimate.vc(V=2, B=1.0)
        assert est(0.2) == pytest.approx(vc_entropy(2, 1.0, 0.2))
        assert est.validity == (0.0, 0.25)

    def test_nn_wrapper_matches_function(self):
        est = EntropyEstimate.neural_net(d=1, N=1, B=1.0)
        assert est(0.25) == pytest.approx(nn_entropy(1, 1, 1.0, 0.25))

    @pytest.mark.parametrize("B", [0.0, -1.0])
    def test_nonpositive_range_refused_when_built(self, B):
        with pytest.raises(ValueError, match="field 'B' must be positive"):
            EntropyEstimate.vc(V=2, B=B)
        with pytest.raises(ValueError, match="field 'B' must be positive"):
            EntropyEstimate.neural_net(d=1, N=1, B=B)

    def test_out_of_range_call(self):
        est = EntropyEstimate.vc(V=2, B=1.0)
        with pytest.raises(ValueError, match="validity"):
            est(0.3)

    def test_custom(self):
        est = _custom(lambda r: 1.0 / r, validity=(0.0, 1.0))
        assert est(0.5) == 2.0


class TestClassification:
    def test_vc_is_subeuclidean(self):
        tag = classify_entropy(EntropyEstimate.vc(V=3, B=1.0))
        assert tag.kind == "subeuclidean"

    def test_nn_is_subeuclidean(self):
        tag = classify_entropy(EntropyEstimate.neural_net(d=2, N=4, B=1.0))
        assert tag.kind == "subeuclidean"

    def test_power_law_is_euclidean(self):
        est = _custom(lambda r: r**-0.5, validity=(0.0, 1.0))
        tag = classify_entropy(est)
        assert tag.kind == "euclidean"
        assert tag.alpha == pytest.approx(0.5, abs=1e-6)

    def test_steeper_power_law_alpha(self):
        est = _custom(lambda r: 3.0 * r**-1.5, validity=(0.0, 1.0))
        tag = classify_entropy(est)
        assert tag.kind == "euclidean"
        assert tag.alpha == pytest.approx(1.5, abs=1e-6)

    def test_narrow_validity_untagged(self):
        est = _custom(lambda r: 1.0 / r, validity=(1 / 64, 1 / 16))
        assert classify_entropy(est).kind == "untagged"

    def test_oscillation_untagged(self):
        def fn(r):
            j = round(-math.log2(r))
            return 1.0 if j % 2 == 0 else 100.0

        est = _custom(fn, validity=(0.0, 1.0))
        assert classify_entropy(est).kind == "untagged"

    def test_superexponential_untagged(self):
        with np.errstate(over="ignore"):
            est = _custom(
                lambda r: float(np.exp(np.sqrt(1.0 / r))), validity=(0.0, 1.0)
            )
            assert classify_entropy(est).kind == "untagged"
