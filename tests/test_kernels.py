"""Differential and memory tests of the complexity and cover kernels.

The meet-in-the-middle enumeration (``rademacher._expected_max``), the
count-law averaged complexity (``simulate.exact_average_complexity``), the
block-wise Monte-Carlo suprema and the farthest-point greedy cover are
checked against the implementations they replaced, kept here as private
references: the chunked sign-matrix loop, the outer-sum enumeration of the
averaged complexity, the meet-in-the-middle kernel with an atom axis and
probability weights, and the all-pairs distance-matrix greedy cover.  Cover
indices and distances must be identical, and so must ``rademacher_exact``
against the weighted kernel, whose reductions it keeps.  Other complexities
sum in another order and must agree to 1e-12 relative (1e-15 absolute near
0); the count law against the weighted kernel to 1e-13.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskbounds import covering, rademacher, simulate
from riskbounds.covering import exact_cover_size, greedy_cover
from riskbounds.hypothesis import FunctionTable
from riskbounds.rademacher import rademacher_exact, rademacher_mc
from riskbounds.simulate import exact_average_complexity

REL, ABS = 1e-12, 1e-15


# ---------------------------------------------------------------------------
# references: the replaced implementations


def _ref_sign_matrix(start, stop, n):
    idx = np.arange(start, stop, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def _ref_rademacher_exact(values):
    n = values.shape[1]
    total = 0.0
    chunk = 1 << 18
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        total += float(np.sum(np.max(_ref_sign_matrix(start, stop, n) @ values.T, axis=1)))
    return total / (1 << n)


def _ref_average_complexity(vals, pmf):
    m = vals.shape[0]
    contrib = np.concatenate([vals.T, -vals.T], axis=0)
    sums = np.zeros((1, m))
    probs = np.ones(1)
    for k in range(pmf.shape[0]):
        pk = np.concatenate([pmf[k], pmf[k]]) / 2.0
        sums = (sums[:, None, :] + contrib[None, :, :]).reshape(-1, m)
        probs = (probs[:, None] * pk[None, :]).ravel()
    return float(probs @ np.max(sums, axis=1))


def _ref_option_sums(options, probs, coords, start, stop):
    idx = np.arange(start, stop)
    sums = np.zeros((stop - start, options[0].shape[1]))
    weights = np.ones(stop - start)
    for k in coords:
        idx, pick = np.divmod(idx, len(options[k]))
        sums += options[k][pick]
        weights *= probs[k][pick]
    return sums, weights


def _ref_expected_max(options, probs):
    # E max_j sum_k U_k options[k, A_k, j] over uniform signs U_k and atoms A_k
    # with P(A_k = a) = probs[k, a]: the kernel before its atom axis and
    # probability weights were dropped
    n, a, m = options.shape
    work = rademacher._WORK_BYTES
    opts = [np.concatenate([o, -o]) for o in options[:-1]] + [options[-1]]
    ws = [np.concatenate([q, q]) / 2.0 for q in probs[:-1]] + [probs[-1] / 2.0]
    c, split, n_lo = 2 * a, n - 1, a
    while split > 0 and (n_lo * c) ** 2 <= a * c ** (n - 1) and 32 * m * n_lo * c <= work:
        split, n_lo = split - 1, n_lo * c
    lo, lo_w = _ref_option_sums(opts, ws, range(split, n), 0, n_lo)
    lo = np.ascontiguousarray(lo.T)
    n_hi, rows = c**split, max(1, work // 2 // (8 * (m + 2) * n_lo))
    buf = np.empty((min(rows, n_hi), m, n_lo))
    total = 0.0
    for start in range(0, n_hi, rows):
        hi, hi_w = _ref_option_sums(opts, ws, range(split), start, min(start + rows, n_hi))
        block = np.add(lo, hi[:, :, None], out=buf[: len(hi)])
        total += float(hi_w @ ((block.max(axis=1) - block.min(axis=1)) @ lo_w))
    return total


def _ref_average_weighted(vals, pmf):
    m, s = vals.shape
    return _ref_expected_max(np.broadcast_to(vals.T, (pmf.shape[0], s, m)), pmf)


def _ref_rademacher_mc(values, draws, seed):
    rng = np.random.default_rng(seed)
    sups = np.empty(draws)
    chunk = max(1, (1 << 22) // values.shape[1])
    for start in range(0, draws, chunk):
        stop = min(start + chunk, draws)
        signs = 2.0 * rng.integers(0, 2, size=(stop - start, values.shape[1])) - 1.0
        sups[start:stop] = np.max(signs @ values.T, axis=1)
    return float(np.mean(sups)), float(np.std(sups, ddof=1) / math.sqrt(draws))


def _ref_distance_matrix(values):
    return np.mean(np.abs(values[:, None, :] - values[None, :, :]), axis=2)


def _ref_greedy_indices(values, r):
    d = _ref_distance_matrix(values)
    centers = [0]
    mindist = d[0].copy()
    while np.max(mindist) > r + 1e-12:
        far = int(np.argmax(mindist))
        centers.append(far)
        mindist = np.minimum(mindist, d[far])
    return tuple(centers)


def _ref_exact_cover_size(values, r):
    m = values.shape[0]
    d = _ref_distance_matrix(values)
    covers = [int(np.sum(1 << np.where(d[j] <= r + 1e-12)[0])) for j in range(m)]
    full = (1 << m) - 1
    best = np.full(full + 1, m + 1, dtype=np.int32)
    best[0] = 0
    for state in range(full + 1):
        if best[state] > m:
            continue
        for j in range(m):
            new = state | covers[j]
            if best[new] > best[state] + 1:
                best[new] = best[state] + 1
    return int(best[full])


# ---------------------------------------------------------------------------
# table strategies: Gaussian rows, duplicated rows and integer grids with ties


@st.composite
def tables(draw, max_m=12, max_n=9):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(["normal", "duplicates", "grid"]))
    if kind == "grid":
        vals = rng.integers(-2, 3, size=(m, n)).astype(float)
    else:
        vals = rng.normal(size=(m, n))
    if kind == "duplicates":
        vals = vals[rng.integers(0, m, size=m)]
    return vals


class TestCoverKernels:
    @given(tables(max_m=30, max_n=12), st.sampled_from([0.0, 0.2, 0.5, 1.0, 1.5]))
    @settings(max_examples=80, deadline=None)
    def test_greedy_indices_match_all_pairs(self, vals, r):
        got = greedy_cover(FunctionTable(vals), r)
        assert got.cover_indices == _ref_greedy_indices(vals, r)
        assert got.size == len(got.cover_indices)

    @given(tables(max_m=30, max_n=12))
    @settings(max_examples=40, deadline=None)
    def test_distance_rows_bit_identical(self, vals):
        d = _ref_distance_matrix(vals)
        for j in range(vals.shape[0]):
            np.testing.assert_array_equal(covering._distances_from(vals, j), d[j])

    @given(tables(max_m=10, max_n=6), st.sampled_from([0.0, 0.3, 0.8, 1.2]))
    @settings(max_examples=30, deadline=None)
    def test_exact_cover_size_matches_all_pairs(self, vals, r):
        assert exact_cover_size(FunctionTable(vals), r).size == _ref_exact_cover_size(vals, r)

    def test_zero_radius_grid_with_ties(self):
        vals = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        got = greedy_cover(FunctionTable(vals), 0.0)
        assert got.cover_indices == _ref_greedy_indices(vals, 0.0) == (0, 4, 1, 2)


class TestEnumerationKernel:
    @given(tables(max_m=8, max_n=11))
    @settings(max_examples=60, deadline=None)
    def test_exact_matches_sign_matrix_loop(self, vals):
        got = rademacher_exact(FunctionTable(vals))
        assert got.value == pytest.approx(_ref_rademacher_exact(vals), rel=REL, abs=ABS)
        assert got.draws == 1 << vals.shape[1]

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (5, 1), (3, 7), (4, 8), (2, 19)])
    def test_exact_edge_shapes(self, m, n):
        vals = np.random.default_rng(m * 31 + n).normal(size=(m, n))
        got = rademacher_exact(FunctionTable(vals)).value
        assert got == pytest.approx(_ref_rademacher_exact(vals), rel=REL, abs=ABS)

    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 10**6),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_average_matches_outer_sum(self, m, s, n, seed, sparse):
        if (2 * s) ** n > 1 << 14:
            n = 3
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(m, s))
        pmf = rng.dirichlet(np.ones(s), size=n)
        if sparse:
            pmf[:, 0] = 0.0
            pmf[:, -1] += 1.0 - pmf.sum(axis=1)
        got = exact_average_complexity(vals, pmf)
        assert got == pytest.approx(_ref_average_complexity(vals, pmf), rel=REL, abs=ABS)

    @given(tables(max_m=12, max_n=14))
    @settings(max_examples=60, deadline=None)
    def test_exact_bit_identical_to_weighted_kernel(self, vals):
        ones = np.ones((vals.shape[1], 1))
        assert rademacher_exact(FunctionTable(vals)).value == _ref_expected_max(
            vals.T[:, None, :], ones)

    @pytest.mark.parametrize("m,n,work", [(8, 20, None), (64, 18, None), (200, 16, None),
                                          (2000, 12, None), (6, 12, 64), (50, 9, 8 * 50 * 37)])
    def test_exact_bit_identical_at_benchmark_shapes(self, monkeypatch, m, n, work):
        if work is not None:
            monkeypatch.setattr(rademacher, "_WORK_BYTES", work)
        vals = np.random.default_rng(m + n).normal(size=(m, n))
        assert rademacher_exact(FunctionTable(vals)).value == _ref_expected_max(
            vals.T[:, None, :], np.ones((n, 1)))

    @given(
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 7),
        st.integers(0, 10**6),
        st.sampled_from(["iid", "drift", "per_index", "sparse", "point"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_average_matches_weighted_kernel(self, m, s, n, seed, law):
        if (2 * s) ** n > 1 << 14:
            n = 3
        rng = np.random.default_rng(seed)
        vals = rng.normal(size=(m, s))
        first, last = rng.dirichlet(np.ones(s), size=2)
        if law == "iid":
            pmf = np.tile(first, (n, 1))
        elif law == "drift":  # the linear drift of CovariateSpec.probs_end
            w = np.linspace(0.0, 1.0, n)[:, None]
            pmf = (1.0 - w) * first + w * last
        elif law == "per_index":
            pmf = rng.dirichlet(np.ones(s), size=n)
        elif law == "sparse":
            pmf = rng.dirichlet(np.ones(s), size=n)
            pmf[:, 0] = 0.0
            pmf[:, -1] += 1.0 - pmf.sum(axis=1)
        else:
            pmf = np.eye(s)[rng.integers(0, s, size=n)]
        got = exact_average_complexity(vals, pmf)
        assert got == pytest.approx(_ref_average_weighted(vals, pmf), rel=1e-13, abs=ABS)

    def test_tiny_budget_matches_one_block(self, monkeypatch):
        # the default budget runs each of these in one block; 64 bytes splits
        # every enumeration into one high combination per block, the averaged
        # complexity into single count vectors and the Monte-Carlo product
        # into single rows
        rng = np.random.default_rng(5)
        table = FunctionTable(rng.normal(size=(6, 12)))
        vals, pmf = rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=5)
        mc_table = FunctionTable(rng.normal(size=(300, 7)))
        one_block = (
            rademacher_exact(table).value,
            exact_average_complexity(vals, pmf),
            rademacher_mc(mc_table, draws=5000, seed=2),
        )
        monkeypatch.setattr(rademacher, "_WORK_BYTES", 64)
        monkeypatch.setattr(simulate, "_WORK_BYTES", 64)
        blocks = (
            rademacher_exact(table).value,
            exact_average_complexity(vals, pmf),
            rademacher_mc(mc_table, draws=5000, seed=2),
        )
        assert blocks[0] == pytest.approx(one_block[0], rel=REL)
        assert blocks[1] == pytest.approx(one_block[1], rel=REL)
        assert blocks[2].value == pytest.approx(one_block[2].value, rel=REL)
        assert blocks[2].std_error == pytest.approx(one_block[2].std_error, rel=REL)


class TestMonteCarloBlocks:
    def test_benchmark_shape_bit_identical(self):
        vals = np.random.default_rng(3).normal(size=(200, 500))
        got = rademacher_mc(FunctionTable(vals), draws=10_000, seed=4)
        assert (got.value, got.std_error) == _ref_rademacher_mc(vals, 10_000, 4)

    def test_split_blocks_match_reference(self, monkeypatch):
        vals = np.random.default_rng(8).normal(size=(50, 9))
        monkeypatch.setattr(rademacher, "_WORK_BYTES", 8 * 50 * 37)
        got = rademacher_mc(FunctionTable(vals), draws=1000, seed=6)
        value, std_error = _ref_rademacher_mc(vals, 1000, 6)
        assert got.value == pytest.approx(value, rel=REL)
        assert got.std_error == pytest.approx(std_error, rel=REL)


# ---------------------------------------------------------------------------
# memory: tracemalloc sees numpy's allocations in this process only


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    def test_greedy_cover_tall_table(self):
        # the all-pairs version needs about 1.6 GB here
        table = FunctionTable(np.random.default_rng(1).normal(size=(1000, 200)))
        assert _peak_bytes(lambda: greedy_cover(table, 1.0)) < 32 * 2**20

    def test_distance_row_holds_one_difference_array(self):
        # abs() of the (m, n) difference works in place (numpy elides the
        # temporary), so a greedy step allocates one table-sized array, not
        # two; the slack covers numpy's 64 KiB ufunc buffer
        vals = np.random.default_rng(4).uniform(-1.0, 1.0, size=(400, 200))
        covering._distances_from(vals, 3)
        assert _peak_bytes(lambda: covering._distances_from(vals, 3)) <= vals.nbytes + 128 * 1024

    @pytest.mark.parametrize("s,n", [(1, 722), (2, 39), (5, 8), (12, 4)])
    def test_average_at_the_count_law_cap(self, s, n):
        # the most draws that s atoms are served, and the shape of the largest
        # measured peak (s = 12): the DP and its count matrix stay within 16
        # bytes per candidate of the cap, beside one evaluation block
        assert simulate._count_law_fits(n, 2 * s)
        assert not simulate._count_law_fits(n + 1, 2 * s)
        rng = np.random.default_rng(s)
        vals, pmf = rng.normal(size=(200, s)), rng.dirichlet(np.ones(s), size=n)
        peak = _peak_bytes(lambda: exact_average_complexity(vals, pmf))
        assert peak <= simulate._WORK_BYTES + 16 * simulate._COUNT_LAW_MAX, peak

    def test_exact_tall_table(self):
        table = FunctionTable(np.random.default_rng(2).normal(size=(2000, 16)))
        assert _peak_bytes(lambda: rademacher_exact(table)) <= 2 * rademacher._WORK_BYTES

    def test_monte_carlo_tall_table(self):
        # one unblocked sign chunk times the table would be 800 MB
        table = FunctionTable(np.random.default_rng(3).normal(size=(1000, 10)))
        peak = _peak_bytes(lambda: rademacher_mc(table, draws=100_000, seed=0))
        assert peak <= 2 * rademacher._WORK_BYTES

    def test_monte_carlo_signs_overwrite_their_draws(self):
        # at the benchmark shape a float copy of the chunk's 32 MiB of integer
        # draws took the peak to 64 MiB; now it is the draws, one product
        # block (the whole chunk here) and the 1 MiB conversion buffer
        m, n = 200, 500
        table = FunctionTable(np.random.default_rng(3).normal(size=(m, n)))
        chunk = (1 << 22) // n
        peak = _peak_bytes(lambda: rademacher_mc(table, draws=10_000, seed=4))
        assert peak <= 8 * chunk * (n + m) + 2**20 + 64 * 1024, peak
