"""Empirical Rademacher complexity: exact enumeration, Monte-Carlo, and
finite-class bounds.

The complexity of a value table is E[max_j U . row_j] over uniform random
sign vectors U in {-1,+1}^n.  It is kept UNNORMALIZED (no 1/n factor); every
confidence-interval formula downstream consumes it in that convention.
The kernels import numpy themselves.
"""

import math
from dataclasses import dataclass

__all__ = [
    "RademacherEstimate",
    "rademacher_exact",
    "rademacher_mc",
    "massart_bound",
    "rademacher_cover_bound",
]

# 2^24 sign vectors is the safety limit for exact enumeration
EXACT_MAX_N = 24
# working memory of one exact-enumeration or Monte-Carlo block, in bytes
_WORK_BYTES = 1 << 24


@dataclass(frozen=True)
class RademacherEstimate:
    """Result of a complexity computation.

    ``std_error`` is 0 exactly when ``mode == 'exact'``; for Monte-Carlo it
    is the sample standard deviation of the per-draw maxima divided by
    sqrt(draws).
    """

    value: float
    std_error: float
    draws: int
    mode: str
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.mode == "exact" and self.std_error != 0.0:
            raise ValueError("exact mode must report std_error 0")


def _sign_sums(signed: "np.ndarray", coords, start: int, stop: int) -> "np.ndarray":
    """Sums over ``coords`` of signed[k, b] (+-values[:, k]) for the sign
    vectors start..stop-1, bit i of the index giving coords[i] its sign b."""
    import numpy as np
    idx = np.arange(start, stop)
    sums = np.zeros((stop - start, signed.shape[2]))
    for i, k in enumerate(coords):
        sums += signed[k][idx >> i & 1]
    return sums


def _expected_max(values: "np.ndarray") -> float:
    """E max_j sum_k U_k values[j, k] over uniform random signs U_k; values is (m, n).

    Meet in the middle: the last sign is fixed to +, each enumerated vector
    also standing for its negation (minus its minimum).  The last coordinates
    are summed once into a units-major (m, N_lo) array within a quarter of
    ``_WORK_BYTES``; the others are generated in blocks of index ranges and
    broadcast-added, each block with its max and min within half of it.
    """
    import numpy as np
    m, n = values.shape
    signed = np.stack([values.T, -values.T], axis=1)  # (n, 2, m)
    split, n_lo = n - 1, 1
    # the low half grows to at most the square root of all combinations
    while split > 0 and (n_lo * 2) ** 2 <= 2 ** (n - 1) and 64 * m * n_lo <= _WORK_BYTES:
        split, n_lo = split - 1, n_lo * 2
    lo = np.ascontiguousarray(_sign_sums(signed, range(split, n), 0, n_lo).T)
    lo_w = np.full(n_lo, 0.5 ** (n - split))  # each combination's probability
    n_hi, rows = 2**split, max(1, _WORK_BYTES // 2 // (8 * (m + 2) * n_lo))
    buf = np.empty((min(rows, n_hi), m, n_lo))
    total = 0.0
    for start in range(0, n_hi, rows):
        hi = _sign_sums(signed, range(split), start, min(start + rows, n_hi))
        block = np.add(lo, hi[:, :, None], out=buf[: len(hi)])
        hi_w = np.full(len(hi), 0.5**split)
        total += float(hi_w @ ((block.max(axis=1) - block.min(axis=1)) @ lo_w))
    return total


def rademacher_exact(table: "FunctionTable") -> RademacherEstimate:
    """Exact complexity by enumerating all 2^n sign vectors.

    Meet-in-the-middle kernel ``_expected_max``: 2^(n-1) * m additions, in
    the 16 MiB ``_WORK_BYTES`` budget plus O(m) for any m and n.  The sums
    run in another order than a loop over sign vectors; the two agree to
    about 1e-15 relative, not bit for bit.

    Parameters
    ----------
    table : FunctionTable
        m x n value table; tables with n above ``EXACT_MAX_N`` must use
        rademacher_mc.

    Returns
    -------
    RademacherEstimate with mode='exact', draws=2^n, std_error=0.
    """
    n = table.n
    if n > EXACT_MAX_N:
        raise ValueError(
            f"n={n} too large for exact enumeration (limit {EXACT_MAX_N}); use rademacher_mc"
        )
    value = _expected_max(table.values)
    return RademacherEstimate(value=value, std_error=0.0, draws=1 << n, mode="exact")


def rademacher_mc(table: "FunctionTable", draws: int, seed: int) -> RademacherEstimate:
    """Monte-Carlo complexity estimate from seeded uniform sign draws.

    Deterministic given the seed.  std_error is the sample standard
    deviation of the per-draw suprema divided by sqrt(draws).  The suprema
    are taken in row blocks of the product that fit ``_WORK_BYTES``; the
    signs overwrite their integer draws, 1 MiB at a time.  Signs are drawn
    2^22 entries at a time (one row when n is larger), a 32 MiB chunk held
    beside the 16 MiB product budget.
    """
    import numpy as np
    if draws < 100:
        raise ValueError(f"draws must be >= 100, got {draws}")
    rng = np.random.default_rng(seed)
    sups = np.empty(draws)
    chunk = max(1, (1 << 22) // max(table.n, 1))
    rows = max(1, _WORK_BYTES // (8 * table.m))
    step = max(1, (1 << 17) // max(table.n, 1))
    for start in range(0, draws, chunk):
        stop = min(start + chunk, draws)
        bits = rng.integers(0, 2, size=(stop - start, table.n))
        signs = bits.view(np.float64)
        for lo in range(0, stop - start, step):
            np.subtract(2 * bits[lo : lo + step], 1, out=signs[lo : lo + step])
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            sups[lo:hi] = np.max(signs[lo - start : hi - start] @ table.values.T, axis=1)
    value = float(np.mean(sups))
    std_error = float(np.std(sups, ddof=1) / math.sqrt(draws))
    return RademacherEstimate(
        value=value, std_error=std_error, draws=draws, mode="monte_carlo", seed=seed
    )


def massart_bound(table: "FunctionTable") -> float:
    """Finite-class bound (max row l2 norm) * sqrt(2 log m).

    Always dominates the exact complexity; equals 0 for a single row.
    """
    import numpy as np
    norms = np.sqrt(np.sum(table.values**2, axis=1))
    return float(np.max(norms) * math.sqrt(2.0 * math.log(table.m)))


def rademacher_cover_bound(
    envelope_l2: float, r: float, n: int, cover_size: int
) -> float:
    """Cover-based complexity bound r*n + envelope_l2 * sqrt(2 log cover_size).

    ``r`` is the covering radius in the (1/n)-averaged L1 metric, so the
    radius contributes r*n in the unnormalized convention.
    """
    if cover_size < 1:
        raise ValueError(f"cover_size must be >= 1, got {cover_size}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return float(r * n + envelope_l2 * math.sqrt(2.0 * math.log(cover_size)))
