"""Empirical L1 covers of value tables and closed-form entropy estimates.

Covering numbers here use the averaged L1 distance (1/n) sum_k |a_k - b_k|
between table rows, with the table's own rows as the candidate center set.
That restriction is a conservative surrogate: the resulting counts upper
bound the unrestricted covering number, which is what the downstream bounds
consume. The cover kernels and the classifier import numpy themselves.
"""

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "CoveringResult",
    "greedy_cover",
    "exact_cover_size",
    "vc_entropy",
    "nn_entropy",
    "EntropyEstimate",
    "EntropyTag",
    "classify_entropy",
]

EXACT_MAX_ROWS = 16
_COVER_TOL = 1e-12


@dataclass(frozen=True)
class CoveringResult:
    radius: float
    size: int
    method: str
    cover_indices: tuple | None = None


def _distances_from(values: "np.ndarray", j: int) -> "np.ndarray":
    """Averaged L1 distance from row j to every row, in O(m n) memory."""
    import numpy as np
    return np.mean(abs(values - values[j]), axis=1)  # abs() reuses the difference array


def greedy_cover(table: "FunctionTable", r: float) -> CoveringResult:
    """Farthest-point greedy cover of the table rows at radius r.

    Starts from row 0 and repeatedly adds the row farthest (averaged L1)
    from the current centers until every row is within r of some center
    (Gonzalez 1985), computing only each new center's distances: O(k m n)
    time and O(m n) memory for k centers.  Ties break to the lowest row
    index, as with an all-pairs distance matrix.  The size upper-bounds the
    exact minimum.
    """
    import numpy as np
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    centers = [0]
    mindist = _distances_from(table.values, 0)
    while np.max(mindist) > r + _COVER_TOL:
        far = int(np.argmax(mindist))  # argmax returns the lowest tied index
        centers.append(far)
        mindist = np.minimum(mindist, _distances_from(table.values, far))
    return CoveringResult(
        radius=r, size=len(centers), method="greedy", cover_indices=tuple(centers)
    )


def exact_cover_size(table: "FunctionTable", r: float) -> CoveringResult:
    """Minimal number of table rows covering all rows within radius r.

    Exact set-cover over row subsets via bitmask dynamic programming;
    refuses tables with more than 16 rows.
    """
    import numpy as np
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    m = table.m
    if m > EXACT_MAX_ROWS:
        raise ValueError(
            f"table has {m} rows, exact cover enumeration limited to {EXACT_MAX_ROWS}"
        )
    # covers[j] = bitmask of rows within r of row j (m <= 16, shifts fit in int64)
    near = [_distances_from(table.values, j) <= r + _COVER_TOL for j in range(m)]
    covers = [int(np.sum(1 << np.flatnonzero(row))) for row in near]
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
    return CoveringResult(radius=r, size=int(best[full]), method="exact")


def vc_entropy(V: int, B: float, r: float) -> float:
    """Uniform L1 entropy estimate for a class of VC dimension at most V.

    Valid for 0 < r <= B/4:
        log 3 + V (1 + log 2 + log(B/r) + log(1 + log 3 + log(B/r))).
    """
    if B <= 0:
        raise ValueError(f"B must be positive, got {B}")
    if V < 0:
        raise ValueError(f"V must be nonnegative, got {V}")
    if not (0 < r <= B / 4):
        raise ValueError(f"r={r} outside the validity range (0, B/4] = (0, {B / 4}]")
    lbr = math.log(B / r)
    return math.log(3) + V * (1 + math.log(2) + lbr + math.log(1 + math.log(3) + lbr))


def nn_entropy(d: int, N: int, B: float, r: float) -> float:
    """Uniform L1 entropy estimate for one-layer networks with N units on R^d.

    Valid for 0 < r < B/2:
        ((2d+5)N + 1)(1 + log 12 + log(B/r) + log(N+1)).
    """
    if B <= 0:
        raise ValueError(f"B must be positive, got {B}")
    if d < 1 or N < 1:
        raise ValueError("d and N must be >= 1")
    if not (0 < r < B / 2):
        raise ValueError(f"r={r} outside the validity range (0, B/2) = (0, {B / 2})")
    return ((2 * d + 5) * N + 1) * (
        1 + math.log(12) + math.log(B / r) + math.log(N + 1)
    )


@dataclass(frozen=True)
class EntropyTag:
    kind: str  # 'subeuclidean' | 'euclidean' | 'untagged'
    alpha: float | None = None


def _check_B(B: float) -> None:
    """Refuse a function range [-B, B] with B <= 0, which leaves no valid radius."""
    if not B > 0:
        raise ValueError(f"field 'B' must be positive, got {B}")


@dataclass(frozen=True)
class EntropyEstimate:
    """A nonincreasing upper bound r -> L(r) on log covering numbers.

    ``validity`` is the (lo, hi) range of radii where the evaluator is
    defined; lo may be 0 (open at 0).  ``kind`` records the construction.
    """

    kind: str
    evaluator: Callable[[float], float]
    validity: tuple
    params: dict | None = None

    @staticmethod
    def vc(V: int, B: float) -> "EntropyEstimate":
        _check_B(B)
        return EntropyEstimate(
            kind="vc",
            evaluator=lambda r: vc_entropy(V, B, r),
            validity=(0.0, B / 4),
            params={"V": V, "B": B},
        )

    @staticmethod
    def neural_net(d: int, N: int, B: float) -> "EntropyEstimate":
        _check_B(B)
        # open right end; stay strictly inside B/2
        return EntropyEstimate(
            kind="neural_net",
            evaluator=lambda r: nn_entropy(d, N, B, r),
            validity=(0.0, B / 2 * (1 - 1e-12)),
            params={"d": d, "N": N, "B": B},
        )

    @staticmethod
    def custom(fn: Callable[[float], float], validity: tuple) -> "EntropyEstimate":
        return EntropyEstimate(kind="custom", evaluator=fn, validity=tuple(validity))

    def __call__(self, r: float) -> float:
        lo, hi = self.validity
        if not (lo < r <= hi):
            raise ValueError(f"r={r} outside the validity range ({lo}, {hi}]")
        return float(self.evaluator(r))


def classify_entropy(estimate: EntropyEstimate) -> EntropyTag:
    """Tag an entropy estimate as subeuclidean or euclidean(alpha).

    Evaluates L on the dyadic grid r = 2^-j, j = 4..20 (restricted to the
    validity range), then compares a linear fit L ~ a + b*j (subeuclidean,
    L = O(log(1/r))) against an exponential fit log L ~ c + d*j (euclidean,
    L = O(r^-alpha) with alpha = d/log 2).  The tag with the smaller
    relative residual in the original scale wins.  Degenerate data returns
    'untagged'.
    """
    import numpy as np
    lo, hi = estimate.validity
    js, Ls = [], []
    for j in range(4, 21):
        r = 2.0 ** (-j)
        if lo < r <= hi:
            js.append(float(j))
            Ls.append(estimate(r))
    if len(js) < 6:
        return EntropyTag(kind="untagged")
    j = np.asarray(js)
    L = np.asarray(Ls)
    scale = float(np.linalg.norm(L))
    if scale == 0 or not np.all(np.isfinite(L)):
        return EntropyTag(kind="untagged")

    lin = np.polynomial.polynomial.polyfit(j, L, 1)
    lin_pred = np.polynomial.polynomial.polyval(j, lin)
    lin_err = float(np.linalg.norm(L - lin_pred)) / scale

    if np.any(L <= 0):
        exp_err, alpha = math.inf, None
    else:
        expc = np.polynomial.polynomial.polyfit(j, np.log(L), 1)
        exp_pred = np.exp(np.polynomial.polynomial.polyval(j, expc))
        exp_err = float(np.linalg.norm(L - exp_pred)) / scale
        alpha = expc[1] / math.log(2)
        if alpha <= 0:
            exp_err = math.inf  # nonincreasing in j cannot be euclidean growth

    if min(lin_err, exp_err) > 0.2:
        return EntropyTag(kind="untagged")
    if lin_err <= exp_err:
        return EntropyTag(kind="subeuclidean")
    return EntropyTag(kind="euclidean", alpha=float(alpha))
