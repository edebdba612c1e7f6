"""Least-squares excess-risk bounds with explicit constants.

The bounds for truncated least-squares regression over a class of
VC-type complexity are driven by four ingredients, all parameterized by a
pair (c, lambda) with c > 1, lambda > 1:

- epsilon_n(c, lambda): the critical deviation level,
- b(c, lambda): the exponential rate coefficient,
- A / a: the covering-count factor at a specific radius,
- V(c, lambda): the prefactor whose numerical minimization yields the
  headline constant ~3292 at the optimizing pair (c0, lambda0).

Everything is closed-form except optimize_v. It finds the minimum of V on
a fixed coarse grid by best-first branch-and-bound over index boxes of
that grid (interval global optimization: Moore 1966; Hansen 1980). Each
box gets a lower bound from the monotone factors of V: q0 c(c+1) rises in
c, p = c/(c-1) falls in c, log(2(c+1)(2c+3)) rises in c, q1 and q2 rise in
lambda, and q0 and q3 each have one minimum in lambda. Boxes of at most
256 points are evaluated exactly. A box is pruned only when its bound
exceeds the best value found by more than 1e-9 relative (a slack for
rounding), never on equality, and equal values go to the lowest flat
index. So the search returns the grid point that np.argmin over the full
grid returns. A local refinement follows.
"""

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .covering import EntropyEstimate
from .bounds_rademacher import _block_count

__all__ = [
    "BoundParams",
    "epsilon_n",
    "epsilon_n_upper",
    "b_coeff",
    "radius_A",
    "log_a_from_entropy",
    "V_function",
    "OptimizedConstants",
    "optimize_v",
    "optimized_bound",
    "small_lambda_bound",
    "refined_bound",
    "bounded_class_ci",
    "unbounded_response_ci",
    "vc_mixing_second_term",
]

SMALL_LAMBDA_MAX = 13.0 / 12.0


@dataclass(frozen=True)
class BoundParams:
    """Parameter bundle (n, B, delta, c, lam) feeding the bound formulas."""

    n: int
    B: float
    delta: float
    c: float
    lam: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")
        if self.c <= 1:
            raise ValueError(f"c must exceed 1, got {self.c}")
        if self.lam <= 1:
            raise ValueError(f"lambda must exceed 1, got {self.lam}")


def _q_values(lam: "float | np.ndarray") -> tuple:
    """q0..q3 at lambda; elementwise when lam is an array."""
    q0 = lam * lam / (8.0 * (lam - 1.0))
    q1 = (1.0 - 1.0 / lam) / 9.0
    q2 = (2.0 / 3.0) * (2.0 * lam - 1.0)
    q3 = (2.0 * lam - 1.0) ** 2 * lam / (lam - 1.0)
    return q0, q1, q2, q3


def epsilon_n(params: BoundParams) -> float:
    """Critical deviation level 8B^2(-(l-1) + sqrt((l-1)^2 + g)), g = c(c+1)l^2/n.

    Evaluated in the rationalized form 8B^2 g / ((l-1) + sqrt((l-1)^2 + g)),
    which adds two positive terms: the difference form cancels when g is
    small against (l-1)^2, that is for large n.
    """
    c, lam, n, B = params.c, params.lam, params.n, params.B
    g = c * (c + 1.0) * lam * lam / n
    return 8.0 * B * B * g / ((lam - 1.0) + math.sqrt((lam - 1.0) ** 2 + g))


def epsilon_n_upper(params: BoundParams) -> float:
    """Closed-form majorant of epsilon_n:

    8 B^2 lam min(c(c+1)/(2n) * lam/(lam-1), sqrt(c(c+1)/n)).
    """
    c, lam, n, B = params.c, params.lam, params.n, params.B
    cc = c * (c + 1.0)
    return 8.0 * B * B * lam * min(cc / (2.0 * n) * lam / (lam - 1.0), math.sqrt(cc / n))


def b_coeff(params: BoundParams) -> float:
    """Exponential rate coefficient b(c, lambda, B):

    (1/(32 B^2)) (1-1/c)^3 (1-1/lam) / ((1/3)(1-1/c)(1-1/lam) + 2lam-1)^2.
    """
    c, lam, B = params.c, params.lam, params.B
    u, v = 1.0 - 1.0 / c, 1.0 - 1.0 / lam
    return (1.0 / (32.0 * B * B)) * u**3 * v / ((u * v / 3.0 + 2.0 * lam - 1.0) ** 2)


def radius_A(params: BoundParams, epsilon: float) -> float:
    """Covering radius entering A: (1/32)(1/B)(1/(lam(c-1)+1))(1-1/c) eps."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c, lam, B = params.c, params.lam, params.B
    return (1.0 / 32.0) / B / (lam * (c - 1.0) + 1.0) * (1.0 - 1.0 / c) * epsilon


def log_a_from_entropy(
    params: BoundParams, entropy: EntropyEstimate, epsilon: float | None = None
) -> float:
    """Entropy plug-in for log a = log E[A] at radius_A(epsilon).

    Uses log E[N1] <= L(radius); epsilon defaults to epsilon_n(params).
    Raises if the radius falls outside the estimate's validity range.
    """
    eps = epsilon_n(params) if epsilon is None else epsilon
    r = radius_A(params, eps)
    c = params.c
    return math.log(2.0 * (c + 1.0) * (2.0 * c + 3.0)) + entropy(r)


def V_function(c: float, lam: float) -> float:
    """Rate prefactor 32 max(q0 c(c+1), (q1 p + q2 p^2 + q3 p^3) log(2(c+1)(2c+3)))."""
    if c <= 1 or lam <= 1:
        raise ValueError("c and lambda must exceed 1")
    import numpy as np
    return float(_v_grid(np.array([c], dtype=float), np.array([lam], dtype=float))[0, 0])


def _v_grid(cs: "np.ndarray", lams: "np.ndarray") -> "np.ndarray":
    """Vectorized V over a (c, lambda) grid; rows index c, columns lambda."""
    import numpy as np
    c = cs[:, None]
    q0, q1, q2, q3 = _q_values(lams[None, :])
    p = c / (c - 1.0)
    poly = q1 * p + q2 * p * p + q3 * p**3
    branch1 = q0 * c * (c + 1.0)
    branch2 = poly * np.log(2.0 * (c + 1.0) * (2.0 * c + 3.0))
    return 32.0 * np.maximum(branch1, branch2)


_LEAF_POINTS = 256
# A box is pruned only when its bound exceeds the incumbent by this
# relative margin, so a rounding error in the bound cannot drop a minimum.
_PRUNE_SLACK = 1e-9


class _GridFactors(NamedTuple):
    """The factors of V on a grid, per row and per column, as `_v_grid` computes them."""

    cs: "np.ndarray"
    p3: "np.ndarray"  # p**3 per row
    log_a: "np.ndarray"  # log(2(c+1)(2c+3)) per row
    q: tuple  # q0..q3 per column
    j_q0: int  # column of the grid minimum of q0 (lambda = 2)
    j_q3: int  # column of the grid minimum of q3


def _grid_factors(cs: "np.ndarray", lams: "np.ndarray") -> _GridFactors:
    import numpy as np
    q = _q_values(lams)
    return _GridFactors(
        cs=cs,
        p3=(cs / (cs - 1.0)) ** 3,
        log_a=np.log(2.0 * (cs + 1.0) * (2.0 * cs + 3.0)),
        q=q,
        j_q0=int(np.argmin(q[0])),
        j_q3=int(np.argmin(q[3])),
    )


def _box_lower_bound(f: _GridFactors, i0: int, i1: int, j0: int, j1: int) -> float:
    """A lower bound on `_v_grid` over rows [i0, i1) and columns [j0, j1).

    The grid must rise in c and in lambda. Each factor of V is replaced by
    its least value on the box: c at the first row and p at the last row,
    q1 and q2 at the first column, q0 and q3 at their grid minimum clamped
    to the columns. The bound follows V's operation order, and rounding is
    monotone, so it is <= V at every point of the box, equal to V on a
    one-point box.
    """
    q0, q1, q2, q3 = f.q
    c = f.cs[i0]
    p = f.cs[i1 - 1] / (f.cs[i1 - 1] - 1.0)
    q0_min = q0[min(max(f.j_q0, j0), j1 - 1)]
    q3_min = q3[min(max(f.j_q3, j0), j1 - 1)]
    poly = q1[j0] * p + q2[j0] * p * p + q3_min * f.p3[i1 - 1]
    return float(32.0 * max(q0_min * c * (c + 1.0), poly * f.log_a[i0]))


def _coarse_argmin(cs: "np.ndarray", lams: "np.ndarray") -> tuple:
    """(i, j, points evaluated) for the minimum of `_v_grid(cs, lams)`.

    Best-first branch-and-bound over index boxes: split a box's longer
    side, evaluate boxes of at most `_LEAF_POINTS` points exactly on slices
    of `cs` and `lams`, and prune a box only when its lower bound exceeds
    the incumbent by more than `_PRUNE_SLACK` relative, never on equality.
    Among equal minima the lowest flat index wins, as with `np.argmin` on
    the full grid.
    """
    import numpy as np
    f = _grid_factors(cs, lams)
    n_lam = lams.shape[0]
    best_v, best_flat, evaluated = math.inf, -1, 0
    heap = [(_box_lower_bound(f, 0, cs.shape[0], 0, n_lam), 0, cs.shape[0], 0, n_lam)]
    while heap:
        lb, i0, i1, j0, j1 = heapq.heappop(heap)
        if lb > best_v * (1.0 + _PRUNE_SLACK):
            break
        if (i1 - i0) * (j1 - j0) <= _LEAF_POINTS:
            block = _v_grid(cs[i0:i1], lams[j0:j1])
            evaluated += block.size
            di, dj = np.unravel_index(np.argmin(block), block.shape)
            v, flat = float(block[di, dj]), (i0 + di) * n_lam + j0 + dj
            if v < best_v or (v == best_v and flat < best_flat):
                best_v, best_flat = v, flat
            continue
        if i1 - i0 >= j1 - j0:
            mid = (i0 + i1) // 2
            children = ((i0, mid, j0, j1), (mid, i1, j0, j1))
        else:
            mid = (j0 + j1) // 2
            children = ((i0, i1, j0, mid), (i0, i1, mid, j1))
        for box in children:
            heapq.heappush(heap, (_box_lower_bound(f, *box), *box))
    i, j = divmod(int(best_flat), n_lam)
    return i, j, evaluated


@dataclass(frozen=True)
class OptimizedConstants:
    c0: float
    lambda0: float
    V0: float
    radius_coeff: float  # exact value of (1/(4(sqrt 2 + 1)))(1 - 1/c0), ~0.094


def optimize_v() -> OptimizedConstants:
    """Locate the local minimum of V by deterministic grid search.

    Coarse grid c in [1.5, 50], lambda in [1.05, 3] at step 0.005 (9701 x
    391 points). `_coarse_argmin` finds its minimum by branch-and-bound:
    a box of the grid is pruned only when its monotone lower bound (see
    `_box_lower_bound`) exceeds the best value found by more than 1e-9
    relative, and equal values go to the lowest flat index. So it returns
    the point a full scan with `np.argmin` returns, after evaluating about
    12k points. Repeated local refinement then runs down to step 1e-4.
    The located minimum is validated against the known brackets (c0 in
    (11.46, 11.47), lambda0 in (1.29, 1.3), V0 in (3291, 3292)); failing
    them raises.
    """
    import numpy as np
    step = 0.005
    cs = np.arange(1.5, 50.0 + step / 2, step)
    lams = np.arange(1.05, 3.0 + step / 2, step)
    i, j, _ = _coarse_argmin(cs, lams)
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

    v0 = V_function(c_best, l_best)
    ok = 11.46 < c_best < 11.47 and 1.29 < l_best < 1.30 and 3291 < v0 < 3292
    if not ok:
        raise RuntimeError(
            f"constant search left the expected brackets: c0={c_best}, "
            f"lambda0={l_best}, V0={v0}"
        )
    coeff = (1.0 / (4.0 * (math.sqrt(2.0) + 1.0))) * (1.0 - 1.0 / c_best)
    return OptimizedConstants(c0=c_best, lambda0=l_best, V0=v0, radius_coeff=coeff)


def optimized_bound(n: int, B: float, delta: float, log_cover: float) -> float:
    """Headline bound 3292 (B^2/n)(1 + log(1/delta) + log_cover).

    ``log_cover`` must be the cover log at radius ~0.094 B/n (exactly
    radius_coeff * B/n with the coefficient from optimize_v).
    """
    if n < 1 or B <= 0 or not (0 < delta < 1):
        raise ValueError("need n >= 1, B > 0, delta in (0,1)")
    if log_cover < 0:
        raise ValueError("log cover must be nonnegative")
    return 3292.0 * (B * B / n) * (1.0 + math.log(1.0 / delta) + log_cover)


def small_lambda_bound(n: int, B: float, delta: float, lam: float, log_cover: float) -> float:
    """Bound in the lambda -> 1 regime (implicit c=2), valid on (1, 13/12]:

    (64/(lambda-1)) (B^2/n)(log 42 + log(1/delta) + log_cover).

    ``log_cover`` must be the cover log at radius B/(24 n).
    """
    if not (1.0 < lam <= SMALL_LAMBDA_MAX):
        raise ValueError(f"lambda must lie in (1, 13/12], got {lam}")
    if n < 1 or B <= 0 or not (0 < delta < 1):
        raise ValueError("need n >= 1, B > 0, delta in (0,1)")
    if log_cover < 0:
        raise ValueError("log cover must be nonnegative")
    return (64.0 / (lam - 1.0)) * (B * B / n) * (
        math.log(42.0) + math.log(1.0 / delta) + log_cover
    )


def refined_bound(
    n: int, B_n: float, delta: float, c_n: float, entropy: EntropyEstimate
) -> float:
    """Asymptotic-regime bound with lambda_n = 1 + B_n^2 n^{-1/2}.

    n^{-1/2} (4 c(c+1) + 32 (c/(c-1))^3 (log(2(c+1)(2c+3)/delta)
                                         + L(radius)))

    at radius (1/(4 B_n))(1 - 1/c_n) n^{-1/2}.  The limiting prefactor
    C_n -> 1 is applied as exactly 1; for small n this understates the
    finite-sample constant, hence the warning.
    """
    if B_n < 1:
        raise ValueError(f"B_n must be >= 1, got {B_n}")
    if c_n <= 1:
        raise ValueError(f"c_n must exceed 1, got {c_n}")
    if n < 1 or not (0 < delta < 1):
        raise ValueError("need n >= 1 and delta in (0,1)")
    if n < 100:
        warnings.warn(
            "refined_bound applies the limiting prefactor 1; for n < 100 the "
            "finite-sample constant may be materially larger",
            stacklevel=2,
        )
    root = math.sqrt(float(n))
    radius = (1.0 / (4.0 * B_n)) * (1.0 - 1.0 / c_n) / root
    F = entropy(radius)
    c = c_n
    return (1.0 / root) * (
        4.0 * c * (c + 1.0)
        + 32.0 * (c / (c - 1.0)) ** 3
        * (math.log(2.0 * (c + 1.0) * (2.0 * c + 3.0) / delta) + F)
    )


def bounded_class_ci(params: BoundParams, inf_risk: float, log_a: float) -> float:
    """Excess-risk interval for classes uniformly bounded by B:

    (6 lam - 5) inf_risk + 6 max(eps_n, (1/(n b))(log a + log(2/delta))).
    """
    if inf_risk < 0:
        raise ValueError(f"inf_risk must be >= 0, got {inf_risk}")
    tail = max(
        epsilon_n(params),
        (log_a + math.log(2.0 / params.delta)) / (params.n * b_coeff(params)),
    )
    return (6.0 * params.lam - 5.0) * inf_risk + 6.0 * tail


def unbounded_response_ci(
    params: BoundParams,
    eta: float,
    eta_prime: float,
    inf_risk_Phi: float,
    tail_term: float,
    bounded_ci_tail: float,
) -> float:
    """Lift of the bounded-class interval to unbounded responses.

    (1+eta)((1+eta')(6 lam - 5) inf_risk_Phi + bounded_ci_tail)
      + ((1 + 1/eta) + (1+eta)(1 + 1/eta')(6 lam - 5)) tail_term

    where tail_term = (1/n) sum_k E[(|W_k| - B)^2 1{|W_k| > B}] quantifies
    how much of the response distribution the truncation discards.
    """
    for name, val in (("eta", eta), ("eta_prime", eta_prime)):
        if val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    if inf_risk_Phi < 0 or tail_term < 0 or bounded_ci_tail < 0:
        raise ValueError("risk and tail inputs must be nonnegative")
    factor = 6.0 * params.lam - 5.0
    return (1.0 + eta) * ((1.0 + eta_prime) * factor * inf_risk_Phi + bounded_ci_tail) + (
        (1.0 + 1.0 / eta) + (1.0 + eta) * (1.0 + 1.0 / eta_prime) * factor
    ) * tail_term


def vc_mixing_second_term(
    n: int, delta: float, rate_r: float, params: BoundParams, log_a_star: float
) -> float:
    """Deviation term under beta-mixing via blocking.

    With m = ceil(log_r(2n/delta)) blocks of size n_m = floor(n/m):

        max(n_m m eps_{n_m}, (1/b)(log m + log a* + log(2/delta)))

    where eps_{n_m} is epsilon_n at the block sample size and log a* is the
    max-over-blocks covering log supplied by the caller.
    """
    if rate_r <= 1:
        raise ValueError(f"rate_r must exceed 1, got {rate_r}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    m = _block_count(n, delta, rate_r)
    if m >= n:
        raise ValueError(f"block count m={m} must be below n={n}; mixing too slow")
    n_m = n // m
    block_params = BoundParams(
        n=n_m, B=params.B, delta=params.delta, c=params.c, lam=params.lam
    )
    first = n_m * m * epsilon_n(block_params)
    second = (log_a_star + math.log(float(m)) + math.log(2.0 / delta)) / b_coeff(params)
    return max(first, second)
