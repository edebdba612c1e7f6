"""Confidence-interval widths built from Rademacher complexities.

Every function here is closed-form arithmetic.  Conventions:

- complexities are unnormalized (no 1/n), matching the rademacher module;
- ``envelope_l2_sup`` is the almost-sure supremum of the l2 norm of the
  envelope vector sqrt(sum_k H_k(Z_k)^2) over realizations;
- deviations are of SUMS over the n coordinates, not averages.

The ``nonnegative`` switches apply the sharper tail available when every
function in the family is nonnegative (the epsilon/2 refinement).
"""

import math
from dataclasses import dataclass

__all__ = [
    "RademacherCIInputs",
    "deviation_tail",
    "single_hypothesis_tail",
    "conditional_k_bound",
    "rademacher_ci",
    "rademacher_ci_massart",
    "nn_generalization_ci",
    "mixing_rademacher_ci",
]


@dataclass(frozen=True)
class RademacherCIInputs:
    """Inputs of the Rademacher confidence interval.

    n is carried for bookkeeping (the width formula itself is expressed in
    unnormalized sums, so n does not appear in it).
    """

    n: int
    envelope_l2_sup: float
    rad: float
    delta: float
    nonnegative_family: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.envelope_l2_sup < 0:
            raise ValueError("envelope_l2_sup must be nonnegative")
        if self.rad < 0:
            raise ValueError("rad must be nonnegative")
        if not (0 < self.delta < 1):
            raise ValueError(f"delta must lie in (0,1), got {self.delta}")


def _gauss_tail(ratio_sq: float) -> float:
    return math.exp(-ratio_sq)


def deviation_tail(epsilon: float, envelope_l2_sup: float, nonnegative: bool = False) -> float:
    """Tail bound for the supremum deviation exceeding eps + 2*rad.

    General families: exp(-(eps / (sqrt(2) env))^2).
    Nonnegative families: exp(-2 (eps / env)^2).
    A zero envelope gives a degenerate point mass: 0 for eps > 0, 1 at 0.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if envelope_l2_sup < 0:
        raise ValueError("envelope_l2_sup must be nonnegative")
    if envelope_l2_sup == 0:
        return 1.0 if epsilon == 0 else 0.0
    if nonnegative:
        return _gauss_tail(2.0 * (epsilon / envelope_l2_sup) ** 2)
    return _gauss_tail((epsilon / (math.sqrt(2.0) * envelope_l2_sup)) ** 2)


def single_hypothesis_tail(eta: float, h_l2_sup: float) -> float:
    """Tail for one fixed hypothesis: exp(-(eta / (sqrt(2) h))^2)."""
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if h_l2_sup < 0:
        raise ValueError("h_l2_sup must be nonnegative")
    if h_l2_sup == 0:
        return 1.0 if eta == 0 else 0.0
    return _gauss_tail((eta / (math.sqrt(2.0) * h_l2_sup)) ** 2)


def conditional_k_bound(
    epsilon: float,
    eta: float,
    k: int,
    n: int,
    envelope_l2_sup: float,
    rad: float,
    single_tail: float,
) -> tuple:
    """Threshold and tail of the deviation bound conditioned on level k.

    Returns (threshold, tail) with

        threshold = eps + eta + 2 rad k / n
        tail      = exp(-(eps n / (sqrt(2) k env))^2) 1{k>0} + single_tail.

    The conditioning event can have probability zero for some k; the
    formula is computed unconditionally in that case.
    """
    if not (0 <= k <= n):
        raise ValueError(f"k must lie in 0..n, got k={k}, n={n}")
    threshold = epsilon + eta + 2.0 * rad * k / n
    if k == 0:
        return threshold, single_tail
    if envelope_l2_sup == 0:
        first = 1.0 if epsilon == 0 else 0.0
    else:
        first = _gauss_tail(
            (epsilon * n / (math.sqrt(2.0) * k * envelope_l2_sup)) ** 2
        )
    return threshold, first + single_tail


def rademacher_ci(inputs: RademacherCIInputs) -> float:
    """Width of the 1-delta excess-loss interval for empirical minimizers.

    2 (env sqrt(2 log(2/delta)) + rad); for nonnegative families the
    envelope coefficient improves to sqrt(log(2/delta)/2).
    """
    if inputs.nonnegative_family:
        coef = math.sqrt(math.log(2.0 / inputs.delta) / 2.0)
    else:
        coef = math.sqrt(2.0 * math.log(2.0 / inputs.delta))
    return 2.0 * (inputs.envelope_l2_sup * coef + inputs.rad)


def rademacher_ci_massart(
    n: int, envelope_l2_sup: float, delta: float, r: float, mean_sqrt_log_cover: float
) -> float:
    """Interval width with the complexity replaced by a cover bound.

    2 (r + env (sqrt(2 log(2/delta)) + mean_sqrt_log_cover)) with env =
    ``envelope_l2_sup``, where
    ``mean_sqrt_log_cover`` = E sqrt(2 log N1(., r/n)) is supplied by the
    caller, either as a Monte-Carlo plug-in of greedy-cover logs or as
    sqrt(2 L(r/n)) from an entropy estimate (conservative by Jensen).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if r < 0 or envelope_l2_sup < 0 or mean_sqrt_log_cover < 0:
        raise ValueError("r, envelope_l2_sup and mean_sqrt_log_cover must be nonnegative")
    return 2.0 * (r + envelope_l2_sup * (math.sqrt(2.0 * math.log(2.0 / delta))
                                         + mean_sqrt_log_cover))


def nn_generalization_ci(
    n: int,
    d: int,
    B: float,
    delta: float,
    improved: bool = False,
    units: int | None = None,
) -> float:
    """Excess-risk bound for one-layer network regression.

    (B^2/sqrt(n)) (1 + sqrt(2) (8 sqrt(log(2/delta))
                               + sqrt((2d+6) log(24 e sqrt(n))))).

    The width does not depend on the number of units; ``units`` is accepted
    and ignored so that callers holding a network spec can verify that.
    ``improved=True`` replaces the 8 by 4 (sharper constant, off by
    default).  Requires n > 4.
    """
    if n <= 4:
        raise ValueError(f"n must exceed 4, got {n}")
    if B <= 0:
        raise ValueError(f"B must be positive, got {B}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    del units  # the bound is unit-count free
    c = 4.0 if improved else 8.0
    log_term = math.sqrt((2 * d + 6) * math.log(24.0 * math.e * math.sqrt(n)))
    return (B * B / math.sqrt(n)) * (
        1.0 + math.sqrt(2.0) * (c * math.sqrt(math.log(2.0 / delta)) + log_term)
    )


def _block_count(n: int, delta: float, rate_r: float) -> int:
    """Block count m = ceil(log_r(2n/delta)) of the blocked Rademacher
    interval and the blocked VC deviation term; each caller checks that it
    is admissible."""
    return math.ceil(math.log(2.0 * n / delta) / math.log(rate_r))


def mixing_rademacher_ci(
    n: int, delta: float, rate_r: float, max_block_env: float, max_block_rad: float
) -> float:
    """Interval width under exponential beta-mixing at rate r^-m.

    With m_hat = ceil(log_r(2n/delta)) blocks:

        2^{3/2} m_hat (max_block_env sqrt(log(4 m_hat / delta))
                       + max_block_rad)

    where the env/rad inputs are maxima over the m_hat blocked subsamples.
    Requires r^-n <= delta/(2n) <= r^-1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if rate_r <= 1:
        raise ValueError(f"rate_r must exceed 1, got {rate_r}")
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if max_block_env < 0 or max_block_rad < 0:
        raise ValueError("block envelope and complexity must be nonnegative")
    half = delta / (2.0 * n)
    lo, hi = rate_r ** (-float(n)), 1.0 / rate_r
    if not (lo <= half <= hi):
        raise ValueError(
            f"delta/(2n)={half:.3g} outside [r^-n, r^-1] = [{lo:.3g}, {hi:.3g}]; "
            f"admissible delta range is [{2 * n * lo:.3g}, {min(1.0, 2 * n * hi):.3g}]"
        )
    m_hat = _block_count(n, delta, rate_r)
    return (
        2.0 ** 1.5
        * m_hat
        * (max_block_env * math.sqrt(math.log(4.0 * m_hat / delta)) + max_block_rad)
    )
