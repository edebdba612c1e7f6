"""Beta-mixing coefficients, blocking index sets, and the blocked
deviation bound for dependent samples.

The blocking device splits {1..n} into m arithmetic progressions; each
progression behaves like an independent subsample up to a total-variation
correction n * beta(m).  Index sets are 1-based, matching the progression
definition {k + l m} intersected with {1..n}; array consumers subtract 1.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hypothesis import _distribution

__all__ = [
    "block_indices",
    "beta_exact_discrete",
    "stationary_distribution",
    "markov_beta_of_lag",
    "sample_chain",
    "choose_block_size",
    "BlockedTail",
    "blocked_deviation_bound",
]


def block_indices(n: int, m: int) -> list:
    """The m arithmetic-progression blocks of {1..n} with gap m.

    Block k (k = 0..m-1) holds the 1-based indices congruent to k mod m.
    Blocks partition {1..n}; sizes differ by at most one.
    """
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    idx = np.arange(1, n + 1)
    return [idx[idx % m == k] for k in range(m)]


def beta_exact_discrete(joint: np.ndarray) -> float:
    """Beta coefficient of a finite joint distribution.

    (1/2) sum_ij |p_ij - p_i. p_.j|; the supremum over finite partitions is
    attained on atoms for finite alphabets.  ``joint`` must be a valid
    probability table.
    """
    p = np.asarray(joint, dtype=float)
    if p.ndim != 2:
        raise ValueError("joint must be a 2-d table")
    if np.any(p < -1e-15):
        raise ValueError("joint table has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"joint table sums to {total}, expected 1")
    rows = p.sum(axis=1)
    cols = p.sum(axis=0)
    return 0.5 * float(np.abs(p - np.outer(rows, cols)).sum())


def _check_stochastic(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError("field 'transition' must be a square matrix")
    if np.any(P < -1e-15) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("field 'transition' must be row-stochastic")
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary distribution of a finite chain, refused unless unique.

    Periodic chains and transient states are fine; two or more closed
    classes (rank(P^T - I) < s - 1) leave the law non-unique.
    """
    P = _check_stochastic(P)
    s = P.shape[0]
    # solve pi (P - I) = 0 with sum(pi) = 1; full column rank iff pi is unique
    A = np.vstack([P.T - np.eye(s), np.ones(s)])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < s:
        raise ValueError("the chain has two or more closed classes: no unique stationary law")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def sample_chain(P: np.ndarray, n: int, rngs) -> np.ndarray:
    """(T, n) states of T stationary-start chains stepped together: chain t
    draws u = rngs[t].random(n), and its state k counts the cumulative
    probabilities out of state k-1 that are <= u_k (searchsorted, side right)."""
    P = _check_stochastic(P)
    cum = np.cumsum(P, axis=1)
    u = np.array([rng.random(n) for rng in rngs]).reshape(-1, n)
    states = np.empty(u.shape, dtype=np.int64)
    states[:, 0] = (np.cumsum(stationary_distribution(P)) <= u[:, :1]).sum(axis=1)
    for k in range(1, n):
        states[:, k] = (cum[states[:, k - 1]] <= u[:, k, None]).sum(axis=1)
    return states


def markov_beta_of_lag(P: np.ndarray, pi: np.ndarray | None, m: int) -> float:
    """Beta coefficient between X_0 and X_m for a stationary Markov chain.

    Computed exactly from the lag-m joint table diag(pi) P^m.  For a chain
    started at stationarity the Markov property makes this pairwise
    coefficient equal to the full past-vs-present coefficient, so the value
    is exact, not just a bound, for Markov inputs.
    """
    P = _check_stochastic(P)
    if m < 1:
        raise ValueError(f"lag must be >= 1, got {m}")
    if pi is None:
        pi = stationary_distribution(P)
    else:
        pi = _distribution(pi, "pi", "markov_beta_of_lag", P.shape[0])
        if not np.allclose(pi @ P, pi, atol=1e-9):
            raise ValueError("pi is not stationary for the given transition matrix")
    Pm = np.linalg.matrix_power(P, m)
    joint = pi[:, None] * Pm
    return beta_exact_discrete(joint)


def choose_block_size(n: int, delta: float, rate_r: float) -> int:
    """Smallest block count m with r^-m <= delta/n: m = ceil(log_r(n/delta)).

    Valid for delta in (n r^-n, 1); outside that range no admissible m
    exists below n.
    """
    if rate_r <= 1:
        raise ValueError(f"rate_r must exceed 1, got {rate_r}")
    lo = n * rate_r ** (-float(n))
    if not (lo < delta < 1):
        raise ValueError(f"delta must lie in (n r^-n, 1) = ({lo:.3g}, 1), got {delta}")
    m = math.ceil(math.log(n / delta) / math.log(rate_r))
    return max(m, 1)


@dataclass(frozen=True)
class BlockedTail:
    """Raw additive bound and its [0,1]-clipped probability reading."""

    raw: float
    probability: float


def blocked_deviation_bound(
    per_block_tail: Callable[[float, int], float],
    t: float,
    n: int,
    m: int,
    beta_m: float,
) -> BlockedTail:
    """Bound P(blocked deviation > m t) by sum_k tail(t, |J_k|) + n beta_m.

    ``per_block_tail(t, size)`` bounds the tail at per-block threshold t
    for an independent subsample of the given size, over the natural block
    sizes of ``block_indices(n, m)``.
    """
    if not (0.0 <= beta_m <= 1.0):
        raise ValueError(f"beta_m must lie in [0,1], got {beta_m}")
    sizes = [len(b) for b in block_indices(n, m)]
    raw = float(sum(per_block_tail(t, s) for s in sizes) + n * beta_m)
    return BlockedTail(raw=raw, probability=min(max(raw, 0.0), 1.0))
