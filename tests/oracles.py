"""Test oracles: brute-force enumerations and derived-constant records that
only the tests call, kept beside them rather than in the package."""

from dataclasses import dataclass

import numpy as np

from riskbounds.bounds_vc import V_function, _q_values

_ENUM_LIMIT = 1 << 21  # cap on s^n enumerated states


def enumerate_product_states(pmf: np.ndarray) -> tuple:
    """All state combinations of a product law with per-index pmfs.

    pmf is (n, s); returns (states (s^n, n), probs (s^n,)).  Intended for
    desk-scale oracles (s^n small).
    """
    pmf = np.atleast_2d(np.asarray(pmf, dtype=float))
    n, s = pmf.shape
    if s**n > _ENUM_LIMIT:
        raise ValueError(f"s^n = {s**n} too large to enumerate")
    grids = np.meshgrid(*[np.arange(s)] * n, indexing="ij")
    states = np.stack([g.ravel() for g in grids], axis=1)
    probs = np.prod(pmf[np.arange(n)[None, :], states], axis=1)
    return states, probs


@dataclass(frozen=True)
class ConstantProfile:
    """The derived constants at one (c, lambda) pair."""

    c: float
    lam: float
    p: float
    q0: float
    q1: float
    q2: float
    q3: float
    V: float
    is_argmin: bool = False


def constant_profile(c: float, lam: float, is_argmin: bool = False) -> ConstantProfile:
    if c <= 1 or lam <= 1:
        raise ValueError("c and lambda must exceed 1")
    q0, q1, q2, q3 = _q_values(lam)
    return ConstantProfile(
        c=c, lam=lam, p=c / (c - 1.0), q0=q0, q1=q1, q2=q2, q3=q3,
        V=V_function(c, lam), is_argmin=is_argmin,
    )
