"""epsilon_n against a 60-digit decimal evaluation of its defining formula."""

import math
from decimal import Decimal, localcontext

import pytest

from riskbounds.bounds_vc import BoundParams, epsilon_n

MAX_ULPS = 64
N_VALUES = [m * 10**k for k in range(1, 16) for m in (1, 3)]  # 10 .. 3e15


def _reference(c: float, lam: float, n: int, B: float) -> Decimal:
    """8B^2(-(l-1) + sqrt((l-1)^2 + c(c+1)l^2/n)) in 60 digits: the difference
    form loses at most about 16 of them to cancellation over this sweep."""
    with localcontext() as ctx:
        ctx.prec = 60
        c, lam, B = Decimal(c), Decimal(lam), Decimal(B)  # exact binary values
        g = c * (c + 1) * lam * lam / n
        return 8 * B * B * (((lam - 1) ** 2 + g).sqrt() - (lam - 1))


@pytest.mark.parametrize("lam", [1.23, 1.5, 3.0, 1.2934])
@pytest.mark.parametrize("c", [2.3, 5.0, 40.0, 11.46])
def test_epsilon_n_within_ulps_of_the_exact_value(c, lam):
    for n in N_VALUES:
        for B in (1.0, 0.37, 2.5):
            want = _reference(c, lam, n, B)
            got = epsilon_n(BoundParams(n=n, B=B, delta=0.05, c=c, lam=lam))
            ulps = abs(Decimal(got) - want) / Decimal(math.ulp(float(want)))
            assert ulps <= MAX_ULPS, (n, B, float(ulps))
