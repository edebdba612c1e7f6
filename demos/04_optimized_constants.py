"""Reproduce the optimized constants behind the least-squares risk bound.

The headline excess-risk bound carries a prefactor V(c, lambda) that can be
minimized numerically over its two free constants.  This script runs the
deterministic search, prints the minimizing pair, and evaluates the bound
it induces next to the small-lambda regime alternative.
"""

import time

from riskbounds import (
    BoundParams,
    bounded_class_ci,
    log_a_from_entropy,
    optimize_v,
    optimized_bound,
    small_lambda_bound,
)
from riskbounds.bounds_vc import V_function
from riskbounds.covering import EntropyEstimate


def main():
    start = time.perf_counter()
    consts = optimize_v()
    dt = time.perf_counter() - start
    print(f"optimizer finished in {dt:.2f}s")
    print(f"  c0      = {consts.c0:.4f}")
    print(f"  lambda0 = {consts.lambda0:.4f}")
    print(f"  V0      = {consts.V0:.2f}")
    print(f"  radius coefficient = {consts.radius_coeff:.4f}")

    # sanity: the reported minimum really is the function value there
    print(f"  V(c0, lambda0) check: {V_function(consts.c0, consts.lambda0):.2f}")

    print("\nheadline bound at the optimized constants (B=1, delta=0.05):")
    for n in (10**3, 10**4, 10**5, 10**6):
        val = optimized_bound(n=n, B=1.0, delta=0.05, log_cover=0.0)
        print(f"  n={n:<8d} -> {val:.6f}")

    print("\nsmall-lambda regime (lambda=13/12) for comparison:")
    for n in (10**3, 10**4, 10**5, 10**6):
        val = small_lambda_bound(
            n=n, B=1.0, delta=0.05, lam=13.0 / 12.0, log_cover=0.0
        )
        print(f"  n={n:<8d} -> {val:.6f}")

    # a full plug-in chain: entropy -> covering factor -> interval
    params = BoundParams(n=2000, B=1.0, delta=0.1, c=consts.c0, lam=consts.lambda0)
    log_a = log_a_from_entropy(params, EntropyEstimate.vc(3, 1.0))
    width = bounded_class_ci(params, inf_risk=0.01, log_a=log_a)
    print(f"\nplug-in interval at n=2000, V=3 entropy: {width:.4f}")


if __name__ == "__main__":
    main()
