"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.  Every numeric gate is asserted at
the stated tolerance; the neural-network training run is reported only
(its minimizer is heuristic) and never fails the gate.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from riskbounds.bounds_rademacher import (
    deviation_tail,
    nn_generalization_ci,
)
from riskbounds.bounds_vc import (
    BoundParams,
    b_coeff,
    epsilon_n,
    epsilon_n_upper,
    optimize_v,
    radius_A,
)
from riskbounds.covering import (
    EntropyEstimate,
    classify_entropy,
    greedy_cover,
    nn_entropy,
    vc_entropy,
)
from riskbounds.hypothesis import (
    FunctionTable,
    GridSpec,
    NeuralNet,
    SequentialSample,
    TruncatedLinear,
    evaluate_class,
    vc_dimension_bound,
)
from riskbounds.mixing import markov_beta_of_lag
from riskbounds.rademacher import massart_bound, rademacher_exact
from riskbounds.simulate import (
    coverage_experiment,
    exact_average_complexity,
    model_from_json,
)

from oracles import constant_profile, enumerate_product_states


@contextmanager
def criterion(label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL", flush=True)
        raise
    print(f"\n[acceptance] {label}: PASS ({time.perf_counter() - start:.2f}s)", flush=True)


def coverage_floor(delta: float, trials: int) -> float:
    return 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


# (c, lam) test grid shared by criteria 3 and 4
C_GRID = np.linspace(1.05, 50.0, 20)
LAM_GRID = np.linspace(1.05, 5.0, 20)


def test_c1_optimized_constants():
    with criterion("C1 optimized constants bracket the published values"):
        start = time.perf_counter()
        consts = optimize_v()
        elapsed = time.perf_counter() - start
        assert 11.46 < consts.c0 < 11.47
        assert 1.29 < consts.lambda0 < 1.30
        assert 3291.0 < consts.V0 < 3292.0
        assert 0.0935 < consts.radius_coeff < 0.0955
        assert elapsed < 10.0, f"optimizer took {elapsed:.2f}s"


def test_c2_tightness_examples():
    with criterion("C2 exact complexity of the two reference classes"):
        unit = FunctionTable(np.array([[1.0, 0.0], [0.0, 1.0]]))
        balanced = FunctionTable(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        )
        rademacher_exact(unit)  # warm-up outside the timed window
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            v1 = rademacher_exact(unit).value
            v2 = rademacher_exact(balanced).value
            best = min(best, time.perf_counter() - start)
        assert v1 == 0.5
        assert v2 == 1.0
        assert best < 1e-3, f"took {best * 1e3:.3f}ms"


def test_c3_rate_coefficient_identity():
    with criterion("C3 b * 32 B^2 (q1 p + q2 p^2 + q3 p^3) = 1 on the grid"):
        worst = 0.0
        for B in (1.0, 2.5):
            for c in C_GRID:
                for lam in LAM_GRID:
                    prof = constant_profile(c, lam)
                    params = BoundParams(n=100, B=B, delta=0.5, c=c, lam=lam)
                    poly = (
                        prof.q1 * prof.p
                        + prof.q2 * prof.p**2
                        + prof.q3 * prof.p**3
                    )
                    worst = max(worst, abs(b_coeff(params) * 32.0 * B * B * poly - 1.0))
        assert worst <= 1e-12, f"worst identity residual {worst:.3e}"


def test_c4_majorization_suite():
    with criterion("C4 critical-level majorant, radius floor, q0 <= q3"):
        root2 = math.sqrt(2.0)
        for c in C_GRID:
            for lam in LAM_GRID:
                for n in (10, 100, 10**4, 10**6):
                    params = BoundParams(n=n, B=1.0, delta=0.5, c=c, lam=lam)
                    eps = epsilon_n(params)
                    assert eps <= epsilon_n_upper(params) * (1 + 1e-12)
                    floor = (1.0 / (4.0 * (root2 + 1.0))) * (1.0 - 1.0 / c) / n
                    assert radius_A(params, eps) >= floor * (1 - 1e-12)
        for lam in np.linspace(1.05, 5.0, 200):
            prof = constant_profile(2.0, lam)
            assert prof.q0 <= prof.q3


def test_c5_massart_dominance_and_hulls():
    with criterion("C5 Massart dominance and hull identities on 200 tables"):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(1, 13))
            vals = rng.uniform(-3.0, 3.0, size=(m, n))
            table = FunctionTable(vals)
            rad = rademacher_exact(table).value
            assert rad <= massart_bound(table) + 1e-9

        # structural identities, exact under enumeration
        rng = np.random.default_rng(99)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)), n))
            b = rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 5)), n))
            rad_a = rademacher_exact(FunctionTable(a)).value
            rad_b = rademacher_exact(FunctionTable(b)).value

            sumset = (a[:, None, :] + b[None, :, :]).reshape(-1, n)
            assert rademacher_exact(FunctionTable(sumset)).value == pytest.approx(
                rad_a + rad_b, abs=1e-9
            )

            if len(a) >= 2:
                combos = np.array([0.5 * a[0] + 0.5 * a[1], 0.25 * a[0] + 0.75 * a[1]])
                hull = np.vstack([a, combos])
                assert rademacher_exact(FunctionTable(hull)).value == pytest.approx(
                    rad_a, abs=1e-12
                )

            # the 2x hull bound needs sup_h U.h >= 0; anchoring the class at
            # the zero function guarantees that for every sign vector
            anchored = np.vstack([a, np.zeros((1, n))])
            rad_anchored = rademacher_exact(FunctionTable(anchored)).value
            balanced = np.vstack([anchored, -anchored])
            assert (
                rademacher_exact(FunctionTable(balanced)).value
                <= 2.0 * rad_anchored + 1e-12
            )

            symmetric = np.vstack([a, -a])
            with_zero = np.vstack([symmetric, np.zeros((1, n))])
            assert (
                rademacher_exact(FunctionTable(with_zero)).value
                == rademacher_exact(FunctionTable(symmetric)).value
            )

        # the 2x factor is attained: the two-coordinate indicator pair
        unit = np.array([[1.0, 0.0], [0.0, 1.0]])
        hull = np.vstack([unit, -unit, np.zeros((1, 2))])
        assert rademacher_exact(FunctionTable(hull)).value == 1.0
        assert rademacher_exact(FunctionTable(unit)).value == 0.5


def _deviation_distribution(vals, pmf):
    """Exact law of sup_h (sum_k E h - sum_k h(Z_k)) under the product pmf."""
    states, probs = enumerate_product_states(pmf)
    pop = (pmf @ vals.T).sum(axis=0)  # (m,)
    emp = vals[:, states].sum(axis=2).T  # (s^n, m)
    dev = np.max(pop[None, :] - emp, axis=1)
    return dev, probs


def test_c6_symmetrization_and_mcdiarmid_by_enumeration():
    with criterion("C6 symmetrization and sub-Gaussian tails, zero violations"):
        rng = np.random.default_rng(7)
        cases = []
        for _ in range(6):
            s = int(rng.integers(2, 5))
            n = int(rng.integers(3, 7))
            m = int(rng.integers(2, 6))
            vals = rng.uniform(-1.0, 1.0, size=(m, s))
            p = rng.uniform(0.2, 1.0, size=s)
            pmf = np.tile(p / p.sum(), (n, 1))
            cases.append((vals, pmf))
        # one nonstationary product law as well
        vals = rng.uniform(-1.0, 1.0, size=(3, 2))
        pmf = np.linspace([0.2, 0.8], [0.7, 0.3], 5)
        cases.append((vals, pmf))

        for vals, pmf in cases:
            n = pmf.shape[0]
            dev, probs = _deviation_distribution(vals, pmf)
            rad_ave = exact_average_complexity(vals, pmf)
            mean_dev = float(probs @ dev)
            assert mean_dev <= 2.0 * rad_ave + 1e-12

            # symmetric closure: one-sided sup equals sup of |deviation|
            sym = np.vstack([vals, -vals])
            dev_s, probs_s = _deviation_distribution(sym, pmf)
            rad_sym = exact_average_complexity(sym, pmf)
            assert float(probs_s @ dev_s) <= 2.0 * rad_sym + 1e-12

            # bounded-differences tail: P(D > E D + eps) <= exp(-eps^2/(2 env^2))
            env_l2 = math.sqrt(n) * float(np.max(np.abs(vals)))
            hi = float(np.max(dev)) - mean_dev
            if hi <= 0:
                continue
            for eps in np.linspace(hi / 20.0, hi, 20):
                exact_tail = float(probs[dev > mean_dev + eps].sum())
                assert exact_tail <= deviation_tail(eps, env_l2) + 1e-12


# -- criterion 7: coverage experiments ---------------------------------------

FINITE_CLASS = np.round(np.random.default_rng(11).uniform(-1.0, 1.0, (8, 2)), 3)

IID_MODEL = {
    "kind": "iid",
    "B": 1.0,
    "covariates": {"kind": "discrete", "support": [[0.0], [1.0]], "probs": [0.6, 0.4]},
    "mean": {"kind": "atom_table", "values": [0.0, 0.0]},
    "noise": {"kind": "none"},
}

DRIFTING_MODEL = {
    "kind": "nonstationary_independent",
    "B": 1.0,
    "covariates": {
        "kind": "discrete",
        "support": [[0.0], [1.0]],
        "probs": [0.8, 0.2],
        "probs_end": [0.2, 0.8],
    },
    "mean": {"kind": "atom_table", "values": [0.0, 0.0]},
    "noise": {"kind": "none"},
}

MARKOV_MODEL = {
    "kind": "markov_chain",
    "B": 1.0,
    "covariates": {
        "kind": "markov",
        "support": [[0.0], [1.0]],
        "transition": [[0.9, 0.1], [0.1, 0.9]],
    },
    "mean": {"kind": "atom_table", "values": [0.0, 0.0]},
    "noise": {"kind": "none"},
}

LINEAR_GRID_CLASS = TruncatedLinear(
    basis="affine",
    dim=1,
    B=1.0,
    grid=GridSpec(axes=(np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 9))),
)

REGRESSION_MODEL = {
    "kind": "iid",
    "B": 1.0,
    "covariates": {
        "kind": "discrete",
        "support": [[-1.0], [-0.5], [0.0], [0.5], [1.0]],
        "probs": [0.2, 0.2, 0.2, 0.2, 0.2],
    },
    "mean": {"kind": "affine", "coeffs": [0.3, 0.4]},
    "noise": {"kind": "discrete", "values": [0.3, -0.3], "probs": [0.5, 0.5]},
}

_C7_BUDGET = {"elapsed": 0.0}


def _run_coverage(config):
    start = time.perf_counter()
    report = coverage_experiment(config)
    _C7_BUDGET["elapsed"] += time.perf_counter() - start
    assert _C7_BUDGET["elapsed"] < 600.0, "coverage experiments exceeded 10 minutes"
    return report


def test_c7a_rademacher_ci_coverage():
    label = "C7a finite-class interval coverage, iid and drifting laws"
    with criterion(label):
        for model, seed in ((IID_MODEL, 2024), (DRIFTING_MODEL, 2025)):
            report = _run_coverage(
                {
                    "bound": "rademacher_ci",
                    "model": model,
                    "values": FINITE_CLASS,
                    "n": 10,
                    "delta": 0.1,
                    "trials": 500,
                    "base_seed": seed,
                }
            )
            assert report.trials == 500
            assert report.empirical_coverage >= coverage_floor(0.1, 500)


def test_c7b_bounded_class_ci_coverage():
    with criterion("C7b grid-regression interval coverage at optimized constants"):
        report = _run_coverage(
            {
                "bound": "bounded_class_ci",
                "model": REGRESSION_MODEL,
                "class": LINEAR_GRID_CLASS,
                "use_optimized_constants": True,
                "n": 2000,
                "delta": 0.1,
                "trials": 300,
                "base_seed": 7,
            }
        )
        assert report.empirical_coverage >= coverage_floor(0.1, 300)
        assert report.details["inf_risk"] >= 0.0  # exact, computed on the atom table


def test_c7c_mixing_ci_coverage():
    with criterion("C7c blocked interval coverage on the two-state chain"):
        vals = np.round(np.random.default_rng(23).uniform(-1.0, 1.0, (6, 2)), 3)
        report = _run_coverage(
            {
                "bound": "mixing_rademacher_ci",
                "model": MARKOV_MODEL,
                "values": vals,
                "rate_r": 1.25,
                "n": 200,
                "delta": 0.1,
                "trials": 500,
                "base_seed": 4711,
            }
        )
        assert report.empirical_coverage >= coverage_floor(0.1, 500)
        # the mixing coefficient entering the bound is the exact chain value
        P = np.array(MARKOV_MODEL["covariates"]["transition"])
        m_hat = report.details["m_hat"]
        exact_beta = markov_beta_of_lag(P, np.array([0.5, 0.5]), m_hat)
        assert report.details["beta_m"] == pytest.approx(exact_beta, rel=1e-12)
        assert exact_beta == pytest.approx(0.8**m_hat / 2.0, rel=1e-12)


def test_c8_entropy_formulas_and_cover_consistency():
    with criterion("C8 entropy estimates match re-derivations and cover logs"):
        for V in (1, 2, 5):
            for B in (0.5, 1.0, 3.0):
                for r in np.linspace(B / 400.0, B / 4.0, 100):
                    mine = math.log(3.0) + V * (
                        1.0 + math.log(2.0 * B / r) + math.log1p(math.log(3.0 * B / r))
                    )
                    assert abs(vc_entropy(V, B, r) - mine) <= 1e-9
        for d, N in ((1, 1), (2, 3), (4, 2)):
            for B in (1.0, 2.0):
                for r in np.linspace(B / 400.0, 0.499 * B, 100):
                    mine = ((2 * d + 5) * N + 1) * (
                        1.0 + math.log(12.0 * B * (N + 1) / r)
                    )
                    assert abs(nn_entropy(d, N, B, r) - mine) <= 1e-9

        assert classify_entropy(EntropyEstimate.vc(3, 1.0)).kind == "subeuclidean"
        assert classify_entropy(EntropyEstimate.neural_net(2, 4, 1.0)).kind == "subeuclidean"

        cls = TruncatedLinear(
            basis="linear",
            dim=2,
            B=1.0,
            grid=GridSpec(axes=(np.linspace(-1.0, 1.0, 15), np.linspace(-1.0, 1.0, 15))),
        )
        V = vc_dimension_bound(cls)
        assert V == 3  # covariate dimension + 1
        rng = np.random.default_rng(5)
        points = rng.uniform(-1.0, 1.0, size=(30, 2))
        table = evaluate_class(cls, SequentialSample(points=points))
        for r in np.linspace(0.02, 0.25, 10):
            log_cover = math.log(greedy_cover(table, float(r)).size)
            assert log_cover <= vc_entropy(V, 1.0, float(r))


def test_c9_network_bound_properties_and_reported_run():
    with criterion("C9 unit-free network width, root-n rate, reported training run"):
        base = nn_generalization_ci(n=10**4, d=2, B=1.0, delta=0.05)
        assert nn_generalization_ci(n=10**4, d=2, B=1.0, delta=0.05, units=1) == base
        assert nn_generalization_ci(n=10**4, d=2, B=1.0, delta=0.05, units=10**6) == base

        ratio = nn_generalization_ci(n=10**6, d=2, B=1.0, delta=0.05) / base
        assert abs(ratio - 0.1) <= 0.15 * 0.1, f"100x-sample ratio {ratio:.4f}"

        net = NeuralNet(dim=1, units=2, B=1.5, mode="joint")
        truth = np.array([2.0, 0.0, 0.0, 0.0, -0.5, 1.0, 0.0])
        atoms = np.linspace(-1.0, 1.0, 9)[:, None]
        model = model_from_json(
            {
                "kind": "iid",
                "B": 1.5,
                "covariates": {
                    "kind": "discrete",
                    "support": atoms.tolist(),
                    "probs": [1.0 / 9.0] * 9,
                },
                "mean": {
                    "kind": "atom_table",
                    "values": net.predict(truth, atoms).tolist(),
                },
                "noise": {"kind": "uniform", "half_width": 0.2},
            }
        )
        report = coverage_experiment(
            {
                "bound": "nn_generalization_ci",
                "model": model,
                "class": net,
                "truth_params": truth,
                "n": 100,
                "delta": 0.1,
                "trials": 100,
                "base_seed": 31,
            }
        )
        # reported only: the fitted network is a heuristic minimizer
        assert report.details["optimality"] == "heuristic"
        assert math.isfinite(report.details["mean_optimization_residual"])
        print(
            f"\n[acceptance]   reported network run: coverage "
            f"{report.empirical_coverage:.3f}, mean optimization residual "
            f"{report.details['mean_optimization_residual']:.4f}",
            flush=True,
        )
