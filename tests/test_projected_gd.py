"""Differential tests of the batched projected-gradient network fit.

Two references are kept here: the scalar loop, one fit at a time over
(n, units) arrays, and the trial-major batched kernel, which ran the scalar
loop's arithmetic on (T, n, units) buffers.  The units-major kernel keeps
that arithmetic except the order of its n-long sums.  With one unit the
order is unchanged and every comparison demands bit-for-bit equality; with
more units the fitted parameters must agree within ``THETA_ATOL`` after
300 steps.  A batch row against its lone fit, the chunking of a report and
the l1 projection are still compared bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbounds.simulate as sim
from riskbounds.hypothesis import NeuralNet, SequentialSample, truncate
from riskbounds.simulate import coverage_experiment, erm_fit


def scalar_l1_project(v, radius):
    a = np.abs(v)
    if a.sum() <= radius:
        return v
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, len(u) + 1)
    rho = np.nonzero(u * idx > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def scalar_fit_nn(cls, points, targets, init_seed):
    """One projected-GD fit; returns the fitted parameter vector."""
    rng = np.random.default_rng(init_seed)
    N, d = cls.units, cls.dim
    x = np.atleast_2d(points).reshape(-1, d)
    a = rng.normal(0.0, 1.0, size=(N, d))
    b = rng.normal(0.0, 0.5, size=N)
    c = np.zeros(N + 1)

    def project(c):
        if cls.mode == "joint":
            return scalar_l1_project(c, cls.B)
        out = c.copy()
        out[1:] = np.clip(out[1:], -cls.B, cls.B)
        return out

    n = len(x)
    step = sim.GD_STEP / n
    for _ in range(sim.GD_ITERATIONS):
        z = x @ a.T + b
        sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
        pred = c[0] + sig @ c[1:]
        resid = pred - targets
        grad_c = np.empty(N + 1)
        grad_c[0] = 2.0 * resid.sum()
        grad_c[1:] = 2.0 * resid @ sig
        dsig = sig * (1.0 - sig)
        common = 2.0 * (resid[:, None] * dsig) * c[1:]
        grad_a = common.T @ x
        grad_b = common.sum(axis=0)
        a -= step * grad_a
        b -= step * grad_b
        c = project(c - step * grad_c)
    return np.concatenate([a.ravel(), b, c])


def trial_major_fit_nn(cls, points, targets, init_seeds):
    """The batched kernel on (T, n, units) buffers, with the scalar loop's sums."""
    T, n, d = points.shape
    N = cls.units
    a, b, c = np.empty((T, N, d)), np.empty((T, N)), np.zeros((T, N + 1))
    for t, seed in enumerate(init_seeds):
        rng = np.random.default_rng(seed)
        a[t] = rng.normal(0.0, 1.0, size=(N, d))
        b[t] = rng.normal(0.0, 0.5, size=N)
    z, common = np.empty((T, n, N)), np.empty((T, n, N))
    pred, resid, resid2 = np.empty((T, n, 1)), np.empty((T, n)), np.empty((T, 1, n))
    grad_a, grad_c = np.empty((T, N, d)), np.empty((T, N + 1))
    a_t, b_row, c0, c_col, c_row = (
        a.transpose(0, 2, 1), b[:, None, :], c[:, :1], c[:, 1:, None], c[:, None, 1:])
    pred_row, resid_col, common_t = pred[:, :, 0], resid[:, :, None], common.transpose(0, 2, 1)
    grad_c0, grad_c_row, c_units = grad_c[:, 0], grad_c[:, None, 1:], c[:, 1:]

    step = sim.GD_STEP / n
    for _ in range(sim.GD_ITERATIONS):
        np.matmul(points, a_t, out=z)
        z += b_row
        np.minimum(np.maximum(z, -60, out=z), 60, out=z)
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        sig = np.divide(1.0, z, out=z)
        np.matmul(sig, c_col, out=pred)
        np.add(c0, pred_row, out=resid)
        resid -= targets
        np.multiply(np.add.reduce(resid, axis=1), 2.0, out=grad_c0)
        np.multiply(resid, 2.0, out=resid2[:, 0])
        np.matmul(resid2, sig, out=grad_c_row)
        np.subtract(1.0, sig, out=common)
        common *= sig
        common *= resid_col
        common *= 2.0
        common *= c_row
        np.matmul(common_t, points, out=grad_a)
        a -= np.multiply(grad_a, step, out=grad_a)
        b -= step * np.add.reduce(common, axis=1)
        c -= np.multiply(grad_c, step, out=grad_c)
        if cls.mode == "joint":
            c[...] = sim._l1_project(c, cls.B)
        else:
            np.minimum(np.maximum(c_units, -cls.B, out=c_units), cls.B, out=c_units)

    return np.concatenate([a.reshape(T, -1), b, c], axis=1)


# n-long sums run in another order with several units; observed up to about 1e-15
THETA_ATOL = 1e-12


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes(), np.max(np.abs(got - want))


def assert_same_fit(cls, got, want):
    """Bit equality for one unit, ``THETA_ATOL`` on theta for more."""
    if cls.units == 1:
        assert_bits_equal(got, want)
    else:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= THETA_ATOL


# values with exact ties, zeros and magnitudes on both sides of the radii
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def fit_problems(draw):
    cls = NeuralNet(
        dim=draw(st.integers(1, 3)),
        units=draw(st.integers(1, 3)),
        B=draw(st.sampled_from([0.5, 1.5])),
        mode=draw(st.sampled_from(["joint", "independent"])),
    )
    T, n = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-2.0, 2.0, size=(T, n, cls.dim))
    targets = truncate(rng.uniform(-3.0, 3.0, size=(T, n)), cls.B)
    seeds = [draw(st.integers(0, 2**31)) for _ in range(T)]
    return cls, points, targets, seeds


class TestL1Projection:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 6).flatmap(
            lambda k: st.lists(st.lists(coords, min_size=k, max_size=k),
                               min_size=1, max_size=6)
        ),
        radius=st.sampled_from([0.5, 1.0, 1.5, 2.75]),
    )
    def test_rows_match_scalar_projection(self, rows, radius):
        v = np.array(rows, dtype=float)
        out = sim._l1_project(v, radius)
        for t in range(len(v)):
            assert_bits_equal(out[t], scalar_l1_project(v[t], radius))

    def test_inside_zero_and_tied_rows(self):
        v = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.25], [1.0, -1.0, 1.0], [2.0, 2.0, -2.0]])
        out = sim._l1_project(v, 1.5)
        assert_bits_equal(out[:2], v[:2])  # inside the ball: unchanged
        for t in range(len(v)):
            assert_bits_equal(out[t], scalar_l1_project(v[t], 1.5))
        assert np.all(np.abs(out[2:]).sum(axis=1) <= 1.5 + 1e-12)


class TestBatchedFit:
    @settings(max_examples=30, deadline=None)
    @given(problem=fit_problems())
    def test_matches_scalar_loop(self, problem):
        cls, points, targets, seeds = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "GD_ITERATIONS", 300)
            batch = sim._fit_nn(cls, points, targets, seeds)
            for t in range(len(seeds)):
                want = scalar_fit_nn(cls, points[t], targets[t], seeds[t])
                assert_same_fit(cls, batch[t], want)

    @settings(max_examples=30, deadline=None)
    @given(problem=fit_problems())
    def test_matches_trial_major_kernel(self, problem):
        cls, points, targets, seeds = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "GD_ITERATIONS", 300)
            batch = sim._fit_nn(cls, points, targets, seeds)
            want = trial_major_fit_nn(cls, points, targets, seeds)
        for t in range(len(seeds)):
            assert_same_fit(cls, batch[t], want[t])

    @settings(max_examples=15, deadline=None)
    @given(problem=fit_problems())
    def test_batch_row_is_the_lone_fit(self, problem):
        cls, points, targets, seeds = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "GD_ITERATIONS", 300)
            batch = sim._fit_nn(cls, points, targets, seeds)
            for t in range(len(seeds)):
                sample = SequentialSample(points=points[t], responses=targets[t])
                fit = erm_fit(cls, sample, method="projected_gd", init_seed=seeds[t])
                assert_bits_equal(batch[t], fit.coeffs)
                loss = float(np.sum((cls.predict(batch[t], points[t]) - targets[t]) ** 2))
                assert fit.empirical_loss == loss
                assert fit.iterations == 300


TRUTH = np.array([2.0, 0.0, 0.0, 0.0, -0.5, 1.0, 0.0])


def nn_config():
    """A small C9-like network coverage config (n = 12, 100 trials)."""
    net = NeuralNet(dim=1, units=2, B=1.5, mode="joint")
    atoms = np.linspace(-1.0, 1.0, 5)[:, None]
    return {
        "bound": "nn_generalization_ci",
        "model": {
            "kind": "iid",
            "B": 1.5,
            "covariates": {"kind": "discrete", "support": atoms.tolist(),
                           "probs": [0.2] * 5},
            "mean": {"kind": "atom_table", "values": net.predict(TRUTH, atoms).tolist()},
            "noise": {"kind": "uniform", "half_width": 0.2},
        },
        "class": net,
        "truth_params": TRUTH,
        "n": 12,
        "delta": 0.1,
        "trials": 100,
        "base_seed": 4,
    }


RAD_CONFIG = {
    "bound": "rademacher_ci",
    "model": {
        "kind": "iid",
        "B": 1.0,
        "covariates": {"kind": "discrete", "support": [[0.0], [1.0]], "probs": [0.5, 0.5]},
        "mean": {"kind": "atom_table", "values": [0.0, 1.0]},
        "noise": {"kind": "discrete", "values": [0.3, -0.3], "probs": [0.5, 0.5]},
    },
    "values": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
    "n": 10,
    "delta": 0.1,
    "trials": 100,
    "base_seed": 5,
}


class TestTrialChunks:
    # one trial per chunk; chunks of 7 trials (96 bytes per point, n = 12)
    @pytest.mark.parametrize("budget", [1, 9000])
    def test_network_report_independent_of_chunks(self, monkeypatch, budget):
        monkeypatch.setattr(sim, "GD_ITERATIONS", 40)
        config = nn_config()
        whole = coverage_experiment(config).to_json()
        monkeypatch.setattr(sim, "_TRIAL_CHUNK_BYTES", budget)
        assert coverage_experiment(config).to_json() == whole

    def test_finite_class_report_independent_of_chunks(self, monkeypatch):
        whole = coverage_experiment(dict(RAD_CONFIG)).to_json()
        monkeypatch.setattr(sim, "_TRIAL_CHUNK_BYTES", 1)
        assert coverage_experiment(dict(RAD_CONFIG)).to_json() == whole

    def test_network_trial_replays_through_erm_fit(self, monkeypatch):
        monkeypatch.setattr(sim, "GD_ITERATIONS", 40)
        config = nn_config()
        report = coverage_experiment(config)
        model = sim.model_from_json(config["model"])
        for t in (0, 57, 99):
            sample = sim.generate(model, 12, np.random.SeedSequence([4, t]))
            fit = erm_fit(config["class"], sample, method="projected_gd",
                          init_seed=1_000_003 + t)
            risk = sim.excess_risk_exact(fit.predict, model, 12)
            assert risk == report.details["per_trial"][t]

    def test_report_matches_trial_major_kernel(self, monkeypatch):
        monkeypatch.setattr(sim, "GD_ITERATIONS", 40)
        config = nn_config()
        got = coverage_experiment(config).details
        monkeypatch.setattr(sim, "_fit_nn", trial_major_fit_nn)
        want = coverage_experiment(config).details
        assert got["failed_trials"] == want["failed_trials"]
        np.testing.assert_allclose(got["per_trial"], want["per_trial"], rtol=1e-9, atol=0)


class TestMemoryBudget:
    def test_chunk_peak_within_work_floats(self, monkeypatch):
        # one chunk of trials holds its draws and the statistic's stacked
        # inputs and fit buffers: _run_trials budgets (dim + 2 + work_floats)
        # float64s per sample point.  The slack covers numpy's 64 KiB ufunc
        # buffer and about 1 KiB of objects per trial (measured: 124 KB in
        # all); one uncounted float per point would add 160 KB.
        monkeypatch.setattr(sim, "GD_ITERATIONS", 5)
        T, n = 50, 400
        cls = NeuralNet(dim=3, units=3, B=1.5, mode="joint")
        atoms = np.random.default_rng(0).uniform(-1.0, 1.0, size=(8, 3))
        model = sim.model_from_json({
            "kind": "iid",
            "B": 1.5,
            "covariates": {"kind": "discrete", "support": atoms.tolist(),
                           "probs": [0.125] * 8},
            "mean": {"kind": "atom_table", "values": np.sin(atoms.sum(axis=1)).tolist()},
            "noise": {"kind": "uniform", "half_width": 0.2},
        })
        _, statistic, _, work_floats = sim._experiment_nn_ci({"class": cls}, model, n, 0.1)
        tracemalloc.start()
        try:
            draws = [sim.generate_with_states(model, n, np.random.SeedSequence([0, t]))
                     for t in range(T)]
            statistic(draws, range(T))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * T * n * (work_floats + cls.dim + 2) + 192 * 1024, peak
