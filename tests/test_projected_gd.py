"""Differential tests of the batched projected-gradient network fit.

Two references are kept here: the scalar loop, one fit at a time over
(n, units) arrays, and the trial-major batched kernel, which ran the scalar
loop's arithmetic on (T, n, units) buffers.  The units-major kernel keeps
that arithmetic except the order of its n-long sums.  With one unit the
order is unchanged and every comparison demands bit-for-bit equality; with
more units the fitted parameters must agree within ``THETA_ATOL`` after
300 steps.  The kernel steps on a sample's distinct points with their
counts and target sums: on all-distinct points (counts of 1.0) that is the
per-point arithmetic bit for bit, and on repeated points it must agree with
the per-point fit within ``THETA_ATOL``.  A batch row against its lone fit,
the chunking of a report and the l1 projection are still compared bit for
bit.
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


@st.composite
def repeated_point_problems(draw):
    """Samples drawn from a few atoms, so most points repeat."""
    cls, points, targets, seeds = draw(fit_problems())
    T, n, dim = points.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, 4)), dim))
    return cls, atoms[rng.integers(len(atoms), size=(T, n))], targets, seeds


def per_point_form(x, targets):
    """``_merge_points``'s output with every point kept: counts 1.0, sums the targets."""
    return x, np.ones(len(x)), targets


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
            batch = sim._fit_nn(cls, points, np.ones_like(targets), targets, seeds)
            for t in range(len(seeds)):
                want = scalar_fit_nn(cls, points[t], targets[t], seeds[t])
                assert_same_fit(cls, batch[t], want)

    @settings(max_examples=30, deadline=None)
    @given(problem=fit_problems())
    def test_matches_trial_major_kernel(self, problem):
        cls, points, targets, seeds = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "GD_ITERATIONS", 300)
            batch = sim._fit_nn(cls, points, np.ones_like(targets), targets, seeds)
            want = trial_major_fit_nn(cls, points, targets, seeds)
        for t in range(len(seeds)):
            assert_same_fit(cls, batch[t], want[t])

    @settings(max_examples=15, deadline=None)
    @given(problem=fit_problems())
    def test_batch_row_is_the_lone_fit(self, problem):
        cls, points, targets, seeds = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "GD_ITERATIONS", 300)
            batch = sim._fit_nn(cls, points, np.ones_like(targets), targets, seeds)
            for t in range(len(seeds)):
                sample = SequentialSample(points=points[t], responses=targets[t])
                fit = erm_fit(cls, sample, method="projected_gd", init_seed=seeds[t])
                assert_bits_equal(batch[t], fit.coeffs)
                loss = float(np.sum((cls.predict(batch[t], points[t]) - targets[t]) ** 2))
                assert fit.empirical_loss == loss
                assert fit.iterations == 300


class TestMergedFit:
    @settings(max_examples=50, deadline=None)
    @given(problem=repeated_point_problems())
    def test_merge_points(self, problem):
        _, points, targets, _ = problem
        for x, y in zip(points, targets):
            merged, counts, sums = sim._merge_points(x, y)
            firsts = []
            for i, p in enumerate(x):
                if not any(np.array_equal(p, x[j]) for j in firsts):
                    firsts.append(i)
            assert_bits_equal(merged, x[firsts])  # first-occurrence order
            for point, count, total in zip(merged, counts, sums):
                same = np.all(x == point, axis=1)
                assert count == same.sum()
                assert total == pytest.approx(y[same].sum(), abs=1e-12)
            assert counts.sum() == len(x)

    def test_merge_points_keeps_distinct_points(self):
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-1.0, 1.0, size=(20, 2)), rng.uniform(-1.0, 1.0, size=20)
        merged, counts, sums = sim._merge_points(x, y)
        assert_bits_equal(merged, x)
        assert_bits_equal(counts, np.ones(20))
        assert_bits_equal(sums, y)

    @settings(max_examples=30, deadline=None)
    @given(problem=repeated_point_problems())
    def test_matches_per_point_fit(self, problem):
        cls, points, targets, seeds = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "GD_ITERATIONS", 300)
            per_point = sim._fit_nn(cls, points, np.ones_like(targets), targets, seeds)
            for t in range(len(seeds)):
                sample = SequentialSample(points=points[t], responses=targets[t])
                fit = erm_fit(cls, sample, method="projected_gd", init_seed=seeds[t])
                assert np.max(np.abs(fit.coeffs - per_point[t])) <= THETA_ATOL
                want = scalar_fit_nn(cls, points[t], targets[t], seeds[t])
                assert np.max(np.abs(fit.coeffs - want)) <= THETA_ATOL


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
    # one trial per chunk; chunks of 10 trials (72 bytes per point, n = 12)
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
            sample = sim.generate_with_states(model, 12, np.random.SeedSequence([4, t]))[0]
            fit = erm_fit(config["class"], sample, method="projected_gd",
                          init_seed=1_000_003 + t)
            risk = sim.excess_risk_exact(fit.predict, model, 12)
            assert risk == report.details["per_trial"][t]

    def test_trials_of_several_point_counts_replay_through_erm_fit(self, monkeypatch):
        # n = 12 draws from 5 atoms miss one in about a third of the trials,
        # so the chunk's fits run in several groups of equal distinct-point count
        monkeypatch.setattr(sim, "GD_ITERATIONS", 40)
        config = nn_config()
        report = coverage_experiment(config)
        model = sim.model_from_json(config["model"])
        seeds = [np.random.SeedSequence([4, t]) for t in range(100)]
        _, _, states = sim._draw_trials(model, 12, seeds)
        assert len({len(set(row)) for row in states.tolist()}) >= 2
        for t in range(100):
            sample = sim.generate_with_states(model, 12, seeds[t])[0]
            fit = erm_fit(config["class"], sample, method="projected_gd",
                          init_seed=1_000_003 + t)
            risk = sim.excess_risk_exact(fit.predict, model, 12)
            assert risk == report.details["per_trial"][t]

    def test_report_matches_trial_major_kernel(self, monkeypatch):
        monkeypatch.setattr(sim, "GD_ITERATIONS", 40)
        config = nn_config()
        got = coverage_experiment(config).details

        def trial_major(cls, points, counts, sums, init_seeds):
            assert np.all(counts == 1.0)
            return trial_major_fit_nn(cls, points, sums, init_seeds)

        monkeypatch.setattr(sim, "_merge_points", per_point_form)
        monkeypatch.setattr(sim, "_fit_nn", trial_major)
        want = coverage_experiment(config).details
        assert got["failed_trials"] == want["failed_trials"]
        np.testing.assert_allclose(got["per_trial"], want["per_trial"], rtol=1e-9, atol=0)


def chunk_peak(cls, model, n, T=50):
    """The statistic's tracemalloc peak on one chunk of T trials, with its draws,
    and the work floats it declares.  A one-trial call first makes the lazy
    imports (numpy.polynomial for uniform covariates), which are no chunk's."""
    _, statistic, _, work_floats = sim._experiment_nn_ci({"class": cls}, model, n, 0.1)
    statistic(*sim._draw_trials(model, n, [0]), range(1))
    tracemalloc.start()
    try:
        draws = sim._draw_trials(model, n, [np.random.SeedSequence([0, t]) for t in range(T)])
        statistic(*draws, range(T))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, work_floats


class TestMemoryBudget:
    # one chunk of trials holds its batched draws and the statistic's targets,
    # merged points and fit buffers: _run_trials budgets (dim + 2 +
    # work_floats) float64s per sample point.  The slack covers numpy's 64 KiB
    # ufunc buffer and about 1 KiB of objects per trial (measured: 124 KB in
    # all); one uncounted float per point would add 160 KB.
    SLACK = 192 * 1024

    def test_chunk_peak_within_work_floats(self, monkeypatch):
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
        peak, work_floats = chunk_peak(cls, model, n, T)
        assert work_floats < 2 * cls.units + 3  # the fit runs on at most 8 points
        assert peak <= 8 * T * n * (work_floats + cls.dim + 2) + self.SLACK, peak

    def test_all_distinct_points_within_work_floats(self, monkeypatch):
        # uniform covariates: every point distinct, the budget's worst case
        monkeypatch.setattr(sim, "GD_ITERATIONS", 5)
        T, n = 50, 400
        cls = NeuralNet(dim=1, units=3, B=1.5, mode="joint")
        model = sim.model_from_json({
            "kind": "iid",
            "B": 1.5,
            "covariates": {"kind": "uniform", "low": -1.0, "high": 1.0},
            "mean": {"kind": "affine", "coeffs": [0.1, 0.5]},
            "noise": {"kind": "uniform", "half_width": 0.2},
        })
        peak, work_floats = chunk_peak(cls, model, n, T)
        assert peak <= 8 * T * n * (work_floats + cls.dim + 2) + self.SLACK, peak
