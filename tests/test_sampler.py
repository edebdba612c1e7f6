"""Differential tests of the batched trial sampler.

``simulate._draw_trials`` draws a chunk of coverage trials at once and
``mixing.sample_chain`` steps all their Markov chains together.  Both are
checked against the per-trial sampler they replaced, kept here as a private
reference: one generator per trial, covariates first and then noise, and one
``searchsorted`` per Markov step.  Every row must be bit-equal to the
reference draw from the same seed, and the ``mixing-demo`` frequencies must
equal those of the per-trial loop it replaced.
"""

import json

import numpy as np
import pytest

import riskbounds.mixing
import riskbounds.simulate as sim
from riskbounds import cli
from riskbounds.mixing import choose_block_size, sample_chain, stationary_distribution
from riskbounds.simulate import model_from_json

# ---------------------------------------------------------------------------
# references: the replaced per-trial sampler and mixing-demo loop


def _ref_generate_with_states(model, n, seed):
    rng = np.random.default_rng(seed)
    cov = model.covariates

    states = None
    if cov.kind == "uniform":
        x = rng.uniform(cov.low, cov.high, size=n)[:, None]
    elif cov.kind == "discrete":
        pmf = cov.pmf_per_index(n)
        if cov.probs_end is None:
            states = rng.choice(cov.n_states, size=n, p=cov.probs)
        else:
            u = rng.random(n)
            cum = np.cumsum(pmf, axis=1)
            states = (u[:, None] > cum).sum(axis=1)
        x = cov.support[states]
    else:  # markov, stationary start
        pi = stationary_distribution(cov.transition)
        cum = np.cumsum(cov.transition, axis=1)
        u = rng.random(n)
        states = np.empty(n, dtype=np.int64)
        states[0] = np.searchsorted(np.cumsum(pi), u[0], side="right")
        for k in range(1, n):
            states[k] = np.searchsorted(cum[states[k - 1]], u[k], side="right")
        x = cov.support[states]

    if model.mean.kind == "atom_table":
        f = model.mean.values[states]
    else:
        f = model.mean.at_points(x)
    f = f + model.drift_offsets(n)

    if model.noise.kind == "none":
        eps = np.zeros(n)
    elif model.noise.kind == "discrete":
        eps = rng.choice(model.noise.values, size=n, p=model.noise.probs)
    else:
        eps = rng.uniform(-model.noise.half_width, model.noise.half_width, size=n)
    return x, f + eps, states


def _ref_mixing_demo(doc, seed):
    """The per-trial mixing-demo loop, one Markov model draw per trial: its
    states, its deviations and its block count."""
    P = np.asarray(doc["transition"], dtype=float)
    s, n = P.shape[0], doc["n"]
    h = np.asarray(doc.get("h_values", [1.0 if i % 2 == 0 else -1.0 for i in range(s)]))
    model = model_from_json({
        "kind": "markov_chain",
        "B": max(float(np.max(np.abs(h))), 1.0),
        "covariates": {"kind": "markov", "support": list(range(s)), "transition": P.tolist()},
        "mean": {"kind": "atom_table", "values": [0.0] * s},
        "noise": {"kind": "none"},
    })
    mean_h = float(stationary_distribution(P) @ h)
    devs, paths = np.empty(doc["trials"]), []
    for t in range(doc["trials"]):
        _, _, states = _ref_generate_with_states(model, n, np.random.SeedSequence([seed, t]))
        devs[t] = n * mean_h - float(np.sum(h[states]))
        paths.append(states)
    return np.array(paths), devs, choose_block_size(n, doc["delta"], doc["rate_r"])


def _tie_thresholds(devs, m):
    """Per-block thresholds whose total m t equals a deviation or the float
    just below it, so a deviation one ulp off changes a frequency."""
    out = []
    for d in devs[devs > 0][:25]:
        for target in (d, np.nextafter(d, 0.0)):
            if m * (target / m) == target:
                out.append(float(target / m))
    return out


# ---------------------------------------------------------------------------
# models: every covariate, noise and mean kind

ATOMS_2D = [[0.0, 1.0], [0.5, -0.25], [-1.0, 0.75]]
CHAIN_3 = [[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.05, 0.15, 0.8]]
NOISE = {
    "none": {"kind": "none"},
    "discrete": {"kind": "discrete", "values": [0.3, -0.1, -0.4], "probs": [0.25, 0.5, 0.25]},
    "uniform": {"kind": "uniform", "half_width": 0.35},
}
MODELS = {
    "uniform-affine": {
        "kind": "iid", "B": 1.0,
        "covariates": {"kind": "uniform", "low": -1.0, "high": 2.0},
        "mean": {"kind": "affine", "coeffs": [0.2, -0.7]},
    },
    "uniform-constant": {
        "kind": "iid", "B": 1.0,
        "covariates": {"kind": "uniform", "low": 0.0, "high": 1.0},
        "mean": {"kind": "affine", "coeffs": [0.4]},
    },
    "discrete-atom-table": {
        "kind": "iid", "B": 1.0,
        "covariates": {"kind": "discrete", "support": ATOMS_2D, "probs": [0.2, 0.5, 0.3]},
        "mean": {"kind": "atom_table", "values": [0.1, -0.6, 0.9]},
    },
    "discrete-affine-2d": {
        "kind": "iid", "B": 1.0,
        "covariates": {"kind": "discrete", "support": ATOMS_2D, "probs": [0.2, 0.5, 0.3]},
        "mean": {"kind": "affine", "coeffs": [0.1, 0.37, -0.83]},
    },
    "drifting-discrete": {
        "kind": "nonstationary_independent", "B": 1.0, "drift": [-0.2, 0.3],
        "covariates": {"kind": "discrete", "support": [[0.0], [0.5], [1.0]],
                       "probs": [0.6, 0.3, 0.1], "probs_end": [0.1, 0.2, 0.7]},
        "mean": {"kind": "affine", "coeffs": [0.05, 0.6]},
    },
    "markov-atom-table": {
        "kind": "markov_chain", "B": 1.0,
        "covariates": {"kind": "markov", "support": [[0.0], [1.0], [2.0]], "transition": CHAIN_3},
        "mean": {"kind": "atom_table", "values": [0.3, -0.2, 0.8]},
    },
    "markov-affine": {
        "kind": "markov_chain", "B": 1.0,
        "covariates": {"kind": "markov", "support": [[0.0], [1.0]],
                       "transition": [[0.9, 0.1], [0.2, 0.8]]},
        "mean": {"kind": "affine", "coeffs": [-0.1, 0.45]},
    },
}


def _model(name, noise):
    return model_from_json({**MODELS[name], "noise": NOISE[noise]})


def _assert_rows_match_reference(model, n, seeds):
    x, responses, states = sim._draw_trials(model, n, seeds)
    assert x.shape[:2] == responses.shape == (len(seeds), n)
    assert (states is None) == (model.covariates.kind == "uniform")
    for t, seed in enumerate(seeds):
        want_x, want_y, want_states = _ref_generate_with_states(model, n, seed)
        assert np.array_equal(x[t], want_x)
        assert np.array_equal(responses[t], want_y)
        if states is not None:
            assert np.array_equal(states[t], want_states)


class TestDrawTrials:
    @pytest.mark.parametrize("noise", sorted(NOISE))
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_bit_equal_per_trial_reference(self, name, noise):
        model = _model(name, noise)
        for n in (1, 7, 300):
            _assert_rows_match_reference(
                model, n, [np.random.SeedSequence([11, t]) for t in range(9)]
            )

    def test_integer_seeds(self):
        _assert_rows_match_reference(_model("markov-atom-table", "uniform"), 50, [0, 5, 5, 123])

    def test_generate_with_states_is_the_one_seed_case(self):
        for name in MODELS:
            model = _model(name, "discrete")
            sample, states = sim.generate_with_states(model, 40, np.random.SeedSequence([3, 8]))
            want_x, want_y, want_states = _ref_generate_with_states(
                model, 40, np.random.SeedSequence([3, 8])
            )
            assert np.array_equal(sample.points, want_x)
            assert np.array_equal(sample.responses, want_y)
            assert (states is None and want_states is None) or np.array_equal(states, want_states)


class TestSampleChain:
    def test_equals_searchsorted_per_chain(self):
        P = np.array(CHAIN_3)
        rngs = [np.random.default_rng(seed) for seed in range(20)]
        got = sample_chain(P, 250, rngs)
        start, cum = np.cumsum(stationary_distribution(P)), np.cumsum(P, axis=1)
        for seed, row in enumerate(got):
            u = np.random.default_rng(seed).random(250)
            want = [int(np.searchsorted(start, u[0], side="right"))]
            for k in range(1, 250):
                want.append(int(np.searchsorted(cum[want[-1]], u[k], side="right")))
            assert row.tolist() == want

    def test_periodic_chain_alternates(self):
        rngs = [np.random.default_rng(seed) for seed in range(3)]
        got = sample_chain(np.array([[0.0, 1.0], [1.0, 0.0]]), 30, rngs)
        assert got.shape == (3, 30)
        assert np.all(got[:, 1:] != got[:, :-1])

    def test_each_chain_uses_only_its_own_stream(self):
        P = np.array(CHAIN_3)
        alone = sample_chain(P, 60, [np.random.default_rng(7)])
        batch = sample_chain(P, 60, [np.random.default_rng(s) for s in (1, 7, 9)])
        assert np.array_equal(batch[1], alone[0])

    def test_ties_step_to_the_next_state(self):
        # u equal to a cumulative probability lands above it, as
        # searchsorted(side="right") puts it
        class Fixed:
            def random(self, n):
                return np.array([0.5, 0.75, 0.5, 0.25])[:n]

        P = np.array([[0.25, 0.75], [0.75, 0.25]])
        assert sample_chain(P, 4, [Fixed()]).tolist() == [[1, 1, 0, 1]]


class TestMixingDemoMatchesPerTrialLoop:
    DOCS = [
        {"transition": [[0.9, 0.1], [0.1, 0.9]], "n": 100, "delta": 0.1, "rate_r": 1.25,
         "trials": 200},
        {"transition": CHAIN_3, "n": 300, "delta": 0.1, "rate_r": 1.5, "trials": 150,
         "h_values": [0.7, -1.2, 0.4]},
    ]

    @pytest.mark.parametrize("budget", [1 << 24, 24_000])
    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("doc", DOCS, ids=["two-state", "three-state"])
    def test_frequencies_equal_reference(self, tmp_path, monkeypatch, doc, seed, budget):
        # 24 kB puts 3 to 10 trials (1000 states) in each sample_chain call;
        # the chunking is the coverage engine's, at 24 bytes per state
        monkeypatch.setattr(sim, "_TRIAL_CHUNK_BYTES", budget)
        drawn = []

        def spy(*args):
            drawn.append(sample_chain(*args))
            return drawn[-1]

        monkeypatch.setattr(riskbounds.mixing, "sample_chain", spy)  # the command imports it
        paths, devs, m = _ref_mixing_demo(doc, 0 if seed is None else seed)
        thresholds = [0.25 * k for k in range(40)] + _tie_thresholds(devs, m)
        path = tmp_path / "params.json"
        path.write_text(json.dumps({**doc, "thresholds": thresholds}))
        out = tmp_path / "out.json"
        extra = [] if seed is None else ["--seed", str(seed)]
        assert cli.main(["mixing-demo", "--params", str(path), "--out", str(out), *extra]) == 0
        outputs = json.loads(out.read_text())["outputs"]
        per_call = min(doc["trials"], budget // (24 * doc["n"]))
        assert len(drawn) == -(-doc["trials"] // per_call)
        assert np.array_equal(np.concatenate(drawn), paths)
        assert outputs["block_count"] == m
        got = [row["empirical_frequency"] for row in outputs["thresholds"]]
        assert got == [float(np.mean(devs > m * t)) for t in thresholds]
