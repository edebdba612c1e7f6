"""The count-form kernel of the finite-class coverage statistics against the
per-trial loops it replaced, kept here as private references."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riskbounds.simulate as sim
from riskbounds.hypothesis import SequentialSample, class_from_json, evaluate_class, truncate

REQUESTS = Path(__file__).resolve().parents[1] / "bench" / "requests"
EXTRA_SEEDS = (11, 12, 13)


def _ref_excess_statistic(vals, pop):
    best = pop[int(np.argmin(pop))]
    return lambda _x, _y, states, ts: [pop[np.argmin(vals[:, s].sum(1))] - best for s in states]


def _ref_realized_risk(values, risks, B):
    def realized_risk(_x, responses, states, ts):
        out = []
        for y, s in zip(responses, states):
            emp = np.sum((values[:, s] - truncate(y, B)[None, :]) ** 2, axis=1)
            out.append(risks[np.argmin(emp)])
        return out

    return realized_risk


def _kernel_statistic(vals, B, squared):
    """The new kernel, with each row's result its own index."""
    pop = np.arange(len(vals), dtype=float)
    if not squared:
        return sim._excess_statistic(vals, pop)
    return lambda _x, responses, states, ts: pop[
        sim._erm_rows(vals, states, truncate(responses, B), B)]


def _reference(vals, B, squared):
    pop = np.arange(len(vals), dtype=float)
    return _ref_realized_risk(vals, pop, B) if squared else _ref_excess_statistic(vals, pop)


def _in_chunks(statistic, responses, states, chunk):
    parts = [statistic(None, responses[i:i + chunk], states[i:i + chunk], None)
             for i in range(0, len(states), chunk)]
    return np.concatenate(parts).tolist()


def _near_tie_cases(squared, cases=150, T=20):
    """Tables whose first two rows differ by one ulp in one atom, so their
    exact sums lie within a few ulps of each other."""
    rng = np.random.default_rng(5)
    for _ in range(cases):
        s, n = int(rng.integers(1, 4)), int(rng.integers(5, 200))
        base = rng.uniform(-1.0, 1.0, size=s)
        other = base.copy()
        j = rng.integers(s)
        other[j] = np.nextafter(other[j], np.inf if rng.random() < 0.5 else -np.inf)
        vals = np.stack([base, other, rng.uniform(1.0, 2.0, size=s)])
        states = rng.integers(0, s, size=(T, n))
        responses = rng.uniform(-1.5, 1.5, size=(T, n)) if squared else None
        yield vals, states, responses


def _document(name, seed=None):
    config = json.loads((REQUESTS / f"{name}.json").read_text())
    if seed is not None:
        config["base_seed"] = seed
    return config


def _document_draws(config):
    model = sim.model_from_json(config["model"])
    seeds = [np.random.SeedSequence([config["base_seed"], t]) for t in range(config["trials"])]
    return model, sim._draw_trials(model, config["n"], seeds)


class TestAgainstParentLoops:
    @pytest.mark.parametrize("seed", [None, *EXTRA_SEEDS])
    @pytest.mark.parametrize("name", ["coverage_c7a_iid", "coverage_c7a_drift", "coverage_c7c"])
    def test_excess_reports_equal(self, name, seed, monkeypatch):
        config = _document(name, seed)
        got = sim.coverage_experiment(dict(config)).to_json()
        monkeypatch.setattr(sim, "_excess_statistic", _ref_excess_statistic)
        assert sim.coverage_experiment(dict(config)).to_json() == got

    @pytest.mark.parametrize("seed", [None, *EXTRA_SEEDS])
    def test_realized_risks_equal(self, seed):
        config = _document("coverage_c7b", seed)
        model, draws = _document_draws(config)
        n, ts = config["n"], range(config["trials"])
        cls = class_from_json(config["class"])
        fields = {**config, "class": cls}  # as coverage_experiment reads them
        _, statistic, _, _ = sim._experiment_bounded_class_ci(fields, model, n, config["delta"])
        table = evaluate_class(cls, SequentialSample(points=model.covariates.support))
        risks = sim.risk_of_rows(table.values, model, n)
        want = _ref_realized_risk(table.values, risks, cls.B)(*draws, ts)
        assert statistic(*draws, ts).tolist() == want

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 7),
        s=st.integers(1, 5),
        n=st.integers(1, 60),
        T=st.integers(1, 12),
        chunk=st.integers(1, 12),
        style=st.sampled_from(["uniform", "coarse", "duplicate", "ulp"]),
        squared=st.booleans(),
    )
    def test_random_tables_samples_and_chunks(self, seed, m, s, n, T, chunk, style, squared):
        rng = np.random.default_rng(seed)
        if style == "uniform":
            vals = rng.uniform(-1.0, 1.0, size=(m, s))
        elif style == "coarse":  # exact ties in the sums
            vals = rng.integers(-2, 3, size=(m, s)) * 0.25
        elif style == "duplicate":
            vals = rng.uniform(-1.0, 1.0, size=(2, s))[rng.integers(0, 2, size=m)]
        else:  # one row, some entries one ulp off
            base = rng.uniform(-1.0, 1.0, size=s)
            step = np.nextafter(base, rng.choice([-np.inf, np.inf], size=(m, s)))
            vals = np.where(rng.random((m, s)) < 0.5, base, step)
        states = rng.integers(0, s, size=(T, n))
        responses = (rng.integers(-6, 7, size=(T, n)) * 0.25 if style == "coarse"
                     else rng.uniform(-1.5, 1.5, size=(T, n)))
        want = _reference(vals, 1.0, squared)(None, responses, states, None)
        assert _in_chunks(_kernel_statistic(vals, 1.0, squared), responses, states, chunk) == want

    @pytest.mark.parametrize("squared", [False, True])
    def test_duplicate_rows_take_the_lowest_index(self, squared):
        best = [0.25, -0.5, 0.125]
        vals = np.array([[0.9, 0.8, 0.7], best, [-0.1, 0.6, 0.9], best, best])
        rng = np.random.default_rng(2)
        states = rng.integers(0, 3, size=(30, 40))
        responses = rng.uniform(-0.1, 0.1, size=(30, 40)) - 0.5 * (states == 1)
        got = _kernel_statistic(vals, 1.0, squared)(None, responses, states, None)
        assert got.tolist() == _reference(vals, 1.0, squared)(None, responses, states, None)
        assert set(got.tolist()) == {1.0}

    @pytest.mark.parametrize("squared", [False, True])
    def test_ulp_near_ties_match(self, squared):
        for vals, states, responses in _near_tie_cases(squared):
            got = _kernel_statistic(vals, 1.0, squared)(None, responses, states, None)
            assert got.tolist() == _reference(vals, 1.0, squared)(None, responses, states, None)

    @pytest.mark.parametrize("squared", [False, True])
    def test_near_ties_need_the_fallback(self, squared, monkeypatch):
        # trusting every nonzero count-form gap picks another row on some of them
        monkeypatch.setattr(sim, "_TIE_MARGIN", 0.0)
        differ = 0
        for vals, states, responses in _near_tie_cases(squared):
            got = _kernel_statistic(vals, 1.0, squared)(None, responses, states, None)
            want = _reference(vals, 1.0, squared)(None, responses, states, None)
            differ += int(np.sum(got != np.asarray(want)))
        assert differ > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sums_take_the_per_point_sum(self, bad):
        vals = np.array([[0.5, bad], [0.25, -0.25], [bad, 0.0]])
        states = np.random.default_rng(3).integers(0, 2, size=(10, 6))
        responses = np.zeros((10, 6))
        for squared in (False, True):
            with np.errstate(invalid="ignore"):
                got = _kernel_statistic(vals, 1.0, squared)(None, responses, states, None)
                want = _reference(vals, 1.0, squared)(None, responses, states, None)
            assert got.tolist() == want


class TestMemoryBudget:
    def test_affine_draw_within_point_floats(self):
        # _run_trials budgets a chunk's draws as dim + 2 float64s per point
        # (covariates, responses, atom indices); the affine mean once added its
        # intercept into a second (T, n) array, about 4.04 floats per point
        T, n = 50, 2000
        model = sim.model_from_json(_document("coverage_c7b")["model"])
        seeds = [np.random.SeedSequence([0, t]) for t in range(T)]
        sim._draw_trials(model, n, seeds[:1])  # first-use imports stay outside the trace
        tracemalloc.start()
        try:
            sim._draw_trials(model, n, seeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dim = model.covariates.support.shape[1]
        assert peak <= 8 * T * n * (dim + 2) + 192 * 1024, peak

    @pytest.mark.parametrize("name", ["coverage_c7b", "coverage_c7c"])
    def test_chunk_peak_within_work_floats(self, name):
        # as for the network statistic: one chunk holds its batched draws and
        # the statistic's temporaries, which _run_trials budgets as (dim + 2 +
        # work_floats) float64s per sample point, with the same 192 KiB slack
        # (measured: 107 KB over the budget for the squared loss); one
        # undeclared (T, n) temporary would add 800 KB
        T, n = 50, 2000
        config = dict(_document(name), use_optimized_constants=False, c=2.0, lam=2.0)
        if "class" in config:  # the experiment takes its fields as read
            config["class"] = class_from_json(config["class"])
        model = sim.model_from_json(config["model"])
        experiment = {"coverage_c7b": sim._experiment_bounded_class_ci,
                      "coverage_c7c": sim._experiment_mixing_ci}[name]
        _, statistic, _, work_floats = experiment(config, model, n, 0.1)
        seeds = [np.random.SeedSequence([0, t]) for t in range(T)]
        sim._draw_trials(model, n, seeds[:1])  # first-use imports stay outside the trace
        tracemalloc.start()
        try:
            draws = sim._draw_trials(model, n, seeds)
            statistic(*draws, range(T))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dim = model.covariates.support.shape[1]
        assert peak <= 8 * T * n * (work_floats + dim + 2) + 192 * 1024, peak
