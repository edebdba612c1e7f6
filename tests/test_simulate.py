import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from riskbounds.hypothesis import (
    GridSpec,
    NeuralNet,
    SequentialSample,
    TruncatedLinear,
    _to_doc,
)
from riskbounds.mixing import stationary_distribution
from riskbounds.rademacher import massart_bound, rademacher_exact
from riskbounds.hypothesis import FunctionTable
from riskbounds.simulate import (
    CovariateSpec,
    CoverageReport,
    DataModel,
    MeanSpec,
    NoiseSpec,
    coverage_experiment,
    erm_fit,
    exact_average_complexity,
    excess_risk_exact,
    generate_with_states,
    model_from_json,
    phi_grid,
    risk_of_rows,
)
from oracles import enumerate_product_states
from test_hypothesis import field_types


def iid_two_atom(mean_values=(0.0, 1.0), noise=None, B=1.0, probs=(0.5, 0.5)):
    return DataModel(
        kind="iid",
        covariates=CovariateSpec(
            kind="discrete", support=np.array([0.0, 1.0]), probs=np.array(probs)
        ),
        mean=MeanSpec(kind="atom_table", values=np.array(mean_values)),
        noise=noise or NoiseSpec(kind="none"),
        B=B,
    )


class TestSpecs:
    def test_noise_validation(self):
        with pytest.raises(ValueError, match="kind"):
            NoiseSpec(kind="gauss")
        with pytest.raises(ValueError, match="matching"):
            NoiseSpec(kind="discrete", values=[1.0], probs=[0.5, 0.5])
        with pytest.raises(ValueError, match="distribution"):
            NoiseSpec(kind="discrete", values=[1.0, -1.0], probs=[0.7, 0.7])
        with pytest.raises(ValueError, match="half_width"):
            NoiseSpec(kind="uniform", half_width=0.0)

    @pytest.mark.parametrize("spec,message", [
        (lambda: MeanSpec(kind="affine"), "affine mean needs field 'coeffs'"),
        (lambda: MeanSpec(kind="atom_table"), "atom_table mean needs field 'values'"),
        (lambda: NoiseSpec(kind="discrete", probs=[1.0]), "discrete noise needs field 'values'"),
        (lambda: NoiseSpec(kind="discrete", values=[1.0]), "discrete noise needs field 'probs'"),
        (lambda: CovariateSpec(kind="discrete", support=[0.0]),
         "discrete covariates needs field 'probs'"),
    ], ids=["affine-coeffs", "atom-table-values", "noise-values", "noise-probs",
            "covariate-probs"])
    def test_missing_array_is_named(self, spec, message):
        with pytest.raises(ValueError, match=message):
            spec()

    @pytest.mark.parametrize("field", ["noise probs", "probs", "probs_end"])
    @pytest.mark.parametrize("bad", [[0.5, float("nan")], [0.5, 0.6], [1.5, -0.5]])
    def test_each_distribution_is_checked_by_name(self, field, bad):
        with pytest.raises(ValueError, match=f"field '{field.split()[-1]}' must be a distribution"):
            if field == "noise probs":
                NoiseSpec(kind="discrete", values=[1.0, -1.0], probs=bad)
            else:
                CovariateSpec(kind="discrete", support=[0.0, 1.0],
                              **{"probs": [0.5, 0.5], field: bad})

    # a -1e-16 entry is within the row-stochastic check's tolerance, -1e-14 is not
    @pytest.mark.parametrize("entry", [-1e-16, -1e-14], ids=["within", "beyond"])
    def test_markov_transition_tolerance(self, entry):
        def spec():
            return CovariateSpec(kind="markov", support=[0.0, 1.0],
                                 transition=[[0.9, 0.1], [1.0 - entry, entry]])

        if entry > -1e-15:
            assert spec().transition[1, 1] == entry
        else:
            with pytest.raises(ValueError, match="field 'transition' must be row-stochastic"):
                spec()

    def test_markov_transition_matches_the_support(self):
        with pytest.raises(ValueError, match=r"field 'transition' must be \(3, 3\)"):
            CovariateSpec(kind="markov", support=[0.0, 1.0, 2.0], transition=[[1.0]])

    def test_atom_table_mean_matches_the_support(self):
        with pytest.raises(ValueError, match=r"field 'mean.values' must hold one value per "
                                             r"support atom \(2\), got 1"):
            iid_two_atom(mean_values=(1.0,))

    def test_affine_mean_adds_the_intercept_in_place(self):
        pts = np.random.default_rng(5).normal(size=(200, 3))
        coeffs = np.array([0.1, -0.7, 0.3, 2.5])
        got = MeanSpec(kind="affine", coeffs=coeffs).at_points(pts)
        assert got.tobytes() == (coeffs[0] + pts @ coeffs[1:]).tobytes()

    def test_covariate_distribution_covers_the_support(self):
        with pytest.raises(ValueError, match="'probs_end' must be a distribution over the 2 "):
            CovariateSpec(kind="discrete", support=[0.0, 1.0], probs=[0.5, 0.5], probs_end=[1.0])

    def test_covariate_pmf_tiled(self):
        cov = CovariateSpec(
            kind="discrete", support=np.array([0.0, 1.0]), probs=np.array([0.3, 0.7])
        )
        pmf = cov.pmf_per_index(3)
        np.testing.assert_allclose(pmf, [[0.3, 0.7]] * 3)

    def test_covariate_pmf_drift_endpoints(self):
        cov = CovariateSpec(
            kind="discrete",
            support=np.array([0.0, 1.0]),
            probs=np.array([0.9, 0.1]),
            probs_end=np.array([0.1, 0.9]),
        )
        pmf = cov.pmf_per_index(5)
        np.testing.assert_allclose(pmf[0], [0.9, 0.1])
        np.testing.assert_allclose(pmf[-1], [0.1, 0.9])
        np.testing.assert_allclose(pmf[2], [0.5, 0.5])
        np.testing.assert_allclose(pmf.sum(axis=1), np.ones(5))

    def test_markov_pmf_is_stationary(self):
        cov = CovariateSpec(
            kind="markov",
            support=np.array([1.0, -1.0]),
            transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
        )
        np.testing.assert_allclose(cov.pmf_per_index(4), [[0.5, 0.5]] * 4, atol=1e-12)

    def test_uniform_has_no_pmf(self):
        cov = CovariateSpec(kind="uniform", low=0.0, high=1.0)
        assert cov.n_states == 0
        with pytest.raises(ValueError, match="pmf"):
            cov.pmf_per_index(3)

    def test_mean_affine(self):
        m = MeanSpec(kind="affine", coeffs=np.array([0.3, 0.4]))
        np.testing.assert_allclose(m.at_points(np.array([[0.0], [1.0]])), [0.3, 0.7])
        const = MeanSpec(kind="affine", coeffs=np.array([2.0]))
        np.testing.assert_allclose(const.at_points(np.array([1.0, 5.0, 9.0])), [2.0] * 3)

    def test_mean_dim_mismatch(self):
        m = MeanSpec(kind="affine", coeffs=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="dimension"):
            m.at_points(np.array([[1.0]]))

    def test_atom_table_mean(self):
        m = MeanSpec(kind="atom_table", values=np.array([1.0, 2.0]))
        np.testing.assert_allclose(m.at_atoms(np.array([[0.0], [1.0]])), [1.0, 2.0])
        with pytest.raises(ValueError, match="atom"):
            m.at_points(np.array([[0.0]]))

    def test_model_validators(self):
        markov_cov = CovariateSpec(
            kind="markov",
            support=np.array([0.0, 1.0]),
            transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
        )
        plain_mean = MeanSpec(kind="affine", coeffs=np.array([0.0]))
        with pytest.raises(ValueError, match="markov"):
            DataModel(
                kind="iid", covariates=markov_cov, mean=plain_mean,
                noise=NoiseSpec(), B=1.0,
            )
        disc_cov = CovariateSpec(
            kind="discrete", support=np.array([0.0]), probs=np.array([1.0])
        )
        with pytest.raises(ValueError, match="markov"):
            DataModel(
                kind="markov_chain", covariates=disc_cov, mean=plain_mean,
                noise=NoiseSpec(), B=1.0,
            )
        with pytest.raises(ValueError, match="drift"):
            DataModel(
                kind="iid", covariates=disc_cov, mean=plain_mean,
                noise=NoiseSpec(), B=1.0, drift=(0.0, 1.0),
            )
        with pytest.raises(ValueError, match="finite-support"):
            DataModel(
                kind="iid",
                covariates=CovariateSpec(kind="uniform"),
                mean=MeanSpec(kind="atom_table", values=np.array([1.0])),
                noise=NoiseSpec(),
                B=1.0,
            )

    def test_drift_offsets(self):
        model = DataModel(
            kind="nonstationary_independent",
            covariates=CovariateSpec(
                kind="discrete", support=np.array([0.0]), probs=np.array([1.0])
            ),
            mean=MeanSpec(kind="affine", coeffs=np.array([0.0])),
            noise=NoiseSpec(),
            B=1.0,
            drift=(-1.0, 1.0),
        )
        np.testing.assert_allclose(model.drift_offsets(5), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_json_roundtrip_reproduces_samples(self):
        model = iid_two_atom(
            noise=NoiseSpec(kind="discrete", values=[0.3, -0.3], probs=[0.5, 0.5])
        )
        back = model_from_json(_to_doc(model))
        a = generate_with_states(model, 50, seed=11)[0]
        b = generate_with_states(back, 50, seed=11)[0]
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.responses, b.responses)


class TestPhi:
    def test_no_noise_clips(self):
        model = iid_two_atom(mean_values=(0.4, 3.0), B=1.0)
        phi = phi_grid(model, model.covariates.support, 2)
        np.testing.assert_allclose(phi, [[0.4, 1.0]] * 2)

    def test_discrete_noise_mixture(self):
        noise = NoiseSpec(kind="discrete", values=[0.5, -0.5], probs=[0.5, 0.5])
        model = iid_two_atom(mean_values=(0.8, 0.0), B=1.0, noise=noise)
        phi = phi_grid(model, model.covariates.support, 1)
        # atom 0: mean of clip(1.3)=1 and clip(0.3)=0.3; atom 1: 0.25 - 0.25
        np.testing.assert_allclose(phi, [[0.65, 0.0]])

    def test_uniform_noise_matches_numerical_integral(self):
        noise = NoiseSpec(kind="uniform", half_width=0.8)
        model = iid_two_atom(mean_values=(0.7, -0.2), B=1.0, noise=noise)
        phi = phi_grid(model, model.covariates.support, 1).ravel()
        grid = np.linspace(-0.8, 0.8, 200_001)
        for j, f in enumerate((0.7, -0.2)):
            riemann = np.mean(np.clip(f + grid, -1.0, 1.0))
            assert phi[j] == pytest.approx(riemann, abs=1e-6)

    def test_drift_varies_rows(self):
        model = DataModel(
            kind="nonstationary_independent",
            covariates=CovariateSpec(
                kind="discrete", support=np.array([0.0]), probs=np.array([1.0])
            ),
            mean=MeanSpec(kind="affine", coeffs=np.array([0.0])),
            noise=NoiseSpec(),
            B=2.0,
            drift=(0.0, 1.0),
        )
        phi = phi_grid(model, np.array([[0.0]]), 3)
        np.testing.assert_allclose(phi, [[0.0], [0.5], [1.0]])

    def test_atom_table_rejects_other_points(self):
        model = iid_two_atom()
        with pytest.raises(ValueError, match="support"):
            phi_grid(model, np.array([[0.5]]), 1)


class TestGenerate:
    def test_deterministic_in_seed(self):
        model = iid_two_atom(noise=NoiseSpec(kind="uniform", half_width=0.2))
        a = generate_with_states(model, 40, seed=123)[0]
        b = generate_with_states(model, 40, seed=123)[0]
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.responses, b.responses)
        c = generate_with_states(model, 40, seed=124)[0]
        assert not np.array_equal(a.responses, c.responses)

    def test_states_index_support(self):
        model = iid_two_atom()
        sample, states = generate_with_states(model, 30, seed=5)
        assert states.shape == (30,)
        assert set(np.unique(states)) <= {0, 1}
        np.testing.assert_array_equal(
            sample.points.ravel(), model.covariates.support.ravel()[states]
        )

    def test_alternating_chain(self):
        model = DataModel(
            kind="markov_chain",
            covariates=CovariateSpec(
                kind="markov",
                support=np.array([0.0, 1.0]),
                transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
            ),
            mean=MeanSpec(kind="affine", coeffs=np.array([0.0])),
            noise=NoiseSpec(),
            B=1.0,
        )
        _, states = generate_with_states(model, 20, seed=7)
        assert np.all(states[1:] != states[:-1])

    def test_no_noise_responses_equal_mean(self):
        model = iid_two_atom(mean_values=(0.25, -0.5))
        sample, states = generate_with_states(model, 25, seed=2)
        np.testing.assert_allclose(
            sample.responses, np.array([0.25, -0.5])[states]
        )

    def test_n_validation(self):
        with pytest.raises(ValueError, match="n must"):
            generate_with_states(iid_two_atom(), 0, seed=1)


class TestERM:
    def test_truncation_applied_before_fitting(self, monkeypatch):
        import riskbounds.simulate as sim

        monkeypatch.setattr(sim, "GD_ITERATIONS", 300)
        cls = NeuralNet(dim=1, units=1, B=1.0)
        x = np.array([[0.0], [0.5]])
        fit = erm_fit(cls, SequentialSample(points=x, responses=np.array([50.0, 50.0])))
        assert fit.iterations == 300
        assert fit.empirical_loss == float(np.sum((fit.predict(x) - 1.0) ** 2))

    def test_projected_gd_respects_constraints(self):
        cls = NeuralNet(dim=1, units=2, B=1.5, mode="joint")
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(20, 1))
        y = 0.8 * x.ravel()
        fit = erm_fit(cls, SequentialSample(points=x, responses=y), method="projected_gd")
        assert fit.iterations == 10_000
        _, _, c = cls.split_params(fit.coeffs)
        assert np.sum(np.abs(c)) <= cls.B + 1e-9
        # no worse than the zero function it starts from on the output layer
        assert fit.empirical_loss <= float(np.sum(y**2)) + 1e-9

    def test_projected_gd_needs_network(self):
        cls = TruncatedLinear(basis="linear", dim=1, B=1.0, grid=GridSpec(points=[[0.5]]))
        sample = SequentialSample(points=np.zeros((2, 1)), responses=np.zeros(2))
        with pytest.raises(ValueError, match="^projected_gd requires a NeuralNet class, "
                                             "got TruncatedLinear$"):
            erm_fit(cls, sample, method="projected_gd")

    def test_unknown_method(self):
        cls = NeuralNet(dim=1, units=1, B=1.0)
        sample = SequentialSample(points=np.zeros((2, 1)), responses=np.zeros(2))
        with pytest.raises(ValueError, match="method"):
            erm_fit(cls, sample, method="annealing")

    @pytest.mark.parametrize("method", ["enumerate", "least_squares"])
    def test_removed_methods_are_refused_by_name(self, method):
        cls = NeuralNet(dim=1, units=1, B=1.0)
        sample = SequentialSample(points=np.zeros((2, 1)), responses=np.zeros(2))
        with pytest.raises(ValueError, match=f"^unknown method '{method}'; erm_fit fits by "
                                             "'projected_gd' only$"):
            erm_fit(cls, sample, method=method)

    def test_missing_responses(self):
        cls = NeuralNet(dim=1, units=1, B=1.0)
        with pytest.raises(ValueError, match="responses"):
            erm_fit(cls, SequentialSample(points=np.zeros((2, 1))))


class TestExactRisk:
    def test_zero_at_truth(self):
        noise = NoiseSpec(kind="discrete", values=[0.3, -0.3], probs=[0.5, 0.5])
        model = iid_two_atom(mean_values=(0.2, 0.6), noise=noise)
        phi = phi_grid(model, model.covariates.support, 1).ravel()
        risk = excess_risk_exact(lambda pts: phi, model, 10)
        assert risk == pytest.approx(0.0, abs=1e-15)

    def test_two_atom_reference(self):
        model = iid_two_atom(mean_values=(0.0, 1.0))
        risk = excess_risk_exact(lambda pts: np.zeros(len(pts)), model, 3)
        assert risk == pytest.approx(0.5, abs=1e-15)

    def test_pythagoras(self):
        # population loss of g minus loss of phi equals the excess risk
        noise = NoiseSpec(kind="discrete", values=[0.4, -0.4], probs=[0.5, 0.5])
        model = iid_two_atom(mean_values=(0.3, -0.2), noise=noise, probs=(0.4, 0.6))
        phi = phi_grid(model, model.covariates.support, 1).ravel()
        g = np.array([0.9, -0.7])

        def population_loss(values):
            total = 0.0
            for atom, p_atom in enumerate(model.covariates.probs):
                f = model.mean.values[atom]
                for v, p_noise in zip(noise.values, noise.probs):
                    y = np.clip(f + v, -model.B, model.B)
                    total += p_atom * p_noise * (values[atom] - y) ** 2
            return total

        lhs = population_loss(g) - population_loss(phi)
        rhs = excess_risk_exact(lambda pts: g, model, 7)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_uniform_covariates_quadrature(self):
        model = DataModel(
            kind="iid",
            covariates=CovariateSpec(kind="uniform", low=0.0, high=1.0),
            mean=MeanSpec(kind="affine", coeffs=np.array([0.3, 0.4])),
            noise=NoiseSpec(),
            B=1.0,
        )
        risk = excess_risk_exact(lambda pts: np.full(len(pts), 0.5), model, 4)
        assert risk == pytest.approx(1.0 / 75.0, abs=1e-14)

    def test_risk_of_rows_matches_predictor_risk(self):
        noise = NoiseSpec(kind="discrete", values=[0.2, -0.2], probs=[0.5, 0.5])
        model = iid_two_atom(mean_values=(0.1, 0.7), noise=noise)
        rows = np.array([[0.0, 0.0], [0.1, 0.7], [-0.5, 1.0]])
        risks = risk_of_rows(rows, model, 6)
        for row, r in zip(rows, risks):
            direct = excess_risk_exact(lambda pts, row=row: row, model, 6)
            assert r == pytest.approx(direct, abs=1e-14)

    def test_risk_of_rows_needs_atoms(self):
        model = DataModel(
            kind="iid",
            covariates=CovariateSpec(kind="uniform"),
            mean=MeanSpec(kind="affine", coeffs=np.array([0.0])),
            noise=NoiseSpec(),
            B=1.0,
        )
        with pytest.raises(ValueError, match="finite-support"):
            risk_of_rows(np.array([[0.0]]), model, 3)


class TestExactEnumeration:
    def test_product_states_uniform(self):
        states, probs = enumerate_product_states(np.full((2, 2), 0.5))
        assert states.shape == (4, 2)
        np.testing.assert_allclose(probs, [0.25] * 4)
        assert probs.sum() == pytest.approx(1.0)

    def test_product_states_cap(self):
        with pytest.raises(ValueError, match="enumerate"):
            enumerate_product_states(np.full((8, 8), 1.0 / 8.0))

    def test_single_row_zero(self):
        pmf = np.tile([0.5, 0.5], (3, 1))
        assert exact_average_complexity(np.array([[2.0, -1.0]]), pmf) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_sign_pair_mean_absolute_sum(self):
        # rows h and -h with h = +-1 on uniform atoms: complexity is E|S_4|
        vals = np.array([[1.0, -1.0], [-1.0, 1.0]])
        pmf = np.tile([0.5, 0.5], (4, 1))
        assert exact_average_complexity(vals, pmf) == pytest.approx(1.5, abs=1e-14)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(42)
        vals = rng.normal(size=(3, 2))
        pmf = rng.dirichlet([1.0, 1.0], size=3)
        expect = 0.0
        for states in itertools.product(range(2), repeat=3):
            p_state = np.prod([pmf[k, s] for k, s in enumerate(states)])
            for signs in itertools.product((-1.0, 1.0), repeat=3):
                sums = [
                    sum(sg * vals[j, s] for sg, s in zip(signs, states))
                    for j in range(3)
                ]
                expect += p_state * (0.5**3) * max(sums)
        got = exact_average_complexity(vals, pmf)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_degenerate_pmf_matches_fixed_table(self):
        vals = np.array([[0.3, -1.2], [0.8, 0.4]])
        pmf = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        realized = np.array(
            [[0.3, -1.2, 0.3, -1.2], [0.8, 0.4, 0.8, 0.4]]
        )
        expect = rademacher_exact(FunctionTable(values=realized)).value
        assert exact_average_complexity(vals, pmf) == pytest.approx(expect, rel=1e-13)

    def test_pmf_shape_checked(self):
        with pytest.raises(ValueError, match="atom count"):
            exact_average_complexity(np.zeros((2, 3)), np.full((2, 2), 0.5))

    @pytest.mark.parametrize("n", [22, 39])
    def test_sign_pair_beyond_sequence_cap(self, n):
        # 4^n (sign, atom) sequences but n + 1 count vectors per sign cell;
        # 39 is the last n served at s = 2
        vals = np.array([[1.0, -1.0], [-1.0, 1.0]])
        pmf = np.tile([0.5, 0.5], (n, 1))
        expect = sum(math.comb(n, k) * abs(2 * k - n) for k in range(n + 1)) / 2**n
        assert exact_average_complexity(vals, pmf) == pytest.approx(expect, rel=1e-13)

    def test_enumeration_cap_names_fallback(self):
        with pytest.raises(ValueError, match="rademacher_mc"):
            exact_average_complexity(
                np.zeros((2, 2)), np.tile([0.5, 0.5], (40, 1))
            )


BASE_RAD_CONFIG = {
    "bound": "rademacher_ci",
    "model": {
        "kind": "iid",
        "B": 1.0,
        "covariates": {
            "kind": "discrete",
            "support": [[0.0], [1.0]],
            "probs": [0.5, 0.5],
        },
        "mean": {"kind": "atom_table", "values": [0.0, 1.0]},
        "noise": {"kind": "discrete", "values": [0.3, -0.3], "probs": [0.5, 0.5]},
    },
    "values": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.0, 0.0]],
    "n": 10,
    "delta": 0.1,
    "trials": 100,
    "base_seed": 7,
}


class TestCoverageExperiments:
    def test_trials_floor(self):
        cfg = dict(BASE_RAD_CONFIG, trials=99)
        with pytest.raises(ValueError, match="trials"):
            coverage_experiment(cfg)

    def test_unknown_bound(self):
        cfg = dict(BASE_RAD_CONFIG, bound="magic")
        with pytest.raises(ValueError, match="unknown bound"):
            coverage_experiment(cfg)

    def test_report_is_deterministic(self):
        a = coverage_experiment(dict(BASE_RAD_CONFIG))
        b = coverage_experiment(dict(BASE_RAD_CONFIG))
        assert a.to_json() == b.to_json()

    def test_rademacher_report_fields(self):
        rep = coverage_experiment(dict(BASE_RAD_CONFIG))
        assert rep.bound_formula == "rademacher_ci"
        assert rep.trials == 100
        assert 0.0 <= rep.empirical_coverage <= 1.0
        assert rep.empirical_coverage == 1.0 - rep.failures / rep.trials
        assert rep.bound_value > 0
        assert rep.details["rad_ave"] > 0
        assert len(rep.details["per_trial"]) == 100
        doc = rep.to_json()
        assert isinstance(doc["details"]["per_trial"], list)

    def test_rademacher_needs_discrete(self):
        cfg = dict(BASE_RAD_CONFIG)
        cfg["model"] = {
            "kind": "markov_chain",
            "B": 1.0,
            "covariates": {
                "kind": "markov",
                "support": [[0.0], [1.0]],
                "transition": [[0.5, 0.5], [0.5, 0.5]],
            },
            "mean": {"kind": "atom_table", "values": [0.0, 1.0]},
            "noise": {"kind": "none"},
        }
        with pytest.raises(ValueError, match="discrete"):
            coverage_experiment(cfg)

    def test_trial_error_carries_replay_seed(self, monkeypatch):
        import riskbounds.simulate as sim

        original = sim._draw_trials

        def boom(model, n, seeds):  # any draw that includes trial 3 fails
            if any(seed.entropy == [7, 3] for seed in seeds):
                raise ValueError("synthetic failure")
            return original(model, n, seeds)

        monkeypatch.setattr(sim, "_draw_trials", boom)
        with pytest.raises(RuntimeError, match=r"replay seed \[7, 3\]"):
            coverage_experiment(dict(BASE_RAD_CONFIG))

    def test_bounded_class_experiment(self):
        grid = GridSpec(
            axes=(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
        )
        cls = TruncatedLinear(basis="affine", dim=1, B=1.0, grid=grid)

        cfg = {
            "bound": "bounded_class_ci",
            "model": {
                "kind": "iid",
                "B": 1.0,
                "covariates": {
                    "kind": "discrete",
                    "support": [[-1.0], [0.0], [1.0]],
                    "probs": [0.25, 0.5, 0.25],
                },
                "mean": {"kind": "affine", "coeffs": [0.25, 0.5]},
                "noise": {
                    "kind": "discrete", "values": [0.2, -0.2], "probs": [0.5, 0.5]
                },
            },
            "class": {"kind": "truncated_linear", **_to_doc(cls)},
            "c": 2.0,
            "lam": 2.0,
            "n": 60,
            "delta": 0.1,
            "trials": 100,
            "base_seed": 17,
        }
        rep = coverage_experiment(cfg)
        assert rep.bound_formula == "bounded_class_ci"
        assert rep.details["inf_risk"] >= 0.0
        assert rep.details["c"] == 2.0
        assert rep.bound_value > rep.details["inf_risk"]
        assert rep.empirical_coverage >= 0.9  # bound is far above realized risks

    def test_mixing_experiment(self):
        cfg = {
            "bound": "mixing_rademacher_ci",
            "model": {
                "kind": "markov_chain",
                "B": 1.0,
                "covariates": {
                    "kind": "markov",
                    "support": [[0.0], [1.0]],
                    "transition": [[0.9, 0.1], [0.1, 0.9]],
                },
                "mean": {"kind": "atom_table", "values": [0.0, 1.0]},
                "noise": {"kind": "none"},
            },
            "values": [[0.0, 1.0], [1.0, 0.0], [0.25, 0.75]],
            "rate_r": 1.25,
            "n": 120,
            "delta": 0.1,
            "trials": 100,
            "base_seed": 3,
        }
        rep = coverage_experiment(cfg)
        assert rep.bound_formula == "mixing_rademacher_ci"
        assert rep.details["m_hat"] >= 1
        assert rep.details["beta_m"] <= 1.25 ** (-rep.details["m_hat"]) + 1e-15
        assert rep.empirical_coverage == 1.0  # interval is very wide here

    def test_mixing_blocks_longer_than_ten_are_exact(self):
        cfg = {
            "bound": "mixing_rademacher_ci",
            "model": {
                "kind": "markov_chain",
                "B": 1.0,
                "covariates": {
                    "kind": "markov",
                    "support": [[0.0], [1.0]],
                    "transition": [[0.6, 0.4], [0.4, 0.6]],
                },
                "mean": {"kind": "atom_table", "values": [0.0, 1.0]},
                "noise": {"kind": "none"},
            },
            "values": [[0.0, 1.0], [1.0, 0.0], [0.25, 0.75]],
            "rate_r": 1.5,
            "n": 300,
            "delta": 0.1,
            "trials": 100,
            "base_seed": 3,
        }
        rep = coverage_experiment(cfg)
        assert rep.details["block_sizes"] == [13, 14]
        vals = np.array(cfg["values"])
        pi = stationary_distribution(np.array(cfg["model"]["covariates"]["transition"]))
        exact = max(exact_average_complexity(vals, np.tile(pi, (L, 1))) for L in (13, 14))
        assert rep.details["max_block_rad"] == exact
        worst = np.tile(np.max(np.abs(vals), axis=1)[:, None], (1, 14))
        assert exact < massart_bound(FunctionTable(worst))

    def test_numpy_numbers_are_read_as_numbers(self):
        requests = Path(__file__).resolve().parents[1] / "bench" / "requests"
        mixing = json.loads((requests / "coverage_c7c.json").read_text())
        want = coverage_experiment(dict(mixing)).to_json()
        assert coverage_experiment(dict(mixing, rate_r=np.float32(1.25))).to_json() == want
        grid = dict(json.loads((requests / "coverage_c7b.json").read_text()),
                    use_optimized_constants=False, trials=100)
        want = coverage_experiment(dict(grid, c=2.0, lam=3.0)).to_json()
        assert coverage_experiment(dict(grid, c=np.int64(2), lam=np.int32(3))).to_json() == want

    @pytest.mark.parametrize("field,value", [("n", 10.7), ("trials", 100.9), ("n", "10"),
                                             ("delta", True), ("base_seed", 7.5)])
    def test_fields_are_read_by_type(self, field, value):
        # int() and float() once truncated or converted these silently
        with pytest.raises(ValueError, match=f"^coverage: field '{field}' must be"):
            coverage_experiment(dict(BASE_RAD_CONFIG, **{field: value}))

    def test_library_objects_and_numpy_numbers_are_read(self):
        want = coverage_experiment(dict(BASE_RAD_CONFIG)).to_json()
        config = dict(BASE_RAD_CONFIG, model=model_from_json(BASE_RAD_CONFIG["model"]),
                      values=np.array(BASE_RAD_CONFIG["values"]), n=np.int64(10),
                      trials=np.int32(100), base_seed=np.uint8(7), delta=np.float64(0.1))
        assert coverage_experiment(config).to_json() == want

    def test_mixing_rejects_optimistic_rate(self):
        cfg = {
            "bound": "mixing_rademacher_ci",
            "model": {
                "kind": "markov_chain",
                "B": 1.0,
                "covariates": {
                    "kind": "markov",
                    "support": [[0.0], [1.0]],
                    "transition": [[0.9, 0.1], [0.1, 0.9]],
                },
                "mean": {"kind": "atom_table", "values": [0.0, 1.0]},
                "noise": {"kind": "none"},
            },
            "values": [[0.0, 1.0]],
            "rate_r": 10.0,
            "n": 200,
            "delta": 0.1,
            "trials": 100,
            "base_seed": 3,
        }
        with pytest.raises(ValueError, match="optimistic"):
            coverage_experiment(cfg)

    def test_nn_experiment_needs_network(self):
        cfg = {
            "bound": "nn_generalization_ci",
            "model": BASE_RAD_CONFIG["model"],
            "class": TruncatedLinear(basis="linear", dim=1, B=1.0),
            "n": 100,
            "delta": 0.1,
            "trials": 100,
            "base_seed": 0,
        }
        with pytest.raises(ValueError, match="NeuralNet"):
            coverage_experiment(cfg)

    def test_report_validation(self):
        with pytest.raises(ValueError, match="failures"):
            CoverageReport(
                trials=10, failures=11, delta=0.1, bound_formula="x",
                empirical_coverage=0.0, binomial_se=0.0, base_seed=0,
            )


# ---------------------------------------------------------------------------
# JSON documents: the field-driven codec against the hand-written one it
# replaced, kept here as a private reference


def _ref_model_to_json(model):
    cov = model.covariates
    return {
        "kind": model.kind,
        "B": model.B,
        "drift": list(model.drift) if model.drift else None,
        "covariates": {
            "kind": cov.kind,
            "support": cov.support.tolist() if cov.support is not None else None,
            "probs": cov.probs.tolist() if cov.probs is not None else None,
            "probs_end": cov.probs_end.tolist() if cov.probs_end is not None else None,
            "low": cov.low,
            "high": cov.high,
            "transition": cov.transition.tolist() if cov.transition is not None else None,
        },
        "mean": {
            "kind": model.mean.kind,
            "coeffs": model.mean.coeffs.tolist() if model.mean.coeffs is not None else None,
            "values": model.mean.values.tolist() if model.mean.values is not None else None,
        },
        "noise": {
            "kind": model.noise.kind,
            "values": model.noise.values.tolist() if model.noise.values is not None else None,
            "probs": model.noise.probs.tolist() if model.noise.probs is not None else None,
            "half_width": model.noise.half_width,
        },
    }


def _ref_model_from_json(doc):
    cov = doc["covariates"]
    mean = doc.get("mean") or {"kind": "affine", "coeffs": [0.0]}
    noise = doc.get("noise") or {"kind": "none"}

    def arr(x):
        return None if x is None else np.asarray(x, dtype=float)

    return DataModel(
        kind=doc["kind"],
        covariates=CovariateSpec(
            kind=cov["kind"],
            support=arr(cov.get("support")),
            probs=arr(cov.get("probs")),
            probs_end=arr(cov.get("probs_end")),
            low=cov.get("low", 0.0),
            high=cov.get("high", 1.0),
            transition=arr(cov.get("transition")),
        ),
        mean=MeanSpec(
            kind=mean.get("kind", "affine"),
            coeffs=arr(mean.get("coeffs")),
            values=arr(mean.get("values")),
        ),
        noise=NoiseSpec(
            kind=noise.get("kind", "none"),
            values=arr(noise.get("values")),
            probs=arr(noise.get("probs")),
            half_width=noise.get("half_width", 0.0),
        ),
        B=doc["B"],
        drift=tuple(doc["drift"]) if doc.get("drift") else None,
    )


def _ref_jsonable(obj):
    if isinstance(obj, dict):
        return {k: _ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_ref_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _ref_report_to_json(report):
    return {
        "trials": report.trials,
        "failures": report.failures,
        "delta": report.delta,
        "bound_formula": report.bound_formula,
        "empirical_coverage": report.empirical_coverage,
        "binomial_se": report.binomial_se,
        "base_seed": report.base_seed,
        "bound_value": report.bound_value,
        "details": _ref_jsonable(report.details),
    }


def _document_models():
    """Every model document of the bench requests and of the test modules."""
    import test_acceptance
    import test_cli
    import test_projected_gd
    import test_sampler

    requests = Path(__file__).resolve().parents[1] / "bench" / "requests"
    docs = {p.stem: json.loads(p.read_text()).get("model") for p in sorted(requests.glob("*.json"))}
    docs = {f"bench-{name}": doc for name, doc in docs.items() if doc is not None}
    for name, doc in test_sampler.MODELS.items():
        for noise, noise_doc in test_sampler.NOISE.items():
            docs[f"sampler-{name}-{noise}"] = {**doc, "noise": noise_doc}
    for name in ("IID_MODEL", "DRIFTING_MODEL", "MARKOV_MODEL", "REGRESSION_MODEL"):
        docs[f"acceptance-{name}"] = getattr(test_acceptance, name)
    docs["cli-coverage"] = test_cli.COVERAGE_PARAMS["model"]
    docs["projected-gd-rad"] = test_projected_gd.RAD_CONFIG["model"]
    docs["projected-gd-nn"] = test_projected_gd.nn_config()["model"]
    docs["simulate-rad"] = BASE_RAD_CONFIG["model"]
    return docs


DOCUMENT_MODELS = _document_models()


def _assert_same_samples(a, b, n=40):
    seed = np.random.SeedSequence([3, 1])
    (sample_a, states_a), (sample_b, states_b) = (generate_with_states(m, n, seed) for m in (a, b))
    assert sample_a.points.tobytes() == sample_b.points.tobytes()
    assert sample_a.responses.tobytes() == sample_b.responses.tobytes()
    assert (states_a is None) == (states_b is None)
    assert states_a is None or states_a.tobytes() == states_b.tobytes()


class TestModelDocuments:
    @pytest.mark.parametrize("name", sorted(DOCUMENT_MODELS))
    def test_decoder_matches_reference(self, name):
        doc = DOCUMENT_MODELS[name]
        got, want = model_from_json(doc), _ref_model_from_json(doc)
        assert _to_doc(got) == _to_doc(want)
        assert field_types(got) == field_types(want)
        _assert_same_samples(got, want)
        # the encoders differ only in key order
        assert _to_doc(got) == _ref_model_to_json(want)
        assert list(_to_doc(got)) == [f.name for f in dataclasses.fields(DataModel)]

    @pytest.mark.parametrize("model", [
        DataModel(kind="iid", B=2.0,
                  covariates=CovariateSpec(kind="uniform", low=-1.0, high=3.0),
                  mean=MeanSpec(kind="affine", coeffs=np.array([0.1, 0.4])),
                  noise=NoiseSpec(kind="uniform", half_width=0.3)),
        DataModel(kind="nonstationary_independent", B=1.0, drift=(-0.25, 0.5),
                  covariates=CovariateSpec(kind="discrete", support=np.array([0.0, 0.5, 1.0]),
                                           probs=np.array([0.5, 0.3, 0.2]),
                                           probs_end=np.array([0.1, 0.1, 0.8])),
                  mean=MeanSpec(kind="affine", coeffs=np.array([0.0, 0.7])),
                  noise=NoiseSpec(kind="discrete", values=np.array([0.2, -0.2]),
                                  probs=np.array([0.5, 0.5]))),
        DataModel(kind="markov_chain", B=1.0,
                  covariates=CovariateSpec(kind="markov", support=np.array([[0.0], [1.0]]),
                                           transition=np.array([[0.8, 0.2], [0.3, 0.7]])),
                  mean=MeanSpec(kind="atom_table", values=np.array([-0.4, 0.9])),
                  noise=NoiseSpec(kind="none")),
    ], ids=["uniform-uniform-noise", "drift-probs-end-discrete-noise", "markov-atom-table"])
    def test_roundtrip_each_kind(self, model):
        doc = json.loads(json.dumps(_to_doc(model), allow_nan=False))
        back = model_from_json(doc)
        assert _to_doc(back) == _to_doc(model)
        assert field_types(back) == field_types(model)
        _assert_same_samples(back, model)

    def test_null_or_absent_fields_take_defaults(self):
        doc = {"kind": "iid", "B": 1.0, "drift": None, "mean": {}, "noise": None,
               "covariates": {"kind": "uniform", "low": None, "high": 2.0}}
        want = _ref_model_from_json({"kind": "iid", "B": 1.0,
                                     "covariates": {"kind": "uniform", "high": 2.0}})
        assert _to_doc(model_from_json(doc)) == _to_doc(want)

    def test_every_missing_field_is_named(self):
        with pytest.raises(ValueError, match="^model: missing required fields: kind, B$"):
            model_from_json({"covariates": {"kind": "uniform"}, "extra": 1})
        with pytest.raises(ValueError, match=r"^model\.covariates: missing required field 'kind'$"):
            model_from_json({"kind": "iid", "B": 1.0, "covariates": {"low": 0.0}})

    def test_every_unknown_key_is_named(self):
        base = {"kind": "iid", "B": 1.0, "covariates": {"kind": "uniform"}}
        with pytest.raises(ValueError, match="^model: unknown fields: extra, Bee$"):
            model_from_json({**base, "extra": 1, "Bee": 2.0})
        with pytest.raises(ValueError, match=r"^model\.covariates: unknown fields: hi$"):
            model_from_json({**base, "covariates": {"kind": "uniform", "hi": 2.0}})
        # a misspelt kind no longer reads as the default noise-free model
        noise = {"knd": "discrete", "values": [0.3, -0.3], "probs": [0.5, 0.5]}
        with pytest.raises(ValueError, match=r"^model\.noise: unknown fields: knd$"):
            model_from_json({**base, "noise": noise})
        with pytest.raises(ValueError, match=r"^model\.noise: unknown fields: a$"):
            model_from_json({**base, "noise": {"a": 1}})


class TestReportDocument:
    @pytest.mark.parametrize("bound", ["rademacher_ci", "mixing_rademacher_ci",
                                       "bounded_class_ci", "nn_generalization_ci"])
    def test_encoder_matches_reference(self, bound, monkeypatch):
        import riskbounds.simulate as sim

        monkeypatch.setattr(sim, "GD_ITERATIONS", 20)
        common = {k: v for k, v in BASE_RAD_CONFIG.items() if k != "values"}
        configs = {
            "rademacher_ci": dict(BASE_RAD_CONFIG),
            "mixing_rademacher_ci": dict(
                BASE_RAD_CONFIG, bound=bound, model=DOCUMENT_MODELS["acceptance-MARKOV_MODEL"],
                rate_r=1.25, n=120),
            "bounded_class_ci": dict(
                common, bound=bound, c=2.0, lam=2.0, n=60,
                model=DOCUMENT_MODELS["acceptance-REGRESSION_MODEL"],
                **{"class": TruncatedLinear(basis="affine", dim=1, B=1.0, grid=GridSpec(
                    axes=(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))))}),
            "nn_generalization_ci": dict(
                common, bound=bound, truth_params=[0.0] * 4,
                **{"class": NeuralNet(dim=1, units=1, B=1.0)}),
        }
        report = coverage_experiment(configs[bound])
        got = json.dumps(report.to_json(), allow_nan=False)
        assert got == json.dumps(_ref_report_to_json(report), allow_nan=False)
