"""Refusal sweep: a bad input is refused with exit 2 and a message that names
where it is, never with exit 1 or a traceback.

The `bound` slice changes one input field of each checked-in `bound` request
at a time: to 0, -1, 1e400, a string, null, [] or {}, or it deletes the field.
"""

import json
from pathlib import Path

import pytest

import riskbounds.cli as cli
from riskbounds import bounds_rademacher as br
from riskbounds import bounds_vc as bv
from riskbounds._documents import _kinds

REQUESTS = Path(__file__).resolve().parents[1] / "bench" / "requests"
BOUND_DOCS = sorted(p.stem for p in REQUESTS.glob("bound_*.json"))

OVERFLOW = "<1e400>"  # written into the document text as the literal 1e400
DELETE = object()
MUTATIONS = [0, -1, OVERFLOW, "many", None, [], {}, DELETE]


def run_text(tmp_path, capsys, command, text):
    path = tmp_path / "params.json"
    path.write_text(text)
    code = cli.main([command, "--params", str(path), "--out", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


def run_doc(tmp_path, capsys, command, doc):
    return run_text(tmp_path, capsys, command,
                    json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400"))


def load(name: str) -> dict:
    return json.loads((REQUESTS / f"{name}.json").read_text())


class TestBoundSweep:
    def test_every_formula_has_a_request(self):
        assert {load(name)["formula"] for name in BOUND_DOCS} == set(cli._FORMULAS)

    @pytest.mark.parametrize("name", BOUND_DOCS)
    def test_one_bad_field_exits_two_naming_the_formula(self, tmp_path, capsys, name):
        doc = load(name)
        formula = doc["formula"]
        faults = []
        for field in doc["inputs"]:
            for value in MUTATIONS:
                inputs = dict(doc["inputs"], **{field: value})
                if value is DELETE:
                    del inputs[field]
                code, err = run_doc(tmp_path, capsys, "bound", dict(doc, inputs=inputs))
                if code not in (0, 2) or (code == 2 and f"bound[{formula}]" not in err):
                    faults.append((field, value, code, err.strip()))
        assert faults == []

    @pytest.mark.parametrize("name", BOUND_DOCS)
    def test_unknown_key_is_refused_by_name(self, tmp_path, capsys, name):
        doc = load(name)
        inputs = dict(doc["inputs"], nonnegativ=True)
        code, err = run_doc(tmp_path, capsys, "bound", dict(doc, inputs=inputs))
        assert code == 2
        assert err == f"error: bound[{doc['formula']}]: unknown fields: nonnegativ\n"

    def test_misspelt_flag_no_longer_passes_silently(self, tmp_path, capsys):
        doc = {"formula": "deviation_tail",
               "inputs": {"epsilon": 2, "envelope_l2_sup": 1, "nonnegativ": True}}
        code, err = run_doc(tmp_path, capsys, "bound", doc)
        assert code == 2
        assert "bound[deviation_tail]: unknown fields: nonnegativ" in err

    @pytest.mark.parametrize("name,field,value,message", [
        ("bound_epsilon_n", "c", 1, "bound[epsilon_n]: c must exceed 1, got 1.0"),
        ("bound_optimized_bound", "n", 0,
         "bound[optimized_bound]: need n >= 1, B > 0, delta in (0,1)"),
        ("bound_unbounded_response_ci", "eta_prime", -1,
         "bound[unbounded_response_ci]: eta_prime must be positive, got -1.0"),
        ("bound_refined_bound", "c_n", 1, "bound[refined_bound]: c_n must exceed 1, got 1.0"),
    ])
    def test_domain_error_names_the_formula(self, tmp_path, capsys, name, field, value,
                                            message):
        doc = load(name)
        code, err = run_doc(tmp_path, capsys, "bound",
                            dict(doc, inputs=dict(doc["inputs"], **{field: value})))
        assert code == 2
        assert err == f"error: {message}\n"

    def test_entropy_document_is_named_once(self, tmp_path, capsys):
        doc = load("bound_refined_bound")
        doc["inputs"]["entropy"]["B"] = 0
        code, err = run_doc(tmp_path, capsys, "bound", doc)
        assert code == 2
        assert err == ("error: bound[refined_bound].entropy: field 'B' must be positive, "
                       "got 0.0\n")


class TestKindsOfAFunction:
    def test_defaults_make_a_parameter_optional(self):
        assert _kinds(br.deviation_tail) == {
            "epsilon": float, "envelope_l2_sup": float, "nonnegative": bool | None}

    def test_dataclass_parameter_is_reported_as_the_dataclass(self):
        assert _kinds(bv.bounded_class_ci) == {
            "params": bv.BoundParams, "inf_risk": float, "log_a": float}

    def test_formula_fields_list_dataclass_fields_first(self):
        assert list(cli._formula_fields("vc_mixing_second_term")) == [
            "n", "B", "delta", "c", "lam", "rate_r", "log_a_star"]


class TestOtherCommandRefusals:
    def test_mixing_demo_needs_a_positive_n(self, tmp_path, capsys):
        code, err = run_doc(tmp_path, capsys, "mixing-demo", dict(load("mixing_demo"), n=0))
        assert code == 2
        assert err == "error: mixing-demo: field 'n' must be >= 1, got 0\n"

    def test_rademacher_needs_enough_draws(self, tmp_path, capsys):
        doc = dict(load("rademacher_small"), mode="monte_carlo", draws=0)
        code, err = run_doc(tmp_path, capsys, "rademacher", doc)
        assert code == 2
        assert err == "error: rademacher: field 'draws' must be >= 100, got 0\n"

    def test_cover_needs_a_nonnegative_radius(self, tmp_path, capsys):
        code, err = run_doc(tmp_path, capsys, "cover", dict(load("cover_greedy"), radius=-1))
        assert code == 2
        assert err == "error: cover: field 'radius' must be >= 0, got -1.0\n"

    @pytest.mark.parametrize("command, name, key", [
        ("rademacher", "rademacher_small", "mod"),
        ("cover", "cover_greedy", "radiuss"),
        ("entropy", "entropy_vc_classify", "d"),  # a neural_net field on a vc document
        ("mixing-demo", "mixing_demo", "trails"),
    ])
    def test_unknown_key_is_refused(self, tmp_path, capsys, command, name, key):
        code, err = run_doc(tmp_path, capsys, command, dict(load(name), **{key: 1}))
        assert code == 2
        assert err == f"error: {command}: unknown fields: {key}\n"

    @pytest.mark.parametrize("command, name, field, value, message", [
        ("mixing-demo", "mixing_demo", "delta", 0,
         "mixing-demo: delta must lie in (n r^-n, 1) = (2.04e-08, 1), got 0.0"),
        ("mixing-demo", "mixing_demo", "rate_r", 0, "mixing-demo: rate_r must exceed 1, got 0.0"),
        ("entropy", "entropy_nn_classify", "d", 0, "entropy: d and N must be >= 1"),
        ("entropy", "entropy_vc_classify", "V", -1, "entropy: V must be nonnegative, got -1"),
        ("entropy", "entropy_vc_classify", "r", 0.01,
         "entropy: field 'r' cannot be set beside 'radii'"),
        # only a null, absent or {} mean or noise reads as its default
        *[("coverage", "coverage_c7a_iid", "model",
           {**load("coverage_c7a_iid")["model"], key: value},
           f"coverage.model.{key}: expected a JSON object, got {value!r}")
          for key in ("mean", "noise") for value in (0, False, "", [])],
    ])
    def test_library_domain_error_names_the_command(self, tmp_path, capsys, command, name,
                                                    field, value, message):
        code, err = run_doc(tmp_path, capsys, command, dict(load(name), **{field: value}))
        assert code == 2
        assert err == f"error: {message}\n"


def _with_key(name: str, path: tuple, key: str, value) -> dict:
    """Request ``name`` with ``key: value`` added to its object at ``path``."""
    doc = load(name)
    target = doc
    for step in path:
        target = target[step]
    target[key] = value
    return doc


class TestUnknownKeysOfEveryDocument:
    @pytest.mark.parametrize("command, name, path, key, where", [
        ("coverage", "coverage_c7a_iid", (), "nonnegative_famly", "coverage"),
        # a field of another experiment is no field of this one
        ("coverage", "coverage_c7b", (), "nonnegative_family", "coverage"),
        ("bound", "bound_epsilon_n", (), "input", "bound"),
        ("bound", "bound_refined_bound", ("inputs", "entropy"), "Vv",
         "bound[refined_bound].entropy"),
    ])
    def test_unknown_key_exits_two_naming_it(self, tmp_path, capsys, command, name, path, key,
                                             where):
        code, err = run_doc(tmp_path, capsys, command, _with_key(name, path, key, True))
        assert code == 2
        assert err == f"error: {where}: unknown fields: {key}\n"

    def test_constants_beside_optimized_constants_are_refused(self, tmp_path, capsys):
        doc = dict(load("coverage_c7b"), c=3.0, lam=5.0)
        code, err = run_doc(tmp_path, capsys, "coverage", doc)
        assert code == 2
        assert err == ("error: coverage: fields 'c' and 'lam' cannot be set beside "
                       "'use_optimized_constants': true\n")
        code, err = run_doc(tmp_path, capsys, "coverage", dict(doc, use_optimized_constants=False))
        assert (code, err) == (0, "")
        report = json.loads((tmp_path / "out.json").read_text())["outputs"]
        assert (report["details"]["c"], report["details"]["lam"]) == (3.0, 5.0)

    def test_finite_class_kind_is_refused(self, tmp_path, capsys):
        doc = load("coverage_c7b")
        doc["class"] = {"kind": "finite", "values": [[0.5, -0.5]], "B": 1.0}
        code, err = run_doc(tmp_path, capsys, "coverage", doc)
        assert code == 2
        assert err == ("error: class: field 'kind' must be one of truncated_linear, neural_net, "
                       "got 'finite'\n")


# every other checked-in request document, by the command that reads it
OTHER_DOCS = {
    "rademacher_small": "rademacher",
    "cover_exact": "cover",
    "cover_greedy": "cover",
    "entropy_nn_classify": "entropy",
    "entropy_vc_classify": "entropy",
    "mixing_demo": "mixing-demo",
    "coverage_c7a_iid": "coverage",
    "coverage_c7a_drift": "coverage",
    "coverage_c7b": "coverage",
    "coverage_c7c": "coverage",
}


class TestOtherCommandSweep:
    """Each top-level field of each non-`bound` request, changed one at a time
    as in the `bound` slice, then one unknown key: never exit 1."""

    @pytest.mark.parametrize("name", sorted(OTHER_DOCS))
    def test_one_bad_field_exits_zero_or_two_naming_the_document(self, tmp_path, capsys, name):
        command, doc = OTHER_DOCS[name], load(name)
        leads = tuple(f"error: {where}" for where in (command, "class", "model"))
        faults = []
        for field in doc:
            for value in MUTATIONS:
                mutated = dict(doc, **{field: value})
                if value is DELETE:
                    del mutated[field]
                code, err = run_doc(tmp_path, capsys, command, mutated)
                if code not in (0, 2) or (code == 2 and not err.startswith(leads)):
                    faults.append((field, value, code, err.strip()))
        assert faults == []

    @pytest.mark.parametrize("name", sorted(OTHER_DOCS))
    def test_unknown_key_is_refused_by_name(self, tmp_path, capsys, name):
        command = OTHER_DOCS[name]
        code, err = run_doc(tmp_path, capsys, command, dict(load(name), unknwn=1))
        assert code == 2
        assert err == f"error: {command}: unknown fields: unknwn\n"

    def test_optimize_constants_refuses_every_key(self, tmp_path, capsys):
        code, err = run_doc(tmp_path, capsys, "optimize-constants", {"c": 3.0})
        assert code == 2
        assert err == "error: optimize-constants: unknown fields: c\n"
