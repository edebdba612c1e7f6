import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import riskbounds.cli as cli
from riskbounds import __version__


REQUESTS = Path(__file__).resolve().parents[1] / "bench" / "requests"


def run(tmp_path, capsys, command, params=None, extra=(), fmt="json"):
    argv = [command]
    if params is not None:
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        argv += ["--params", str(path)]
    argv += ["--format", fmt, *extra]
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def envelope_of(out: str) -> dict:
    return json.loads(out)


# every formula's required fields, in the order the error message lists them
REQUIRED_FIELDS = {
    "deviation_tail": ["epsilon", "envelope_l2_sup"],
    "single_hypothesis_tail": ["eta", "h_l2_sup"],
    "conditional_k_bound": [
        "epsilon", "eta", "k", "n", "envelope_l2_sup", "rad", "single_tail",
    ],
    "rademacher_ci": ["n", "envelope_l2_sup", "rad", "delta"],
    "rademacher_ci_massart": ["n", "envelope_l2_sup", "delta", "r", "mean_sqrt_log_cover"],
    "nn_generalization_ci": ["n", "d", "B", "delta"],
    "mixing_rademacher_ci": ["n", "delta", "rate_r", "max_block_env", "max_block_rad"],
    "vc_entropy": ["V", "B", "r"],
    "nn_entropy": ["d", "N", "B", "r"],
    "epsilon_n": ["n", "B", "delta", "c", "lam"],
    "optimized_bound": ["n", "B", "delta", "log_cover"],
    "small_lambda_bound": ["n", "B", "delta", "lam", "log_cover"],
    "refined_bound": ["n", "B_n", "delta", "c_n", "entropy"],
    "bounded_class_ci": ["n", "B", "delta", "c", "lam", "inf_risk", "log_a"],
    "unbounded_response_ci": [
        "n", "B", "delta", "c", "lam", "eta", "eta_prime",
        "inf_risk_Phi", "tail_term", "bounded_ci_tail",
    ],
    "vc_mixing_second_term": ["n", "B", "delta", "c", "lam", "rate_r", "log_a_star"],
}

# optional numeric fields, beside the required ones
OPTIONAL_NUMBERS = {
    "nn_generalization_ci": ["units"],
}

# one valid input document per formula
VALID_INPUTS = {
    "deviation_tail": {"epsilon": 2.0, "envelope_l2_sup": 1.0},
    "single_hypothesis_tail": {"eta": 3.0, "h_l2_sup": 1.0},
    "conditional_k_bound": {
        "epsilon": 1.5, "eta": 0.5, "k": 7, "n": 50, "envelope_l2_sup": 4.0,
        "rad": 2.5, "single_tail": 0.01,
    },
    "rademacher_ci": {"n": 100, "envelope_l2_sup": 10, "rad": 5, "delta": 0.05},
    "rademacher_ci_massart": {
        "n": 200, "envelope_l2_sup": 12.0, "delta": 0.05, "r": 0.3,
        "mean_sqrt_log_cover": 2.2,
    },
    "nn_generalization_ci": {"n": 10000, "d": 2, "B": 1.0, "delta": 0.05},
    "mixing_rademacher_ci": {
        "n": 1000, "delta": 0.05, "rate_r": 2.718281828459045,
        "max_block_env": 10.0, "max_block_rad": 3.0,
    },
    "vc_entropy": {"V": 1, "B": 1.0, "r": 0.25},
    "nn_entropy": {"d": 2, "N": 3, "B": 1.0, "r": 0.05},
    "epsilon_n": {"n": 1000, "B": 1.0, "delta": 0.05, "c": 11.465, "lam": 1.2945},
    "optimized_bound": {"n": 1000, "B": 1.0, "delta": 0.05, "log_cover": 0.0},
    "small_lambda_bound": {
        "n": 1000, "B": 1.0, "delta": 0.05, "lam": 1.0833333333333333, "log_cover": 0.0,
    },
    "refined_bound": {
        "n": 10000, "B_n": 1.0, "delta": 0.05, "c_n": 2.0,
        "entropy": {"kind": "vc", "V": 2, "B": 1.0},
    },
    "bounded_class_ci": {
        "n": 2000, "B": 1.0, "delta": 0.1, "c": 2.0, "lam": 2.0,
        "inf_risk": 0.01, "log_a": 8.737669618283368,
    },
    "unbounded_response_ci": {
        "n": 2000, "B": 1.0, "delta": 0.1, "c": 2.0, "lam": 2.0, "eta": 0.5,
        "eta_prime": 0.25, "inf_risk_Phi": 0.02, "tail_term": 0.001, "bounded_ci_tail": 0.3,
    },
    "vc_mixing_second_term": {
        "n": 5000, "B": 1.0, "delta": 0.05, "c": 2.0, "lam": 2.0,
        "rate_r": 2.0, "log_a_star": 12.0,
    },
}


def run_text(tmp_path, capsys, command, text, extra=()):
    """Run with a parameter file holding `text` verbatim (it may be invalid JSON)."""
    path = tmp_path / "params.json"
    path.write_text(text)
    code = cli.main([command, "--params", str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_rademacher_ci_reference(self, tmp_path, capsys):
        params = {
            "formula": "rademacher_ci",
            "inputs": {"n": 100, "envelope_l2_sup": 10, "rad": 5, "delta": 0.05},
        }
        code, out, err = run(tmp_path, capsys, "bound", params)
        assert code == 0, err
        env = envelope_of(out)
        assert env["outputs"]["width"] == pytest.approx(64.32406062962478, abs=1e-9)
        assert env["outputs"]["formula"] == "rademacher_ci"
        assert env["inputs_echo"] == params
        assert env["version"] == __version__
        assert env["seed"] is None

    def test_echo_round_trip_reproduces_outputs(self, tmp_path, capsys):
        params = {
            "formula": "bounded_class_ci",
            "inputs": {
                "n": 2000, "B": 1.0, "delta": 0.1, "c": 2.0, "lam": 2.0,
                "inf_risk": 0.01, "log_a": 8.7376696182833684,
            },
        }
        code, out, _ = run(tmp_path, capsys, "bound", params)
        assert code == 0
        first = envelope_of(out)
        code, out, _ = run(tmp_path, capsys, "bound", first["inputs_echo"])
        assert code == 0
        assert envelope_of(out)["outputs"] == first["outputs"]

    def test_missing_fields_all_listed(self, tmp_path, capsys):
        params = {"formula": "rademacher_ci", "inputs": {"n": 100}}
        code, _, err = run(tmp_path, capsys, "bound", params)
        assert code == 2
        assert "missing required fields: envelope_l2_sup, rad, delta\n" in err

    @pytest.mark.parametrize("formula", sorted(REQUIRED_FIELDS))
    def test_missing_fields_all_listed_per_formula(self, tmp_path, capsys, formula):
        params = {"formula": formula, "inputs": {}}
        code, _, err = run(tmp_path, capsys, "bound", params)
        assert code == 2
        listed = ", ".join(REQUIRED_FIELDS[formula])
        assert f"bound[{formula}]: missing required fields: {listed}\n" in err

    @pytest.mark.parametrize("formula", sorted(REQUIRED_FIELDS))
    def test_string_in_a_numeric_field_is_named(self, tmp_path, capsys, formula):
        numeric = REQUIRED_FIELDS[formula] + OPTIONAL_NUMBERS.get(formula, [])
        for field in numeric:
            if field == "entropy":
                continue
            inputs = dict(VALID_INPUTS[formula], **{field: "many"})
            code, _, err = run(tmp_path, capsys, "bound", {"formula": formula, "inputs": inputs})
            assert code == 2, field
            assert f"field {field!r} must be a number, got 'many'" in err

    def test_string_in_the_entropy_document_is_named(self, tmp_path, capsys):
        entropy = {"kind": "vc", "V": "two", "B": 1.0}
        inputs = dict(VALID_INPUTS["refined_bound"], entropy=entropy)
        params = {"formula": "refined_bound", "inputs": inputs}
        code, _, err = run(tmp_path, capsys, "bound", params)
        assert code == 2
        assert "bound[refined_bound].entropy: field 'V' must be a number" in err

    @pytest.mark.parametrize("B", [0, -1])
    def test_nonpositive_entropy_range_is_named(self, tmp_path, capsys, B):
        params = json.loads((REQUESTS / "bound_refined_bound.json").read_text())
        params["inputs"]["entropy"]["B"] = B
        code, out, err = run(tmp_path, capsys, "bound", params)
        assert code == 2
        assert out == ""
        assert f"bound[refined_bound].entropy: field 'B' must be positive, got {float(B)}" in err

    def test_unknown_formula(self, tmp_path, capsys):
        params = {"formula": "psi_ci", "inputs": {}}
        code, _, err = run(tmp_path, capsys, "bound", params)
        assert code == 2
        assert "known formulas" in err

    def test_formula_domain_error_is_validation(self, tmp_path, capsys):
        params = {
            "formula": "vc_entropy",
            "inputs": {"V": 1, "B": 1.0, "r": 0.9},  # outside (0, B/4]
        }
        code, _, err = run(tmp_path, capsys, "bound", params)
        assert code == 2
        assert "validity" in err

    @pytest.mark.parametrize(
        "formula,inputs,key,expect",
        [
            (
                "deviation_tail",
                {"epsilon": 2.0, "envelope_l2_sup": 1.0},
                "tail",
                0.13533528323661276,
            ),
            (
                "single_hypothesis_tail",
                {"eta": 3.0, "h_l2_sup": 1.0},
                "tail",
                0.011108996538242316,
            ),
            (
                "nn_generalization_ci",
                {"n": 10000, "d": 2, "B": 1.0, "delta": 0.05},
                "width",
                0.3598347200737815,
            ),
            (
                "mixing_rademacher_ci",
                {
                    "n": 1000, "delta": 0.05, "rate_r": 2.718281828459045,
                    "max_block_env": 10.0, "max_block_rad": 3.0,
                },
                "width",
                903.4593456978654,
            ),
            (
                "vc_entropy",
                {"V": 1, "B": 1.0, "r": 0.25},
                "entropy",
                5.426495087914157,
            ),
            (
                "optimized_bound",
                {"n": 1000, "B": 1.0, "delta": 0.05, "log_cover": 0.0},
                "bound",
                13.153950644539739,
            ),
            (
                "small_lambda_bound",
                {
                    "n": 1000, "B": 1.0, "delta": 0.05,
                    "lam": 1.0833333333333333, "log_cover": 0.0,
                },
                "bound",
                5.171252652931097,
            ),
            (
                "conditional_k_bound",
                VALID_INPUTS["conditional_k_bound"],
                "threshold",
                2.7,
            ),
            (
                "conditional_k_bound",
                VALID_INPUTS["conditional_k_bound"],
                "tail",
                0.03767094179778418,
            ),
            (
                "rademacher_ci_massart",
                VALID_INPUTS["rademacher_ci_massart"],
                "width",
                118.58887275554974,
            ),
            ("nn_entropy", VALID_INPUTS["nn_entropy"], "entropy", 220.2741319649327),
            ("epsilon_n", VALID_INPUTS["epsilon_n"], "epsilon_n", 2.2131901272557704),
            ("epsilon_n", VALID_INPUTS["epsilon_n"], "upper", 3.252708492999066),
            (
                "bounded_class_ci",
                VALID_INPUTS["bounded_class_ci"],
                "width",
                171.40895669253698,
            ),
            (
                "unbounded_response_ci",
                VALID_INPUTS["unbounded_response_ci"],
                "width",
                0.7679999999999999,
            ),
            (
                "vc_mixing_second_term",
                VALID_INPUTS["vc_mixing_second_term"],
                "value",
                90435.53745508206,
            ),
        ],
    )
    def test_formula_values(self, tmp_path, capsys, formula, inputs, key, expect):
        code, out, err = run(
            tmp_path, capsys, "bound", {"formula": formula, "inputs": inputs}
        )
        assert code == 0, err
        assert envelope_of(out)["outputs"][key] == pytest.approx(expect, rel=1e-9)

    def test_refined_bound_with_entropy_document(self, tmp_path, capsys):
        params = {
            "formula": "refined_bound",
            "inputs": {
                "n": 10000, "B_n": 1.0, "delta": 0.05, "c_n": 2.0,
                "entropy": {"kind": "vc", "V": 2, "B": 1.0},
            },
        }
        code, out, _ = run(tmp_path, capsys, "bound", params)
        assert code == 0
        assert envelope_of(out)["outputs"]["bound"] == pytest.approx(
            74.30904083847409, rel=1e-9
        )

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_refused(self, tmp_path, capsys, literal):
        text = (
            '{"formula": "rademacher_ci", "inputs": '
            f'{{"n": 100, "envelope_l2_sup": {literal}, "rad": 5, "delta": 0.05}}}}'
        )
        code, out, err = run_text(tmp_path, capsys, "bound", text)
        assert code == 2
        assert out == ""
        assert f"{literal} is not valid JSON" in err

    @pytest.mark.parametrize(
        "field,number",
        [("n", "1e400"), ("n", "1" + "0" * 400), ("B", "-1e400")],
        ids=["float-n", "integer-n", "float-B"],
    )
    def test_number_beyond_float_range_is_named(self, tmp_path, capsys, field, number):
        inputs = {"n": "10000", "d": "2", "B": "1.0", "delta": "0.05", field: number}
        body = ", ".join(f'"{k}": {v}' for k, v in inputs.items())
        text = f'{{"formula": "nn_generalization_ci", "inputs": {{{body}}}}}'
        code, out, err = run_text(tmp_path, capsys, "bound", text)
        assert code == 2
        assert out == ""
        assert f"field {field!r} must be finite" in err

    @pytest.mark.parametrize(
        "extra", ['"foo": 1e400', '"foo": [1, {"bar": -1e400}]'], ids=["field", "nested"])
    def test_unread_number_beyond_float_range_is_named(self, tmp_path, capsys, extra):
        # optimize-constants reads no field, so it refuses every key by name,
        # one that holds a number beyond the float range too
        code, out, err = run_text(tmp_path, capsys, "optimize-constants", f"{{{extra}}}")
        assert code == 2
        assert out == ""
        assert err == "error: optimize-constants: unknown fields: foo\n"

    def test_non_finite_result_exits_one_and_writes_nothing(self, tmp_path, capsys):
        inputs = dict(VALID_INPUTS["epsilon_n"], B=1e300)  # B^2 overflows
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"formula": "epsilon_n", "inputs": inputs}))
        dest = tmp_path / "result.json"
        code = cli.main(["bound", "--params", str(path), "--out", str(dest)])
        captured = capsys.readouterr()
        assert code == 1
        assert "not finite" in captured.err
        assert captured.out == ""
        assert not dest.exists()

    def test_csv_flattens_outputs(self, tmp_path, capsys):
        params = {
            "formula": "deviation_tail",
            "inputs": {"epsilon": 2.0, "envelope_l2_sup": 1.0},
        }
        code, out, _ = run(tmp_path, capsys, "bound", params, fmt="csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "field,value"
        assert any(line.startswith("tail,0.1353352832") for line in lines)

    def test_readme_formula_table_matches_the_signatures(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        header = "| formula | required inputs | optional inputs | output keys |\n"
        table = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[1:]
        rows = {}
        for line in table:
            formula, *cells = [re.findall(r"`(\w+)`", cell) for cell in line.split("|")[1:-1]]
            rows[formula[0]] = cells
        assert sorted(rows) == sorted(cli._FORMULAS)
        for formula, (required, optional, outputs) in rows.items():
            fields = cli._formula_fields(formula)
            assert required == [n for n, k in fields.items() if type(None) not in get_args(k)]
            assert optional == [n for n, k in fields.items() if type(None) in get_args(k)]
            assert outputs == list(cli._FORMULAS[formula][1])


class TestTopLevel:
    def test_params_required(self, capsys):
        code = cli.main(["bound"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--params is required" in err

    def test_optimize_constants_needs_no_params(self, capsys):
        code = cli.main(["optimize-constants"])
        out = capsys.readouterr().out
        assert code == 0
        outputs = envelope_of(out)["outputs"]
        assert 11.46 < outputs["c0"] < 11.47
        assert 1.29 < outputs["lambda0"] < 1.30
        assert 3291 < outputs["V0"] < 3292
        assert 0.0935 < outputs["radius_coeff"] < 0.0955

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = cli.main(["bound", "--params", str(path)])
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["bound", "--params", str(tmp_path / "absent.json")])
        assert code == 2

    def test_non_object_document(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code = cli.main(["bound", "--params", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "JSON object" in err

    def test_internal_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        def explode(doc, seed):
            raise RuntimeError("boom")

        command = cli._COMMANDS["optimize-constants"]._replace(run=explode)
        monkeypatch.setitem(cli._COMMANDS, "optimize-constants", command)
        code = cli.main(["optimize-constants"])
        err = capsys.readouterr().err
        assert code == 1
        assert "computation error: RuntimeError" in err

    def test_out_writes_file(self, tmp_path, capsys):
        params = {
            "formula": "deviation_tail",
            "inputs": {"epsilon": 1.0, "envelope_l2_sup": 1.0},
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        dest = tmp_path / "result.json"
        code = cli.main(["bound", "--params", str(path), "--out", str(dest)])
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(dest.read_text())
        assert doc["outputs"]["tail"] == pytest.approx(0.6065306597126334)

    def test_threads_flag_rejected(self, tmp_path, capsys):
        params = {
            "formula": "deviation_tail",
            "inputs": {"epsilon": 1.0, "envelope_l2_sup": 1.0},
        }
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, capsys, "bound", params, extra=["--threads", "8"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_seed_echoed(self, tmp_path, capsys):
        params = {"values": [[1.0, 0.0], [0.0, 1.0]], "mode": "monte_carlo"}
        code, out, _ = run(tmp_path, capsys, "rademacher", params, extra=["--seed", "9"])
        assert code == 0
        assert envelope_of(out)["seed"] == 9

    def test_installed_entry_point(self):
        exe = shutil.which("riskbounds")
        assert exe is not None, "console script not installed"
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == __version__


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one in-process request."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on --help, --version and usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BOUND_REQUEST = ["bound", "--params", str(REQUESTS / "bound_rademacher_ci.json")]


class TestParserReuse:
    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        cli.main(BOUND_REQUEST)
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (BOUND_REQUEST, ["optimize-constants"], BOUND_REQUEST + ["--seed", "3"]):
            assert cli.main(argv) == 0
        capsys.readouterr()
        assert built == []

    @pytest.mark.parametrize(
        "argv",
        [BOUND_REQUEST + ["--threads", "8"], ["--version"], [], ["--help"],
         ["bound", "--params", str(REQUESTS / "invalid_not_a_number.json")],
         *([name, "--help"] for name in cli._COMMANDS)],
        ids=["usage-error", "version", "no-subcommand", "help", "failing-request",
             *(f"help-{name}" for name in cli._COMMANDS)],
    )
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
            fresh = [outcome(capsys, argv), outcome(capsys, BOUND_REQUEST)]
        reused = [outcome(capsys, argv), outcome(capsys, BOUND_REQUEST)]
        assert reused == fresh
        assert fresh[1][0] == 0


# runs each argv of sys.argv[1] through cli.main after importing the package,
# and prints whether numpy was loaded, with each (exit code, stdout, stderr)
NUMPY_FREE_SCRIPT = """
import contextlib, io, json, sys
import riskbounds
from riskbounds import cli
outcomes = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    outcomes.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"numpy": "numpy" in sys.modules, "outcomes": outcomes}))
"""


class TestBoundLoadsNoNumpy:
    def test_bound_requests_run_without_numpy_and_match_in_process(self, capsys, monkeypatch):
        argvs = [["bound", "--params", str(path)]
                 for path in sorted(REQUESTS.glob("bound_*.json"))] + [["--help"], ["--version"]]
        assert len(argvs) == 18
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", NUMPY_FREE_SCRIPT, json.dumps(argvs)],
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert report["numpy"] is False
        assert "numpy" in sys.modules
        in_process = [list(outcome(capsys, argv)) for argv in argvs]
        assert report["outcomes"] == in_process
        assert [code for code, _, _ in in_process] == [0] * 18


class TestRademacherCommand:
    def test_exact_auto(self, tmp_path, capsys):
        params = {"values": [[1.0, 0.0], [0.0, 1.0]]}
        code, out, _ = run(tmp_path, capsys, "rademacher", params)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["mode"] == "exact"
        assert o["value"] == pytest.approx(0.5)
        assert o["massart_bound"] == pytest.approx(1.1774100225154747)
        assert o["rows"] == 2 and o["columns"] == 2

    def test_auto_switches_to_monte_carlo(self, tmp_path, capsys):
        params = {"values": [[0.0] * 25]}
        code, out, _ = run(tmp_path, capsys, "rademacher", params)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["mode"] == "monte_carlo"
        assert o["draws"] == 1000
        assert o["value"] == 0.0

    def test_monte_carlo_deterministic(self, tmp_path, capsys):
        params = {"values": [[1.0, 0.0], [0.0, 1.0]], "mode": "monte_carlo", "draws": 300}
        _, out1, _ = run(tmp_path, capsys, "rademacher", params, extra=["--seed", "4"])
        _, out2, _ = run(tmp_path, capsys, "rademacher", params, extra=["--seed", "4"])
        assert envelope_of(out1)["outputs"] == envelope_of(out2)["outputs"]

    def test_csv_table_source(self, tmp_path, capsys):
        csv_path = tmp_path / "table.csv"
        np.savetxt(csv_path, np.array([[1.0, 0.0], [0.0, 1.0]]), delimiter=",")
        code, out, _ = run(tmp_path, capsys, "rademacher", {"csv": str(csv_path)})
        assert code == 0
        assert envelope_of(out)["outputs"]["value"] == pytest.approx(0.5)

    def test_table_required(self, tmp_path, capsys):
        code, _, err = run(tmp_path, capsys, "rademacher", {})
        assert code == 2
        assert "values" in err and "csv" in err

    def test_bad_mode(self, tmp_path, capsys):
        code, _, err = run(
            tmp_path, capsys, "rademacher", {"values": [[1.0]], "mode": "psychic"}
        )
        assert code == 2
        assert "mode" in err

    def test_exact_beyond_limit_names_the_fields(self, tmp_path, capsys):
        params = {"values": [[0.0] * 30], "mode": "exact"}
        code, out, err = run(tmp_path, capsys, "rademacher", params)
        assert code == 2
        assert out == ""
        assert ("rademacher: field 'mode' is exact, which enumerates at most 24 columns, "
                "but the table in field 'values' has 30; use mode: monte_carlo") in err

    def test_negative_seed_option_is_named(self, tmp_path, capsys):
        params = {"values": [[1.0, 0.0], [0.0, 1.0]], "mode": "monte_carlo"}
        code, out, err = run(tmp_path, capsys, "rademacher", params, extra=["--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "rademacher: option '--seed' must be >= 0, got -1" in err


class TestCoverCommand:
    CHAIN = {"values": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], "radius": 1.0}

    def test_greedy_default(self, tmp_path, capsys):
        code, out, _ = run(tmp_path, capsys, "cover", self.CHAIN)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["method"] == "greedy"
        assert o["size"] == 2
        assert o["indices"] == [0, 2]

    def test_exact_beats_greedy_here(self, tmp_path, capsys):
        params = dict(self.CHAIN, method="exact")
        code, out, _ = run(tmp_path, capsys, "cover", params)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["size"] == 1
        assert o["log_size"] == pytest.approx(0.0)

    def test_bad_method(self, tmp_path, capsys):
        code, _, err = run(tmp_path, capsys, "cover", dict(self.CHAIN, method="magic"))
        assert code == 2
        assert "method" in err


class TestEntropyCommand:
    def test_single_radius(self, tmp_path, capsys):
        params = {"kind": "vc", "V": 1, "B": 1.0, "r": 0.25}
        code, out, _ = run(tmp_path, capsys, "entropy", params)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["kind"] == "vc"
        assert o["values"][0]["entropy"] == pytest.approx(5.426495087914157)

    @pytest.mark.parametrize("name", ["entropy_vc_classify", "entropy_nn_classify"])
    def test_nonpositive_range_is_named(self, tmp_path, capsys, name):
        params = dict(json.loads((REQUESTS / f"{name}.json").read_text()), B=0.0)
        code, out, err = run(tmp_path, capsys, "entropy", params)
        assert code == 2
        assert "entropy: field 'B' must be positive, got 0.0" in err

    def test_radius_list_and_classification(self, tmp_path, capsys):
        params = {
            "kind": "neural_net", "d": 1, "N": 1, "B": 1.0,
            "radii": [0.25, 0.125], "classify": True,
        }
        code, out, _ = run(tmp_path, capsys, "entropy", params)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert len(o["values"]) == 2
        assert o["values"][0]["entropy"] == pytest.approx(44.51478553174269)
        assert o["tag"]["kind"] == "subeuclidean"

    def test_csv_rows(self, tmp_path, capsys):
        params = {"kind": "vc", "V": 1, "B": 1.0, "radii": [0.25, 0.2, 0.1]}
        code, out, _ = run(tmp_path, capsys, "entropy", params, fmt="csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,entropy"
        assert len(lines) == 4

    def test_unknown_kind(self, tmp_path, capsys):
        code, _, err = run(tmp_path, capsys, "entropy", {"kind": "fractal", "r": 0.1})
        assert code == 2
        assert "kind" in err


class TestMixingDemoCommand:
    PARAMS = {
        "transition": [[0.9, 0.1], [0.1, 0.9]],
        "n": 60,
        "delta": 0.1,
        "rate_r": 1.25,
        "trials": 100,
    }

    def test_structure(self, tmp_path, capsys):
        code, out, _ = run(tmp_path, capsys, "mixing-demo", self.PARAMS)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["block_count"] >= 1
        assert 0.0 <= o["beta_m"] <= 1.0
        assert len(o["thresholds"]) == 4
        for row in o["thresholds"]:
            assert row["total_threshold"] == pytest.approx(
                o["block_count"] * row["per_block_threshold"]
            )
            assert 0.0 <= row["bound_probability"] <= 1.0
            assert 0.0 <= row["empirical_frequency"] <= 1.0

    def test_csv_rows(self, tmp_path, capsys):
        code, out, _ = run(tmp_path, capsys, "mixing-demo", self.PARAMS, fmt="csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("per_block_threshold,")
        assert len(lines) == 5

    def test_h_values_length_checked(self, tmp_path, capsys):
        params = dict(self.PARAMS, h_values=[1.0, -1.0, 1.0])
        code, _, err = run(tmp_path, capsys, "mixing-demo", params)
        assert code == 2
        assert "h_values" in err

    @pytest.mark.parametrize("field,value", [("thresholds", "[0.5, 1e400]"),
                                             ("h_values", "[1.0, -1e400]"),
                                             ("transition", "[[0.9, 1e400], [0.1, 0.9]]")])
    def test_number_beyond_float_range_is_named(self, tmp_path, capsys, field, value):
        text = json.dumps(self.PARAMS)[:-1] + f', "{field}": {value}}}'
        code, out, err = run_text(tmp_path, capsys, "mixing-demo", text)
        assert code == 2
        assert out == ""
        assert f"field {field!r} must be finite" in err

    @pytest.mark.parametrize(
        "transition",
        [5, "abc", [[0.5, 0.5], [0.5]], [], [0.5, 0.5], [[0.5, 0.5]], [[0.5, "x"], [0.5, 0.5]],
         [[0.5]], [[0.6, 0.5], [0.5, 0.5]]],
        ids=["scalar", "string", "ragged", "empty", "flat", "not-square", "non-number",
             "sub-stochastic", "row-sum-1.1"],
    )
    def test_malformed_transition_is_named(self, tmp_path, capsys, transition):
        params = dict(self.PARAMS, transition=transition)
        code, out, err = run(tmp_path, capsys, "mixing-demo", params)
        assert code == 2
        assert out == ""
        assert "field 'transition' must be" in err

    def test_chain_without_unique_law_exits_two(self, tmp_path, capsys):
        params = dict(self.PARAMS, transition=[[1.0, 0.0], [0.0, 1.0]])
        code, out, err = run(tmp_path, capsys, "mixing-demo", params)
        assert code == 2
        assert out == ""
        assert "no unique stationary law" in err

    def test_negative_seed_option_is_named(self, tmp_path, capsys):
        code, out, err = run(tmp_path, capsys, "mixing-demo", self.PARAMS, extra=["--seed", "-1"])
        assert code == 2
        assert out == ""
        assert "mixing-demo: option '--seed' must be >= 0, got -1" in err

    def test_deterministic_given_seed(self, tmp_path, capsys):
        _, out1, _ = run(tmp_path, capsys, "mixing-demo", self.PARAMS, extra=["--seed", "2"])
        _, out2, _ = run(tmp_path, capsys, "mixing-demo", self.PARAMS, extra=["--seed", "2"])
        assert envelope_of(out1)["outputs"] == envelope_of(out2)["outputs"]


COVERAGE_PARAMS = {
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
    "values": [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
    "n": 10,
    "delta": 0.1,
    "trials": 100,
    "base_seed": 5,
}


class TestCoverageCommand:
    def test_report_envelope(self, tmp_path, capsys):
        code, out, _ = run(tmp_path, capsys, "coverage", COVERAGE_PARAMS)
        assert code == 0
        o = envelope_of(out)["outputs"]
        assert o["trials"] == 100
        assert o["base_seed"] == 5
        assert 0.0 <= o["empirical_coverage"] <= 1.0
        assert o["bound_value"] > 0

    def test_seed_overrides_base_seed(self, tmp_path, capsys):
        code, out, _ = run(
            tmp_path, capsys, "coverage", COVERAGE_PARAMS, extra=["--seed", "99"]
        )
        assert code == 0
        assert envelope_of(out)["outputs"]["base_seed"] == 99

    def test_csv_per_trial_rows(self, tmp_path, capsys):
        code, out, _ = run(tmp_path, capsys, "coverage", COVERAGE_PARAMS, fmt="csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,statistic,bound,failed"
        assert len(lines) == 101
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] in ("0", "1")

    def test_invalid_config_is_validation_error(self, tmp_path, capsys):
        params = dict(COVERAGE_PARAMS, trials=10)
        code, _, err = run(tmp_path, capsys, "coverage", params)
        assert code == 2
        assert "trials" in err

    @pytest.mark.parametrize("field,text", [
        ("n", '"n": 1e400'),
        ("trials", '"trials": 150.7'),
        ("trials", '"trials": "abc"'),
        ("delta", '"delta": true'),
        ("base_seed", '"base_seed": 0.5'),
        ("bound", '"bound": null'),
    ], ids=["n-overflow", "trials-fraction", "trials-string", "delta-bool", "seed-fraction",
            "bound-missing"])
    def test_top_level_field_is_named(self, tmp_path, capsys, field, text):
        code, out, err = run_text(tmp_path, capsys, "coverage",
                                  json.dumps(COVERAGE_PARAMS)[:-1] + f", {text}}}")
        assert code == 2
        assert out == ""
        assert f"field {field!r}" in err

    @pytest.mark.parametrize("where,drop,bound", [
        ("model", ("kind", "B"), "rademacher_ci"),
        ("model.covariates", ("kind",), "rademacher_ci"),
        ("class", ("dim",), "nn_generalization_ci"),
    ], ids=["model", "covariates", "class"])
    def test_missing_document_fields_are_all_named(self, tmp_path, capsys, where, drop, bound):
        params = json.loads(json.dumps(COVERAGE_PARAMS))
        params["bound"] = bound
        params["class"] = {"kind": "neural_net", "dim": 1, "units": 2, "B": 1.0}
        doc = params
        for key in where.split("."):
            doc = doc[key]
        for key in drop:
            del doc[key]
        code, out, err = run(tmp_path, capsys, "coverage", params)
        assert code == 2
        assert out == ""
        # one missing field is named as the field reader names it, more in a list
        listed = f"field {drop[0]!r}" if len(drop) == 1 else f"fields: {', '.join(drop)}"
        assert f"{where}: missing required {listed}\n" in err

    @pytest.mark.parametrize("part,doc,message", [
        ("mean", {"kind": "affine"}, "affine mean needs field 'coeffs'"),
        ("mean", {"kind": "atom_table"}, "atom_table mean needs field 'values'"),
        ("noise", {"kind": "discrete"}, "discrete noise needs field 'values'"),
        ("noise", {"kind": "discrete", "values": [0.3, -0.3]},
         "discrete noise needs field 'probs'"),
    ], ids=["affine-coeffs", "atom-table-values", "noise-values", "noise-probs"])
    def test_missing_model_array_is_named(self, tmp_path, capsys, part, doc, message):
        params = json.loads((REQUESTS / "coverage_c7b.json").read_text())
        params["model"][part] = doc
        code, out, err = run(tmp_path, capsys, "coverage", params)
        assert code == 2
        assert out == ""
        assert message in err

    # the per-bound fields on the bench documents: None deletes the field
    @pytest.mark.parametrize("request_name,field,value,message", [
        ("coverage_c7a_iid", "values", None, "coverage: missing required field 'values'"),
        ("coverage_c7a_iid", "values", "abc", "coverage: field 'values' must be a nonempty table"),
        ("coverage_c7a_iid", "values", [[0.1, 0.2], [0.3]], "coverage: field 'values' must be"),
        ("coverage_c7c", "values", None, "coverage: missing required field 'values'"),
        ("coverage_c7c", "rate_r", None, "coverage: missing required field 'rate_r'"),
        ("coverage_c7c", "rate_r", "abc", "coverage: field 'rate_r' must be a number"),
        ("coverage_c7b", "class", None, "coverage: missing required field 'class'"),
        ("coverage_c7b", "class", "abc", "class: expected a JSON object, got 'abc'"),
        ("coverage_c7b", "c", None, "coverage: missing required field 'c'"),
        ("coverage_c7b", "c", "abc", "coverage: field 'c' must be a number"),
        ("coverage_c7b", "lam", None, "coverage: missing required field 'lam'"),
        ("coverage_c7b", "lam", [2.0], "coverage: field 'lam' must be a number"),
    ], ids=["values-missing", "values-string", "values-ragged", "mixing-values-missing",
            "rate_r-missing", "rate_r-string", "class-missing", "class-not-json", "c-missing",
            "c-string", "lam-missing", "lam-list"])
    def test_per_bound_field_is_named(self, tmp_path, capsys, request_name, field, value,
                                      message):
        params = json.loads((REQUESTS / f"{request_name}.json").read_text())
        if request_name == "coverage_c7b":
            params.update(use_optimized_constants=False, c=2.0, lam=2.0)
        params.pop(field)
        if value is not None:
            params[field] = value
        code, out, err = run(tmp_path, capsys, "coverage", params)
        assert code == 2
        assert out == ""
        assert message in err

    # out-of-range numbers on the bench documents
    @pytest.mark.parametrize("request_name,field,value,message", [
        ("coverage_c7b", "n", 0, "coverage: field 'n' must be >= 1, got 0"),
        ("coverage_c7a_iid", "n", -1, "coverage: field 'n' must be >= 1, got -1"),
        ("coverage_c7c", "delta", 0, "coverage: field 'delta' must lie in (0, 1), got 0.0"),
        ("coverage_c7c", "delta", -1, "coverage: field 'delta' must lie in (0, 1), got -1.0"),
        ("coverage_c7a_iid", "delta", 1, "coverage: field 'delta' must lie in (0, 1), got 1.0"),
        ("coverage_c7b", "base_seed", -1, "coverage: field 'base_seed' must be >= 0, got -1"),
        ("coverage_c7c", "rate_r", 1, "coverage: field 'rate_r' must be > 1, got 1.0"),
        ("coverage_c7c", "rate_r", 0, "coverage: field 'rate_r' must be > 1, got 0.0"),
        ("coverage_c7c", "rate_r", -1, "coverage: field 'rate_r' must be > 1, got -1.0"),
    ], ids=["n-zero", "n-negative", "delta-zero", "delta-negative", "delta-one",
            "seed-negative", "rate_r-one", "rate_r-zero", "rate_r-negative"])
    def test_out_of_range_field_is_named(self, tmp_path, capsys, request_name, field, value,
                                         message):
        params = json.loads((REQUESTS / f"{request_name}.json").read_text())
        params[field] = value
        code, out, err = run(tmp_path, capsys, "coverage", params)
        assert code == 2
        assert out == ""
        assert message in err

    def test_misspelt_noise_kind_is_named(self, tmp_path, capsys):
        params = json.loads((REQUESTS / "coverage_c7b.json").read_text())
        params["model"]["noise"] = {"knd": "discrete", "values": [0.3, -0.3], "probs": [0.5, 0.5]}
        code, out, err = run(tmp_path, capsys, "coverage", params)
        assert code == 2
        assert out == ""
        assert "coverage.model.noise: unknown fields: knd" in err

    def test_negative_seed_option_is_named(self, tmp_path, capsys):
        params = json.loads((REQUESTS / "coverage_c7b.json").read_text())
        code, out, err = run(tmp_path, capsys, "coverage", params, extra=["--seed", "-1"])
        assert code == 2
        assert "coverage: field 'base_seed' must be >= 0, got -1" in err

    def test_network_report_is_strict_json_without_truth(self, tmp_path, capsys, monkeypatch):
        import riskbounds.simulate as sim

        monkeypatch.setattr(sim, "GD_ITERATIONS", 20)
        params = {
            "bound": "nn_generalization_ci",
            "model": COVERAGE_PARAMS["model"],
            "class": {"kind": "neural_net", "dim": 1, "units": 2, "B": 1.0},
            "n": 10,
            "delta": 0.1,
            "trials": 100,
            "base_seed": 3,
        }
        code, out, err = run(tmp_path, capsys, "coverage", params)
        assert code == 0, err

        def refuse(name):
            raise ValueError(f"bare {name} in the envelope")

        o = json.loads(out, parse_constant=refuse)["outputs"]
        assert o["details"]["mean_optimization_residual"] is None
        assert len(o["details"]["per_trial"]) == 100


# ---------------------------------------------------------------------------
# every field goes through one typed reader


def _valid_requests():
    """The (document, command) of every bench request that must succeed."""
    mix = json.loads((REQUESTS / "mix.json").read_text())["requests"]
    return [(r["doc"], r["command"]) for r in mix if r["doc"] and not r.get("expect_exit")]


def _field_paths(doc, prefix=()):
    """The key path of every field of a document, nested objects' fields included."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _field_paths(value, (*prefix, key))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


VALID_REQUESTS = _valid_requests()


class TestFieldTypes:
    @pytest.mark.parametrize("name,command", VALID_REQUESTS, ids=[d for d, _ in VALID_REQUESTS])
    def test_wrong_type_is_refused_by_name(self, tmp_path, capsys, name, command):
        # each field, nested model and class fields included, holds a value of
        # another type: the request succeeds or exits 2 with a message that
        # names the field (a substituted object may name the fields it lacks
        # instead); exit 1 would be a program fault
        doc = json.loads((REQUESTS / f"{name}.json").read_text())
        faults = []
        for path in _field_paths(doc):
            for value in ["x", [1], {"a": 1}, True]:
                code, _, err = run(tmp_path, capsys, command, _replaced(doc, path, value),
                                   extra=["--out", str(tmp_path / "out.json")])
                named = re.search(rf"(?<!\w){re.escape(path[-1])}(?!\w)", err) or (
                    isinstance(value, dict) and "missing required field" in err)
                if code not in (0, 2) or (code == 2 and not named):
                    faults.append((".".join(path), value, code, err.strip()))
        assert faults == []

    BOOL_FIELDS = [
        ("bound", {"formula": "deviation_tail", "inputs": VALID_INPUTS["deviation_tail"]},
         ("inputs", "nonnegative")),
        ("bound", {"formula": "rademacher_ci", "inputs": VALID_INPUTS["rademacher_ci"]},
         ("inputs", "nonnegative_family")),
        ("bound", {"formula": "nn_generalization_ci",
                   "inputs": VALID_INPUTS["nn_generalization_ci"]}, ("inputs", "improved")),
        ("entropy", "entropy_vc_classify", ("classify",)),
        ("coverage", "coverage_c7a_iid", ("nonnegative_family",)),
        ("coverage", "coverage_c7b", ("use_optimized_constants",)),
    ]

    def test_bool_field_list_is_complete(self):
        formula_bools = {name for formula in cli._FORMULAS
                         for name, kind in cli._formula_fields(formula).items()
                         if bool in (kind, *get_args(kind))}
        listed = {path[-1] for command, _, path in self.BOOL_FIELDS if command == "bound"}
        assert formula_bools == listed

    @pytest.mark.parametrize("command,doc,path", BOOL_FIELDS,
                             ids=[path[-1] for _, _, path in BOOL_FIELDS])
    def test_bool_field_refuses_a_string(self, tmp_path, capsys, command, doc, path):
        if isinstance(doc, str):
            doc = json.loads((REQUESTS / f"{doc}.json").read_text())
        code, out, err = run(tmp_path, capsys, command, _replaced(doc, path, "false"))
        assert code == 2
        assert out == ""
        assert f"field {path[-1]!r} must be true or false, got 'false'" in err

    def test_nonnegative_family_false_is_the_default(self, tmp_path, capsys):
        # "false" (a string) once read as true and gave the narrower interval
        doc = json.loads((REQUESTS / "coverage_c7a_iid.json").read_text())
        bounds = []
        for value in (None, False, True):
            params = dict(doc) if value is None else dict(doc, nonnegative_family=value)
            code, out, err = run(tmp_path, capsys, "coverage", params)
            assert code == 0, err
            bounds.append(envelope_of(out)["outputs"]["bound_value"])
        assert bounds[0] == bounds[1] > bounds[2]

    # shapes the type alone does not fix; the first two exited 1, the last two
    # ran on a misread box and a misread table
    @pytest.mark.parametrize("name,command,path,value,message", [
        ("coverage_c7a_drift", "coverage", ("model", "drift"), [[1, 2], [3]],
         "field 'drift' must be (start, end)"),
        ("coverage_c7a_drift", "coverage", ("model", "drift"), [[0.1], [0.2]],
         "field 'drift' must be (start, end)"),
        ("coverage_c7b", "coverage", ("class", "coef_box"), [[-2, -1], [1, 2]],
         "field 'coef_box' must be (low, high)"),
        ("cover_greedy", "cover", ("values",), [[[1.0, 2.0]]],
         "table must be a (rows, columns) matrix"),
    ], ids=["drift-ragged", "drift-lists", "coef-box-lists", "cover-3d-table"])
    def test_malformed_shape_exits_two(self, tmp_path, capsys, name, command, path, value,
                                       message):
        doc = json.loads((REQUESTS / f"{name}.json").read_text())
        code, out, err = run(tmp_path, capsys, command, _replaced(doc, path, value))
        assert code == 2
        assert out == ""
        assert message in err

    def test_key_error_while_computing_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken(**kw):
            raise KeyError("envelope")

        monkeypatch.setattr(cli.br, "deviation_tail", broken)
        params = {"formula": "deviation_tail", "inputs": VALID_INPUTS["deviation_tail"]}
        code, out, err = run(tmp_path, capsys, "bound", params)
        assert code == 1
        assert out == ""
        assert "computation error: KeyError" in err

    def test_domain_value_error_exits_two(self, tmp_path, capsys):
        inputs = dict(VALID_INPUTS["epsilon_n"], c=1.0)
        code, out, err = run(tmp_path, capsys, "bound", {"formula": "epsilon_n", "inputs": inputs})
        assert code == 2
        assert out == ""
        assert "c must exceed 1" in err

    @pytest.mark.parametrize("trials", [0, -3])
    def test_mixing_demo_refuses_no_trials(self, tmp_path, capsys, trials):
        params = dict(TestMixingDemoCommand.PARAMS, trials=trials)
        code, out, err = run(tmp_path, capsys, "mixing-demo", params)
        assert code == 2
        assert out == ""
        assert f"field 'trials' must be >= 1, got {trials}" in err

    # a -1e-16 entry is within the row-stochastic check's tolerance, -1e-14 is not
    @pytest.mark.parametrize("entry,code", [(-1e-16, 0), (-1e-14, 2)], ids=["within", "beyond"])
    def test_mixing_demo_stochastic_tolerance(self, tmp_path, capsys, entry, code):
        params = dict(TestMixingDemoCommand.PARAMS, transition=[[0.9, 0.1], [1.0 - entry, entry]])
        got, _, err = run(tmp_path, capsys, "mixing-demo", params)
        assert got == code, err
        assert code == 0 or "field 'transition' must be row-stochastic" in err
