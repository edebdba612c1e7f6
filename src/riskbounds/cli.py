"""Command-line interface.

Every subcommand reads a JSON parameter document (--params), computes, and
emits a result envelope {inputs_echo, outputs, version, seed} as JSON (or
CSV rows with --format csv) to stdout or --out.

Exit codes: 0 success; 2 invalid or missing parameters (the message names
the offending field); 1 computation failure.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds_rademacher as br
from . import bounds_vc as bv
from .covering import (
    EntropyEstimate,
    classify_entropy,
    exact_cover_size,
    greedy_cover,
    nn_entropy,
    vc_entropy,
)
from .hypothesis import FunctionTable
from .mixing import (
    block_indices,
    blocked_deviation_bound,
    choose_block_size,
    markov_beta_of_lag,
    stationary_distribution,
)
from .rademacher import massart_bound, rademacher_exact, rademacher_mc
from .simulate import coverage_experiment, generate_with_states, model_from_json

__all__ = ["main"]


# ---------------------------------------------------------------------------
# parameter document helpers


def _need(doc: dict, name: str, where: str):
    if name not in doc or doc[name] is None:
        raise ValueError(f"{where}: missing required field {name!r}")
    return doc[name]


def _num(doc: dict, name: str, where: str, default=None, required=True):
    if name not in doc or doc[name] is None:
        if required and default is None:
            raise ValueError(f"{where}: missing required field {name!r}")
        return default
    v = doc[name]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{where}: field {name!r} must be a number, got {v!r}")
    return float(v)


def _int(doc: dict, name: str, where: str, default=None, required=True):
    v = _num(doc, name, where, default=default, required=required)
    if v is None:
        return None
    if float(v) != int(v):
        raise ValueError(f"{where}: field {name!r} must be an integer, got {v}")
    return int(v)


def _bool(doc: dict, name: str, default=False):
    v = doc.get(name, default)
    if not isinstance(v, bool):
        raise ValueError(f"field {name!r} must be true or false, got {v!r}")
    return v


def _load_table(doc: dict, where: str) -> FunctionTable:
    """Value table from inline 'values' or a 'csv' path (rows=functions)."""
    if "values" in doc and doc["values"] is not None:
        return FunctionTable(np.asarray(doc["values"], dtype=float))
    if "csv" in doc and doc["csv"] is not None:
        vals = np.loadtxt(doc["csv"], delimiter=",", ndmin=2)
        return FunctionTable(vals)
    raise ValueError(f"{where}: provide 'values' (inline rows) or 'csv' (path)")


def _entropy_from_doc(doc: dict, where: str) -> EntropyEstimate:
    kind = _need(doc, "kind", where)
    if kind == "vc":
        return EntropyEstimate.vc(_int(doc, "V", where), _num(doc, "B", where))
    if kind == "neural_net":
        return EntropyEstimate.neural_net(
            _int(doc, "d", where), _int(doc, "N", where), _num(doc, "B", where)
        )
    raise ValueError(f"{where}: entropy kind must be 'vc' or 'neural_net', got {kind!r}")


def _bound_params(doc: dict, where: str) -> bv.BoundParams:
    return bv.BoundParams(
        n=_int(doc, "n", where),
        B=_num(doc, "B", where),
        delta=_num(doc, "delta", where),
        c=_num(doc, "c", where),
        lam=_num(doc, "lam", where),
        eta=_num(doc, "eta", where, required=False),
        eta_prime=_num(doc, "eta_prime", where, required=False),
    )


# ---------------------------------------------------------------------------
# the `bound` formula registry


def _f_deviation_tail(d, w):
    return {
        "tail": br.deviation_tail(
            _num(d, "epsilon", w), _num(d, "envelope_l2_sup", w), _bool(d, "nonnegative")
        )
    }


def _f_single_tail(d, w):
    return {"tail": br.single_hypothesis_tail(_num(d, "eta", w), _num(d, "h_l2_sup", w))}


def _f_conditional_k(d, w):
    threshold, tail = br.conditional_k_bound(
        epsilon=_num(d, "epsilon", w),
        eta=_num(d, "eta", w),
        k=_int(d, "k", w),
        n=_int(d, "n", w),
        envelope_l2_sup=_num(d, "envelope_l2_sup", w),
        rad=_num(d, "rad", w),
        single_tail=_num(d, "single_tail", w),
    )
    return {"threshold": threshold, "tail": tail}


def _f_rademacher_ci(d, w):
    inputs = br.RademacherCIInputs(
        n=_int(d, "n", w),
        envelope_l2_sup=_num(d, "envelope_l2_sup", w),
        rad=_num(d, "rad", w),
        delta=_num(d, "delta", w),
        nonnegative_family=_bool(d, "nonnegative_family"),
    )
    return {"width": br.rademacher_ci(inputs)}


def _f_rademacher_ci_massart(d, w):
    return {
        "width": br.rademacher_ci_massart(
            n=_int(d, "n", w),
            env=_num(d, "envelope_l2_sup", w),
            delta=_num(d, "delta", w),
            r=_num(d, "r", w),
            mean_sqrt_log_cover=_num(d, "mean_sqrt_log_cover", w),
        )
    }


def _f_nn_ci(d, w):
    return {
        "width": br.nn_generalization_ci(
            n=_int(d, "n", w),
            d=_int(d, "d", w),
            B=_num(d, "B", w),
            delta=_num(d, "delta", w),
            improved=_bool(d, "improved"),
            units=_int(d, "units", w, required=False),
        )
    }


def _f_mixing_ci(d, w):
    return {
        "width": br.mixing_rademacher_ci(
            n=_int(d, "n", w),
            delta=_num(d, "delta", w),
            rate_r=_num(d, "rate_r", w),
            max_block_env=_num(d, "max_block_env", w),
            max_block_rad=_num(d, "max_block_rad", w),
        )
    }


def _f_vc_entropy(d, w):
    return {"entropy": vc_entropy(_int(d, "V", w), _num(d, "B", w), _num(d, "r", w))}


def _f_nn_entropy(d, w):
    return {
        "entropy": nn_entropy(
            _int(d, "d", w), _int(d, "N", w), _num(d, "B", w), _num(d, "r", w)
        )
    }


def _f_epsilon_n(d, w):
    params = _bound_params(d, w)
    return {"epsilon_n": bv.epsilon_n(params), "upper": bv.epsilon_n_upper(params)}


def _f_optimized(d, w):
    return {
        "bound": bv.optimized_bound(
            n=_int(d, "n", w),
            B=_num(d, "B", w),
            delta=_num(d, "delta", w),
            log_cover_at_0094=_num(d, "log_cover", w),
        )
    }


def _f_small_lambda(d, w):
    return {
        "bound": bv.small_lambda_bound(
            n=_int(d, "n", w),
            B=_num(d, "B", w),
            delta=_num(d, "delta", w),
            lam=_num(d, "lam", w),
            log_cover_at_B_24n=_num(d, "log_cover", w),
        )
    }


def _f_refined(d, w):
    entropy = _entropy_from_doc(_need(d, "entropy", w), w + ".entropy")
    return {
        "bound": bv.refined_bound(
            n=_int(d, "n", w),
            B_n=_num(d, "B_n", w),
            delta=_num(d, "delta", w),
            c_n=_num(d, "c_n", w),
            entropy=entropy,
        )
    }


def _f_bounded_ci(d, w):
    params = _bound_params(d, w)
    return {
        "width": bv.bounded_class_ci(
            params, inf_risk=_num(d, "inf_risk", w), log_a=_num(d, "log_a", w)
        )
    }


def _f_unbounded_ci(d, w):
    params = _bound_params(d, w)
    if params.eta is None or params.eta_prime is None:
        raise ValueError(f"{w}: fields 'eta' and 'eta_prime' are required")
    return {
        "width": bv.unbounded_response_ci(
            params,
            inf_risk_Phi=_num(d, "inf_risk_Phi", w),
            tail_term=_num(d, "tail_term", w),
            bounded_ci_tail=_num(d, "bounded_ci_tail", w),
        )
    }


def _f_vc_mixing(d, w):
    params = _bound_params(d, w)
    return {
        "value": bv.vc_mixing_second_term(
            n=_int(d, "n", w),
            delta=_num(d, "delta", w),
            rate_r=_num(d, "rate_r", w),
            params=params,
            log_a_star=_num(d, "log_a_star", w),
        )
    }


_FORMULAS = {
    "deviation_tail": _f_deviation_tail,
    "single_hypothesis_tail": _f_single_tail,
    "conditional_k_bound": _f_conditional_k,
    "rademacher_ci": _f_rademacher_ci,
    "rademacher_ci_massart": _f_rademacher_ci_massart,
    "nn_generalization_ci": _f_nn_ci,
    "mixing_rademacher_ci": _f_mixing_ci,
    "vc_entropy": _f_vc_entropy,
    "nn_entropy": _f_nn_entropy,
    "epsilon_n": _f_epsilon_n,
    "optimized_bound": _f_optimized,
    "small_lambda_bound": _f_small_lambda,
    "refined_bound": _f_refined,
    "bounded_class_ci": _f_bounded_ci,
    "unbounded_response_ci": _f_unbounded_ci,
    "vc_mixing_second_term": _f_vc_mixing,
}

_REQUIRED_FIELDS = {
    "deviation_tail": ("epsilon", "envelope_l2_sup"),
    "single_hypothesis_tail": ("eta", "h_l2_sup"),
    "conditional_k_bound": (
        "epsilon", "eta", "k", "n", "envelope_l2_sup", "rad", "single_tail",
    ),
    "rademacher_ci": ("n", "envelope_l2_sup", "rad", "delta"),
    "rademacher_ci_massart": ("n", "envelope_l2_sup", "delta", "r", "mean_sqrt_log_cover"),
    "nn_generalization_ci": ("n", "d", "B", "delta"),
    "mixing_rademacher_ci": ("n", "delta", "rate_r", "max_block_env", "max_block_rad"),
    "vc_entropy": ("V", "B", "r"),
    "nn_entropy": ("d", "N", "B", "r"),
    "epsilon_n": ("n", "B", "delta", "c", "lam"),
    "optimized_bound": ("n", "B", "delta", "log_cover"),
    "small_lambda_bound": ("n", "B", "delta", "lam", "log_cover"),
    "refined_bound": ("n", "B_n", "delta", "c_n", "entropy"),
    "bounded_class_ci": ("n", "B", "delta", "c", "lam", "inf_risk", "log_a"),
    "unbounded_response_ci": (
        "n", "B", "delta", "c", "lam", "eta", "eta_prime",
        "inf_risk_Phi", "tail_term", "bounded_ci_tail",
    ),
    "vc_mixing_second_term": ("n", "B", "delta", "c", "lam", "rate_r", "log_a_star"),
}


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (outputs dict, csv rows or None)


def _cmd_bound(doc, seed):
    formula = _need(doc, "formula", "bound")
    if formula not in _FORMULAS:
        known = ", ".join(sorted(_FORMULAS))
        raise ValueError(f"bound: unknown formula {formula!r}; known formulas: {known}")
    inputs = doc.get("inputs")
    if not isinstance(inputs, dict):
        raise ValueError("bound: missing required field 'inputs' (object)")
    missing = [f for f in _REQUIRED_FIELDS[formula] if inputs.get(f) is None]
    if missing:
        raise ValueError(
            f"bound[{formula}]: missing required fields: {', '.join(missing)}"
        )
    outputs = _FORMULAS[formula](inputs, f"bound[{formula}]")
    outputs["formula"] = formula
    return outputs, None


def _cmd_optimize_constants(doc, seed):
    consts = bv.optimize_v()
    return {
        "c0": consts.c0,
        "lambda0": consts.lambda0,
        "V0": consts.V0,
        "radius_coeff": consts.radius_coeff,
    }, None


def _cmd_rademacher(doc, seed):
    table = _load_table(doc, "rademacher")
    mode = doc.get("mode", "auto")
    if mode not in ("auto", "exact", "monte_carlo"):
        raise ValueError(f"rademacher: mode must be auto, exact or monte_carlo, got {mode!r}")
    if mode == "auto":
        mode = "exact" if table.n <= 24 else "monte_carlo"
    if mode == "exact":
        est = rademacher_exact(table)
    else:
        draws = _int(doc, "draws", "rademacher", default=1000)
        est = rademacher_mc(table, draws=draws, seed=0 if seed is None else seed)
    return {
        "value": est.value,
        "std_error": est.std_error,
        "draws": est.draws,
        "mode": est.mode,
        "massart_bound": massart_bound(table),
        "rows": table.m,
        "columns": table.n,
    }, None


def _cmd_cover(doc, seed):
    table = _load_table(doc, "cover")
    radius = _num(doc, "radius", "cover")
    method = doc.get("method", "greedy")
    if method == "greedy":
        result = greedy_cover(table, radius)
    elif method == "exact":
        result = exact_cover_size(table, radius)
    else:
        raise ValueError(f"cover: method must be greedy or exact, got {method!r}")
    return {
        "radius": result.radius,
        "size": result.size,
        "log_size": math.log(result.size),
        "method": result.method,
        "indices": list(result.cover_indices) if result.cover_indices else None,
    }, None


def _cmd_entropy(doc, seed):
    estimate = _entropy_from_doc(doc, "entropy")
    radii = doc.get("radii")
    if radii is None:
        radii = [_num(doc, "r", "entropy")]
    values = [{"r": float(r), "entropy": estimate(float(r))} for r in radii]
    outputs = {"kind": estimate.kind, "validity": list(estimate.validity), "values": values}
    if _bool(doc, "classify"):
        tag = classify_entropy(estimate)
        outputs["tag"] = {"kind": tag.kind, "alpha": tag.alpha}
    rows = [("r,entropy", [f"{v['r']},{v['entropy']}" for v in values])]
    return outputs, rows


def _cmd_mixing_demo(doc, seed):
    """Blocked tail bound vs empirical frequencies on a simulated chain."""
    from .bounds_rademacher import single_hypothesis_tail

    P = np.asarray(_need(doc, "transition", "mixing-demo"), dtype=float)
    n = _int(doc, "n", "mixing-demo")
    delta = _num(doc, "delta", "mixing-demo")
    rate_r = _num(doc, "rate_r", "mixing-demo")
    trials = _int(doc, "trials", "mixing-demo", default=500)
    default_h = [1.0 if i % 2 == 0 else -1.0 for i in range(P.shape[0])]
    h_vals = np.asarray(doc.get("h_values", default_h), dtype=float).ravel()
    if h_vals.shape[0] != P.shape[0]:
        raise ValueError("mixing-demo: h_values length must match the state count")

    pi = stationary_distribution(P)
    m = choose_block_size(n, delta, rate_r)
    beta_m = markov_beta_of_lag(P, pi, m)
    sizes = [len(b) for b in block_indices(n, m)]
    h_max = float(np.max(np.abs(h_vals)))
    mean_h = float(pi @ h_vals)

    def per_block_tail(t, size):
        return single_hypothesis_tail(t, math.sqrt(size) * h_max)

    thresholds = doc.get("thresholds")
    if thresholds is None:
        base = h_max * math.sqrt(max(sizes))
        thresholds = [round(base * f, 6) for f in (0.5, 1.0, 1.5, 2.0)]

    model_doc = {
        "kind": "markov_chain",
        "B": max(h_max, 1.0),
        "covariates": {
            "kind": "markov",
            "support": np.arange(P.shape[0]).tolist(),
            "transition": P.tolist(),
        },
        "mean": {"kind": "atom_table", "values": [0.0] * P.shape[0]},
        "noise": {"kind": "none"},
    }
    model = model_from_json(model_doc)
    base_seed = 0 if seed is None else seed
    devs = np.empty(trials)
    for t in range(trials):
        _, states = generate_with_states(
            model, n, np.random.SeedSequence([base_seed, t])
        )
        devs[t] = n * mean_h - float(np.sum(h_vals[states]))

    rows_data = []
    results = []
    for t_level in thresholds:
        t_level = float(t_level)
        tail = blocked_deviation_bound(per_block_tail, t_level, n, m, beta_m)
        freq = float(np.mean(devs > m * t_level))
        results.append(
            {
                "per_block_threshold": t_level,
                "total_threshold": m * t_level,
                "bound_raw": tail.raw,
                "bound_probability": tail.probability,
                "empirical_frequency": freq,
            }
        )
        rows_data.append(
            f"{t_level},{m * t_level},{tail.probability},{freq}"
        )
    outputs = {
        "n": n,
        "block_count": m,
        "block_sizes": {"min": min(sizes), "max": max(sizes)},
        "beta_m": beta_m,
        "stationary": pi.tolist(),
        "trials": trials,
        "thresholds": results,
    }
    rows = [
        (
            "per_block_threshold,total_threshold,bound_probability,empirical_frequency",
            rows_data,
        )
    ]
    return outputs, rows


def _cmd_coverage(doc, seed):
    config = dict(doc)
    if seed is not None:
        config["base_seed"] = seed
    report = coverage_experiment(config)
    outputs = report.to_json()
    per_trial = outputs["details"].get("per_trial")
    rows = None
    if per_trial is not None:
        bound = outputs.get("bound_value")
        failed = set(outputs["details"].get("failed_trials", []))
        lines = [
            f"{i},{stat},{bound},{int(i in failed)}" for i, stat in enumerate(per_trial)
        ]
        rows = [("trial,statistic,bound,failed", lines)]
    return outputs, rows


_COMMANDS = {
    "bound": _cmd_bound,
    "optimize-constants": _cmd_optimize_constants,
    "rademacher": _cmd_rademacher,
    "cover": _cmd_cover,
    "entropy": _cmd_entropy,
    "mixing-demo": _cmd_mixing_demo,
    "coverage": _cmd_coverage,
}

_NEEDS_PARAMS = {k for k in _COMMANDS if k != "optimize-constants"}


# ---------------------------------------------------------------------------
# envelope and entry point


def _emit(envelope: dict, fmt: str, out: str | None, csv_rows):
    if fmt == "json":
        text = json.dumps(envelope, indent=2, allow_nan=True)
    else:
        lines = []
        if csv_rows is None:
            lines.append("field,value")
            for key, val in envelope["outputs"].items():
                if isinstance(val, (dict, list)):
                    val = json.dumps(val)
                lines.append(f"{key},{val}")
        else:
            for header, data in csv_rows:
                lines.append(header)
                lines.extend(data)
        text = "\n".join(lines)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Finite-sample risk bounds: evaluate interval formulas, "
        "complexity and covering estimates, blocking corrections, and "
        "coverage experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "bound": "evaluate a named interval or tail formula",
        "optimize-constants": "grid-optimize the VC bound constants",
        "rademacher": "complexity of a value table (exact or Monte Carlo)",
        "cover": "empirical L1 covering of a value table",
        "entropy": "entropy estimates and growth classification",
        "mixing-demo": "blocked tail bound vs a simulated Markov chain",
        "coverage": "Monte-Carlo coverage experiment for an interval",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--params", help="path to the JSON parameter document")
        p.add_argument("--out", help="write the result here instead of stdout")
        p.add_argument("--seed", type=int, help="override the document's seed")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = {}
        if args.params is not None:
            doc = json.loads(Path(args.params).read_text())
            if not isinstance(doc, dict):
                raise ValueError("--params must contain a JSON object")
        elif args.command in _NEEDS_PARAMS:
            raise ValueError(f"{args.command}: --params is required")
        outputs, csv_rows = _COMMANDS[args.command](doc, args.seed)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    envelope = {
        "inputs_echo": doc,
        "outputs": outputs,
        "version": __version__,
        "seed": args.seed,
    }
    try:
        _emit(envelope, args.format, args.out, csv_rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
