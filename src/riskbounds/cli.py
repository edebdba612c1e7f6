"""Command-line interface.

Every subcommand reads a JSON parameter document (--params), computes, and
emits a result envelope {inputs_echo, outputs, version, seed} as JSON (or
CSV rows with --format csv) to stdout or --out.

``main`` may be called any number of times in one process.  The argument
parser is built on the first call and reused by every later one, so an
in-process request pays only for its own parsing and computation; a fresh
process builds it once, as before.  Commands still dispatch through
``_COMMANDS`` when each request runs.

At module scope this imports the standard library, the formula modules and
the document readers that ``bound`` runs, and the ``rademacher`` command's
functions (``rademacher_exact`` is also read as this module's attribute);
none of them imports numpy at module scope.  Every other command imports
numpy and its own modules (hypothesis, mixing, simulate) in its body, so a
``bound`` launch loads neither numpy nor them.

Exit codes: 0 success; 2 a ValueError from a field reader or a domain check
(invalid or missing parameters, non-finite numbers included; the message
names the offending field) or an OSError; 1 any other exception while
computing, a program fault, and a non-finite result, which strict JSON
cannot carry.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path
from types import MappingProxyType, ModuleType
from typing import Callable, NamedTuple

from . import __version__
from . import bounds_rademacher as br
from . import bounds_vc as bv
from . import covering
from ._documents import _domain_errors, _kinds, _read_document, _read_field
from .covering import EntropyEstimate
from .rademacher import EXACT_MAX_N, massart_bound, rademacher_exact, rademacher_mc

__all__ = ["main"]


# ---------------------------------------------------------------------------
# parameter document helpers


def _load_table(values: "np.ndarray | None", csv: str | None, where: str) -> "FunctionTable":
    """Value table from inline 'values' or a 'csv' path (rows=functions)."""
    import numpy as np
    from .hypothesis import FunctionTable
    if values is not None:
        return FunctionTable(values)
    if csv is not None:
        return FunctionTable(np.loadtxt(csv, delimiter=",", ndmin=2))
    raise ValueError(f"{where}: provide 'values' (inline rows) or 'csv' (path)")


def _generator_seed(seed: int | None, where: str) -> int:
    """The --seed option as a random-generator seed: 0 when absent."""
    if seed is None:
        return 0
    if seed < 0:
        raise ValueError(f"{where}: option '--seed' must be >= 0, got {seed}")
    return seed


def _read_entropy(doc: dict, own: dict, where: str) -> tuple:
    """An entropy document's estimate and the values read: the tag ``kind``,
    the parameters of the ``EntropyEstimate`` evaluator it names, and ``own``."""
    kind = _read_field(doc, "kind", str, where)
    if kind not in ("vc", "neural_net"):
        raise ValueError(f"{where}: field 'kind' must be 'vc' or 'neural_net', got {kind!r}")
    evaluator = getattr(EntropyEstimate, kind)
    values = _read_document(doc, {"kind": str, **_kinds(evaluator), **own}, where)
    with _domain_errors(where):
        return evaluator(**{name: values[name] for name in _kinds(evaluator)}), values


# ---------------------------------------------------------------------------
# the `bound` formulas


def _epsilon_n(params: bv.BoundParams) -> tuple:
    return bv.epsilon_n(params), bv.epsilon_n_upper(params)


def _refined_bound(n: int, B_n: float, delta: float, c_n: float, entropy: dict) -> float:
    estimate, _ = _read_entropy(entropy, {}, "bound[refined_bound].entropy")
    return bv.refined_bound(n, B_n, delta, c_n, estimate)


# formula -> (where its function lives, output keys). A module's function is
# looked up by the formula's name when each request runs; the function's
# parameters are the formula's input fields (see `_formula_fields`).
_FORMULAS = {
    "deviation_tail": (br, ("tail",)),
    "single_hypothesis_tail": (br, ("tail",)),
    "conditional_k_bound": (br, ("threshold", "tail")),
    "rademacher_ci": (br, ("width",)),
    "rademacher_ci_massart": (br, ("width",)),
    "nn_generalization_ci": (br, ("width",)),
    "mixing_rademacher_ci": (br, ("width",)),
    "vc_entropy": (covering, ("entropy",)),
    "nn_entropy": (covering, ("entropy",)),
    "epsilon_n": (_epsilon_n, ("epsilon_n", "upper")),
    "optimized_bound": (bv, ("bound",)),
    "small_lambda_bound": (bv, ("bound",)),
    "refined_bound": (_refined_bound, ("bound",)),
    "bounded_class_ci": (bv, ("width",)),
    "unbounded_response_ci": (bv, ("width",)),
    "vc_mixing_second_term": (bv, ("value",)),
}


def _formula_function(formula: str) -> Callable:
    home = _FORMULAS[formula][0]
    return getattr(home, formula) if isinstance(home, ModuleType) else home


@functools.cache
def _formula_fields(formula: str) -> MappingProxyType:
    """Each input field of ``formula`` by its `_read_field` kind: the fields of
    its function's dataclass parameters first, then its other parameters. A
    ``| None`` field is optional and, when absent, left to the default."""
    kinds = _kinds(_formula_function(formula))
    nested = [_kinds(kind) for kind in kinds.values() if is_dataclass(kind)]
    own = {name: kind for name, kind in kinds.items() if not is_dataclass(kind)}
    return MappingProxyType({name: kind for group in (*nested, own)
                             for name, kind in group.items()})


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (outputs dict, csv rows or None)


def _cmd_bound(doc, seed):
    fields = _read_document(doc, {"formula": str, "inputs": dict}, "bound")
    formula = fields["formula"]
    if formula not in _FORMULAS:
        known = ", ".join(sorted(_FORMULAS))
        raise ValueError(f"bound: unknown formula {formula!r}; known formulas: {known}")
    where = f"bound[{formula}]"
    values = _read_document(fields["inputs"], _formula_fields(formula), where)
    function = _formula_function(formula)
    kwargs = {}
    with _domain_errors(where):  # an entropy document's error names it already
        for name, kind in _kinds(function).items():
            if is_dataclass(kind):  # built from its own fields among the inputs
                kwargs[name] = kind(**{f: values[f] for f in _kinds(kind) if f in values})
            elif name in values:
                kwargs[name] = values[name]
        result = function(**kwargs)
    keys = _FORMULAS[formula][1]
    outputs = dict(zip(keys, result if len(keys) > 1 else (result,)))
    outputs["formula"] = formula
    return outputs, None


def _cmd_optimize_constants(doc, seed):
    _read_document(doc, {}, "optimize-constants")  # it reads no field
    return asdict(bv.optimize_v()), None


@_domain_errors("rademacher")
def _cmd_rademacher(doc, seed):
    import numpy as np
    fields = _read_document(doc, {"values": np.ndarray | None, "csv": str | None,
                                  "mode": str | None, "draws": int | None}, "rademacher")
    table = _load_table(fields.get("values"), fields.get("csv"), "rademacher")
    mode, draws = fields.get("mode", "auto"), fields.get("draws", 1000)
    if draws < 100:
        raise ValueError(f"rademacher: field 'draws' must be >= 100, got {draws}")
    if mode not in ("auto", "exact", "monte_carlo"):
        raise ValueError(f"rademacher: field 'mode' must be auto, exact or monte_carlo, "
                         f"got {mode!r}")
    if mode == "auto":
        mode = "exact" if table.n <= EXACT_MAX_N else "monte_carlo"
    if mode == "exact":
        if table.n > EXACT_MAX_N:
            source = "values" if "values" in fields else "csv"
            raise ValueError(f"rademacher: field 'mode' is exact, which enumerates at most "
                             f"{EXACT_MAX_N} columns, but the table in field {source!r} has "
                             f"{table.n}; use mode: monte_carlo")
        est = rademacher_exact(table)
    else:
        est = rademacher_mc(table, draws=draws, seed=_generator_seed(seed, "rademacher"))
    return {
        "value": est.value,
        "std_error": est.std_error,
        "draws": est.draws,
        "mode": est.mode,
        "massart_bound": massart_bound(table),
        "rows": table.m,
        "columns": table.n,
    }, None


@_domain_errors("cover")
def _cmd_cover(doc, seed):
    import numpy as np
    fields = _read_document(doc, {"values": np.ndarray | None, "csv": str | None,
                                  "radius": float, "method": str | None}, "cover")
    table = _load_table(fields.get("values"), fields.get("csv"), "cover")
    radius = fields["radius"]
    if radius < 0:
        raise ValueError(f"cover: field 'radius' must be >= 0, got {radius}")
    method = fields.get("method", "greedy")
    if method == "greedy":
        result = covering.greedy_cover(table, radius)
    elif method == "exact":
        result = covering.exact_cover_size(table, radius)
    else:
        raise ValueError(f"cover: field 'method' must be greedy or exact, got {method!r}")
    return {
        "radius": result.radius,
        "size": result.size,
        "log_size": math.log(result.size),
        "method": result.method,
        "indices": list(result.cover_indices) if result.cover_indices else None,
    }, None


@_domain_errors("entropy")
def _cmd_entropy(doc, seed):
    import numpy as np
    estimate, fields = _read_entropy(
        doc, {"radii": np.ndarray | None, "r": float | None, "classify": bool | None}, "entropy")
    if "radii" in fields and "r" in fields:
        raise ValueError("entropy: field 'r' cannot be set beside 'radii'")
    name = "radii" if "radii" in fields else "r"
    if name not in fields:
        raise ValueError("entropy: missing required field 'r'")
    radii = np.ravel(fields[name]).tolist()
    lo, hi = estimate.validity
    if not all(lo < r <= hi for r in radii):
        raise ValueError(f"entropy: field {name!r} must lie in the validity range ({lo}, {hi}], "
                         f"got {radii}")
    values = [{"r": r, "entropy": estimate(r)} for r in radii]
    outputs = {"kind": estimate.kind, "validity": list(estimate.validity), "values": values}
    if fields.get("classify"):
        tag = covering.classify_entropy(estimate)
        outputs["tag"] = {"kind": tag.kind, "alpha": tag.alpha}
    rows = [("r,entropy", [f"{v['r']},{v['entropy']}" for v in values])]
    return outputs, rows


@_domain_errors("mixing-demo")
def _cmd_mixing_demo(doc, seed):
    """Blocked tail bound vs empirical frequencies on a simulated chain."""
    import numpy as np
    from .mixing import (_check_stochastic, block_indices, blocked_deviation_bound,
                         choose_block_size, markov_beta_of_lag, sample_chain,
                         stationary_distribution)
    from .simulate import _trial_chunks
    opts = _read_document(doc, {"transition": np.ndarray, "n": int, "delta": float, "rate_r": float,
                                "trials": int | None, "h_values": np.ndarray | None,
                                "thresholds": np.ndarray | None}, "mixing-demo")
    P = _check_stochastic(opts["transition"])
    n, delta, rate_r = opts["n"], opts["delta"], opts["rate_r"]
    if n < 1:
        raise ValueError(f"mixing-demo: field 'n' must be >= 1, got {n}")
    trials = opts.get("trials", 500)
    if trials < 1:
        raise ValueError(f"mixing-demo: field 'trials' must be >= 1, got {trials}")
    h_vals = opts.get("h_values", np.array([1.0 if i % 2 == 0 else -1.0 for i in range(len(P))]))
    if h_vals.shape != (len(P),):
        raise ValueError("mixing-demo: field 'h_values' must hold one number per state")
    seed = _generator_seed(seed, "mixing-demo")

    pi = stationary_distribution(P)
    m = choose_block_size(n, delta, rate_r)
    beta_m = markov_beta_of_lag(P, pi, m)
    sizes = [len(b) for b in block_indices(n, m)]
    h_max = float(np.max(np.abs(h_vals)))
    mean_h = float(pi @ h_vals)

    def per_block_tail(t, size):
        return br.single_hypothesis_tail(t, math.sqrt(size) * h_max)

    if "thresholds" in opts:
        thresholds = opts["thresholds"].ravel().tolist()
    else:
        base = h_max * math.sqrt(max(sizes))
        thresholds = [round(base * f, 6) for f in (0.5, 1.0, 1.5, 2.0)]

    # trial t draws from SeedSequence([base_seed, t]), as coverage trials do; a
    # trial's working memory is its uniforms, states and h values: 24 n bytes
    devs = np.empty(trials)
    for ts, seeds in _trial_chunks(trials, seed, 24 * n):
        states = sample_chain(P, n, [np.random.default_rng(s) for s in seeds])
        devs[ts.start : ts.stop] = n * mean_h - h_vals[states].sum(axis=1)

    rows_data = []
    results = []
    for t_level in thresholds:
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
        rows_data.append(f"{t_level},{m * t_level},{tail.probability},{freq}")
    outputs = {
        "n": n,
        "block_count": m,
        "block_sizes": {"min": min(sizes), "max": max(sizes)},
        "beta_m": beta_m,
        "stationary": pi.tolist(),
        "trials": trials,
        "thresholds": results,
    }
    header = "per_block_threshold,total_threshold,bound_probability,empirical_frequency"
    rows = [(header, rows_data)]
    return outputs, rows


def _cmd_coverage(doc, seed):
    from .simulate import coverage_experiment
    report = coverage_experiment(doc if seed is None else {**doc, "base_seed": seed})
    outputs = report.to_json()
    per_trial = outputs["details"].get("per_trial")
    rows = None
    if per_trial is not None:
        bound = outputs.get("bound_value")
        failed = set(outputs["details"].get("failed_trials", []))
        lines = [f"{i},{stat},{bound},{int(i in failed)}" for i, stat in enumerate(per_trial)]
        rows = [("trial,statistic,bound,failed", lines)]
    return outputs, rows


class _Command(NamedTuple):
    run: Callable
    help: str
    needs_params: bool = True


_COMMANDS = {
    "bound": _Command(_cmd_bound, "evaluate a named interval or tail formula"),
    "optimize-constants": _Command(
        _cmd_optimize_constants, "grid-optimize the VC bound constants", needs_params=False
    ),
    "rademacher": _Command(_cmd_rademacher, "complexity of a value table (exact or Monte Carlo)"),
    "cover": _Command(_cmd_cover, "empirical L1 covering of a value table"),
    "entropy": _Command(_cmd_entropy, "entropy estimates and growth classification"),
    "mixing-demo": _Command(_cmd_mixing_demo, "blocked tail bound vs a simulated Markov chain"),
    "coverage": _Command(_cmd_coverage, "Monte-Carlo coverage experiment for an interval"),
}


# ---------------------------------------------------------------------------
# envelope and entry point


def _emit(envelope: dict, fmt: str, out: str | None, csv_rows):
    if fmt == "json":
        text = json.dumps(envelope, indent=2, allow_nan=False)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by every later one.

    Parsing keeps no state in the parser: each ``parse_args`` fills a fresh
    namespace, and help and errors are formatted when they are printed.  It
    is built lazily, not at import, so importing the module stays cheap."""
    parser = argparse.ArgumentParser(
        prog="riskbounds",
        description="Finite-sample risk bounds: evaluate interval formulas, "
        "complexity and covering estimates, blocking corrections, and "
        "coverage experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--params", help="path to the JSON parameter document")
        p.add_argument("--out", help="write the result here instead of stdout")
        p.add_argument("--seed", type=int, help="override the document's seed")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _refuse_constant(name: str):
    raise ValueError(f"--params: {name} is not valid JSON (RFC 8259)")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = {}
        if args.params is not None:
            doc = json.loads(Path(args.params).read_text(), parse_constant=_refuse_constant)
            if not isinstance(doc, dict):
                raise ValueError("--params must contain a JSON object")
        elif _COMMANDS[args.command].needs_params:
            raise ValueError(f"{args.command}: --params is required")
        outputs, csv_rows = _COMMANDS[args.command].run(doc, args.seed)
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    envelope = {"inputs_echo": doc, "outputs": outputs, "version": __version__, "seed": args.seed}
    try:
        _emit(envelope, args.format, args.out, csv_rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError:  # json.dumps refuses NaN and infinities
        print("computation error: the output is not finite", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
