"""Output checks.  Every operation the benchmark makes is counted here as
attempted, and as failed on any mismatch, unexpected exit code or exception.

Rules:

- envelopes and outputs must parse with a strict JSON parser (a bare NaN or
  Infinity is a failure);
- at the default seed, deterministic floats match the reference to 1e-9
  relative, integers, strings and lists match exactly, and Monte-Carlo
  values lie within 4 standard errors of the reference;
- coverage-nn per-trial risks (and the means derived from them) match to
  1e-6 relative, since batched gradient descent may reorder sums;
- invariants hold on every seed: exact complexity <= Massart bound, greedy
  cover size >= exact cover size, the optimize_v brackets, report counts;
- the same operation repeated in one run gives bit-identical outputs.

On a non-default seed only the invariants and the repeat check apply to the
outputs that depend on the seed.
"""

import json
import math

DET_RTOL = 1e-9
NN_RTOL = 1e-6
MC_SIGMAS = 4.0


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def canonical(obj) -> str:
    """Serialise for bit-identity comparisons; raises on NaN/Infinity."""
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def close(ref: float, got: float, rtol: float) -> bool:
    return ref == got or abs(ref - got) <= rtol * max(abs(ref), abs(got))


def compare(ref, got, rtol=DET_RTOL, path="", rtols=None, skip=()) -> list:
    """Differences between a reference and an output, as messages.

    ``rtols`` maps a path to its own tolerance; paths in ``skip`` are left
    to a caller-specific rule.
    """
    rtols = rtols or {}
    if path in skip:
        return []
    tol = rtols.get(path, rtol)
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path or '.'}: keys {sorted(set(ref) ^ set(got))} differ"]
        out = []
        for k in ref:
            out += compare(ref[k], got[k], rtol, f"{path}.{k}" if path else k, rtols, skip)
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != reference {len(ref)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, got)):
            out += compare(a, b, tol, f"{path}[{i}]", rtols, skip)
        return out
    num = (int, float)
    if isinstance(ref, num) and isinstance(got, num) and not isinstance(ref, bool) \
            and not isinstance(got, bool):
        if isinstance(ref, int) and isinstance(got, int):
            return [] if ref == got else [f"{path}: {got} != reference {ref}"]
        if isinstance(ref, int) != isinstance(got, int):
            return [f"{path}: type {type(got).__name__} != reference {type(ref).__name__}"]
        return [] if close(ref, got, tol) else [f"{path}: {got!r} != reference {ref!r}"]
    return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]


def within_se(ref: float, got: float, se: float, path: str) -> list:
    if abs(got - ref) <= MC_SIGMAS * se:
        return []
    return [f"{path}: {got!r} is more than {MC_SIGMAS:g} SE ({se:.3g}) from {ref!r}"]


def _finite_numbers(obj, path="") -> list:
    if isinstance(obj, dict):
        return [m for k, v in obj.items() for m in _finite_numbers(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [m for i, v in enumerate(obj) for m in _finite_numbers(v, f"{path}[{i}]")]
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"{path}: {obj!r} is not finite"]
    return []


class Checker:
    """Counts attempted and failed operations and keeps every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._first = {}

    def record(self, name: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems[:3]))

    def repeat(self, key, output) -> list:
        """Bit-identity against the first output seen under ``key``."""
        text = canonical(output)
        first = self._first.setdefault(key, text)
        return [] if text == first else [f"output differs from its first run in this run"]

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures}


# ---------------------------------------------------------------------------
# kernels


def kernel_output(result) -> dict:
    """JSON-ready output of a kernel call, strictly round-tripped."""
    from dataclasses import asdict, is_dataclass

    if is_dataclass(result):
        doc = asdict(result)
    else:
        doc = {"value": float(result)}
    return strict_loads(canonical(doc))


_BRACKETS = {"c0": (11.46, 11.47), "lambda0": (1.29, 1.30), "V0": (3291.0, 3292.0),
             "radius_coeff": (0.0935, 0.0955)}


def optimize_v_brackets(out: dict) -> list:
    return [f"{k}={out[k]!r} outside {lo}..{hi}" for k, (lo, hi) in _BRACKETS.items()
            if not lo < out[k] < hi]


def _cover_invariants(out: dict, table, radius) -> list:
    import numpy as np

    idx = out["cover_indices"]
    probs = []
    if out["size"] != len(idx) or len(set(idx)) != len(idx):
        probs.append("cover size and indices disagree")
    if not all(0 <= i < table.m for i in idx):
        probs.append("cover index out of range")
    else:
        vals = table.values
        d = np.mean(np.abs(vals[:, None, :] - vals[np.asarray(idx)][None, :, :]), axis=2)
        if float(np.max(np.min(d, axis=1))) > radius + 1e-9:
            probs.append("a row lies farther than the radius from every centre")
    return probs


def kernel_invariants(name: str, out: dict, inp: dict, outputs: dict) -> list:
    from riskbounds.rademacher import massart_bound

    p = _finite_numbers(out)
    if name.startswith("rademacher_exact"):
        table = inp["exact_small" if name.endswith("m8") else "exact_large"]
        if out["mode"] != "exact" or out["std_error"] != 0.0 or out["draws"] != 1 << table.n:
            p.append("exact estimate has the wrong mode, error or draw count")
        if not 0.0 <= out["value"] <= massart_bound(table) * (1 + 1e-12):
            p.append(f"exact value {out['value']} outside [0, Massart bound]")
    elif name == "rademacher_mc":
        if out["mode"] != "monte_carlo" or out["draws"] != inp["mc_draws"] \
                or not out["std_error"] > 0:
            p.append("Monte-Carlo estimate has the wrong mode, draws or error")
        if out["value"] > massart_bound(inp["mc"]) + MC_SIGMAS * out["std_error"]:
            p.append("Monte-Carlo value above the Massart bound")
    elif name == "greedy_cover":
        p += _cover_invariants(out, inp["greedy"], inp["greedy_radius"])
    elif name == "greedy_cover_m16":
        p += _cover_invariants(out, inp["exact_cover"], inp["exact_cover_radius"])
    elif name == "exact_cover_size":
        greedy = outputs.get("greedy_cover_m16")
        if not 1 <= out["size"] <= inp["exact_cover"].m:
            p.append(f"exact cover size {out['size']} out of range")
        if greedy is not None and greedy["size"] < out["size"]:
            p.append(f"greedy size {greedy['size']} < exact size {out['size']}")
    elif name == "optimize_v":
        p += optimize_v_brackets(out)
    elif name == "markov_beta_of_lag":
        if not 0.0 <= out["value"] <= 1.0:
            p.append("beta outside [0, 1]")
    elif name.startswith("classify_entropy"):
        if out["kind"] != "subeuclidean":
            p.append(f"tag {out['kind']!r}, expected 'subeuclidean'")
    return p


def kernel_reference(name: str, out: dict, ref: dict) -> list:
    if name != "rademacher_mc":
        return compare(ref, out)
    p = compare(ref, out, skip=("value", "std_error"))
    p += within_se(ref["value"], out["value"], ref["std_error"], "value")
    # standard error of a sample standard deviation: sd / sqrt(2 (N - 1))
    se_of_se = ref["std_error"] / math.sqrt(2.0 * (ref["draws"] - 1))
    return p + within_se(ref["std_error"], out["std_error"], se_of_se, "std_error")


# ---------------------------------------------------------------------------
# CLI envelopes and coverage reports


def coverage_invariants(out: dict, trials: int) -> list:
    p = _finite_numbers({k: v for k, v in out.items() if k != "details"})
    details = out["details"]
    failed = details.get("failed_trials", [])
    per_trial = details.get("per_trial", [])
    if out["trials"] != trials or len(per_trial) != trials:
        p.append(f"expected {trials} trials, report has {out['trials']}/{len(per_trial)}")
    if out["failures"] != len(failed) or not 0 <= out["failures"] <= out["trials"]:
        p.append("failure count disagrees with the failed-trial list")
    if failed != sorted(set(failed)):
        p.append("failed-trial list is not sorted and unique")
    if abs(out["empirical_coverage"] - (1.0 - out["failures"] / max(out["trials"], 1))) > 1e-12:
        p.append("empirical coverage disagrees with the failure count")
    bound = out.get("bound_value")
    if bound is not None and per_trial:
        over = [t for t, v in enumerate(per_trial) if v > bound]
        if over != failed:
            p.append("failed trials are not exactly the trials above the bound")
    return p


def envelope_invariants(command: str, doc: dict, out: dict, trials: int) -> list:
    p = []
    if command == "bound":
        p += _finite_numbers(out)
        if out.get("formula") != doc.get("formula"):
            p.append("formula not echoed")
    elif command == "rademacher":
        p += _finite_numbers(out)
        if out["mode"] == "exact" and not 0.0 <= out["value"] <= out["massart_bound"] * (1 + 1e-12):
            p.append("exact complexity outside [0, Massart bound]")
    elif command == "cover":
        if not 1 <= out["size"] or (out["method"] == "greedy" and out["size"] != len(out["indices"])):
            p.append("cover size and indices disagree")
    elif command == "entropy":
        p += _finite_numbers(out)
        if "tag" in out and out["tag"]["kind"] != "subeuclidean":
            p.append(f"tag {out['tag']['kind']!r}, expected 'subeuclidean'")
    elif command == "optimize-constants":
        p += optimize_v_brackets(out)
    elif command == "mixing-demo":
        p += _finite_numbers(out)
        if not 0.0 <= out["beta_m"] <= 1.0 or out["trials"] != trials:
            p.append("beta or trial count out of range")
        for row in out["thresholds"]:
            if not (0.0 <= row["bound_probability"] <= 1.0
                    and 0.0 <= row["empirical_frequency"] <= 1.0):
                p.append("probability outside [0, 1]")
    elif command == "coverage":
        p += coverage_invariants(out, trials)
    return p


def envelope_reference(command: str, out: dict, ref: dict) -> list:
    if command != "mixing-demo":
        return compare(ref, out)
    p = compare(ref, out, skip={f"thresholds[{i}].empirical_frequency"
                                for i in range(len(ref["thresholds"]))})
    trials = ref["trials"]
    for i, (a, b) in enumerate(zip(ref["thresholds"], out["thresholds"])):
        freq = a["empirical_frequency"]
        se = math.sqrt(max(freq * (1.0 - freq), 1.0 / trials) / trials)
        p += within_se(freq, b["empirical_frequency"], se, f"thresholds[{i}].empirical_frequency")
    return p


NN_PATHS = ("details.mean_risk", "details.mean_optimization_residual")


def nn_report_reference(out: dict, ref: dict) -> tuple:
    """(report-level problems, per-trial problems by index) against the
    recorded C9 report."""
    report = compare(ref, out, rtols={k: NN_RTOL for k in NN_PATHS},
                     skip=("details.per_trial",))
    ref_t, got_t = ref["details"]["per_trial"], out["details"]["per_trial"]
    per_trial = {}
    for t, (a, b) in enumerate(zip(ref_t, got_t)):
        if not close(a, b, NN_RTOL):
            per_trial[t] = [f"risk {b!r} != reference {a!r}"]
    return report, per_trial


def nn_invariants(out: dict) -> list:
    d = out["details"]
    p = []
    if d.get("optimality") != "heuristic":
        p.append("network fit not reported as heuristic")
    if not math.isfinite(d.get("mean_optimization_residual", math.nan)):
        p.append("mean optimization residual is not finite")
    if any(v < 0 for v in d.get("per_trial", [])):
        p.append("negative excess risk")
    return p
