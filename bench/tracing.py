"""Span recorder for the traced run.

The benchmark wraps each layer's public functions in every riskbounds module
namespace where they are looked up (``riskbounds.simulate.erm_fit`` catches
the calls made inside ``coverage_experiment``; ``riskbounds.cli.rademacher_exact``
catches the CLI's own import).  Spans stay in memory until the traced passes
end; then write_spans writes them out and the rollup turns them into the
per-layer metrics.  Nothing inside ``src/`` is changed.
"""

import functools
import importlib
import inspect
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

LAYERS = ("hypothesis", "rademacher", "covering", "bounds_rademacher", "bounds_vc",
          "mixing", "simulate", "cli")
# layers whose calls get a tracemalloc peak in the memory pass
MEMORY_LAYERS = ("rademacher", "covering")
# methods wrapped on their class, as (module, class, method)
METHODS = (("hypothesis", "NeuralNet", "predict"),)


class Recorder:
    """Spans as [name, start, end, parent, request, extra] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.request = None
        self.memory = False
        self.overhead = 0.0  # seconds spent in the wrappers, outside the calls
        self._measuring = False

    def call(self, name, fn, args, kwargs):
        entered = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self.request, {}]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        # peaks are taken at the outermost call of a memory layer only, since
        # resetting the peak inside a nested call would hide the outer one's
        measure = (self.memory and not self._measuring
                   and name.split(".")[0] in MEMORY_LAYERS)
        if measure:
            self._measuring = True
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if measure:
                self._measuring = False
                span[5]["peak"] = tracemalloc.get_traced_memory()[1] - base
        for attr in ("draws", "iterations"):
            value = getattr(result, attr, None)
            if isinstance(value, int):
                span[5][attr] = value
        if name == "cli.main":
            span[5]["exit"] = result
        self.overhead += (span[1] - entered) + (time.perf_counter() - span[2])
        return result


def _targets():
    """(span name, original function, places) for every wrapped function;
    a place is (namespace object, attribute name)."""
    mods = {layer: importlib.import_module(f"riskbounds.{layer}") for layer in LAYERS}
    namespaces = list(mods.values()) + [importlib.import_module("riskbounds")]
    targets = []
    for layer, mod in mods.items():
        names = list(getattr(mod, "__all__", ()))
        for name in names:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            places = [(ns, attr) for ns in namespaces for attr, v in vars(ns).items()
                      if v is fn]
            targets.append((f"{layer}.{name}", fn, places))
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name)
        targets.append((f"{layer}.{cls_name}.{meth}", cls.__dict__[meth], [(cls, meth)]))
    return targets


class Tracer:
    """Installs wrappers for the traced passes and removes them after."""

    def __init__(self):
        self._targets = _targets()
        self._wrapped = []

    def install(self, rec: Recorder):
        for name, fn, places in self._targets:
            def wrapper(*args, __name=name, __fn=fn, **kwargs):
                return rec.call(__name, __fn, args, kwargs)
            functools.update_wrapper(wrapper, fn)
            for ns, attr in places:
                setattr(ns, attr, wrapper)
            self._wrapped.append((fn, places))

    def remove(self):
        for fn, places in self._wrapped:
            for ns, attr in places:
                setattr(ns, attr, fn)
        self._wrapped = []


def write_spans(spans, path):
    """One JSON line per span: name, start, end, parent index, request id,
    extra fields.  Written once, after the traced passes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")
    return path


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def rollup(spans, passes: int, memory_spans=()) -> dict:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Times are mean self time per call; counts are per pass; peaks are the
    largest tracemalloc peak of any call in the memory pass.
    """
    by = {}
    for span, st in zip(spans, self_times(spans)):
        by.setdefault(span[0], []).append((span, st))

    def calls(*names):
        return [x for n in names for x in by.get(n, [])]

    def mean_self(scale, *names):
        xs = [st for _, st in calls(*names)]
        return scale * statistics.fmean(xs) if xs else 0.0

    def rate(name):
        xs = calls(name)
        total = sum(st for _, st in xs)
        return sum(s[5].get("draws", 0) for s, _ in xs) / total if total > 0 else 0.0

    def peak_mb(layer):
        peaks = [s[5]["peak"] for s in memory_spans if "peak" in s[5]
                 and s[0].startswith(layer + ".")]
        return max(peaks) / 2**20 if peaks else 0.0

    def layer_calls(layer, exclude=()):
        return [n for n in by if n.startswith(layer + ".") and n not in exclude]

    def per_pass(n):
        return n / max(passes, 1)

    cov = [s[2] - s[1] for s, _ in calls("simulate.coverage_experiment")]
    return {
        "rademacher.exact_ms": mean_self(1e3, "rademacher.rademacher_exact"),
        "rademacher.exact_signs_per_s": rate("rademacher.rademacher_exact"),
        "rademacher.mc_ms": mean_self(1e3, "rademacher.rademacher_mc"),
        "rademacher.mc_draws_per_s": rate("rademacher.rademacher_mc"),
        "rademacher.peak_mb": peak_mb("rademacher"),
        "covering.greedy_ms": mean_self(1e3, "covering.greedy_cover"),
        "covering.exact_ms": mean_self(1e3, "covering.exact_cover_size"),
        "covering.peak_mb": peak_mb("covering"),
        "bounds_vc.optimize_v_ms": mean_self(1e3, "bounds_vc.optimize_v"),
        "bounds_vc.call_us": mean_self(
            1e6, *layer_calls("bounds_vc", ("bounds_vc.optimize_v",))),
        "bounds_rademacher.call_us": mean_self(1e6, *layer_calls("bounds_rademacher")),
        "mixing.beta_ms": mean_self(1e3, "mixing.markov_beta_of_lag"),
        "mixing.stationary_us": mean_self(1e6, "mixing.stationary_distribution"),
        "simulate.fit_ms": mean_self(1e3, "simulate.erm_fit"),
        "simulate.fit_calls": per_pass(len(calls("simulate.erm_fit"))),
        "simulate.gd_iterations": per_pass(
            sum(s[5].get("iterations", 0) for s, _ in calls("simulate.erm_fit"))),
        "simulate.generate_ms": mean_self(
            1e3, "simulate.generate_with_states", "simulate.generate"),
        "simulate.generate_calls": per_pass(
            len(calls("simulate.generate_with_states", "simulate.generate"))),
        "simulate.excess_risk_ms": mean_self(1e3, "simulate.excess_risk_exact"),
        "simulate.avg_complexity_ms": mean_self(1e3, "simulate.exact_average_complexity"),
        "simulate.coverage_s": statistics.fmean(cov) if cov else 0.0,
        "simulate.loop_self_ms": mean_self(1e3, "simulate.coverage_experiment"),
        "hypothesis.evaluate_ms": mean_self(1e3, "hypothesis.evaluate_class"),
        "hypothesis.predict_us": mean_self(1e6, "hypothesis.NeuralNet.predict"),
        "cli.self_ms": mean_self(1e3, "cli.main"),
        "cli.requests": per_pass(len(calls("cli.main"))),
        "cli.errors": per_pass(sum(1 for s, _ in calls("cli.main") if s[5].get("exit") != 0)),
    }


def import_profile(env: dict, runs: int = 3) -> dict:
    """Median self import time of each layer module, from ``-X importtime``."""
    samples = {layer: [] for layer in LAYERS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import riskbounds.cli"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            module = parts[2].strip()
            if module.startswith("riskbounds.") and module[11:] in samples:
                samples[module[11:]].append(int(parts[0].split(":")[1]) / 1e3)
    return {f"{layer}.import_ms": statistics.median(v) if v else 0.0
            for layer, v in samples.items()}


def python_env(root) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
