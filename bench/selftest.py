"""Fast self-test of the benchmark harness (about 10 s).

    python3 bench/selftest.py

It runs `kernels` at tiny sizes and the `cli-mix` subset, each once untraced
and once traced, with one pass, one set-up and one cold launch. It also
checks the checker rules, the span rollup and the refusal to run without
`src/`. The C9 experiment cannot be shrunk below its 100 trials, so the
test feeds `coverage-nn`'s checker the recorded report and a perturbed copy
instead of running it. Exits 0 when every check holds.
"""

import argparse
import copy
import json
import shutil
import subprocess
import sys
import tempfile

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

problems = []


def expect(cond, what):
    if not cond:
        problems.append(what)


def test_checker_rules():
    for bad in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        try:
            checks.strict_loads(bad)
            problems.append(f"strict parser accepted {bad}")
        except ValueError:
            pass
    expect(checks.compare({"a": 1.0}, {"a": 1.0 + 1e-12}) == [], "1e-12 relative rejected")
    expect(checks.compare({"a": 1.0}, {"a": 1.0 + 1e-8}) != [], "1e-8 relative accepted")
    expect(checks.compare({"n": 3}, {"n": 4}) != [], "integer mismatch accepted")
    expect(checks.compare({"i": [1, 2]}, {"i": [2, 1]}) != [], "index order ignored")
    expect(checks.within_se(1.0, 1.3, 0.1, "v") == [], "3 SE rejected")
    expect(checks.within_se(1.0, 1.5, 0.1, "v") != [], "5 SE accepted")

    ref = json.loads((W.REFERENCE / "coverage-nn.json").read_text())
    expect(checks.coverage_invariants(ref, 100) == [], "C9 reference breaks invariants")
    report, per_trial = checks.nn_report_reference(ref, ref)
    expect(report == [] and per_trial == {}, "C9 reference differs from itself")
    moved = copy.deepcopy(ref)
    moved["details"]["per_trial"][5] *= 1 + 1e-5
    _, per_trial = checks.nn_report_reference(moved, ref)
    expect(list(per_trial) == [5], "1e-5 change of one trial risk not caught")
    moved = copy.deepcopy(ref)
    moved["failures"] += 1
    expect(checks.coverage_invariants(moved, 100) != [], "failure count drift not caught")

    c = checks.Checker()
    expect(c.repeat("k", {"x": 1.0}) == [] and c.repeat("k", {"x": 1.0}) == [],
           "identical repeat rejected")
    expect(c.repeat("k", {"x": 1.0000000000000002}) != [], "last-bit repeat drift accepted")


def test_rollup():
    # outer [0, 10] has children [1, 4] and [5, 6]; the first child has [2, 3]
    spans = [["simulate.coverage_experiment", 0.0, 10.0, None, 0, {}],
             ["simulate.erm_fit", 1.0, 4.0, 0, 0, {"iterations": 7}],
             ["hypothesis.NeuralNet.predict", 2.0, 3.0, 1, 0, {}],
             ["simulate.erm_fit", 5.0, 6.0, 0, 0, {"iterations": 7}]]
    expect(tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0], "self times wrong")
    m = tracing.rollup(spans, passes=1)
    expect(m["simulate.loop_self_ms"] == 6000.0 and m["simulate.coverage_s"] == 10.0,
           "coverage rollup wrong")
    expect(m["simulate.fit_calls"] == 2 and m["simulate.gd_iterations"] == 14,
           "fit counts wrong")
    expect(m["simulate.fit_ms"] == 1500.0, "fit self time wrong")


def test_tracer_restores():
    import riskbounds.cli
    import riskbounds.simulate

    before = (riskbounds.simulate.erm_fit, riskbounds.cli.rademacher_exact)
    tracer = tracing.Tracer()
    tracer.install(tracing.Recorder())
    expect(riskbounds.cli.rademacher_exact is not before[1], "cli import not wrapped")
    tracer.remove()
    expect((riskbounds.simulate.erm_fit, riskbounds.cli.rademacher_exact) == before,
           "wrappers left installed")


def test_runs():
    for workload in ("kernels", "cli-mix"):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace)
            result = run.run_workload(args, tiny=True)
            names = [n for n, _ in run.metric_specs(trace)]
            expect(list(result["metrics"]) == names, f"{workload}/{trace}: metric names")
            expect(result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload}/{trace}: {result['failures'][:3]}")
            if trace:
                m = result["metrics"]
                layer = "rademacher.exact_ms" if workload == "kernels" else "cli.requests"
                expect(m[layer]["value"] > 0, f"{workload}: no {layer} spans")
                expect(m["simulate.coverage_s"]["value"] == 0 or workload == "cli-mix",
                       "kernels ran the simulate trial loop")


def test_refuses_without_src():
    with tempfile.TemporaryDirectory(dir=W.HERE) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(W.HERE, f"{tmp}/bench", ignore=shutil.ignore_patterns(
            ".work", "tmp*", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernels",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and proc.stdout == "", "ran without src/")


if __name__ == "__main__":
    for test in (test_checker_rules, test_rollup, test_tracer_restores, test_runs,
                 test_refuses_without_src):
        test()
        print(f"{test.__name__}: {'ok' if not problems else 'FAILED'}", flush=True)
        if problems:
            break
    for p in problems:
        print(f"  {p}")
    sys.exit(1 if problems else 0)
