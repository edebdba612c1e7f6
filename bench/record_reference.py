"""Record the reference outputs under bench/reference/ at the default seed.

    PYTHONPATH=src python3 bench/record_reference.py [kernels] [cli-mix] [coverage-nn]

References are recorded once from a commit whose outputs are trusted; the
benchmark then compares every run at the default seed against them.  Do not
re-record to make a failing check pass.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads as W


def kernels() -> dict:
    inp = W.kernel_inputs(W.DEFAULT_SEED)
    return {op.name: checks.kernel_output(op.run()) for op in W.kernel_ops(inp)}


def cli_mix() -> dict:
    import riskbounds.cli

    refs = {}
    with tempfile.TemporaryDirectory(dir=W.HERE) as tmp:
        out = Path(tmp) / "out.json"
        for req in W.load_mix():
            if req.get("expect_exit", 0) != 0:
                continue
            if riskbounds.cli.main(W.cli_argv(req, W.DEFAULT_SEED, out)) != 0:
                raise RuntimeError(f"{req['doc']} failed")
            refs[req["doc"] or req["command"]] = checks.strict_loads(out.read_text())["outputs"]
    return refs


def coverage_nn() -> dict:
    from riskbounds.simulate import coverage_experiment

    report = coverage_experiment(W.c9_config(W.DEFAULT_SEED))
    return checks.strict_loads(checks.canonical(report.to_json()))


RECORDERS = {"kernels": kernels, "cli-mix": cli_mix, "coverage-nn": coverage_nn}

if __name__ == "__main__":
    for name in sys.argv[1:] or W.WORKLOADS:
        path = W.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(RECORDERS[name](), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
