"""riskbounds benchmark: one command runs a workload (or all of them), prints
every metric by name with its unit, checks every output and ends with one
JSON line ``{"correct", "attempted", "failed", "metrics"}``.

    python3 bench/run.py --workload kernels --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced; ``--trace 1``
makes the separate traced run and reports the per-layer metrics.  Run it
from the repository root; the library is imported from ``src/``.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").exists() else None
SETUPS = 3  # fresh workers per untraced run; setup_s is their median
WORKER_TIMEOUT = 170


def metric_specs(trace: int) -> list:
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in SPEC[key]]


def launch(args, tiny: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--tiny"] if tiny else [])
    return subprocess.Popen(cmd, cwd=ROOT, env=tracing.python_env(ROOT), text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def run_worker(args, go: bool, tiny: bool = False):
    """(seconds from launch to READY, result dict or None)."""
    t0 = time.perf_counter()
    proc = launch(args, tiny)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line.strip()!r}")
        proc.stdin.write("go\n" if go else "exit\n")
        proc.stdin.close()
        text = proc.stdout.read()
        if proc.wait(timeout=WORKER_TIMEOUT) != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return ready, (json.loads(text.strip().splitlines()[-1]) if go else None)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def context(blas) -> dict:
    """Informational record of the machine and code; not gated."""
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def caches():
        out = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            try:
                kind = (idx / "type").read_text().strip()
                if kind != "Instruction":
                    out[f"L{(idx / 'level').read_text().strip()}"] = (
                        idx / "size").read_text().strip()
            except OSError:
                continue
        return out

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unavailable"
    except OSError:
        commit = "unavailable"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def run_workload(args, tiny: bool = False) -> dict:
    if args.trace:
        _, result = run_worker(args, go=True, tiny=tiny)
    else:
        n = 1 if tiny else SETUPS
        setups = [run_worker(args, go=False, tiny=tiny)[0] for _ in range(n - 1)]
        ready, result = run_worker(args, go=True, tiny=tiny)
        setups.append(ready)
        m = result["metrics"]
        for key in ("samples", "passes", "cold_launches"):
            result[key] = m.pop(key)
        m["setup_s"] = statistics.median(setups)
        m["ok_ratio"] = 1.0 - result["failed"] / result["attempted"]
    names = metric_specs(args.trace)
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in names}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "riskbounds" / "__init__.py").is_file() or SPEC is None:
        print("error: run from a riskbounds checkout (src/riskbounds or BENCHMARK.json "
              "is missing)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]

    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    blas = None
    for name in names:
        args.workload = name
        result = run_workload(args)
        blas = result.get("blas_threads")
        print(f"# workload {name} (seed {args.seed}, trace {args.trace})")
        for metric, mv in result["metrics"].items():
            print(f"{name}  {metric:32s} {mv['value']!r} {mv['unit']}")
        if args.trace:
            print(f"{name}  spans: {Path(result['spans_file']).relative_to(ROOT)}")
        else:
            print(f"{name}  operations timed: {result['samples']} in {result['passes']} "
                  f"passes; cold launches: {result['cold_launches']}; set-ups: {SETUPS}")
        print(f"{name}  checked operations: {result['attempted']}, failed: "
              f"{result['failed']}")
        for failure in result["failures"]:
            print(f"{name}  FAILED {failure}")
            print(f"{name}: FAILED {failure}", file=sys.stderr)
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, mv in result["metrics"].items():
            total["metrics"][prefix + metric] = mv
    total["correct"] = total["failed"] == 0
    print("context " + json.dumps(context(blas)))
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
