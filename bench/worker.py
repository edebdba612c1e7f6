"""Benchmark worker: the single process that generates a workload's load.

It is a closed loop with one caller: each operation starts only after the
previous one returns.  The worker starts no threads of its own.

Protocol with run.py: the worker sets up (imports riskbounds, builds the
inputs, makes one untimed warm-up pass), prints ``READY`` and reads one line
from stdin.  ``go`` runs the timed section and prints the result as one JSON
line; any other line ends the worker.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import checks
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent


def percentile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Workload:
    """Runs passes over a fixed operation list and checks their outputs."""

    # fresh-process launches per untraced run, and their document (None
    # rotates through the bound documents)
    cold_launches = 10
    cold_request = None

    def __init__(self, seed: int, checker: checks.Checker, workdir: Path, tiny: bool):
        self.seed = seed
        self.checker = checker
        self.workdir = workdir
        self.tiny = tiny
        self.ops = []

    def run_pass(self, tracer=None, rec=None, only=None):
        """Time each operation; then check every output, untimed and
        untraced."""
        raws, lats = [], []
        if tracer is not None:
            tracer.install(rec)
        try:
            start = time.perf_counter()
            for i, op in enumerate(self.ops):
                if only is not None and i not in only:
                    continue
                if rec is not None:
                    rec.request = i
                t0 = time.perf_counter()
                try:
                    raw = op.run()
                except Exception as exc:  # counted as a failed operation below
                    raw = exc
                lats.append((op, time.perf_counter() - t0))
                raws.append((op, raw))
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.remove()
        self.check_pass(raws)
        return wall, lats

    def check_pass(self, raws):
        raise NotImplementedError

    def warm_up(self):
        self.run_pass()

    def timed(self, seconds: float) -> dict:
        """Timing metrics of one pass with every operation at its fastest
        time in the run.  Other tenants of a shared machine slow whole
        seconds of a run; an operation's fastest time is its least
        disturbed cost, so these figures vary far less between runs than
        medians do.  Half of the fresh-process launches come before the
        first pass and the rest between passes, so they too sample the
        whole run."""
        walls, fastest = [], {}
        samples = 0
        launches = 1 if self.tiny else self.cold_launches
        first = launches // 2
        cold = self.launch_cold(0, first)
        while not walls or sum(walls) < seconds:
            wall, lats = self.run_pass()
            walls.append(wall)
            samples += len(lats)
            for op, t in lats:
                fastest[op.name] = min(t, fastest.get(op.name, t))
            share = sum(walls) / max(seconds, 1e-9)
            due = min(launches, first + math.ceil((launches - first) * share))
            cold += self.launch_cold(len(cold), due)
        cold += self.launch_cold(len(cold), launches)
        best = [fastest[op.name] for op in self.ops]
        mc = [(op.trials, fastest[op.name]) for op in self.ops if op.trials]
        return {
            "wall_s": sum(best),
            "req_p50_ms": 1e3 * percentile(best, 50),
            "req_p95_ms": 1e3 * percentile(best, 95),
            "req_per_s": len(best) / sum(best),
            "trials_per_s": sum(n for n, _ in mc) / sum(t for _, t in mc),
            "cli_cold_ms": 1e3 * min(cold),
            "samples": samples,
            "passes": len(walls),
            "cold_launches": len(cold),
        }

    def launch_cold(self, start: int, stop: int) -> list:
        """Fresh-process CLI invocations number start..stop-1, as a shell
        user runs them; returns their wall times."""
        env = tracing.python_env(ROOT)
        times = []
        for i in range(start, stop):
            req = self.cold_request or {"doc": BOUND_DOCS[i % len(BOUND_DOCS)],
                                        "command": "bound"}
            out = self.workdir / f"cold{i}.json"
            argv = [sys.executable, "-m", "riskbounds.cli", req["command"],
                    "--params", str(W.REQUESTS / f"{req['doc']}.json"), "--out", str(out)]
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120)
            times.append(time.perf_counter() - t0)
            try:
                if proc.returncode != 0:
                    raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")
                env_doc = checks.strict_loads(out.read_text())
                p = checks.compare(CLI_REFERENCE[req["doc"]], env_doc["outputs"])
                stable = {k: v for k, v in env_doc.items() if k != "diagnostics"}
                # the same key as the in-process requests: both must agree bit for bit
                p += self.checker.repeat((req["doc"], None), stable)
            except Exception as exc:
                p = [f"{type(exc).__name__}: {exc}"]
            finally:
                out.unlink(missing_ok=True)
            self.checker.record(f"cold {req['command']} {req['doc']}", p)
        return times

    def traced(self, seconds: float) -> dict:
        """Traced passes, then one memory pass over the operations that
        reached a memory layer."""
        tracer = tracing.Tracer()
        rec = tracing.Recorder()
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.run_pass(tracer, rec)[0])
        memory_ops = {s[4] for s in rec.spans if s[0].split(".")[0] in tracing.MEMORY_LAYERS}
        mem = tracing.Recorder()
        if memory_ops:
            mem.memory = True
            tracemalloc.start()
            try:
                self.run_pass(tracer, mem, only=memory_ops)
            finally:
                tracemalloc.stop()
        self.spans = rec.spans
        metrics = tracing.rollup(rec.spans, len(walls), mem.spans)
        # time spent inside the wrappers, against the traced wall time without it
        traced = sum(walls)
        metrics["tracing.overhead_pct"] = 100.0 * rec.overhead / (traced - rec.overhead)
        return metrics


class Kernels(Workload):
    cold_request = {"doc": "rademacher_small", "command": "rademacher"}

    def __init__(self, *a):
        super().__init__(*a)
        self.inputs = W.kernel_inputs(self.seed, self.tiny)
        self.ops = W.kernel_ops(self.inputs)
        self.reference = {}
        if self.seed == W.DEFAULT_SEED and not self.tiny:
            self.reference = json.loads((W.REFERENCE / "kernels.json").read_text())

    def check_pass(self, raws):
        outputs, errors = {}, {}
        for op, raw in raws:
            try:
                if isinstance(raw, Exception):
                    raise raw
                outputs[op.name] = checks.kernel_output(raw)
            except Exception as exc:
                errors[op.name] = f"{type(exc).__name__}: {exc}"
        for op, _ in raws:
            if op.name in errors:
                self.checker.record(op.name, [errors[op.name]])
                continue
            out = outputs[op.name]
            p = checks.kernel_invariants(op.name, out, self.inputs, outputs)
            if op.name in self.reference:
                p += checks.kernel_reference(op.name, out, self.reference[op.name])
            p += self.checker.repeat(op.name, out)
            self.checker.record(op.name, p)


class CliMix(Workload):
    cold_launches = 20

    def __init__(self, *a):
        super().__init__(*a)
        self.docs = {}
        for i, req in enumerate(W.cli_cycle(self.seed, subset=self.tiny)):
            out = self.workdir / f"{i}.json"
            argv = W.cli_argv(req, self.seed, out)
            self.ops.append(W.Op(req["doc"] or req["command"], self._caller(argv),
                                 trials=W.trials_of(req), meta={"req": req, "out": out,
                                                                "argv": argv}))
            if req["doc"] and req["doc"] not in self.docs:
                self.docs[req["doc"]] = checks.strict_loads(
                    (W.REQUESTS / f"{req['doc']}.json").read_text())

    @staticmethod
    def _caller(argv):
        import riskbounds.cli

        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                try:
                    code = riskbounds.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, err.getvalue()
        return run

    def check_envelope(self, req, argv, text) -> tuple:
        """(outputs or None, problems) of one written envelope."""
        env = checks.strict_loads(text)
        doc = self.docs.get(req["doc"], {})
        seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else None
        p = []
        if env.get("inputs_echo") != doc or env.get("seed") != seed or "outputs" not in env:
            return None, ["envelope does not echo its inputs and seed"]
        out = env["outputs"]
        p += checks.envelope_invariants(req["command"], doc, out, W.trials_of(req))
        if seed is None:
            p += checks.envelope_reference(req["command"], out,
                                           CLI_REFERENCE[req["doc"] or req["command"]])
        stable = {k: v for k, v in env.items() if k != "diagnostics"}
        p += self.checker.repeat((req["doc"] or req["command"], seed), stable)
        return out, p

    def check_request(self, op, raw, outputs) -> list:
        req, out_path = op.meta["req"], op.meta["out"]
        try:
            if isinstance(raw, Exception):
                raise raw
            code, err = raw
            want = req.get("expect_exit", 0)
            if code != want:
                return [f"exit {code}, expected {want}: {err.strip()[:200]}"]
            if want != 0:
                return [f"stderr does not name {f}" for f in req["expect_fields"]
                        if f not in err]
            out, p = self.check_envelope(req, op.meta["argv"], out_path.read_text())
            outputs[req["doc"] or req["command"]] = out
            return p
        except Exception as exc:
            return [f"{type(exc).__name__}: {exc}"]
        finally:
            out_path.unlink(missing_ok=True)

    def check_pass(self, raws):
        outputs = {}
        results = [(op, self.check_request(op, raw, outputs)) for op, raw in raws]
        exact, greedy = outputs.get("cover_exact"), outputs.get("cover_greedy")
        for op, p in results:
            if op.name == "cover_exact" and exact and greedy and greedy["size"] < exact["size"]:
                p.append(f"greedy size {greedy['size']} < exact size {exact['size']}")
            self.checker.record(op.name, p)


class CoverageNN(Workload):
    cold_request = {"doc": "bound_nn_generalization_ci", "command": "bound"}

    def __init__(self, *a):
        super().__init__(*a)
        from riskbounds import simulate

        self.config = W.c9_config(self.seed)
        self.ops = [W.Op("coverage_experiment",
                         lambda: simulate.coverage_experiment(self.config),
                         trials=self.config["trials"])]
        self.reference = None
        if self.seed == W.DEFAULT_SEED:
            self.reference = json.loads((W.REFERENCE / "coverage-nn.json").read_text())
        self.replay = None

    def warm_up(self):
        # one trial replayed through the public API; its risk is the repeat
        # check for the experiment's trial 0
        self.replay = W.c9_replay_trial(self.config, 0)

    def check_pass(self, raws):
        (op, raw), = raws
        trials = self.config["trials"]
        try:
            if isinstance(raw, Exception):
                raise raw
            out = checks.strict_loads(checks.canonical(raw.to_json()))
            report = checks.coverage_invariants(out, trials) + checks.nn_invariants(out)
            per_trial = {}
            if self.reference is not None:
                more, per_trial = checks.nn_report_reference(out, self.reference)
                report += more
            report += self.checker.repeat("coverage_report", out)
            risk0 = out["details"]["per_trial"][0]
            if not checks.close(self.replay, risk0, checks.NN_RTOL):
                per_trial.setdefault(0, []).append(
                    f"replayed risk {self.replay!r} != experiment's {risk0!r}")
        except Exception as exc:
            report = [f"{type(exc).__name__}: {exc}"]
            per_trial = {t: ["experiment failed"] for t in range(trials)}
        self.checker.record("coverage_report", report)
        for t in range(trials):
            self.checker.record(f"trial {t}", per_trial.get(t, []))


CLASSES = {"kernels": Kernels, "cli-mix": CliMix, "coverage-nn": CoverageNN}
CLI_REFERENCE = json.loads((W.REFERENCE / "cli-mix.json").read_text())
BOUND_DOCS = [r["doc"] for r in W.load_mix() if r["command"] == "bound"
              and "expect_exit" not in r]


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = ap.parse_args(argv)

    import riskbounds

    src = (ROOT / "src").resolve()
    if src not in Path(riskbounds.__file__).resolve().parents:
        print(f"riskbounds was imported from {riskbounds.__file__}, not {src}",
              file=sys.stderr)
        return 3
    checker = checks.Checker()
    workdir = ROOT / "bench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = CLASSES[args.workload](args.seed, checker, workdir, args.tiny)
        wl.warm_up()
        print("READY", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.trace:
            result = {"metrics": wl.traced(args.seconds)}
            result["metrics"].update(tracing.import_profile(tracing.python_env(ROOT)))
            result["spans_file"] = str(tracing.write_spans(
                wl.spans, ROOT / "bench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"))
        else:
            result = {"metrics": wl.timed(args.seconds)}
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        result["blas_threads"] = blas_threads()
        result.update(checker.summary())
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
