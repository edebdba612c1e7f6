"""Inputs and operation lists of the three workloads.

Every input is generated from the workload seed; the library only ever sees
the generated tables, documents and configs.  Seed 0 is the default seed at
which the files under ``reference/`` were recorded.

An operation is one call the workload's single caller makes into the
program: a library call (kernels), one ``riskbounds.cli.main`` request
(cli-mix) or one ``coverage_experiment`` (coverage-nn).  Each operation is
a small object with ``name``, ``run()`` returning the raw result, and
``trials`` (Monte-Carlo replicates it draws, 0 if none).
"""

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REQUESTS = HERE / "requests"
REFERENCE = HERE / "reference"
DEFAULT_SEED = 0
WORKLOADS = ("kernels", "cli-mix", "coverage-nn")


@dataclass
class Op:
    name: str
    run: Callable
    trials: int = 0
    meta: dict = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


# ---------------------------------------------------------------------------
# kernels


def kernel_inputs(seed: int, tiny: bool = False) -> dict:
    """Seeded tables for the kernel list; ``tiny`` shrinks every size."""
    import riskbounds as rb

    def table(stream, m, n):
        return rb.FunctionTable(np.round(_rng(seed, stream).uniform(-1, 1, (m, n)), 6))

    def clustered(stream, m, n, k, noise):
        g = _rng(seed, stream)
        centres = g.uniform(-1, 1, (k, n))
        rows = centres[np.arange(m) % k] + g.uniform(-noise, noise, (m, n))
        return rb.FunctionTable(np.round(rows, 6))

    if tiny:
        sizes = dict(e1=(4, 8), e2=(8, 6), mc=(10, 20), greedy=(30, 10), ex=8, draws=200)
    else:
        sizes = dict(e1=(8, 20), e2=(64, 18), mc=(200, 500), greedy=(400, 200), ex=16,
                     draws=10_000)
    g = _rng(seed, 7)
    P = g.uniform(0.05, 1.0, (4, 4))
    P /= P.sum(axis=1, keepdims=True)
    avg_n = 4 if tiny else 10
    probs = np.linspace(0.2, 0.8, avg_n)
    return {
        "exact_small": table(1, *sizes["e1"]),
        "exact_large": table(2, *sizes["e2"]),
        "mc": table(3, *sizes["mc"]),
        "mc_draws": sizes["draws"],
        "mc_seed": int(seed),
        "greedy": clustered(4, *sizes["greedy"], k=40 if not tiny else 5, noise=0.2),
        "greedy_radius": 0.3,
        "exact_cover": clustered(5, sizes["ex"], 30, k=6, noise=0.6),
        "exact_cover_radius": 0.45,
        "avg_values": np.round(_rng(seed, 6).uniform(-1, 1, (8, 2)), 6),
        "avg_pmf": np.stack([probs, 1.0 - probs], axis=1),
        "transition": P,
        "lag": 12,
        "entropy_V": 2 + seed % 4,
        "entropy_nn": (1 + seed % 3, 2 + seed % 5),
    }


def kernel_ops(inp: dict) -> list:
    """The fixed kernel list.  Attributes are looked up at call time so the
    traced run's wrappers see every call."""
    import riskbounds as rb
    from riskbounds import bounds_vc, covering, mixing, rademacher, simulate

    return [
        Op("rademacher_exact_m8", lambda: rademacher.rademacher_exact(inp["exact_small"])),
        Op("rademacher_exact_m64", lambda: rademacher.rademacher_exact(inp["exact_large"])),
        Op("rademacher_mc", lambda: rademacher.rademacher_mc(
            inp["mc"], draws=inp["mc_draws"], seed=inp["mc_seed"]), trials=inp["mc_draws"]),
        Op("greedy_cover", lambda: covering.greedy_cover(inp["greedy"], inp["greedy_radius"])),
        Op("exact_cover_size", lambda: covering.exact_cover_size(
            inp["exact_cover"], inp["exact_cover_radius"])),
        Op("greedy_cover_m16", lambda: covering.greedy_cover(
            inp["exact_cover"], inp["exact_cover_radius"])),
        Op("exact_average_complexity", lambda: simulate.exact_average_complexity(
            inp["avg_values"], inp["avg_pmf"])),
        Op("optimize_v", lambda: bounds_vc.optimize_v()),
        Op("markov_beta_of_lag", lambda: mixing.markov_beta_of_lag(
            inp["transition"], None, inp["lag"])),
        Op("classify_entropy_vc", lambda: covering.classify_entropy(
            rb.EntropyEstimate.vc(inp["entropy_V"], 1.0))),
        Op("classify_entropy_nn", lambda: covering.classify_entropy(
            rb.EntropyEstimate.neural_net(*inp["entropy_nn"], 1.0))),
    ]


# ---------------------------------------------------------------------------
# cli-mix


def load_mix() -> list:
    return json.loads((REQUESTS / "mix.json").read_text())["requests"]


def cli_cycle(seed: int, subset: bool = False) -> list:
    """One cycle of the request mix in the seed's fixed shuffled order.

    Entries are the request records of requests/mix.json.  On a non-default
    seed the seeded subcommands get ``--seed`` (see cli_argv), so their
    Monte-Carlo inputs change with the workload seed.
    """
    entries = []
    for req in load_mix():
        if subset and not req.get("subset", False):
            continue
        entries.extend([req] * (1 if subset else req["count"]))
    random.Random(seed).shuffle(entries)
    return entries


def cli_argv(req: dict, seed: int, out: Path) -> list:
    argv = [req["command"]]
    if req.get("doc"):
        argv += ["--params", str(REQUESTS / f"{req['doc']}.json")]
    argv += ["--out", str(out)]
    if req.get("seeded") and seed != DEFAULT_SEED:
        argv += ["--seed", str(req.get("base_seed", 0) + seed)]
    return argv


def trials_of(req: dict) -> int:
    if req["command"] in ("coverage", "mixing-demo") and req.get("expect_exit", 0) == 0:
        doc = json.loads((REQUESTS / f"{req['doc']}.json").read_text())
        return int(doc["trials"])
    return 0


# ---------------------------------------------------------------------------
# coverage-nn: acceptance criterion C9


C9_TRUTH = [2.0, 0.0, 0.0, 0.0, -0.5, 1.0, 0.0]
C9_BASE_SEED = 31


def c9_config(seed: int) -> dict:
    """The C9 network coverage config; the workload seed shifts the base seed."""
    from riskbounds.hypothesis import NeuralNet
    from riskbounds.simulate import model_from_json

    net = NeuralNet(dim=1, units=2, B=1.5, mode="joint")
    truth = np.array(C9_TRUTH)
    atoms = np.linspace(-1.0, 1.0, 9)[:, None]
    model = model_from_json(
        {
            "kind": "iid",
            "B": 1.5,
            "covariates": {"kind": "discrete", "support": atoms.tolist(),
                           "probs": [1.0 / 9.0] * 9},
            "mean": {"kind": "atom_table", "values": net.predict(truth, atoms).tolist()},
            "noise": {"kind": "uniform", "half_width": 0.2},
        }
    )
    return {
        "bound": "nn_generalization_ci",
        "model": model,
        "class": net,
        "truth_params": truth,
        "n": 100,
        "delta": 0.1,
        "trials": 100,
        "base_seed": C9_BASE_SEED + int(seed),
    }


# replay of one C9 trial through the public API: trial t draws its sample
# from SeedSequence([base_seed, t]) and starts gradient descent from
# init_seed 1_000_003 + t, as coverage_experiment's network trials do
C9_INIT_SEED = 1_000_003


def c9_replay_trial(config: dict, t: int) -> float:
    from riskbounds import simulate

    sample, _ = simulate.generate_with_states(
        config["model"], config["n"], np.random.SeedSequence([config["base_seed"], t])
    )
    fit = simulate.erm_fit(config["class"], sample, method="projected_gd",
                           init_seed=C9_INIT_SEED + t)
    return simulate.excess_risk_exact(fit.predict, config["model"], config["n"])
