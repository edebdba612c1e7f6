"""Synthetic data, ERM solvers, exact risk evaluation, and coverage
experiments.

Models are constructed so the conditional mean of the truncated response
is available in closed form (discrete noise, or uniform noise through the
exact clipped-mean integral); excess risks are then exact for discrete
covariates and Gauss-Legendre-exact for uniform ones.  Coverage
experiments repeatedly simulate, fit, and compare realized risk against a
confidence bound, counting failures.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bounds_rademacher as br
from . import bounds_vc as bv
from .covering import EntropyEstimate
from .hypothesis import (
    Finite,
    FunctionTable,
    GridSpec,
    NeuralNet,
    SequentialSample,
    TruncatedLinear,
    class_from_json,
    evaluate_class,
    truncate,
    vc_dimension_bound,
)
from .mixing import block_indices, markov_beta_of_lag, stationary_distribution
from .rademacher import _expected_max, massart_bound

__all__ = [
    "NoiseSpec",
    "CovariateSpec",
    "MeanSpec",
    "DataModel",
    "model_to_json",
    "model_from_json",
    "generate",
    "generate_with_states",
    "ERMResult",
    "erm_fit",
    "excess_risk_exact",
    "ProofFunctionals",
    "proof_functionals",
    "exact_average_complexity",
    "enumerate_product_states",
    "CoverageReport",
    "coverage_experiment",
]

GAUSS_NODES = 64
_ENUM_LIMIT = 1 << 21  # cap on (2s)^n partial-state count for exact averages


# ---------------------------------------------------------------------------
# data model definitions


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: none, finite symmetric-support atoms, or uniform."""

    kind: str = "none"
    values: np.ndarray | None = None
    probs: np.ndarray | None = None
    half_width: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "discrete", "uniform"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "discrete":
            v = np.asarray(self.values, dtype=float).ravel()
            p = np.asarray(self.probs, dtype=float).ravel()
            if v.size == 0 or v.shape != p.shape:
                raise ValueError("discrete noise needs matching values/probs")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
                raise ValueError("noise probs must form a distribution")
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "probs", p)
        if self.kind == "uniform" and self.half_width <= 0:
            raise ValueError("uniform noise needs half_width > 0")

    def mean(self) -> float:
        if self.kind == "discrete":
            return float(self.values @ self.probs)
        return 0.0


@dataclass(frozen=True)
class CovariateSpec:
    """Covariate law: finite support (optionally per-index drifting pmf),
    an interval uniform, or a finite-state Markov chain.

    For ``kind='discrete'`` with ``probs_end`` set, the pmf interpolates
    linearly from ``probs`` at index 1 to ``probs_end`` at index n.
    """

    kind: str
    support: np.ndarray | None = None
    probs: np.ndarray | None = None
    probs_end: np.ndarray | None = None
    low: float = 0.0
    high: float = 1.0
    transition: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("discrete", "uniform", "markov"):
            raise ValueError(f"unknown covariate kind {self.kind!r}")
        if self.kind == "uniform":
            if not (self.low < self.high):
                raise ValueError("uniform covariates need low < high")
            return
        sup = np.asarray(self.support, dtype=float)
        if sup.ndim == 1:
            sup = sup[:, None]
        if sup.ndim != 2 or len(sup) < 1:
            raise ValueError("support must be a nonempty (s,) or (s, dim) array")
        object.__setattr__(self, "support", sup)
        s = len(sup)
        if self.kind == "discrete":
            p = np.asarray(self.probs, dtype=float).ravel()
            if p.shape != (s,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
                raise ValueError("probs must be a distribution over the support")
            object.__setattr__(self, "probs", p)
            if self.probs_end is not None:
                q = np.asarray(self.probs_end, dtype=float).ravel()
                if q.shape != (s,) or np.any(q < 0) or abs(q.sum() - 1.0) > 1e-9:
                    raise ValueError("probs_end must be a distribution over the support")
                object.__setattr__(self, "probs_end", q)
        else:  # markov
            P = np.asarray(self.transition, dtype=float)
            if P.shape != (s, s):
                raise ValueError("transition matrix must be (s, s)")
            if np.any(P < 0) or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):
                raise ValueError("transition matrix must be row-stochastic")
            object.__setattr__(self, "transition", P)

    @property
    def n_states(self) -> int:
        return 0 if self.kind == "uniform" else len(self.support)

    def pmf_per_index(self, n: int) -> np.ndarray:
        """(n, s) matrix of marginal pmfs, exact for all three kinds."""
        if self.kind == "uniform":
            raise ValueError("uniform covariates have no finite pmf")
        if self.kind == "markov":
            pi = stationary_distribution(self.transition)
            return np.tile(pi, (n, 1))
        if self.probs_end is None:
            return np.tile(self.probs, (n, 1))
        w = np.linspace(0.0, 1.0, n)[:, None] if n > 1 else np.zeros((1, 1))
        return (1.0 - w) * self.probs[None, :] + w * self.probs_end[None, :]


@dataclass(frozen=True)
class MeanSpec:
    """Regression function: affine in the covariate, or a per-atom table."""

    kind: str = "affine"
    coeffs: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("affine", "atom_table"):
            raise ValueError(f"unknown mean kind {self.kind!r}")
        if self.kind == "affine":
            c = np.asarray(self.coeffs, dtype=float).ravel()
            if c.size < 1:
                raise ValueError("affine mean needs coeffs [a0, a1, ..]")
            object.__setattr__(self, "coeffs", c)
        else:
            v = np.asarray(self.values, dtype=float).ravel()
            if v.size < 1:
                raise ValueError("atom_table mean needs one value per atom")
            object.__setattr__(self, "values", v)

    def at_points(self, points: np.ndarray) -> np.ndarray:
        if self.kind != "affine":
            raise ValueError("atom_table means are indexed by atom, not point")
        pts = np.asarray(points, dtype=float)
        pts = pts.reshape(len(pts), -1)
        d = self.coeffs.size - 1
        if d == 0:
            return np.full(len(pts), self.coeffs[0])
        if pts.shape[1] != d:
            raise ValueError(f"points have dimension {pts.shape[1]}, mean expects {d}")
        return self.coeffs[0] + pts @ self.coeffs[1:]

    def at_atoms(self, support: np.ndarray) -> np.ndarray:
        if self.kind == "atom_table":
            if len(self.values) != len(support):
                raise ValueError("atom_table length must match the support size")
            return self.values
        return self.at_points(support)


@dataclass(frozen=True)
class DataModel:
    """Joint law of the covariate/response sequence.

    ``drift`` = (start, end) adds a linear-in-index offset to the
    regression function (index 1 gets start, index n gets end); only
    meaningful for the nonstationary kind.
    """

    kind: str
    covariates: CovariateSpec
    mean: MeanSpec
    noise: NoiseSpec
    B: float
    drift: tuple | None = None
    unbounded_response: bool = False

    def __post_init__(self):
        if self.kind not in ("iid", "nonstationary_independent", "markov_chain"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if self.kind == "markov_chain" and self.covariates.kind != "markov":
            raise ValueError("markov_chain models need markov covariates")
        if self.kind != "markov_chain" and self.covariates.kind == "markov":
            raise ValueError("markov covariates need kind='markov_chain'")
        if self.mean.kind == "atom_table" and self.covariates.kind == "uniform":
            raise ValueError("atom_table means need finite-support covariates")
        if self.kind == "iid" and (
            self.drift is not None or self.covariates.probs_end is not None
        ):
            raise ValueError("iid models cannot carry index drift")
        if self.drift is not None and len(self.drift) != 2:
            raise ValueError("drift must be (start, end)")

    def drift_offsets(self, n: int) -> np.ndarray:
        if self.drift is None:
            return np.zeros(n)
        start, end = self.drift
        return np.linspace(float(start), float(end), n) if n > 1 else np.array([float(start)])

    def is_stationary(self) -> bool:
        return self.drift is None and self.covariates.probs_end is None


def model_to_json(model: DataModel) -> dict:
    cov = model.covariates
    doc = {
        "kind": model.kind,
        "B": model.B,
        "drift": list(model.drift) if model.drift else None,
        "unbounded_response": model.unbounded_response,
        "covariates": {
            "kind": cov.kind,
            "support": cov.support.tolist() if cov.support is not None else None,
            "probs": cov.probs.tolist() if cov.probs is not None else None,
            "probs_end": cov.probs_end.tolist() if cov.probs_end is not None else None,
            "low": cov.low,
            "high": cov.high,
            "transition": cov.transition.tolist() if cov.transition is not None else None,
        },
        "mean": {
            "kind": model.mean.kind,
            "coeffs": model.mean.coeffs.tolist() if model.mean.coeffs is not None else None,
            "values": model.mean.values.tolist() if model.mean.values is not None else None,
        },
        "noise": {
            "kind": model.noise.kind,
            "values": model.noise.values.tolist() if model.noise.values is not None else None,
            "probs": model.noise.probs.tolist() if model.noise.probs is not None else None,
            "half_width": model.noise.half_width,
        },
    }
    return doc


def model_from_json(doc: dict) -> DataModel:
    cov = doc["covariates"]
    mean = doc.get("mean") or {"kind": "affine", "coeffs": [0.0]}
    noise = doc.get("noise") or {"kind": "none"}

    def arr(x):
        return None if x is None else np.asarray(x, dtype=float)

    return DataModel(
        kind=doc["kind"],
        covariates=CovariateSpec(
            kind=cov["kind"],
            support=arr(cov.get("support")),
            probs=arr(cov.get("probs")),
            probs_end=arr(cov.get("probs_end")),
            low=cov.get("low", 0.0),
            high=cov.get("high", 1.0),
            transition=arr(cov.get("transition")),
        ),
        mean=MeanSpec(
            kind=mean.get("kind", "affine"),
            coeffs=arr(mean.get("coeffs")),
            values=arr(mean.get("values")),
        ),
        noise=NoiseSpec(
            kind=noise.get("kind", "none"),
            values=arr(noise.get("values")),
            probs=arr(noise.get("probs")),
            half_width=noise.get("half_width", 0.0),
        ),
        B=doc["B"],
        drift=tuple(doc["drift"]) if doc.get("drift") else None,
        unbounded_response=doc.get("unbounded_response", False),
    )


# ---------------------------------------------------------------------------
# ground truth: conditional means of truncated responses


def _clipped_mean_uniform(f: np.ndarray, w: float, B: float) -> np.ndarray:
    """E[clip(f + U, -B, B)] for U ~ Uniform[-w, w], exact.

    Uses the antiderivative of clip: C(v) = -Bv - B^2/2 (v <= -B),
    v^2/2 (|v| <= B), Bv - B^2/2 (v >= B); the mean is
    (C(f+w) - C(f-w)) / (2w).
    """

    def C(v):
        v = np.asarray(v, dtype=float)
        out = np.where(v <= -B, -B * v - B * B / 2.0, v * v / 2.0)
        return np.where(v >= B, B * v - B * B / 2.0, out)

    return (C(f + w) - C(f - w)) / (2.0 * w)


def _phi_of_f(f: np.ndarray, noise: NoiseSpec, B: float) -> np.ndarray:
    """phi = E[truncate(f + noise, B)], vectorized over f."""
    f = np.asarray(f, dtype=float)
    if noise.kind == "none":
        return np.clip(f, -B, B)
    if noise.kind == "discrete":
        stacked = np.clip(f[..., None] + noise.values, -B, B)
        return stacked @ noise.probs
    return _clipped_mean_uniform(f, noise.half_width, B)


def phi_grid(model: DataModel, points: np.ndarray, n: int) -> np.ndarray:
    """(n, n_points) matrix of conditional truncated means phi_k(x_i).

    For atom_table means, ``points`` must be the model's support (the mean
    is defined per atom).
    """
    if model.mean.kind == "atom_table":
        f0 = model.mean.at_atoms(model.covariates.support)
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        sup = model.covariates.support
        if pts.shape != sup.shape or not np.array_equal(pts, sup):
            raise ValueError("atom_table means are only defined on the support")
    else:
        f0 = model.mean.at_points(points)
    off = model.drift_offsets(n)
    f = f0[None, :] + off[:, None]
    return _phi_of_f(f, model.noise, model.B)


def response_tail_term(model: DataModel, n: int) -> float:
    """(1/n) sum_k E[(|W_k| - B)^2 1{|W_k| > B}], exact for discrete models."""
    if model.covariates.kind == "uniform":
        raise ValueError("tail term implemented for finite-support covariates only")
    if model.noise.kind == "uniform":
        raise ValueError("tail term implemented for discrete or zero noise only")
    pmf = model.covariates.pmf_per_index(n)
    f0 = model.mean.at_atoms(model.covariates.support)
    f = f0[None, :] + model.drift_offsets(n)[:, None]  # (n, s)
    if model.noise.kind == "none":
        w = f[..., None]
        probs = np.ones(1)
    else:
        w = f[..., None] + model.noise.values
        probs = model.noise.probs
    over = np.maximum(np.abs(w) - model.B, 0.0) ** 2
    per_atom = over @ probs  # (n, s)
    return float(np.mean(np.sum(pmf * per_atom, axis=1)))


# ---------------------------------------------------------------------------
# sampling


def generate_with_states(model: DataModel, n: int, seed) -> tuple:
    """Sample the model; also return atom indices for finite supports.

    Draw order is fixed (covariates first, then noise) so results are
    reproducible bit-for-bit from the seed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    cov = model.covariates

    states = None
    if cov.kind == "uniform":
        x = rng.uniform(cov.low, cov.high, size=n)[:, None]
    elif cov.kind == "discrete":
        pmf = cov.pmf_per_index(n)
        if cov.probs_end is None:
            states = rng.choice(cov.n_states, size=n, p=cov.probs)
        else:
            u = rng.random(n)
            cum = np.cumsum(pmf, axis=1)
            states = (u[:, None] > cum).sum(axis=1)
        x = cov.support[states]
    else:  # markov, stationary start
        pi = stationary_distribution(cov.transition)
        cum = np.cumsum(cov.transition, axis=1)
        u = rng.random(n)
        states = np.empty(n, dtype=np.int64)
        states[0] = np.searchsorted(np.cumsum(pi), u[0], side="right")
        for k in range(1, n):
            states[k] = np.searchsorted(cum[states[k - 1]], u[k], side="right")
        x = cov.support[states]

    if model.mean.kind == "atom_table":
        f = model.mean.values[states]
    else:
        f = model.mean.at_points(x)
    f = f + model.drift_offsets(n)

    if model.noise.kind == "none":
        eps = np.zeros(n)
    elif model.noise.kind == "discrete":
        eps = rng.choice(model.noise.values, size=n, p=model.noise.probs)
    else:
        eps = rng.uniform(-model.noise.half_width, model.noise.half_width, size=n)

    sample = SequentialSample(points=x, responses=f + eps)
    return sample, states


def generate(model: DataModel, n: int, seed) -> SequentialSample:
    """Sample n points from the model, deterministic in the seed."""
    sample, _ = generate_with_states(model, n, seed)
    return sample


# ---------------------------------------------------------------------------
# ERM


@dataclass(frozen=True)
class ERMResult:
    """Fit summary.

    ``optimality`` is 'exact' for enumeration and least squares and
    'heuristic' for projected gradient descent, whose iterate carries no
    global-minimality guarantee.
    """

    method: str
    empirical_loss: float
    row_index: int | None = None
    coeffs: np.ndarray | None = None
    predict: Callable | None = None
    ridge_fallback: bool = False
    optimality: str = "exact"
    iterations: int | None = None


def _l1_project(v: np.ndarray, radius: float) -> np.ndarray:
    """Row-wise Euclidean projection onto the l1 ball, sort-based
    thresholding; rows already inside the ball are returned unchanged."""
    a = np.abs(v)
    inside = a.sum(axis=1) <= radius
    if inside.all():
        return v
    u = np.sort(a, axis=1)[:, ::-1]
    css = np.add.accumulate(u, axis=1)
    idx = np.arange(1, v.shape[1] + 1)
    # rho is the last index where the condition holds (index 0 always does)
    rho = v.shape[1] - 1 - np.argmax((u * idx > css - radius)[:, ::-1], axis=1)
    theta = (css[np.arange(len(v)), rho] - radius) / (rho + 1.0)
    return np.where(inside[:, None], v, np.sign(v) * np.maximum(a - theta[:, None], 0.0))


GD_STEP = 1e-2
GD_ITERATIONS = 10_000


def erm_fit(
    cls,
    sample: SequentialSample,
    method: str = "enumerate",
    grid: GridSpec | None = None,
    init_seed: int = 0,
) -> ERMResult:
    """Empirical squared-loss minimization over a hypothesis class.

    Responses are truncated to [-B, B] before fitting.  Methods:

    - 'enumerate': exact argmin over the finite value table (ties to the
      lowest row index);
    - 'least_squares': normal equations over a TruncatedLinear span, the
      fitted function then truncated (singular systems fall back to a
      1e-10 ridge, flagged);
    - 'projected_gd': fixed-budget gradient descent for NeuralNet classes
      with the output weights projected onto their constraint set after
      every step; heuristic, no optimality claim.  The start is drawn from
      ``default_rng(init_seed)``.  This is the batched network kernel that
      coverage experiments run over all their trials at once, here with a
      single trial, so a trial's fit replays exactly through this call.
      Its units-major sums over the n points run in another order than a
      one-fit loop over (n, units) arrays: bit-equal with one unit, within
      1e-12 in the parameters after 300 steps with more.
    """
    if sample.responses is None:
        raise ValueError("erm_fit needs responses")
    targets = truncate(sample.responses, cls.B)

    if method == "enumerate":
        table = evaluate_class(cls, sample, grid)
        losses = np.sum((table.values - targets[None, :]) ** 2, axis=1)
        j = int(np.argmin(losses))
        params = None
        if not isinstance(cls, Finite):
            params = (grid if grid is not None else cls.grid).resolve()[j]
        row = table.values[j].copy()
        return ERMResult(
            method=method,
            empirical_loss=float(losses[j]),
            row_index=j,
            coeffs=params,
            predict=_row_predictor(cls, params, row),
        )

    if method == "least_squares":
        if not isinstance(cls, TruncatedLinear):
            raise ValueError("least_squares requires a TruncatedLinear class")
        design = cls.basis_matrix(sample.points)
        gram = design.T @ design
        rhs = design.T @ targets
        ridge = False
        try:
            theta = np.linalg.solve(gram, rhs)
            if not np.all(np.isfinite(theta)):
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            theta = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)
            ridge = True
        B = cls.B

        def predict(points, theta=theta, cls=cls, B=B):
            return truncate(cls.basis_matrix(points) @ theta, B)

        loss = float(np.sum((predict(sample.points) - targets) ** 2))
        return ERMResult(
            method=method,
            empirical_loss=loss,
            coeffs=theta,
            predict=predict,
            ridge_fallback=ridge,
        )

    if method == "projected_gd":
        if not isinstance(cls, NeuralNet):
            raise ValueError("projected_gd requires a NeuralNet class")
        x = sample.points.reshape(-1, cls.dim)
        theta = _fit_nn(cls, x[None], targets[None], [init_seed])[0]
        return ERMResult(
            method=method,
            empirical_loss=float(np.sum((cls.predict(theta, x) - targets) ** 2)),
            coeffs=theta,
            predict=_row_predictor(cls, theta, None),
            optimality="heuristic",
            iterations=GD_ITERATIONS,
        )

    raise ValueError(f"unknown method {method!r}")


def _row_predictor(cls, params, row):
    if isinstance(cls, TruncatedLinear):
        return lambda pts: truncate(cls.basis_matrix(pts) @ params, cls.B)
    if isinstance(cls, NeuralNet):
        return lambda pts: cls.predict(params, pts)
    return None  # explicit finite tables are only defined on their sample


def _fit_nn(cls: NeuralNet, points: np.ndarray, targets: np.ndarray, init_seeds) -> np.ndarray:
    """Projected gradient descent for T independent fits at once.

    ``points`` is (T, n, dim), ``targets`` (T, n), with one init seed per
    fit; returns the (T, param_length) fitted parameters.  The step buffers
    are units-major, (T, units, n), so every inner loop runs along the n
    sample points.  Rows never mix: products are per-trial matmuls, the rest
    is elementwise or sums along one trial's own rows, so row t is bit-equal
    to the lone fit of trial t.  The n-long sums (``sig @ resid``, ``common
    @ points`` and the bias gradient) run in another order than a one-fit
    loop over (n, units) arrays: with one unit the result is bit-equal to
    that loop, with more it agrees within 1e-12 in theta after 300 steps.
    """
    if cls.activation != "logistic":
        raise ValueError("projected_gd gradients are implemented for logistic only")
    T, n, d = points.shape
    N = cls.units
    a, b, c = np.empty((T, N, d)), np.empty((T, N)), np.zeros((T, N + 1))
    for t, seed in enumerate(init_seeds):
        rng = np.random.default_rng(seed)
        a[t] = rng.normal(0.0, 1.0, size=(N, d))
        b[t] = rng.normal(0.0, 0.5, size=N)
    # buffers reused by every step: (2 units + 2) n floats per fit
    z, common = np.empty((T, N, n)), np.empty((T, N, n))
    resid, resid2 = np.empty((T, n)), np.empty((T, n))
    grad_a, grad_c = np.empty((T, N, d)), np.empty((T, N + 1))
    # views made once, as per-call costs dominate a one-trial step; updates are in place
    points_t, a_t, z_t = points.transpose(0, 2, 1), a.transpose(0, 2, 1), z.transpose(0, 2, 1)
    b_col, c0, c_row, c_col = b[:, :, None], c[:, :1], c[:, None, 1:], c[:, 1:, None]
    resid_row, resid2_row, resid2_col = resid[:, None, :], resid2[:, None, :], resid2[:, :, None]
    grad_c0, grad_c_col, c_units = grad_c[:, 0], grad_c[:, 1:, None], c[:, 1:]

    step = GD_STEP / n  # objective is a sum; scale keeps steps stable
    for _ in range(GD_ITERATIONS):
        if d == 1:  # the one-term matmul, exactly, at under half its cost
            np.multiply(a, points_t, out=z)
        else:  # into the transposed view: the (n, units) product, bit for bit
            np.matmul(points, a_t, out=z_t)
        z += b_col
        # clip to [-60, 60]; the two ufuncs cost less than np.clip's wrapper
        np.minimum(np.maximum(z, -60, out=z), 60, out=z)
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        sig = np.divide(1.0, z, out=z)
        np.matmul(c_row, sig, out=resid_row)
        resid += c0
        resid -= targets
        np.multiply(np.add.reduce(resid, axis=1), 2.0, out=grad_c0)
        np.multiply(resid, 2.0, out=resid2)
        np.matmul(sig, resid2_col, out=grad_c_col)
        np.subtract(1.0, sig, out=common)  # common = (1 - sig) sig (2 resid) c
        common *= sig
        common *= resid2_row
        common *= c_col
        np.matmul(common, points, out=grad_a)
        a -= np.multiply(grad_a, step, out=grad_a)
        b -= step * np.add.reduce(common, axis=2)
        c -= np.multiply(grad_c, step, out=grad_c)
        if cls.mode == "joint":
            c[...] = _l1_project(c, cls.B)
        else:
            np.minimum(np.maximum(c_units, -cls.B, out=c_units), cls.B, out=c_units)

    return np.concatenate([a.reshape(T, -1), b, c], axis=1)


# ---------------------------------------------------------------------------
# exact risks


def excess_risk_exact(predict: Callable, model: DataModel, n: int) -> float:
    """Average squared distance (1/n) sum_k ||g - phi_k||_k^2.

    Exact for finite-support covariates; for uniform covariates the
    integral uses 64-node Gauss-Legendre quadrature (exact for polynomial
    integrands up to degree 127, negligible error for the smooth bounded
    integrands used here).
    """
    cov = model.covariates
    if cov.kind == "uniform":
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
        x = (nodes + 1.0) * (cov.high - cov.low) / 2.0 + cov.low
        g = np.asarray(predict(x[:, None]), dtype=float).ravel()
        phi = phi_grid(model, x, n)
        per_k = ((g[None, :] - phi) ** 2) @ weights / 2.0
        return float(np.mean(per_k))
    atoms = cov.support
    g = np.asarray(predict(atoms), dtype=float).ravel()
    phi = phi_grid(model, atoms, n)
    pmf = cov.pmf_per_index(n)
    return float(np.mean(np.sum(pmf * (g[None, :] - phi) ** 2, axis=1)))


def risk_of_rows(rows_at_atoms: np.ndarray, model: DataModel, n: int) -> np.ndarray:
    """Exact (1/n) sum_k ||row - phi_k||_k^2 for each row of a value table
    given on the model's finite support."""
    cov = model.covariates
    if cov.kind == "uniform":
        raise ValueError("row risks need finite-support covariates")
    rows = np.atleast_2d(np.asarray(rows_at_atoms, dtype=float))
    phi = phi_grid(model, cov.support, n)  # (n, s)
    pmf = cov.pmf_per_index(n)  # (n, s)
    diff = rows[:, None, :] - phi[None, :, :]  # (m, n, s)
    return np.mean(np.sum(pmf[None] * diff**2, axis=2), axis=1)


# ---------------------------------------------------------------------------
# proof-side diagnostics


@dataclass(frozen=True)
class ProofFunctionals:
    """Per-row centered deviations, their max, and the level indices."""

    w_h: np.ndarray
    w: float
    k_h: np.ndarray


def proof_functionals(
    values: np.ndarray, expectations: np.ndarray, u_signs: np.ndarray
) -> ProofFunctionals:
    """Deviation functionals of a realized table.

    w_h = u . (E h - h(z)) per row, w = max over rows, and k_h the smallest
    integer k in 0..n with w_h <= k w / n (0 whenever w_h <= 0).
    """
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    exps = np.atleast_2d(np.asarray(expectations, dtype=float))
    u = np.asarray(u_signs, dtype=float).ravel()
    if vals.shape != exps.shape or vals.shape[1] != u.size:
        raise ValueError("values, expectations and u_signs shapes disagree")
    n = vals.shape[1]
    w_h = (exps - vals) @ u
    w = float(np.max(w_h))
    k_h = np.zeros(len(w_h), dtype=np.int64)
    for j, wh in enumerate(w_h):
        if wh <= 0:
            continue
        # here w >= wh > 0
        k = min(int(math.ceil(n * wh / w)), n)
        while k > 1 and wh <= (k - 1) * w / n:
            k -= 1
        while wh > k * w / n and k < n:
            k += 1
        k_h[j] = k
    return ProofFunctionals(w_h=w_h, w=w, k_h=k_h)


# ---------------------------------------------------------------------------
# exact enumerations over small discrete product laws


def enumerate_product_states(pmf: np.ndarray) -> tuple:
    """All state combinations of a product law with per-index pmfs.

    pmf is (n, s); returns (states (s^n, n), probs (s^n,)).  Intended for
    desk-scale oracles (s^n small).
    """
    pmf = np.atleast_2d(np.asarray(pmf, dtype=float))
    n, s = pmf.shape
    if s**n > _ENUM_LIMIT:
        raise ValueError(f"s^n = {s**n} too large to enumerate")
    grids = np.meshgrid(*[np.arange(s)] * n, indexing="ij")
    states = np.stack([g.ravel() for g in grids], axis=1)
    probs = np.prod(pmf[np.arange(n)[None, :], states], axis=1)
    return states, probs


def exact_average_complexity(values_at_atoms: np.ndarray, pmf: np.ndarray) -> float:
    """Exact averaged Rademacher complexity E_Z E_U max_j U . h_j(Z).

    ``values_at_atoms`` is (m, s): function j's value on atom i; ``pmf`` is
    (n, s): the independent per-index atom distribution.  Enumerates the
    (2s)^n (sign, atom) combinations in the budgeted meet-in-the-middle
    kernel of ``rademacher_exact`` (agreeing with a direct enumeration to
    about 1e-15 relative); refuses when (2s)^n exceeds the enumeration cap.
    """
    vals = np.atleast_2d(np.asarray(values_at_atoms, dtype=float))
    pmf = np.atleast_2d(np.asarray(pmf, dtype=float))
    m, s = vals.shape
    n = pmf.shape[0]
    if pmf.shape[1] != s:
        raise ValueError("pmf columns must match the atom count")
    if (2 * s) ** n > _ENUM_LIMIT:
        raise ValueError(
            f"(2s)^n = {(2 * s) ** n} exceeds the enumeration cap; "
            "use rademacher_mc on sampled tables instead"
        )
    return _expected_max(np.broadcast_to(vals.T, (n, s, m)), pmf)


# ---------------------------------------------------------------------------
# coverage experiments


@dataclass(frozen=True)
class CoverageReport:
    """Outcome of a repeated bound-vs-realized-risk comparison."""

    trials: int
    failures: int
    delta: float
    bound_formula: str
    empirical_coverage: float
    binomial_se: float
    base_seed: int
    bound_value: float | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.failures > self.trials:
            raise ValueError("failures cannot exceed trials")

    def to_json(self) -> dict:
        doc = {
            "trials": self.trials,
            "failures": self.failures,
            "delta": self.delta,
            "bound_formula": self.bound_formula,
            "empirical_coverage": self.empirical_coverage,
            "binomial_se": self.binomial_se,
            "base_seed": self.base_seed,
            "bound_value": self.bound_value,
            "details": _jsonable(self.details),
        }
        return doc


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


_TRIAL_CHUNK_BYTES = 1 << 24  # working memory of one chunk of coverage trials


def _run_trials(
    name, model, n, delta, trials, base_seed, bound, statistic, details, work_floats=0
) -> CoverageReport:
    """The coverage-trial engine shared by every experiment.

    Trial t draws its sample from seed (base_seed, t).  ``statistic(draws,
    ts)`` maps the (sample, states) draws of trials ``ts`` to one result per
    trial: a value, or a row whose first entry is the value compared with
    ``bound``; ``details(results)`` gives the report's own entries.  Trials
    run in chunks of about ``_TRIAL_CHUNK_BYTES``, counting the sample and
    ``work_floats`` more float64s per sample point; trials are independent,
    so the chunking changes no result.
    """
    sup = model.covariates.support
    point_bytes = 8 * ((1 if sup is None else sup.shape[1]) + 2 + work_floats)
    chunk = max(1, _TRIAL_CHUNK_BYTES // (n * point_bytes))
    results = []
    for start in range(0, trials, chunk):
        ts = range(start, min(start + chunk, trials))
        draws = []
        for t in ts:
            try:
                seed = np.random.SeedSequence([base_seed, t])
                draws.append(generate_with_states(model, n, seed))
            except Exception as exc:
                raise RuntimeError(
                    f"trial {t} failed (replay seed [{base_seed}, {t}]): {exc}"
                ) from exc
        results.append(np.asarray(statistic(draws, ts), dtype=float))
    results = np.concatenate(results)
    per_trial = np.ascontiguousarray(results.reshape(trials, -1)[:, 0])
    failed = np.flatnonzero(per_trial > bound).tolist()
    coverage = 1.0 - len(failed) / trials
    return CoverageReport(
        trials=trials,
        failures=len(failed),
        delta=delta,
        bound_formula=name,
        empirical_coverage=coverage,
        binomial_se=math.sqrt(max(coverage * (1.0 - coverage), 0.0) / trials),
        base_seed=base_seed,
        bound_value=bound,
        details={**details(results), "failed_trials": failed, "per_trial": per_trial},
    )


def coverage_experiment(config: dict) -> CoverageReport:
    """Run a declarative coverage experiment.

    ``config`` keys: 'bound' (formula id), 'model' (model document or
    DataModel), 'trials', 'base_seed', 'delta', 'n', plus bound-specific
    entries:

    - rademacher_ci: 'values' (m x s finite-class atom table),
      optional 'nonnegative_family';
    - bounded_class_ci: 'class' (TruncatedLinear or its JSON document),
      'c' and 'lam' (or 'use_optimized_constants': true);
    - mixing_rademacher_ci: 'values' and 'rate_r';
    - nn_generalization_ci: 'class' (NeuralNet), reported-only semantics.

    Per-trial randomness derives from (base_seed, trial index); the report
    is bit-identical across runs with the same config.
    """
    trials = int(config["trials"])
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    bound = config["bound"]
    model = config["model"]
    if isinstance(model, dict):
        model = model_from_json(model)
    n = int(config["n"])
    delta = float(config["delta"])
    base_seed = int(config.get("base_seed", 0))
    # each returns the bound, statistic, details [, work floats] of _run_trials
    experiments = {
        "rademacher_ci": _experiment_rademacher_ci,
        "bounded_class_ci": _experiment_bounded_class_ci,
        "mixing_rademacher_ci": _experiment_mixing_ci,
        "nn_generalization_ci": _experiment_nn_ci,
    }
    if bound not in experiments:
        raise ValueError(f"unknown bound formula {bound!r}")
    setup = experiments[bound](config, model, n, delta)
    return _run_trials(bound, model, n, delta, trials, base_seed, *setup)


def _class_values_from_config(config) -> np.ndarray:
    vals = np.atleast_2d(np.asarray(config["values"], dtype=float))
    if vals.size == 0:
        raise ValueError("experiment needs a nonempty finite-class table")
    return vals


def _excess_statistic(vals: np.ndarray, pop: np.ndarray):
    """Per-trial excess population sum ``pop`` of the empirical-sum minimizer
    over a finite table of atom values (ties to the lowest row)."""
    best = pop[int(np.argmin(pop))]
    return lambda draws, ts: [pop[np.argmin(vals[:, s].sum(axis=1))] - best for _, s in draws]


def _experiment_rademacher_ci(config, model, n, delta):
    """Empirical-minimizer excess expected loss vs the Rademacher interval.

    The class is a finite table of functions on the model's atoms; the
    interval uses the exact averaged complexity (full enumeration) and the
    exact envelope, so the comparison has no estimation slack.
    """
    if model.covariates.kind not in ("discrete",):
        raise ValueError("rademacher_ci experiment needs discrete covariates")
    vals = _class_values_from_config(config)
    if vals.shape[1] != model.covariates.n_states:
        raise ValueError("class table columns must match the atom count")
    pmf = model.covariates.pmf_per_index(n)  # (n, s)
    expectations = pmf @ vals.T  # (n, m)
    pop_sums = expectations.sum(axis=0)  # (m,)
    env_atom = np.max(np.abs(vals), axis=0)  # (s,)
    supported_sq = np.where(pmf > 0, env_atom[None, :] ** 2, 0.0)
    env_l2_sup = math.sqrt(float(np.sum(np.max(supported_sq, axis=1))))
    rad_ave = exact_average_complexity(vals, pmf)
    inputs = br.RademacherCIInputs(
        n=n,
        envelope_l2_sup=env_l2_sup,
        rad=rad_ave,
        delta=delta,
        nonnegative_family=bool(config.get("nonnegative_family", False)),
    )
    ci = br.rademacher_ci(inputs)

    return ci, _excess_statistic(vals, pop_sums), lambda excess: {
        "rad_ave": rad_ave,
        "envelope_l2_sup": env_l2_sup,
        "max_excess": float(np.max(excess)),
    }


def _experiment_bounded_class_ci(config, model, n, delta):
    """Realized risk of exact grid ERM vs the bounded-class interval.

    The hypothesis class is the finite grid itself, so ERM, the inf-class
    risk and the realized risk are all exact; log a comes from the entropy
    plug-in at V = (span dimension + 1).
    """
    if model.covariates.kind != "discrete":
        raise ValueError("bounded_class_ci experiment needs discrete covariates")
    cls = config["class"]
    if isinstance(cls, (str, dict)):
        cls = class_from_json(cls)
    if not isinstance(cls, TruncatedLinear):
        raise ValueError("bounded_class_ci experiment needs a TruncatedLinear class")
    if cls.span_dim > 3:
        raise ValueError("inf-class risk is exact only for span dimension <= 3 grids")

    if config.get("use_optimized_constants", False):
        consts = bv.optimize_v()
        c, lam = consts.c0, consts.lambda0
    else:
        c, lam = float(config["c"]), float(config["lam"])
    params = bv.BoundParams(n=n, B=cls.B, delta=delta, c=c, lam=lam)

    atoms = model.covariates.support
    table = evaluate_class(cls, SequentialSample(points=atoms))
    risks = risk_of_rows(table.values, model, n)
    inf_risk = float(np.min(risks))

    V = vc_dimension_bound(cls)
    entropy = EntropyEstimate.vc(V, cls.B)
    log_a = bv.log_a_from_entropy(params, entropy)
    bound = bv.bounded_class_ci(params, inf_risk, log_a)

    def realized_risk(draws, ts):  # exact grid ERM on each trial's sample
        out = []
        for sample, states in draws:
            targets = truncate(sample.responses, cls.B)
            emp = np.sum((table.values[:, states] - targets[None, :]) ** 2, axis=1)
            out.append(risks[np.argmin(emp)])
        return out

    return bound, realized_risk, lambda realized: {
        "c": c,
        "lam": lam,
        "inf_risk": inf_risk,
        "log_a": log_a,
        "max_risk": float(np.max(realized)),
    }


_BLOCK_ENUM_MAX = 10


def _experiment_mixing_ci(config, model, n, delta):
    """Excess expected loss on a mixing chain vs the blocked interval.

    Block inputs: the envelope is exact; the per-block complexity is exact
    (enumeration over the stationary product law) for block sizes up to 10
    and the finite-class max bound above, which only widens the interval.
    """
    if model.kind != "markov_chain":
        raise ValueError("mixing experiment needs a markov_chain model")
    vals = _class_values_from_config(config)
    P = model.covariates.transition
    if vals.shape[1] != P.shape[0]:
        raise ValueError("class table columns must match the state count")
    rate_r = float(config["rate_r"])
    pi = stationary_distribution(P)

    m_hat = math.ceil(math.log(2.0 * n / delta) / math.log(rate_r))
    beta = markov_beta_of_lag(P, pi, m_hat)
    if beta > rate_r ** (-float(m_hat)) + 1e-15:
        raise ValueError(
            f"beta({m_hat}) = {beta:.3g} exceeds r^-m = {rate_r ** -m_hat:.3g}; "
            "rate_r is too optimistic for this chain"
        )

    sizes = sorted({len(b) for b in block_indices(n, m_hat)})
    env_atom = np.max(np.abs(vals), axis=0)
    env_max = math.sqrt(max(sizes) * float(np.max(env_atom[pi > 0] ** 2)))
    rads = []
    for L in sizes:
        if (2 * vals.shape[1]) ** L <= _ENUM_LIMIT and L <= _BLOCK_ENUM_MAX:
            rads.append(exact_average_complexity(vals, np.tile(pi, (L, 1))))
        else:
            worst = np.tile(np.max(np.abs(vals), axis=1)[:, None], (1, L))
            rads.append(massart_bound(FunctionTable(worst)))
    rad_max = float(np.max(rads))

    ci = br.mixing_rademacher_ci(n, delta, rate_r, env_max, rad_max)

    pop_sums = n * (vals @ pi)  # (m,)
    return ci, _excess_statistic(vals, pop_sums), lambda excess: {
        "m_hat": m_hat,
        "beta_m": beta,
        "block_sizes": sizes,
        "max_block_env": env_max,
        "max_block_rad": rad_max,
        "max_excess": float(np.max(excess)),
    }


def _experiment_nn_ci(config, model, n, delta):
    """Reported-only: heuristic network ERM vs the width-only interval.

    The fitted network is a projected-gradient iterate, not a certified
    minimizer, so failures here are attributed to optimization error; the
    report carries the mean empirical-loss residual against the generating
    parameters for that purpose (null when no 'truth_params' are given).
    """
    cls = config["class"]
    if isinstance(cls, (str, dict)):
        cls = class_from_json(cls)
    if not isinstance(cls, NeuralNet):
        raise ValueError("nn experiment needs a NeuralNet class")
    truth = config.get("truth_params")
    truth = None if truth is None else np.asarray(truth, dtype=float)

    width = br.nn_generalization_ci(n=n, d=cls.dim, B=cls.B, delta=delta)
    inf_risk = float(config.get("inf_risk", 0.0))
    bound = inf_risk + width

    def loss(theta, x, y):
        return float(np.sum((cls.predict(theta, x) - y) ** 2))

    def risk_and_residual(draws, ts):  # one batched fit; trial t's init seed is 1_000_003 + t
        points = np.stack([sample.points.reshape(-1, cls.dim) for sample, _ in draws])
        targets = np.stack([truncate(sample.responses, cls.B) for sample, _ in draws])
        thetas = _fit_nn(cls, points, targets, [1_000_003 + t for t in ts])
        rows = []
        for theta, x, y in zip(thetas, points, targets):
            risk = excess_risk_exact(lambda pts: cls.predict(theta, pts), model, n)
            residual = math.nan if truth is None else loss(theta, x, y) - loss(truth, x, y)
            rows.append((risk, residual))
        return rows

    def details(results):
        risks, residuals = np.ascontiguousarray(results.T)
        return {
            "width": width,
            "inf_risk": inf_risk,
            "optimality": "heuristic",
            "mean_risk": float(np.mean(risks)),
            "mean_optimization_residual": None if truth is None else float(np.mean(residuals)),
        }

    # per sample point: the stacked points and targets, and the fit's 2 units + 2 buffers
    return bound, risk_and_residual, details, cls.dim + 2 * cls.units + 3
