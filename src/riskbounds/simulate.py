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
from .bounds_rademacher import _block_count
from ._documents import _from_doc, _read_document, _read_field
from .covering import EntropyEstimate
from .hypothesis import (
    FunctionTable,
    HypothesisClass,
    NeuralNet,
    SequentialSample,
    TruncatedLinear,
    _array_field,
    _distribution,
    _refuse_unread,
    _to_doc,
    evaluate_class,
    truncate,
    vc_dimension_bound,
)
from .mixing import (
    _check_stochastic, block_indices, markov_beta_of_lag, sample_chain, stationary_distribution,
)
from .rademacher import _WORK_BYTES, massart_bound

__all__ = [
    "NoiseSpec",
    "CovariateSpec",
    "MeanSpec",
    "DataModel",
    "model_from_json",
    "generate_with_states",
    "ERMResult",
    "erm_fit",
    "excess_risk_exact",
    "exact_average_complexity",
    "CoverageReport",
    "coverage_experiment",
]

GAUSS_NODES = 64
_COUNT_LAW_MAX = 1 << 19  # cap on the count-law DP's candidates over all its steps


# ---------------------------------------------------------------------------
# data model definitions


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise: none, finite symmetric-support atoms, or uniform.  A
    field the kind does not read must hold its default."""

    kind: str = "none"
    values: np.ndarray | None = None
    probs: np.ndarray | None = None
    half_width: float = 0.0

    def __post_init__(self):
        unread = {"none": ("values", "probs", "half_width"), "discrete": ("half_width",),
                  "uniform": ("values", "probs")}
        if self.kind not in unread:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        _refuse_unread(self, unread[self.kind], f"noise kind {self.kind!r}")
        if self.kind == "discrete":
            v = _array_field(self.values, "values", "discrete noise")
            p = _distribution(self.probs, "probs", "discrete noise")
            if v.shape != p.shape:
                raise ValueError("discrete noise needs matching values/probs")
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "probs", p)
        if self.kind == "uniform" and self.half_width <= 0:
            raise ValueError("uniform noise needs half_width > 0")


@dataclass(frozen=True)
class CovariateSpec:
    """Covariate law: finite support (optionally per-index drifting pmf),
    an interval uniform, or a finite-state Markov chain.

    For ``kind='discrete'`` with ``probs_end`` set, the pmf interpolates
    linearly from ``probs`` at index 1 to ``probs_end`` at index n.  A field
    the kind does not read must hold its default.
    """

    kind: str
    support: np.ndarray | None = None
    probs: np.ndarray | None = None
    probs_end: np.ndarray | None = None
    low: float = 0.0
    high: float = 1.0
    transition: np.ndarray | None = None

    def __post_init__(self):
        unread = {"discrete": ("transition", "low", "high"),
                  "uniform": ("support", "probs", "probs_end", "transition"),
                  "markov": ("probs", "probs_end", "low", "high")}
        if self.kind not in unread:
            raise ValueError(f"unknown covariate kind {self.kind!r}")
        _refuse_unread(self, unread[self.kind], f"covariate kind {self.kind!r}")
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
            owner = "discrete covariates"
            object.__setattr__(self, "probs", _distribution(self.probs, "probs", owner, s))
            if self.probs_end is not None:
                q = _distribution(self.probs_end, "probs_end", owner, s)
                object.__setattr__(self, "probs_end", q)
        else:  # markov
            P = _check_stochastic(self.transition)
            if P.shape != (s, s):
                raise ValueError(f"field 'transition' must be ({s}, {s}): a row per support atom")
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
    """Regression function: affine in the covariate (``coeffs``), or a
    per-atom table (``values``); the other field must be null."""

    kind: str = "affine"
    coeffs: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        unread = {"affine": ("values",), "atom_table": ("coeffs",)}
        if self.kind not in unread:
            raise ValueError(f"unknown mean kind {self.kind!r}")
        _refuse_unread(self, unread[self.kind], f"mean kind {self.kind!r}")
        if self.kind == "affine":
            c = _array_field(self.coeffs, "coeffs", "affine mean")
            if c.size < 1:
                raise ValueError("affine mean needs coeffs [a0, a1, ..]")
            object.__setattr__(self, "coeffs", c)
        else:
            v = _array_field(self.values, "values", "atom_table mean")
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
        f = pts @ self.coeffs[1:]
        f += self.coeffs[0]  # in place: no second (points,) array
        return f

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
    # a document whose mean or noise is null, absent or empty reads these
    mean: MeanSpec = field(metadata={"empty": {"kind": "affine", "coeffs": [0.0]}})
    noise: NoiseSpec = field(metadata={"empty": {"kind": "none"}})
    B: float
    drift: tuple | None = None

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
        if self.mean.kind == "atom_table" and len(self.mean.values) != self.covariates.n_states:
            raise ValueError(f"field 'mean.values' must hold one value per support atom "
                             f"({self.covariates.n_states}), got {len(self.mean.values)}")
        if self.kind == "iid" and (
            self.drift is not None or self.covariates.probs_end is not None
        ):
            raise ValueError("iid models cannot carry index drift")
        if self.drift is not None and (len(self.drift) != 2
                                       or any(np.ndim(v) for v in self.drift)):
            raise ValueError(f"field 'drift' must be (start, end), got {self.drift!r}")

    def drift_offsets(self, n: int) -> np.ndarray:
        if self.drift is None:
            return np.zeros(n)
        start, end = self.drift
        return np.linspace(float(start), float(end), n) if n > 1 else np.array([float(start)])


def model_from_json(doc: dict) -> DataModel:
    """The model from its JSON document, which holds exactly the fields of
    ``DataModel``; a null, absent or empty mean is zero, noise none."""
    return _from_doc(DataModel, doc, "model")


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


# ---------------------------------------------------------------------------
# sampling


def _draw_trials(model: DataModel, n: int, seeds) -> tuple:
    """Trial t's sample from ``default_rng(seeds[t])`` alone, covariates then
    noise: points (T, n, dim), responses (T, n) and atom indices (T, n), or
    None for uniform covariates."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    cov, noise = model.covariates, model.noise
    states = None
    if cov.kind == "uniform":
        x = np.array([rng.uniform(cov.low, cov.high, size=n) for rng in rngs])[..., None]
    elif cov.kind == "markov":
        states = sample_chain(cov.transition, n, rngs)
    elif cov.probs_end is None:
        states = np.array([rng.choice(cov.n_states, size=n, p=cov.probs) for rng in rngs])
    else:
        cum = np.cumsum(cov.pmf_per_index(n), axis=1)
        states = np.array([(rng.random(n)[:, None] > cum).sum(axis=1) for rng in rngs])
    if states is not None:
        x = cov.support[states]

    f = (model.mean.values[states] if model.mean.kind == "atom_table"
         else model.mean.at_points(x.reshape(-1, x.shape[2])).reshape(len(rngs), n))
    f += model.drift_offsets(n)

    for row, rng in zip(f, rngs):  # noise comes after the covariates in each stream
        if noise.kind == "discrete":
            row += rng.choice(noise.values, size=n, p=noise.probs)
        elif noise.kind == "uniform":
            row += rng.uniform(-noise.half_width, noise.half_width, size=n)
    return x, f, states


def generate_with_states(model: DataModel, n: int, seed) -> tuple:
    """Sample the model and its atom indices (None for uniform covariates),
    bit-for-bit reproducible from the seed: the one-seed ``_draw_trials``."""
    x, y, states = _draw_trials(model, n, [seed])
    return SequentialSample(points=x[0], responses=y[0]), states if states is None else states[0]


# ---------------------------------------------------------------------------
# ERM


@dataclass(frozen=True)
class ERMResult:
    """A projected-GD network fit: its empirical squared loss, parameters,
    predictor and step count.  The iterate is heuristic, with no
    global-minimality guarantee."""

    empirical_loss: float
    coeffs: np.ndarray
    predict: Callable
    iterations: int


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
    cls: NeuralNet,
    sample: SequentialSample,
    method: str = "projected_gd",
    init_seed: int = 0,
) -> ERMResult:
    """One network coverage trial's fit, replayed alone: squared-loss
    projected gradient descent over a NeuralNet class.

    Responses are truncated to [-B, B] before fitting.  ``method`` must be
    'projected_gd'.  The fit takes GD_ITERATIONS fixed-size steps, projecting
    the output weights onto their constraint set after each one; it is
    heuristic, with no optimality claim.  The start is drawn from
    ``default_rng(init_seed)``.  The sample's repeated points are merged by
    ``_merge_points`` and the batched network kernel ``_fit_nn`` steps on the
    distinct points with their counts, here for a single trial, so a coverage
    trial's fit replays exactly through this call.  With every point distinct
    the arithmetic is the one-fit loop's over (n, units) arrays but for the
    order of the n-long sums: bit-equal with one unit, within 1e-12 in the
    parameters after 300 steps with more.  Merged points sum in another order
    again, within the same 1e-12.
    """
    if sample.responses is None:
        raise ValueError("erm_fit needs responses")
    if method != "projected_gd":
        raise ValueError(f"unknown method {method!r}; erm_fit fits by 'projected_gd' only")
    if not isinstance(cls, NeuralNet):
        raise ValueError(f"projected_gd requires a NeuralNet class, got {type(cls).__name__}")
    targets = truncate(sample.responses, cls.B)
    x = sample.points.reshape(-1, cls.dim)
    merged = (a[None] for a in _merge_points(x, targets))
    theta = _fit_nn(cls, *merged, [init_seed])[0]
    return ERMResult(
        empirical_loss=float(np.sum((cls.predict(theta, x) - targets) ** 2)),
        coeffs=theta,
        predict=lambda pts: cls.predict(theta, pts),
        iterations=GD_ITERATIONS,
    )


def _merge_points(x: np.ndarray, targets: np.ndarray) -> tuple:
    """One sample's distinct points (k, dim) in first-occurrence order, how
    often each occurs and the sum of its targets, both (k,) floats from
    ``np.bincount``.  With every point distinct these are the points, counts
    of 1.0 and the targets (a sum starts at 0.0, so -0.0 gives 0.0)."""
    _, first, inverse = np.unique(x, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ids = rank[inverse.ravel()]
    return x[first[order]], np.bincount(ids).astype(float), np.bincount(ids, weights=targets)


def _fit_nn(cls: NeuralNet, points: np.ndarray, counts: np.ndarray, sums: np.ndarray,
            init_seeds) -> np.ndarray:
    """Projected gradient descent for T independent fits at once, each on its
    sample's distinct points.

    ``points`` is (T, k, dim); ``counts`` and ``sums`` (T, k) hold how often
    each point occurs in its sample and the sum of its truncated targets, as
    ``_merge_points`` gives them; one init seed per fit.  Returns the (T,
    param_length) fitted parameters.  The loss is the squared loss over the
    sample's n points (a row sum of ``counts``, one n for all fits): its
    gradient takes the residual (c . sig + c0) * count - sum at each
    distinct point, and steps are GD_STEP / n.  With every count 1.0 that is
    the per-point residual bit for bit, as multiplying by 1.0 is exact;
    merged points add their terms in another order, within 1e-12 in theta
    after 300 steps.

    The step buffers are units-major, (T, units, k), so every inner loop runs
    along the k points.  Rows never mix: products are per-trial matmuls, the
    rest is elementwise or sums along one trial's own rows, so row t is
    bit-equal to the lone fit of trial t.  The k-long sums (``sig @ resid``,
    ``common @ points`` and the bias gradient) run in another order than a
    one-fit loop over (k, units) arrays: with one unit the result is
    bit-equal to that loop, with more it agrees within 1e-12 in theta after
    300 steps.
    """
    T, k, d = points.shape
    N = cls.units
    a, b, c = np.empty((T, N, d)), np.empty((T, N)), np.zeros((T, N + 1))
    for t, seed in enumerate(init_seeds):
        rng = np.random.default_rng(seed)
        a[t] = rng.normal(0.0, 1.0, size=(N, d))
        b[t] = rng.normal(0.0, 0.5, size=N)
    # buffers reused by every step: (2 units + 2) k floats per fit
    z, common = np.empty((T, N, k)), np.empty((T, N, k))
    resid, resid2 = np.empty((T, k)), np.empty((T, k))
    grad_a, grad_c = np.empty((T, N, d)), np.empty((T, N + 1))
    # views made once, as per-call costs dominate a one-trial step; updates are in place
    points_t, a_t, z_t = points.transpose(0, 2, 1), a.transpose(0, 2, 1), z.transpose(0, 2, 1)
    b_col, c0, c_row, c_col = b[:, :, None], c[:, :1], c[:, None, 1:], c[:, 1:, None]
    resid_row, resid2_row, resid2_col = resid[:, None, :], resid2[:, None, :], resid2[:, :, None]
    grad_c0, grad_c_col, c_units = grad_c[:, 0], grad_c[:, 1:, None], c[:, 1:]

    step = GD_STEP / float(counts[0].sum())  # objective is a sum; scale keeps steps stable
    for _ in range(GD_ITERATIONS):
        if d == 1:  # the one-term matmul, exactly, at under half its cost
            np.multiply(a, points_t, out=z)
        else:  # into the transposed view: the (k, units) product, bit for bit
            np.matmul(points, a_t, out=z_t)
        z += b_col
        # clip to [-60, 60]; the two ufuncs cost less than np.clip's wrapper
        np.minimum(np.maximum(z, -60, out=z), 60, out=z)
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        sig = np.divide(1.0, z, out=z)
        np.matmul(c_row, sig, out=resid_row)
        resid += c0
        resid *= counts
        resid -= sums
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
    return float(risk_of_rows(predict(cov.support), model, n)[0])


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
# exact count laws of small discrete product laws


def _count_law_fits(n: int, cells: int) -> bool:
    """Whether ``_count_law`` serves n draws over c cells: its keys fit int64 and c C(n + c, c),
    which bounds each step's candidates, its work and its memory, is ``_COUNT_LAW_MAX`` or less."""
    return (cells < 64 and (n + 1) ** cells < 1 << 63  # the guard skips huge powers
            and cells * math.comb(n + cells, cells) <= _COUNT_LAW_MAX)


def _count_law(cell_probs: np.ndarray) -> tuple:
    """Law of the cell counts of n independent draws, draw k landing in cell a with
    probability cell_probs[k, a]: count vectors (S, c) and probabilities (S,).  A DP
    over the draws on keys sum_a count_a (n + 1)^a, merged by np.unique and np.bincount."""
    n, c = cell_probs.shape
    radix = (n + 1) ** np.arange(c, dtype=np.int64)
    keys, probs = np.zeros(1, dtype=np.int64), np.ones(1)
    for q in cell_probs:
        live = np.flatnonzero(q)
        keys, inverse = np.unique(keys[:, None] + radix[live], return_inverse=True)
        probs = np.bincount(inverse.ravel(), weights=(probs[:, None] * q[live]).ravel())
    counts = keys[:, None] // radix
    counts %= n + 1
    return counts, probs


def exact_average_complexity(values_at_atoms: np.ndarray, pmf: np.ndarray) -> float:
    """Exact averaged Rademacher complexity E_Z E_U max_j U . h_j(Z).

    ``values_at_atoms`` is (m, s): function j's value on atom i; ``pmf`` is
    (n, s): the independent per-index atom distribution.  The sums depend only
    on the counts in the 2s (atom, sign) cells: this is probs @ max(counts @
    [vals^T; -vals^T]) over ``_count_law``, in ``_WORK_BYTES`` row blocks beside
    the law's own 8 MiB at most.  It refuses what ``_count_law_fits`` does not
    serve, and agrees with a sum over the (2s)^n sequences to about 1e-15.
    """
    vals = np.atleast_2d(np.asarray(values_at_atoms, dtype=float))
    pmf = np.atleast_2d(np.asarray(pmf, dtype=float))
    m, s = vals.shape
    n = pmf.shape[0]
    if pmf.shape[1] != s:
        raise ValueError("pmf columns must match the atom count")
    if not _count_law_fits(n, 2 * s):
        raise ValueError(
            f"n={n} draws over {2 * s} (atom, sign) cells exceed the count-law cap; "
            "use rademacher_mc on sampled tables instead"
        )
    counts, probs = _count_law(np.hstack([pmf, pmf]) / 2.0)
    signed, rows = np.vstack([vals.T, -vals.T]), max(1, _WORK_BYTES // (8 * (2 * s + m)))
    return float(sum(probs[i : i + rows] @ np.max(counts[i : i + rows] @ signed, axis=1)
                     for i in range(0, len(probs), rows)))


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
        return _to_doc(self)


_TRIAL_CHUNK_BYTES = 1 << 24  # working memory of one chunk of coverage trials


def _trial_chunks(trials: int, base_seed: int, trial_bytes: int):
    """Each chunk's trial range and the trials' ``SeedSequence([base_seed, t])``
    seeds, as many trials per chunk as fit ``_TRIAL_CHUNK_BYTES`` at
    ``trial_bytes`` of working memory per trial (at least one)."""
    chunk = max(1, _TRIAL_CHUNK_BYTES // trial_bytes)
    for start in range(0, trials, chunk):
        ts = range(start, min(start + chunk, trials))
        yield ts, [np.random.SeedSequence([base_seed, t]) for t in ts]


def _run_trials(
    name, model, n, delta, trials, base_seed, bound, statistic, details, work_floats
) -> CoverageReport:
    """The coverage-trial engine shared by every experiment.

    Trial t draws its sample from seed (base_seed, t).  ``statistic(*draws,
    ts)`` maps the ``_draw_trials`` arrays of trials ``ts`` to one result per
    trial: a value, or a row whose first entry is the value compared with
    ``bound``; ``details(results)`` gives the report's own entries.  Trials
    run in chunks of about ``_TRIAL_CHUNK_BYTES``, counting the sample and
    ``work_floats`` more float64s per sample point; trials are independent,
    so the chunking changes no result.
    """
    sup = model.covariates.support
    point_bytes = 8 * ((1 if sup is None else sup.shape[1]) + 2 + work_floats)
    results = []
    for ts, seeds in _trial_chunks(trials, base_seed, n * point_bytes):
        try:
            draws = _draw_trials(model, n, seeds)
        except Exception:  # draw each trial alone to name the one that fails
            for t, seed in zip(ts, seeds):
                try:
                    _draw_trials(model, n, [seed])
                except Exception as exc:
                    msg = f"trial {t} failed (replay seed [{base_seed}, {t}]): {exc}"
                    raise RuntimeError(msg) from exc
            raise
        results.append(np.asarray(statistic(*draws, ts), dtype=float))
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
    - bounded_class_ci: 'class' (TruncatedLinear or its JSON object),
      'c' and 'lam', or else 'use_optimized_constants': true;
    - mixing_rademacher_ci: 'values' and 'rate_r';
    - nn_generalization_ci: 'class' (NeuralNet), reported-only semantics.

    Per-trial randomness derives from (base_seed, trial index); the report
    is bit-identical across runs with the same config.  The tag 'bound' is
    read first, then the whole config in one ``_read_document`` call against
    the common fields and the chosen bound's, which refuses any other key;
    'base_seed' defaults to 0.
    """
    bound = _read_field(config, "bound", str, "coverage")
    if bound not in _EXPERIMENTS:
        raise ValueError(f"coverage: unknown bound formula {bound!r}")
    experiment, kinds = _EXPERIMENTS[bound]
    fields = _read_document(config, {"bound": str, "model": DataModel, "n": int, "trials": int,
                                     "delta": float, "base_seed": int | None, **kinds}, "coverage")
    model, n, trials, delta = fields["model"], fields["n"], fields["trials"], fields["delta"]
    if n < 1:
        raise ValueError(f"coverage: field 'n' must be >= 1, got {n}")
    if trials < 100:
        raise ValueError(f"coverage: field 'trials' must be >= 100, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"coverage: field 'delta' must lie in (0, 1), got {delta}")
    base_seed = fields.get("base_seed", 0)
    if base_seed < 0:
        raise ValueError(f"coverage: field 'base_seed' must be >= 0, got {base_seed}")
    setup = experiment(fields, model, n, delta)
    return _run_trials(bound, model, n, delta, trials, base_seed, *setup)


def _value_table(values: np.ndarray) -> np.ndarray:
    """The field 'values' as a table, one row per function."""
    vals = np.atleast_2d(values)
    if vals.ndim != 2:
        raise ValueError("coverage: field 'values' must be a table, one row per function, "
                         f"got an array of shape {vals.shape}")
    return vals


_TIE_MARGIN = 4.0  # count-form gaps at or below this many e take the per-point sum


def _erm_rows(vals: np.ndarray, states: np.ndarray, targets=None, B: float = 0.0) -> np.ndarray:
    """Per trial of a chunk, the row of the finite table ``vals`` (m, s atoms)
    that minimizes the trial's empirical sum, ties to the lowest row.

    The sum is ``vals[:, s].sum(1)`` over the trial's atom indices s, or with
    ``targets`` (truncated responses, |y| <= B) the squared loss
    ``((vals[:, s] - y) ** 2).sum(1)``.  The kernel forms it from each
    trial's atom counts cnt and per-atom target sums ysum, two
    ``np.bincount`` calls over the chunk: ``cnt @ vals.T``, or
    ``cnt @ (vals**2).T - 2 ysum @ vals.T`` (the sum of y^2 is the same for
    every row and is left out).  This adds in another order than the
    per-point sum.  By the summation bound gamma_k * sum|terms|, with
    gamma_k = k u / (1 - k u), u = 2^-53, k = n + s + 3 (at least the
    roundings on any term's path in either form) and M = max(max|vals|, B),
    each form's row sums lie within

        e = gamma_k * n * M          (linear sum; sum|terms| <= n M),
        e = gamma_k * 4 * n * M**2   (squared loss; <= 4 n M^2 per point,
                                      <= 3 n M^2 by counts)

    of the exact ones.  So when a trial's best count-form sum is more than 2e
    below its second best, the per-point sum has the same unique argmin.
    A trial whose gap is at most ``_TIE_MARGIN`` * e = 4e, exact ties and
    non-finite sums included, takes its row from the per-point sum itself.
    Returns the (T,) row indices; holds one (T, n) index array beside the
    chunk.
    """
    T, n = states.shape
    m, s = vals.shape
    flat = (states + s * np.arange(T)[:, None]).ravel()  # (trial, atom) bins
    cnt = np.bincount(flat, minlength=T * s).reshape(T, s).astype(float)
    M = max(float(np.max(np.abs(vals))), B)
    if targets is None:
        sums, terms = cnt @ vals.T, n * M
    else:
        ysum = np.bincount(flat, weights=targets.ravel(), minlength=T * s).reshape(T, s)
        sums, terms = cnt @ (vals**2).T - 2.0 * (ysum @ vals.T), 4.0 * n * M * M
    k = n + s + 3
    e = k * 2.0**-53 / (1.0 - k * 2.0**-53) * terms
    rows = np.argmin(sums, axis=1)
    if m > 1:
        two = np.partition(sums, 1, axis=1)
        for t in np.flatnonzero(~(two[:, 1] - two[:, 0] > _TIE_MARGIN * e)):
            table = vals[:, states[t]]
            if targets is not None:
                table = (table - targets[t][None, :]) ** 2
            rows[t] = np.argmin(np.sum(table, axis=1))
    return rows


def _excess_statistic(vals: np.ndarray, pop: np.ndarray):
    """Per-trial excess population sum ``pop`` of the empirical-sum minimizer
    over a finite table of atom values (ties to the lowest row)."""
    best = pop[int(np.argmin(pop))]
    return lambda _x, _y, states, ts: pop[_erm_rows(vals, states)] - best


def _experiment_rademacher_ci(fields, model, n, delta):
    """Empirical-minimizer excess expected loss vs the Rademacher interval.

    The class is a finite table of functions on the model's atoms; the
    interval uses the exact averaged complexity (full enumeration) and the
    exact envelope, so the comparison has no estimation slack.
    """
    if model.covariates.kind not in ("discrete",):
        raise ValueError("rademacher_ci experiment needs discrete covariates")
    vals = _value_table(fields["values"])
    if vals.shape[1] != model.covariates.n_states:
        raise ValueError(f"coverage: field 'values' must have one column per support atom "
                         f"({model.covariates.n_states}), got {vals.shape[1]}")
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
        nonnegative_family=fields.get("nonnegative_family", False),
    )
    ci = br.rademacher_ci(inputs)

    return ci, _excess_statistic(vals, pop_sums), lambda excess: {
        "rad_ave": rad_ave,
        "envelope_l2_sup": env_l2_sup,
        "max_excess": float(np.max(excess)),
    }, 1  # per sample point: the kernel's bin index


def _experiment_bounded_class_ci(fields, model, n, delta):
    """Realized risk of exact grid ERM vs the bounded-class interval.

    The hypothesis class is the finite grid itself, so ERM, the inf-class
    risk and the realized risk are all exact; log a comes from the entropy
    plug-in at V = (span dimension + 1).
    """
    if model.covariates.kind != "discrete":
        raise ValueError("bounded_class_ci experiment needs discrete covariates")
    cls = fields["class"]
    if not isinstance(cls, TruncatedLinear):
        raise ValueError("bounded_class_ci experiment needs a TruncatedLinear class")
    if cls.span_dim > 3:
        raise ValueError("inf-class risk is exact only for span dimension <= 3 grids")

    missing = [name for name in ("c", "lam") if name not in fields]
    if fields.get("use_optimized_constants"):
        if len(missing) < 2:
            raise ValueError("coverage: fields 'c' and 'lam' cannot be set beside "
                             "'use_optimized_constants': true")
        consts = bv.optimize_v()
        c, lam = consts.c0, consts.lambda0
    elif missing:
        raise ValueError(f"coverage: missing required field {missing[0]!r}")
    else:
        c, lam = fields["c"], fields["lam"]
    params = bv.BoundParams(n=n, B=cls.B, delta=delta, c=c, lam=lam)

    atoms = model.covariates.support
    table = evaluate_class(cls, SequentialSample(points=atoms))
    risks = risk_of_rows(table.values, model, n)
    inf_risk = float(np.min(risks))

    V = vc_dimension_bound(cls)
    entropy = EntropyEstimate.vc(V, cls.B)
    log_a = bv.log_a_from_entropy(params, entropy)
    bound = bv.bounded_class_ci(params, inf_risk, log_a)

    def realized_risk(_x, responses, states, ts):  # exact grid ERM on each trial's sample
        return risks[_erm_rows(table.values, states, truncate(responses, cls.B), cls.B)]

    return bound, realized_risk, lambda realized: {
        "c": c,
        "lam": lam,
        "inf_risk": inf_risk,
        "log_a": log_a,
        "max_risk": float(np.max(realized)),
    }, 2  # per sample point: the truncated response and the kernel's bin index


def _experiment_mixing_ci(fields, model, n, delta):
    """Excess expected loss on a mixing chain vs the blocked interval.

    Block inputs: the envelope is exact; the per-block complexity is exact
    where ``_count_law_fits`` serves the block (up to 39 points for 2 states)
    and the finite-class max bound above, which only widens the interval.
    """
    if model.kind != "markov_chain":
        raise ValueError("mixing experiment needs a markov_chain model")
    vals = _value_table(fields["values"])
    P = model.covariates.transition
    if vals.shape[1] != P.shape[0]:
        raise ValueError(f"coverage: field 'values' must have one column per chain state "
                         f"({P.shape[0]}), got {vals.shape[1]}")
    rate_r = fields["rate_r"]
    if rate_r <= 1.0:
        raise ValueError(f"coverage: field 'rate_r' must be > 1, got {rate_r}")
    pi = stationary_distribution(P)

    m_hat = _block_count(n, delta, rate_r)
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
        if _count_law_fits(L, 2 * vals.shape[1]):
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
    }, 1  # per sample point: the kernel's bin index


def _experiment_nn_ci(fields, model, n, delta):
    """Reported-only: heuristic network ERM vs the width-only interval.

    The fitted network is a projected-gradient iterate, not a certified
    minimizer, so failures here are attributed to optimization error; the
    report carries the mean empirical-loss residual against the generating
    parameters for that purpose (null when no 'truth_params' are given).
    """
    cls = fields["class"]
    if not isinstance(cls, NeuralNet):
        raise ValueError("nn experiment needs a NeuralNet class")
    truth = fields.get("truth_params")

    width = br.nn_generalization_ci(n=n, d=cls.dim, B=cls.B, delta=delta)
    inf_risk = fields.get("inf_risk", 0.0)
    bound = inf_risk + width

    def loss(theta, x, y):
        return float(np.sum((cls.predict(theta, x) - y) ** 2))

    def risk_and_residual(points, responses, _states, ts):
        targets = truncate(responses, cls.B)
        merged = [_merge_points(x, y) for x, y in zip(points, targets)]
        groups = {}  # trials by distinct-point count: one fit each, rows in trial order
        for i, (_, counts, _) in enumerate(merged):
            groups.setdefault(len(counts), []).append(i)
        thetas = np.empty((len(ts), cls.param_length))
        for group in groups.values():
            arrays = (np.stack(a) for a in zip(*(merged[i] for i in group)))
            thetas[group] = _fit_nn(cls, *arrays, [1_000_003 + ts[i] for i in group])
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

    # per sample point the targets; per distinct point (at most min(n, atoms))
    # the merged arrays and their stacked copies, 2 (dim + 2), and the fit's
    # 2 units + 2 buffers
    k_max = min(n, model.covariates.n_states or n)  # n_states is 0 for uniform covariates
    return bound, risk_and_residual, details, 1 + math.ceil(
        (2 * (cls.units + cls.dim) + 6) * k_max / n)


# each bound's experiment, returning the bound, statistic, details and work floats
# of _run_trials, and the kinds of its own fields (a dict: 'class' is a keyword)
_EXPERIMENTS = {
    "rademacher_ci": (_experiment_rademacher_ci,
                      {"values": np.ndarray, "nonnegative_family": bool | None}),
    "bounded_class_ci": (_experiment_bounded_class_ci,
                         {"class": HypothesisClass, "use_optimized_constants": bool | None,
                          "c": float | None, "lam": float | None}),
    "mixing_rademacher_ci": (_experiment_mixing_ci, {"values": np.ndarray, "rate_r": float}),
    "nn_generalization_ci": (_experiment_nn_ci,
                             {"class": HypothesisClass, "truth_params": np.ndarray | None,
                              "inf_risk": float | None}),
}
