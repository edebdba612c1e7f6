"""Hypothesis classes, truncation, and evaluation on samples.

A hypothesis class is described declaratively (truncated linear span or
one-layer neural net) and materialized, on its parameter grid, as a
finite value table: an m x n matrix whose entry (j, k) is the value of
candidate function j at sample point k.  All downstream complexity and
covering computations consume these tables.
"""

import json
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from ._documents import _from_doc

__all__ = [
    "truncate",
    "GridSpec",
    "TruncatedLinear",
    "NeuralNet",
    "SequentialSample",
    "FunctionTable",
    "evaluate_class",
    "vc_dimension_bound",
    "class_from_json",
]


def truncate(y, B: float):
    """Clip ``y`` to the interval [-B, B].

    Parameters
    ----------
    y : float or np.ndarray
        Value(s) to truncate.
    B : float
        Truncation level, must be positive.

    Returns
    -------
    Same shape as ``y``: min(max(y, -B), B).  Idempotent and monotone.
    """
    if B <= 0:
        raise ValueError(f"truncation level must be positive, got B={B}")
    return np.clip(y, -B, B)


def logistic(t):
    """Standard logistic CDF 1/(1+e^-t), the default activation."""
    t = np.asarray(t, dtype=float)
    u = np.exp(-np.abs(t))  # overflow-safe in both tails
    return np.where(t >= 0, 1.0, u) / (1.0 + u)


_ACTIVATIONS = {"logistic": logistic}


@dataclass(frozen=True)
class GridSpec:
    """Finite set of parameter vectors used to discretize a parametric class.

    Either ``axes`` (per-coordinate grids, expanded as a cartesian product)
    or ``points`` (explicit array of parameter vectors, one per row) must be
    given.  Resolution is a caller-supplied approximation knob: the table is
    a finite surrogate for the full class.
    """

    axes: tuple | None = None
    points: np.ndarray | None = None

    def resolve(self) -> np.ndarray:
        if self.points is not None:
            pts = np.atleast_2d(np.asarray(self.points, dtype=float))
            if pts.size == 0:
                raise ValueError("empty parameter grid")
            return pts
        if self.axes is not None and len(self.axes) > 0:
            arrays = [np.asarray(a, dtype=float).ravel() for a in self.axes]
            if any(a.size == 0 for a in arrays):
                raise ValueError("empty parameter grid")
            mesh = np.meshgrid(*arrays, indexing="ij")
            return np.stack([m.ravel() for m in mesh], axis=1)
        raise ValueError("empty parameter grid: provide axes or points")


@dataclass(frozen=True)
class TruncatedLinear:
    """Truncated linear span: x -> truncate(theta . basis(x), B).

    Parameters
    ----------
    basis : str
        'linear'   coordinate projections x_1..x_dim (no intercept),
        'affine'   intercept plus coordinates (span dimension dim+1),
        'monomial' powers 1, x, .., x^degree of a scalar covariate.
    dim : int
        Covariate dimension.
    B : float
        Truncation level applied to every fitted value.
    coef_box : tuple[float, float] | None
        Optional per-coordinate box constraint on coefficients; grid points
        outside it are rejected.
    grid : GridSpec | None
        Default discretization of the coefficient vector.
    degree : int | None
        Monomial degree (required iff basis='monomial', with dim=1).
    """

    basis: str
    dim: int
    B: float
    coef_box: tuple | None = None
    grid: GridSpec | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if self.basis not in ("linear", "affine", "monomial"):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.basis == "monomial":
            if self.dim != 1 or self.degree is None or self.degree < 0:
                raise ValueError("monomial basis needs dim=1 and degree >= 0")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.coef_box is not None and (len(self.coef_box) != 2
                                          or any(np.ndim(v) for v in self.coef_box)):
            raise ValueError(f"field 'coef_box' must be (low, high), got {self.coef_box!r}")

    @property
    def span_dim(self) -> int:
        """Dimension of the linear span before truncation."""
        if self.basis == "linear":
            return self.dim
        if self.basis == "affine":
            return self.dim + 1
        return self.degree + 1

    def basis_matrix(self, points: np.ndarray) -> np.ndarray:
        """Design matrix: row k = basis functions evaluated at point k."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            pts = pts.reshape(len(pts), self.dim)
        if self.basis == "linear":
            return pts
        if self.basis == "affine":
            return np.hstack([np.ones((len(pts), 1)), pts])
        x = pts[:, 0]
        return np.vander(x, self.degree + 1, increasing=True)


@dataclass(frozen=True)
class NeuralNet:
    """One-layer network class: x -> c0 + sum_k c_k sigma(a_k . x + b_k).

    ``mode='independent'`` constrains each |c_k| <= B; ``mode='joint'``
    constrains the l1 norm |c_0| + .. + |c_N| <= B.  Parameter vectors are
    laid out as [a (units*dim), b (units), c (units+1)].
    """

    dim: int
    units: int
    B: float
    mode: str = "joint"
    activation: str = "logistic"
    grid: GridSpec | None = None

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError(f"B must be positive, got {self.B}")
        if self.mode not in ("independent", "joint"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.units < 1 or self.dim < 1:
            raise ValueError("units and dim must be >= 1")

    @property
    def param_length(self) -> int:
        return self.units * self.dim + self.units + self.units + 1

    def split_params(self, theta: np.ndarray):
        """Unpack a flat parameter vector into (a, b, c)."""
        theta = np.asarray(theta, dtype=float).ravel()
        if theta.size != self.param_length:
            raise ValueError(
                f"parameter vector has length {theta.size}, expected {self.param_length}"
            )
        N, d = self.units, self.dim
        a = theta[: N * d].reshape(N, d)
        b = theta[N * d : N * d + N]
        c = theta[N * d + N :]
        return a, b, c

    def predict(self, theta: np.ndarray, points: np.ndarray) -> np.ndarray:
        a, b, c = self.split_params(theta)
        pts = np.atleast_2d(np.asarray(points, dtype=float)).reshape(-1, self.dim)
        act = _ACTIVATIONS[self.activation]
        hidden = act(pts @ a.T + b)  # (n, units)
        return c[0] + hidden @ c[1:]

    def check_constraints(self, theta: np.ndarray, index: int | None = None):
        _, _, c = self.split_params(theta)
        tol = 1e-9
        where = "" if index is None else f" (grid point {index})"
        if self.mode == "joint":
            if np.sum(np.abs(c)) > self.B + tol:
                raise ValueError(
                    f"output-weight l1 norm {np.sum(np.abs(c)):.6g} exceeds B={self.B}{where}"
                )
        else:
            if np.max(np.abs(c)) > self.B + tol:
                raise ValueError(
                    f"output weight magnitude {np.max(np.abs(c)):.6g} exceeds B={self.B}{where}"
                )


HypothesisClass = TruncatedLinear | NeuralNet


@dataclass(frozen=True)
class SequentialSample:
    """A length-n sample of covariate vectors with optional responses."""

    points: np.ndarray
    responses: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or len(pts) < 1:
            raise ValueError("points must be a nonempty (n, dim) array")
        object.__setattr__(self, "points", pts)
        if self.responses is not None:
            resp = np.asarray(self.responses, dtype=float).ravel()
            if len(resp) != len(pts):
                raise ValueError("responses length must match points length")
            object.__setattr__(self, "responses", resp)


@dataclass(frozen=True)
class FunctionTable:
    """m x n matrix of candidate-function values plus the pointwise envelope.

    envelope[k] = max_j |values[j, k]|, exact for finite tables.
    """

    values: np.ndarray
    envelope: np.ndarray = field(default=None)

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=float))
        if vals.size == 0 or vals.ndim != 2:
            raise ValueError(f"table must be a (rows, columns) matrix with at least one of each, "
                             f"got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table entries must be finite")
        object.__setattr__(self, "values", vals)
        env = np.max(np.abs(vals), axis=0)
        if self.envelope is not None:
            given = np.asarray(self.envelope, dtype=float).ravel()
            if given.shape != env.shape or not np.array_equal(given, env):
                raise ValueError("envelope must equal the column-wise max of |values|")
        object.__setattr__(self, "envelope", env)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def envelope_l2(self) -> float:
        """l2 norm of the envelope vector, sqrt(sum_k H_k^2)."""
        return float(np.sqrt(np.sum(self.envelope**2)))


def evaluate_class(cls: HypothesisClass, sample: SequentialSample) -> FunctionTable:
    """Materialize a hypothesis class as a value table on a sample.

    Rows are the points of the class's grid (candidate functions), columns
    are the sample points.  Truncated classes produce entries in [-B, B].
    Raises if the grid is absent or empty or a grid point violates the class
    constraints.
    """
    if cls.grid is None:
        raise ValueError("parametric class needs a grid spec")
    params = cls.grid.resolve()

    if isinstance(cls, TruncatedLinear):
        if params.shape[1] != cls.span_dim:
            raise ValueError(
                f"grid axes or points give vectors of length {params.shape[1]}, "
                f"span dimension is {cls.span_dim}"
            )
        if cls.coef_box is not None:
            lo, hi = cls.coef_box
            bad = np.where((params < lo - 1e-12) | (params > hi + 1e-12))[0]
            if bad.size:
                raise ValueError(
                    f"grid point {bad[0]} outside the coefficient box [{lo}, {hi}]"
                )
        design = cls.basis_matrix(sample.points)
        return FunctionTable(truncate(params @ design.T, cls.B))

    if isinstance(cls, NeuralNet):
        rows = []
        for i, theta in enumerate(params):
            cls.check_constraints(theta, index=i)
            rows.append(cls.predict(theta, sample.points))
        values = np.vstack(rows)
        if cls.mode == "joint" and np.max(np.abs(values)) > 2 * cls.B + 1e-9:
            # joint powering with sigma in [0,1] forces |g| <= 2B
            raise ValueError("network outputs exceed 2B; activation out of range?")
        return FunctionTable(values)

    raise TypeError(f"unsupported class type {type(cls).__name__}")


def vc_dimension_bound(cls: HypothesisClass) -> int | None:
    """Upper bound on the VC dimension of the truncated class.

    A truncated span of dimension d has VC dimension at most d+1.
    Neural-net classes return None (unknown; only entropy estimates are
    available for them).
    """
    if isinstance(cls, TruncatedLinear):
        return cls.span_dim + 1
    return None


def _array_field(value, name: str, owner: str) -> np.ndarray:
    """Field ``name`` of ``owner`` as a flat float array; refused when absent."""
    if value is None:
        raise ValueError(f"{owner} needs field {name!r}")
    return np.asarray(value, dtype=float).ravel()


def _distribution(value, name: str, owner: str, size: int | None = None) -> np.ndarray:
    """Field ``name`` of ``owner`` as a pmf: nonnegative entries summing to 1,
    ``size`` of them when given."""
    p = _array_field(value, name, owner)
    if (p.size == 0 or size not in (None, p.size)
            or not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9)):
        over = "" if size is None else f" over the {size} support atoms"
        raise ValueError(f"{owner}: field {name!r} must be a distribution{over}")
    return p


def _to_doc(obj):
    """Plain JSON values of a dataclass (its fields, in order), dict, list,
    tuple, array or numpy scalar; any other value as it is."""
    if is_dataclass(obj):
        return {f.name: _to_doc(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _to_doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_doc(v) for v in obj]
    return obj.tolist() if isinstance(obj, (np.ndarray, np.generic)) else obj


_CLASS_KINDS = {"truncated_linear": TruncatedLinear, "neural_net": NeuralNet}


def class_from_json(doc: str | dict) -> HypothesisClass:
    """A class from its JSON document (a string or its parsed object): the
    tag ``kind``, truncated_linear or neural_net, and the class's fields."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ValueError(f"class: not a JSON document: {exc}") from None
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in _CLASS_KINDS:
        raise ValueError(f"class: field 'kind' must be one of {', '.join(_CLASS_KINDS)}, "
                         f"got {kind!r}")
    return _from_doc(_CLASS_KINDS[kind], {k: v for k, v in doc.items() if k != "kind"}, "class")
