import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskbounds.hypothesis import (
    FunctionTable,
    GridSpec,
    NeuralNet,
    SequentialSample,
    TruncatedLinear,
    _from_doc,
    _to_doc,
    class_from_json,
    evaluate_class,
    logistic,
    truncate,
    vc_dimension_bound,
)


class TestTruncate:
    def test_clamps(self):
        y = np.array([-5.0, -1.0, 0.0, 0.3, 2.0])
        np.testing.assert_array_equal(truncate(y, 1.0), [-1.0, -1.0, 0.0, 0.3, 1.0])

    def test_scalar(self):
        assert truncate(7.0, 2.0) == 2.0
        assert truncate(-7.0, 2.0) == -2.0

    def test_nonpositive_level_rejected(self):
        with pytest.raises(ValueError):
            truncate(1.0, 0.0)
        with pytest.raises(ValueError):
            truncate(1.0, -1.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.floats(0.01, 100.0),
    )
    def test_idempotent_and_bounded(self, ys, B):
        y = np.array(ys)
        t = truncate(y, B)
        assert np.all(np.abs(t) <= B)
        np.testing.assert_array_equal(truncate(t, B), t)

    @given(
        st.floats(-100, 100), st.floats(-100, 100), st.floats(0.01, 50.0)
    )
    def test_monotone(self, a, b, B):
        lo, hi = min(a, b), max(a, b)
        assert truncate(lo, B) <= truncate(hi, B)


class TestLogistic:
    def test_midpoint_and_symmetry(self):
        assert logistic(0.0) == 0.5
        assert logistic(2.0) + logistic(-2.0) == pytest.approx(1.0, abs=1e-15)

    def test_overflow_safe(self):
        assert logistic(1000.0) == pytest.approx(1.0)
        assert logistic(-1000.0) == pytest.approx(0.0)
        assert np.all(np.isfinite(logistic(np.array([-1e8, 0.0, 1e8]))))


class TestGridSpec:
    def test_axes_cartesian_product(self):
        g = GridSpec(axes=(np.array([0.0, 1.0]), np.array([5.0, 6.0, 7.0])))
        pts = g.resolve()
        assert pts.shape == (6, 2)
        # first axis varies slowest
        np.testing.assert_array_equal(pts[0], [0.0, 5.0])
        np.testing.assert_array_equal(pts[-1], [1.0, 7.0])

    def test_points_passthrough(self):
        g = GridSpec(points=np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(g.resolve(), [[1.0, 2.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec().resolve()
        with pytest.raises(ValueError, match="empty"):
            GridSpec(axes=(np.array([]),)).resolve()


class TestTruncatedLinear:
    def test_span_dims(self):
        assert TruncatedLinear(basis="linear", dim=2, B=1.0).span_dim == 2
        assert TruncatedLinear(basis="affine", dim=2, B=1.0).span_dim == 3
        assert TruncatedLinear(basis="monomial", dim=1, B=1.0, degree=3).span_dim == 4

    def test_monomial_needs_scalar_covariate(self):
        with pytest.raises(ValueError):
            TruncatedLinear(basis="monomial", dim=2, B=1.0, degree=2)
        with pytest.raises(ValueError):
            TruncatedLinear(basis="monomial", dim=1, B=1.0)

    def test_basis_matrices(self):
        pts = np.array([[2.0], [3.0]])
        lin = TruncatedLinear(basis="linear", dim=1, B=1.0)
        np.testing.assert_array_equal(lin.basis_matrix(pts), pts)
        aff = TruncatedLinear(basis="affine", dim=1, B=1.0)
        np.testing.assert_array_equal(aff.basis_matrix(pts), [[1.0, 2.0], [1.0, 3.0]])
        mono = TruncatedLinear(basis="monomial", dim=1, B=1.0, degree=2)
        np.testing.assert_array_equal(
            mono.basis_matrix(pts), [[1.0, 2.0, 4.0], [1.0, 3.0, 9.0]]
        )

    def test_evaluation_truncates(self):
        grid = GridSpec(points=np.array([[10.0]]))
        cls = TruncatedLinear(basis="linear", dim=1, B=1.0, grid=grid)
        table = evaluate_class(cls, SequentialSample(points=np.array([[0.5], [-0.5]])))
        np.testing.assert_array_equal(table.values, [[1.0, -1.0]])

    def test_coef_box_violation_names_grid_point(self):
        grid = GridSpec(points=np.array([[0.0], [9.0]]))
        cls = TruncatedLinear(basis="linear", dim=1, B=1.0, coef_box=(-1, 1), grid=grid)
        with pytest.raises(ValueError, match="grid point 1"):
            evaluate_class(cls, SequentialSample(points=np.array([[1.0]])))

    def test_missing_grid_rejected(self):
        cls = TruncatedLinear(basis="linear", dim=1, B=1.0)
        with pytest.raises(ValueError, match="grid"):
            evaluate_class(cls, SequentialSample(points=np.array([[1.0]])))

    def test_network_has_no_table(self):
        with pytest.raises(TypeError, match="needs a TruncatedLinear class, got NeuralNet"):
            evaluate_class(NeuralNet(dim=1, units=1, B=1.0),
                           SequentialSample(points=np.array([[1.0]])))


class TestNeuralNet:
    def test_param_layout_roundtrip(self):
        cls = NeuralNet(dim=2, units=3, B=1.0)
        theta = np.arange(cls.param_length, dtype=float)
        a, b, c = cls.split_params(theta)
        assert a.shape == (3, 2) and b.shape == (3,) and c.shape == (4,)
        np.testing.assert_array_equal(np.concatenate([a.ravel(), b, c]), theta)

    def test_predict_matches_manual(self):
        cls = NeuralNet(dim=1, units=2, B=2.0)
        theta = np.array([1.0, -1.0, 0.5, 0.0, 0.3, 1.0, -0.7])
        x = np.array([[0.2], [-0.4]])
        expect = (
            0.3
            + 1.0 * logistic(1.0 * x[:, 0] + 0.5)
            - 0.7 * logistic(-1.0 * x[:, 0] + 0.0)
        )
        np.testing.assert_allclose(cls.predict(theta, x), expect, rtol=1e-14)


class TestSampleAndTable:
    def test_sample_auto_2d(self):
        s = SequentialSample(points=np.array([1.0, 2.0, 3.0]))
        assert s.points.shape == (3, 1)

    def test_responses_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            SequentialSample(points=np.zeros((3, 1)), responses=np.zeros(2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FunctionTable(values=np.array([[np.inf]]))


class TestVCDimensionBound:
    def test_truncated_spans(self):
        assert vc_dimension_bound(TruncatedLinear(basis="affine", dim=1, B=1.0)) == 3
        assert vc_dimension_bound(TruncatedLinear(basis="linear", dim=2, B=1.0)) == 3
        assert (
            vc_dimension_bound(TruncatedLinear(basis="monomial", dim=1, B=1.0, degree=3))
            == 5
        )

    def test_unknown_for_finite_and_nets(self):
        assert vc_dimension_bound(NeuralNet(dim=1, units=1, B=1.0)) is None


SERIALIZED_CLASSES = [
    TruncatedLinear(
        basis="affine",
        dim=1,
        B=2.0,
        coef_box=(-1.0, 1.0),
        grid=GridSpec(axes=(np.array([0.0, 1.0]), np.array([-1.0, 1.0]))),
    ),
    NeuralNet(dim=1, units=1, B=1.0, mode="joint"),
]


def _class_document(cls) -> str:
    """The class's tagged JSON document: its kind and its fields in order."""
    kind = {TruncatedLinear: "truncated_linear", NeuralNet: "neural_net"}[type(cls)]
    return json.dumps({"kind": kind, **_to_doc(cls)})


class TestSerialization:
    @pytest.mark.parametrize("cls", SERIALIZED_CLASSES)
    def test_roundtrip_preserves_tables(self, cls):
        cls2 = class_from_json(json.loads(_class_document(cls)))
        assert _to_doc(cls2) == _to_doc(cls)
        np.testing.assert_array_equal(_table_of(cls), _table_of(cls2))

    def test_json_string_is_refused(self):
        doc = _class_document(SERIALIZED_CLASSES[1])
        with pytest.raises(ValueError, match="^class: expected a JSON object, got '{"):
            class_from_json(doc)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            class_from_json({"kind": "mystery"})
        with pytest.raises(ValueError, match="field 'kind'"):
            class_from_json({"dim": 1, "units": 1, "B": 1.0})

    def test_every_missing_field_is_named(self):
        with pytest.raises(ValueError, match="^class: missing required fields: dim, B$"):
            class_from_json({"kind": "neural_net", "units": 2, "mode": "joint"})
        with pytest.raises(ValueError, match=r"^class\.grid: expected a JSON object"):
            class_from_json({"kind": "truncated_linear", "basis": "linear", "dim": 1, "B": 1.0,
                             "grid": [1]})

    def test_every_unknown_key_is_named(self):
        net = {"kind": "neural_net", "dim": 1, "units": 2, "B": 1.0}
        assert class_from_json(net) == NeuralNet(dim=1, units=2, B=1.0)  # the tag is no field
        with pytest.raises(ValueError, match="^class: unknown fields: unit, modes$"):
            class_from_json({**net, "unit": 3, "modes": "joint"})
        with pytest.raises(ValueError, match="^class: unknown fields: grid, activation$"):
            class_from_json({**net, "grid": {"points": [[0.0]]}, "activation": "logistic"})
        linear = {"kind": "truncated_linear", "basis": "linear", "dim": 1, "B": 1.0}
        with pytest.raises(ValueError, match=r"^class\.grid: unknown fields: axis$"):
            class_from_json({**linear, "grid": {"axis": [[0.0, 1.0]]}})

    def test_finite_kind_is_refused(self):
        doc = {"kind": "finite", "values": [[0.5, -0.5]], "B": 1.0}
        with pytest.raises(ValueError, match="^class: field 'kind' must be one of "
                                             "truncated_linear, neural_net, got 'finite'$"):
            class_from_json(doc)


# ---------------------------------------------------------------------------
# JSON documents: the field-driven codec against the hand-written one it
# replaced, kept here as a private reference


def _ref_grid_to_json(grid):
    if grid.points is not None:
        return {"points": np.asarray(grid.points, dtype=float).tolist()}
    return {"axes": [np.asarray(a, dtype=float).tolist() for a in grid.axes]}


def _ref_grid_from_json(doc):
    if "points" in doc and doc["points"] is not None:
        return GridSpec(points=np.asarray(doc["points"], dtype=float))
    return GridSpec(axes=tuple(np.asarray(a, dtype=float) for a in doc["axes"]))


def _ref_class_to_json(cls):
    if isinstance(cls, TruncatedLinear):
        doc = {
            "kind": "truncated_linear",
            "basis": cls.basis,
            "dim": cls.dim,
            "B": cls.B,
            "coef_box": list(cls.coef_box) if cls.coef_box else None,
            "grid": _ref_grid_to_json(cls.grid) if cls.grid else None,
            "degree": cls.degree,
        }
    else:
        doc = {
            "kind": "neural_net",
            "dim": cls.dim,
            "units": cls.units,
            "B": cls.B,
            "mode": cls.mode,
        }
    return json.dumps(doc)


def _ref_class_from_json(doc):
    kind = doc.get("kind")
    if kind == "truncated_linear":
        return TruncatedLinear(
            basis=doc["basis"],
            dim=doc["dim"],
            B=doc["B"],
            coef_box=tuple(doc["coef_box"]) if doc.get("coef_box") else None,
            grid=_ref_grid_from_json(doc["grid"]) if doc.get("grid") else None,
            degree=doc.get("degree"),
        )
    return NeuralNet(
        dim=doc["dim"],
        units=doc["units"],
        B=doc["B"],
        mode=doc.get("mode", "joint"),
    )


def _document_classes():
    """Every class document of the bench requests and of the test modules;
    the tests' class objects enter through the reference encoder."""
    import test_acceptance
    import test_projected_gd

    requests = Path(__file__).resolve().parents[1] / "bench" / "requests"
    docs = {p.stem: json.loads(p.read_text()).get("class") for p in sorted(requests.glob("*.json"))}
    docs = {f"bench-{name}": doc for name, doc in docs.items() if doc is not None}
    docs["cli-network"] = {"kind": "neural_net", "dim": 1, "units": 2, "B": 1.0}
    objects = {
        "acceptance-linear-grid": test_acceptance.LINEAR_GRID_CLASS,
        "projected-gd-network": test_projected_gd.nn_config()["class"],
        "monomial-points": TruncatedLinear(basis="monomial", dim=1, B=1.5, degree=2,
                                           grid=GridSpec(points=np.array([[0.1, -0.4, 1.0]]))),
        "independent-network": NeuralNet(dim=2, units=2, B=1.0, mode="independent"),
    }
    objects.update({f"serialization-{i}": cls for i, cls in enumerate(SERIALIZED_CLASSES)})
    docs.update({name: json.loads(_ref_class_to_json(cls)) for name, cls in objects.items()})
    return docs


DOCUMENT_CLASSES = _document_classes()


def field_types(obj):
    """The type of every field of a dataclass, nested dataclasses included."""
    return {f.name: field_types(v) if is_dataclass(v) else type(v)
            for f in fields(obj) for v in [getattr(obj, f.name)]}


def _table_of(cls):
    """The class's values on a fixed sample: a truncated linear class's table
    on its grid, a network's prediction at a fixed theta inside its
    constraint set."""
    points = np.linspace(-1.0, 1.0, 7 * cls.dim).reshape(7, cls.dim)
    if isinstance(cls, NeuralNet):
        c = np.full(cls.units + 1, cls.B / (2 * (cls.units + 1)))
        theta = np.concatenate([np.linspace(-1.0, 1.0, cls.units * (cls.dim + 1)), c])
        return cls.predict(theta, points)
    return evaluate_class(cls, SequentialSample(points=points)).values


class TestClassDocuments:
    @pytest.mark.parametrize("name", sorted(DOCUMENT_CLASSES))
    def test_decoder_matches_reference(self, name):
        doc = DOCUMENT_CLASSES[name]
        got, want = class_from_json(doc), _ref_class_from_json(doc)
        assert type(got) is type(want)
        assert _to_doc(got) == _to_doc(want)
        assert field_types(got) == field_types(want)
        assert _table_of(got).tobytes() == _table_of(want).tobytes()
        # the encoders differ only in the grid's unused key, now written as null
        new, ref = json.loads(_class_document(got)), json.loads(_ref_class_to_json(want))
        if new.get("grid") is not None:
            new["grid"] = {k: v for k, v in new["grid"].items() if v is not None}
        assert new == ref

    def test_to_doc_gives_plain_values(self):
        doc = _to_doc({"a": np.int64(3), "b": (np.float32(0.5), np.bool_(True)), "c": None,
                       "d": np.arange(2)})
        assert doc == {"a": 3, "b": [0.5, True], "c": None, "d": [0, 1]}
        assert [type(v) for v in (doc["a"], *doc["b"], *doc["d"])] == [int, float, bool, int, int]

    @pytest.mark.parametrize("grid", [
        GridSpec(axes=(np.array([0.0, 0.5]), np.array([1.0]))),
        GridSpec(points=np.array([[1.0, 2.0], [3.0, -1.0]])),
    ], ids=["axes", "points"])
    def test_grid_document(self, grid):
        doc = _to_doc(grid)
        assert list(doc) == ["axes", "points"]
        assert {k: v for k, v in doc.items() if v is not None} == _ref_grid_to_json(grid)
        back = _from_doc(GridSpec, json.loads(json.dumps(doc)), "grid")
        assert back.resolve().tobytes() == _ref_grid_from_json(doc).resolve().tobytes()
