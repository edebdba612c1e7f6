"""Readers of JSON parameter documents, each field checked against its kind.
numpy is imported only to read a tuple or array field, and the hypothesis
module only to read a class document."""

import contextlib
import functools
import inspect
import math
import numbers
import sys
from dataclasses import MISSING, fields, is_dataclass
from types import MappingProxyType, UnionType
from typing import get_args


def _read_field(doc: dict, name: str, kind, where: str):
    """Field ``name`` of ``doc`` read as ``kind``: float, int, bool, str, dict
    (a JSON object), np.ndarray (a nonempty array of finite floats), tuple (of
    numbers or number lists), a dataclass (an instance, or its document),
    HypothesisClass (an instance, or its tagged document) or any of these
    ``| None``, which reads an absent or null field as None. Any other value
    raises one ValueError, led by ``where``, that names the field."""
    v, options = doc.get(name), get_args(kind)
    if v is None:
        if type(None) in options:
            return None
        raise ValueError(f"{where}: missing required field {name!r}")
    if isinstance(kind, UnionType) and type(None) not in options:  # HypothesisClass
        from .hypothesis import class_from_json
        return v if isinstance(v, kind) else class_from_json(v)
    kind = options[0] if type(None) in options else kind
    if kind in (float, int):
        if isinstance(v, bool) or not isinstance(v, numbers.Real):  # numpy's too
            raise ValueError(f"{where}: field {name!r} must be a number, got {v!r}")
        if (isinstance(v, int) and abs(v) > sys.float_info.max) or not math.isfinite(v):
            raise ValueError(f"{where}: field {name!r} must be finite and within the float range")
        if kind is float:
            return float(v)
        if float(v) != int(v):
            raise ValueError(f"{where}: field {name!r} must be an integer, got {float(v)}")
        return int(float(v))
    if kind in (bool, str, dict):
        np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is loaded
        if not isinstance(v, (bool, np.bool_) if kind is bool and np else kind):
            wanted = {bool: "true or false", str: "a string", dict: "a JSON object"}[kind]
            raise ValueError(f"{where}: field {name!r} must be {wanted}, got {v!r}")
        return bool(v) if kind is bool else v
    if is_dataclass(kind):
        return v if isinstance(v, kind) else _from_doc(kind, v, f"{where}.{name}")
    import numpy as np
    if kind is np.ndarray:
        try:
            a = np.asarray(v)
        except ValueError:  # ragged
            a = np.empty(0)
        if a.size == 0 or a.dtype.kind not in "iuf":
            raise ValueError(f"{where}: field {name!r} must be a nonempty table of numbers, "
                             f"got {v!r}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{where}: field {name!r} must be finite and within the float range")
        return np.asarray(a, dtype=float)
    if kind is tuple:
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"{where}: field {name!r} must be a list, got {v!r}")
        return tuple(_read_field({name: x}, name, np.ndarray if isinstance(x, list) else float,
                                 where) for x in v)
    raise TypeError(f"{where}: field {name!r} has no reader for {kind!r}")


def _read_document(doc: dict, kinds: dict, where: str) -> dict:
    """The fields of ``doc`` named in ``kinds``, each read as its kind by
    ``_read_field``; those that read as None are left out, so defaults apply.
    Each ValueError is led by ``where``: first one naming the missing required
    fields (a lone one as ``_read_field`` does), then a field's own, then one
    naming every key of ``doc`` not in ``kinds``."""
    missing = [name for name, kind in kinds.items()
               if doc.get(name) is None and type(None) not in get_args(kind)]
    if missing:
        listed = f"field {missing[0]!r}" if len(missing) == 1 else f"fields: {', '.join(missing)}"
        raise ValueError(f"{where}: missing required {listed}")
    values = {name: _read_field(doc, name, kind, where) for name, kind in kinds.items()}
    unknown = [str(key) for key in doc if key not in kinds]
    if unknown:
        raise ValueError(f"{where}: unknown fields: {', '.join(unknown)}")
    return {name: v for name, v in values.items() if v is not None}


@functools.cache
def _kinds(obj) -> MappingProxyType:
    """Each field of the dataclass ``obj``, or each parameter of the function
    ``obj``, by its annotation, ``| None`` when it has a default. Cached per
    ``obj``, as a read-only view, since every caller shares it."""
    if is_dataclass(obj):
        kinds = {f.name: f.type if f.default is MISSING and f.default_factory is MISSING
                 else f.type | None for f in fields(obj)}
    else:
        kinds = {p.name: p.annotation if p.default is p.empty else p.annotation | None
                 for p in inspect.signature(obj).parameters.values()}
    return MappingProxyType(kinds)


@contextlib.contextmanager
def _domain_errors(where: str):
    """Lead each ValueError raised inside with ``where``, unless it already is:
    a library's domain check then names the document or command it came from.
    Also a decorator, for a whole command."""
    try:
        yield
    except ValueError as exc:
        if str(exc).startswith(where):
            raise
        raise ValueError(f"{where}: {exc}") from None


def _from_doc(cls, doc, where: str):
    """The dataclass ``cls`` from the same-named fields of ``doc``, read by
    ``_read_document``, which refuses every key that is no field. A
    field whose metadata holds an ``"empty"`` document reads that document
    when null, absent or ``{}``; any other value is read as the field's kind.
    A ValueError of the class's own checks is led by ``where``."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {doc!r}")
    doc = {**doc, **{f.name: f.metadata["empty"] for f in fields(cls)
                     if "empty" in f.metadata and doc.get(f.name) in (None, {})}}
    values = _read_document(doc, _kinds(cls), where)
    with _domain_errors(where):
        return cls(**values)
