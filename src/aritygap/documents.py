"""JSON document schemas shared by the library and the CLI.

A function document is ``{"k": int, "n": int, "table": [int, ...]}`` with
the table in the standard index order (first coordinate most significant).
Constructor specs mirror the constructor dataclasses; subsets and multisets
are keyed by comma-joined sorted values, e.g. ``"0,1,2"``.
"""

from __future__ import annotations

import json
from typing import Any

from .core import DomainError, FiniteFunction
from .symmetric import GapNSpec, LinearSpec, TernaryGap2Spec


class DocumentError(ValueError):
    """The document is structurally malformed (wrong types, lengths, ranges)."""


def _require(cond: bool, message: str):
    if not cond:
        raise DocumentError(message)


def _int_field(obj: dict, name: str) -> int:
    _require(name in obj, f"missing field {name!r}")
    v = obj[name]
    _require(isinstance(v, int) and not isinstance(v, bool), f"field {name!r} must be an integer")
    return v


def load_function(obj: Any) -> FiniteFunction:
    _require(isinstance(obj, dict), "function document must be an object")
    k = _int_field(obj, "k")
    n = _int_field(obj, "n")
    _require("table" in obj, "missing field 'table'")
    table = obj["table"]
    _require(isinstance(table, list), "field 'table' must be an array")
    for v in table:
        _require(
            isinstance(v, int) and not isinstance(v, bool),
            "table entries must be integers",
        )
    try:
        return FiniteFunction(k, n, table)
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc


def dump_function(f: FiniteFunction) -> dict:
    return {"k": f.k, "n": f.n, "table": list(f.table)}


def _values_key(key: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in key.split(","))
    except ValueError as exc:
        raise DocumentError(f"bad value-tuple key {key!r}") from exc


def _coeff_map(obj: Any, what: str) -> dict:
    if obj is None:
        return {}
    _require(isinstance(obj, dict), f"{what} must be an object")
    out = {}
    for key, v in obj.items():
        _require(
            isinstance(v, int) and not isinstance(v, bool),
            f"{what} values must be integers",
        )
        out[_values_key(key)] = v
    return out


def load_gap_n_spec(obj: Any) -> tuple[int, int, GapNSpec]:
    _require(isinstance(obj, dict), "spec document must be an object")
    k = _int_field(obj, "k")
    n = _int_field(obj, "n")
    a0 = _int_field(obj, "a0")
    b = _coeff_map(obj.get("b"), "'b'")
    return k, n, GapNSpec(a0, b)


def load_gap2_ternary_spec(obj: Any) -> tuple[int, TernaryGap2Spec]:
    _require(isinstance(obj, dict), "spec document must be an object")
    k = _int_field(obj, "k")
    family = obj.get("family")
    _require(isinstance(family, str), "field 'family' must be a string")
    a = obj.get("a")
    _require(isinstance(a, list), "field 'a' must be an array")
    b = _coeff_map(obj.get("b"), "'b'")
    return k, TernaryGap2Spec(family, tuple(a), b)


def load_linear_spec(obj: Any) -> tuple[int, LinearSpec]:
    _require(isinstance(obj, dict), "spec document must be an object")
    k = _int_field(obj, "k")
    coeffs = obj.get("coefficients")
    _require(isinstance(coeffs, list), "field 'coefficients' must be an array")
    constant = obj.get("constant", 0)
    _require(
        isinstance(constant, int) and not isinstance(constant, bool),
        "field 'constant' must be an integer",
    )
    return k, LinearSpec(tuple(coeffs), constant)


def load_orbit_sum_spec(obj: Any) -> tuple[int, int, tuple[int, ...]]:
    _require(isinstance(obj, dict), "spec document must be an object")
    k = _int_field(obj, "k")
    alpha = obj.get("alpha")
    _require(isinstance(alpha, list), "field 'alpha' must be an array")
    n = obj.get("n", len(alpha))
    _require(isinstance(n, int) and not isinstance(n, bool), "field 'n' must be an integer")
    return k, n, tuple(alpha)


def load_recompose_spec(obj: Any) -> tuple[FiniteFunction, FiniteFunction]:
    _require(isinstance(obj, dict), "spec document must be an object")
    _require("g" in obj and "h" in obj, "recompose spec needs 'g' and 'h' documents")
    return load_function(obj["g"]), load_function(obj["h"])


def parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def to_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
