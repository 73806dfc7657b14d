"""Experiment configuration files: JSON schema, loading, validation.

A config describes one tower experiment:

    {
      "name": "demo",                  # optional label
      "ell": 5,                        # odd prime
      "b": 1,                          # twist dimension
      "r": 1,                          # coefficient matrix size
      "Q": [6],                        # b x b, row-major flat or nested rows
      "F": [                           # polynomial terms
        {"exponents": [0], "matrix": [1]},
        {"exponents": [1], "matrix": [1]}
      ],
      "n_max": 3,
      "precision": 11,                 # optional, default b*n_max + 6
      "cache_dir": ".towerlim-cache"   # optional
    }

`precision` must be at least n_max + 1, and at least b*(n_max - 1) when Q
is scalar (the depth the last general congruence row requires).  Every
validation failure is an `InputError` naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .tower import TowerSpec, make_tower_spec

_TOP_KEYS = {
    "name", "ell", "b", "r", "Q", "F", "n_max", "precision", "cache_dir",
}


@dataclass(frozen=True)
class Experiment:
    """A validated config: the frozen tower spec plus runner settings."""

    spec: TowerSpec
    cache_dir: Optional[str]


def _need_int(data: dict, key: str, source: str) -> int:
    if key not in data:
        raise InputError(f"{source}: missing required field '{key}'")
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise InputError(f"{source}: field '{key}' must be an integer")
    return val


def _as_rows(val, size: int, label: str, source: str) -> list[list[int]]:
    """Accept a row-major flat list of size*size ints or nested rows."""
    if not isinstance(val, list) or not val:
        raise InputError(f"{source}: field '{label}' must be a nonempty list")
    if all(isinstance(x, int) and not isinstance(x, bool) for x in val):
        if len(val) != size * size:
            raise InputError(
                f"{source}: field '{label}' needs {size * size} entries "
                f"(row-major, size {size}), got {len(val)}"
            )
        return [list(val[i * size:(i + 1) * size]) for i in range(size)]
    rows = []
    for i, row in enumerate(val):
        if (not isinstance(row, list) or len(row) != size
                or any(isinstance(x, bool) or not isinstance(x, int)
                       for x in row)):
            raise InputError(
                f"{source}: field '{label}' row {i} must be a list of "
                f"{size} integers"
            )
        rows.append(list(row))
    if len(rows) != size:
        raise InputError(
            f"{source}: field '{label}' must have {size} rows, got {len(rows)}"
        )
    return rows


def parse_config(data: dict, source: str = "<config>",
                 n_max: Optional[int] = None) -> Experiment:
    """Validate a config; `n_max`, when given, overrides the config's."""
    if not isinstance(data, dict):
        raise InputError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise InputError(f"{source}: unknown field '{unknown[0]}'")
    ell = _need_int(data, "ell", source)
    b = _need_int(data, "b", source)
    r = _need_int(data, "r", source)
    config_n_max = _need_int(data, "n_max", source)
    if n_max is None:
        n_max = config_n_max
    if "Q" not in data:
        raise InputError(f"{source}: missing required field 'Q'")
    q_rows = _as_rows(data["Q"], b, "Q", source)
    if "F" not in data or not isinstance(data["F"], list) or not data["F"]:
        raise InputError(
            f"{source}: field 'F' must be a nonempty list of terms"
        )
    terms = []
    for i, term in enumerate(data["F"]):
        if not isinstance(term, dict):
            raise InputError(f"{source}: F[{i}] must be an object")
        extra = sorted(set(term) - {"exponents", "matrix"})
        if extra:
            raise InputError(f"{source}: F[{i}] has unknown field '{extra[0]}'")
        if "exponents" not in term or "matrix" not in term:
            raise InputError(
                f"{source}: F[{i}] needs 'exponents' and 'matrix'"
            )
        exps = term["exponents"]
        if (not isinstance(exps, list)
                or any(isinstance(x, bool) or not isinstance(x, int)
                       for x in exps)):
            raise InputError(
                f"{source}: F[{i}].exponents must be a list of integers"
            )
        mat = _as_rows(term["matrix"], r, f"F[{i}].matrix", source)
        terms.append((exps, mat))
    precision = None
    if "precision" in data:
        precision = _need_int(data, "precision", source)
    name = ""
    if "name" in data:
        if not isinstance(data["name"], str):
            raise InputError(f"{source}: field 'name' must be a string")
        name = data["name"]
    cache_dir = None
    if "cache_dir" in data:
        if not isinstance(data["cache_dir"], str):
            raise InputError(f"{source}: field 'cache_dir' must be a string")
        cache_dir = data["cache_dir"]
    spec = make_tower_spec(
        ell, b, r, q_rows, terms, n_max, prec=precision, name=name,
    )
    return Experiment(spec=spec, cache_dir=cache_dir)


def load_config(path: str, n_max: Optional[int] = None) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None
    return parse_config(data, source=path, n_max=n_max)
