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

Only the document's shape is checked here: its keys, term objects and
labels; the row-major flat forms are reshaped to rows.  Each tower value is
checked by `tower.make_tower_spec`.  Every refusal is an InputError that
starts with the config's source, its `field` the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .tower import TowerSpec, check_count, make_tower_spec

_TOP_KEYS = {
    "name", "ell", "b", "r", "Q", "F", "n_max", "precision", "cache_dir",
}
_REQUIRED = ("ell", "b", "r", "n_max", "Q", "F")


@dataclass(frozen=True)
class Experiment:
    """A validated config: the frozen tower spec plus runner settings."""

    spec: TowerSpec
    cache_dir: Optional[str]


def _rows(val, size: int, label: str):
    """A row-major flat list of size*size entries as rows; anything else
    unchanged, for the spec to refuse."""
    if not isinstance(val, list) or any(isinstance(x, list) for x in val):
        return val
    if len(val) != size * size:
        raise InputError(
            f"field '{label}' needs {size * size} entries "
            f"(row-major, size {size}), got {len(val)}", field=label,
        )
    return [val[i * size:(i + 1) * size] for i in range(size)]


def _term(i: int, term, r):
    if not isinstance(term, dict):
        raise InputError(f"F[{i}] must be an object", field=f"F[{i}]")
    for key in sorted(set(term) ^ {"exponents", "matrix"}):
        what = "has unknown" if key in term else "needs"
        raise InputError(f"F[{i}] {what} field '{key}'", field=f"F[{i}].{key}")
    return term["exponents"], _rows(term["matrix"], r, f"F[{i}].matrix")


def _parse(data, n_max: Optional[int]) -> Experiment:
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object", field="config")
    for key in sorted(data):
        if key not in _TOP_KEYS:
            raise InputError(f"unknown field '{key}'", field=key)
    for key in _REQUIRED:
        if key not in data:
            raise InputError(f"missing required field '{key}'", field=key)
    for key in ("name", "cache_dir"):
        if key in data and not isinstance(data[key], str):
            raise InputError(f"field '{key}' must be a string", field=key)
    if not isinstance(data["F"], list):
        raise InputError("field 'F' must be a list of terms", field="F")
    # Sizes first: b and r shape the flat forms, and the spec sees neither
    # an overridden n_max nor a null precision.
    for key in ("b", "r", "n_max", "precision"):
        if key in data:
            check_count(key, data[key])
    if n_max is None:
        n_max = data["n_max"]
    spec = make_tower_spec(
        data["ell"], data["b"], data["r"], _rows(data["Q"], data["b"], "Q"),
        [_term(i, term, data["r"]) for i, term in enumerate(data["F"])],
        n_max, prec=data.get("precision"), name=data.get("name", ""),
    )
    return Experiment(spec=spec, cache_dir=data.get("cache_dir"))


def parse_config(data: dict, source: str = "<config>",
                 n_max: Optional[int] = None) -> Experiment:
    """Validate a config; `n_max`, when given, overrides the config's."""
    if n_max is not None:  # the caller's value, refused as the caller's
        check_count("n_max", n_max)
    try:
        return _parse(data, n_max)
    except InputError as exc:
        raise InputError(f"{source}: {exc}", **exc.context) from None


def load_config(path: str, n_max: Optional[int] = None) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}",
                         field="config") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}", field="config",
        ) from None
    return parse_config(data, source=path, n_max=n_max)
