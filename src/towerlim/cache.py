"""Result cache for per-level aggregate polynomials.

Entries are JSON files keyed by (level digest, level), written atomically
(write to a temp file, then rename).  The level digest covers what r_n
depends on (l, b, r, Q, F and precision, not n_max), so one cache serves
every n_max at a configured precision.  Each entry stores the SHA-256 of
its canonical payload.  Anything unreadable, corrupt, version-mismatched,
keyed differently than its filename claims, or whose payload does not
match its hash is ignored and recomputed — cache contents are never
trusted blindly.

The directory comes from the config (`cache_dir`), overridden by the
TOWERLIM_CACHE environment variable; with neither set, caching is off.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional

from .tower import TowerSpec, json_digest, r_poly

CACHE_VERSION = 2


def resolve_cache_dir(configured: Optional[str]) -> Optional[str]:
    env = os.environ.get("TOWERLIM_CACHE")
    if env:
        return env
    return configured


def _entry_path(dirpath: str, digest: str, level: int) -> str:
    return os.path.join(dirpath, f"{digest}-n{level}.json")


def cache_get(dirpath: Optional[str], digest: str,
              level: int) -> Optional[dict]:
    if dirpath is None:
        return None
    try:
        with open(_entry_path(dirpath, digest, level), "r",
                  encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("digest") != digest
            or data.get("level") != level
            or not isinstance(data.get("payload"), dict)
            or data.get("sha256") != json_digest(data["payload"])):
        return None
    return data["payload"]


def cache_put(dirpath: Optional[str], digest: str, level: int,
              payload: dict) -> None:
    if dirpath is None:
        return
    os.makedirs(dirpath, exist_ok=True)
    blob = {
        "version": CACHE_VERSION,
        "digest": digest,
        "level": level,
        "payload": payload,
        "sha256": json_digest(payload),
    }
    fd, tmp = tempfile.mkstemp(dir=dirpath, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        os.replace(tmp, _entry_path(dirpath, digest, level))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _poly_payload(spec: TowerSpec, coeffs: tuple[int, ...],
                  meta: dict) -> dict:
    return {
        "ell": spec.ell,
        "prec": spec.prec,
        "coeffs": [str(c) for c in coeffs],
        "meta": meta,
    }


def _poly_from_payload(payload: dict, spec: TowerSpec
                       ) -> Optional[tuple[tuple[int, ...], dict]]:
    try:
        if payload["ell"] != spec.ell or payload["prec"] != spec.prec:
            return None
        coeffs = tuple(int(s) for s in payload["coeffs"])
        meta = dict(payload["meta"])
        int(meta["k_n"])
    except (KeyError, TypeError, ValueError):
        return None
    return coeffs, meta


def cached_r_poly(spec: TowerSpec, level: int, dirpath: Optional[str],
                  pieces: Optional[dict] = None
                  ) -> tuple[tuple[int, ...], dict]:
    """r_poly with read-through caching keyed by (level digest, level).

    `pieces` is passed on to r_poly on a miss (the per-run p_{n,v} memo).
    """
    digest = spec.level_digest()
    payload = cache_get(dirpath, digest, level)
    if payload is not None:
        hit = _poly_from_payload(payload, spec)
        if hit is not None:
            return hit
    coeffs, meta = r_poly(spec, level, pieces=pieces)
    cache_put(dirpath, digest, level, _poly_payload(spec, coeffs, meta))
    return coeffs, meta
