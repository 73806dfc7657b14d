"""Golden reports for CLI paths, mostly ones the benchmark never runs.

Each case pins the SHA-256 of a command's rendered report with the
`timings` key dropped.  The digests were recorded before the polynomial,
valuation, orbit and count-table helpers were merged, so a refactor of
those helpers that changes any reported byte fails here.  Together the
cases cover `poly_diff_val` (arnold), `min_val` and `orbit` (qsum), the
Fermat pair orbits (zeta fermat), both descent cores (coleman) and the
scalar and general congruence rows (converge).  The three `zeta-*` tower
cases (k_m = 1 and 3, both families) were recorded while h_m was still the
serial product of linear factors, before it moved to exact traces.  The
two `converge-general-6xx` cases, the benchmark's general configs at seeds
603 and 607 (F = a + c t1^3 t2 with a + c = 0 and a = c = -3, many vanishing
coefficients), were recorded while r_n was still multiplied out one ring
element at a time, before it moved to the group ring.  The
`converge-general-l5obj` case (l = 5, r = 2) was recorded while each class
norm was still the product of all its members in group-ring arrays of
Python ints, a 70 s run, before the norms moved to descent down the
cyclotomic tower.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from towerlim.cli import main
from towerlim.report import render

from oracles import strip_timings

README_CONFIG = {
    "name": "demo",
    "ell": 5,
    "b": 1,
    "r": 1,
    "Q": [6],
    "F": [
        {"exponents": [0], "matrix": [1]},
        {"exponents": [1], "matrix": [1]},
    ],
    "n_max": 3,
    "precision": 11,
}

GENERAL_CONFIG = {
    "name": "general",
    "ell": 3,
    "b": 2,
    "r": 1,
    "Q": [[4, 0], [3, 4]],
    "F": [
        {"exponents": [0, 0], "matrix": [1]},
        {"exponents": [3, 1], "matrix": [1]},
    ],
    "n_max": 4,
}

L5OBJ_CONFIG = {
    "name": "l5obj",
    "ell": 5,
    "b": 2,
    "r": 2,
    "Q": [[6, 5], [0, 6]],
    "F": [
        {"exponents": [0, 0], "matrix": [[1, 0], [0, 1]]},
        {"exponents": [1, 2], "matrix": [[0, 1], [1, 1]]},
        {"exponents": [2, 0], "matrix": [[2, -1], [0, 1]]},
    ],
    "n_max": 3,
}


def seeded_general_config(a: int, c: int) -> dict:
    """The benchmark's general config for F = a + c t1^3 t2 at n_max 4."""
    return {**GENERAL_CONFIG, "name": "general-l3-window", "F": [
        {"exponents": [0, 0], "matrix": [[a]]},
        {"exponents": [3, 1], "matrix": [[c]]},
    ]}


CASES = {
    "arnold": (
        ["arnold", "--matrix", "2,1;0,3", "--ell", "3", "--n", "1"],
        None,
        "5c1c37e1edd2a45c2877c123d920dec4d00b96265a500a2b45714cf2a2e303ec",
    ),
    "qsum": (
        ["qsum", "--config", "{cfg}", "--lambda", "4", "--v", "1",
         "--n-range", "1..3", "--emit-products"],
        README_CONFIG,
        "658e59c20c8e446a5b19a206c1c167b35205cd464300aaf366e81af492bfb648",
    ),
    "zeta-fermat": (
        ["zeta", "fermat", "--ell", "3", "--q", "7", "--n", "1",
         "--m-max", "3"],
        None,
        "096c2ddfaaa0311940feb535caf6c1c70dadabf6514cdc28a9c9444e68a30272",
    ),
    "zeta-as-19": (
        ["zeta", "as", "--ell", "3", "--q", "19", "--n", "2"],
        None,
        "6ae92f65b7661c5c614a0438e5fdbdc8690afc45725d3c4e085798e627bb97d1",
    ),
    "zeta-as-7": (
        ["zeta", "as", "--ell", "3", "--q", "7", "--n", "2"],
        None,
        "77f5e5a1f13dc6bb49867fedb7fd099962ba3b58ce3c1a24881c7d4ebe918b18",
    ),
    "zeta-fermat-19": (
        ["zeta", "fermat", "--ell", "3", "--q", "19", "--n", "2"],
        None,
        "24ed72e365d9927537a1b07157f1212cded19c8aba76657ac2203d7d053a9f59",
    ),
    "coleman-jacobi": (
        ["coleman", "jacobi", "--ell", "3", "--q", "7", "--v1", "1",
         "--v2", "1"],
        None,
        "53b3bf4e5555d0f71ce840c7e1d91613e7dbecd8650b3ff992a3b8fd33469bd5",
    ),
    "coleman-gauss": (
        ["coleman", "gauss", "--ell", "3", "--q", "7"],
        None,
        "f77a5293b952cb6e9065a88716191ca19a410b15f44d1929d525edf5b505f3ea",
    ),
    "converge-scalar": (
        ["converge", "--config", "{cfg}", "--mode", "scalar"],
        README_CONFIG,
        "c15cf1de51378be586bfd06192276b4179589da468c04cb161c924c305753519",
    ),
    "converge-general": (
        ["converge", "--config", "{cfg}", "--mode", "general",
         "--n-max", "2"],
        GENERAL_CONFIG,
        "4d9baa1b4e4f5d8b949261c28e7db9d4a4b62fe26755e29f73a605a255614c00",
    ),
    "converge-general-603": (
        ["converge", "--config", "{cfg}", "--mode", "general"],
        seeded_general_config(-2, 2),
        "2479457a37e05a46b4604d2b7ded80ee8504c75f721e6cfbde262025095a5059",
    ),
    "converge-general-607": (
        ["converge", "--config", "{cfg}", "--mode", "general"],
        seeded_general_config(-3, -3),
        "f3830b66fc5262bccbe629ea3d5800980437be97d970141517f897bfc47329b3",
    ),
    "converge-general-l5obj": (
        ["converge", "--config", "{cfg}", "--mode", "general"],
        L5OBJ_CONFIG,
        "6c3ce89e8054fb5dde5284b52cfffd406828f4d099fda1739c3e6392d7866d08",
    ),
}


def report_digest(argv, config, tmp_path, capsys) -> str:
    """SHA-256 of the command's rendered report without `timings`."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [str(path) if a == "{cfg}" else a for a in argv]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    return hashlib.sha256(render(strip_timings(report)).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    argv, config, want = CASES[case]
    assert report_digest(argv, config, tmp_path, capsys) == want
