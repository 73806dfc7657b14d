"""Seeded inputs for the benchmark workloads.

A workload is a fixed sequence of towerlim CLI commands that together make
one sample.  Inputs depend only on the seed, and the program receives only
the generated config files and command lines.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 0

GENERAL = "general-l3-window"
SCALAR = "scalar-l7-wide"
ENUM = "curves-enum"
EXACT = "curves-exact"
NAMES = (GENERAL, SCALAR, ENUM, EXACT)
SEEDED = (GENERAL, SCALAR)  # the curve workloads have fixed inputs


def general_config(seed: int) -> dict:
    """l = 3, b = 2, Q = [[4,0],[3,4]], n_max = 4, F = a + c t1^3 t2.

    a and c are nonzero integers in [-4, 4] drawn from the seed; the default
    seed gives F = 1 + t1^3 t2, the general-congruence acceptance config.
    """
    if seed == DEFAULT_SEED:
        a, c = 1, 1
    else:
        rng = random.Random(seed)
        nonzero = [x for x in range(-4, 5) if x]
        a, c = rng.choice(nonzero), rng.choice(nonzero)
    return {
        "name": GENERAL,
        "ell": 3, "b": 2, "r": 1,
        "Q": [[4, 0], [3, 4]],
        "F": [
            {"exponents": [0, 0], "matrix": [[a]]},
            {"exponents": [3, 1], "matrix": [[c]]},
        ],
        "n_max": 4,
    }


def draw_quadratic_coeff_family(rng: random.Random, ell: int,
                                r: int) -> list:
    """Random degree-2 matrix polynomial with unit determinant at t = 1.

    The same recipe as the scalar-congruence acceptance test (kept as a
    copy so the benchmark does not import the test suite).
    """
    while True:
        terms = [
            ((e,), [[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)])
            for e in range(3)
        ]
        at_one = [
            [sum(t[1][i][j] for t in terms) for j in range(r)] for i in range(r)
        ]
        det = at_one[0][0] * at_one[1][1] - at_one[0][1] * at_one[1][0]
        if det % ell:
            return terms


def scalar_config(seed: int) -> dict:
    """l = 7, b = 1, r = 2, Q = [8], n_max = 3; F drawn from the seed.

    The default precision b * n_max + 6 = 9 puts the modulus 7^9 above the
    2^25 numpy window, so every multiply with phi >= 16 is a wide one.
    """
    terms = draw_quadratic_coeff_family(random.Random(seed), 7, 2)
    return {
        "name": SCALAR,
        "ell": 7, "b": 1, "r": 2,
        "Q": [8],
        "F": [{"exponents": list(e), "matrix": m} for e, m in terms],
        "n_max": 3,
    }


def unit_commands(name: str, seed: int, workdir: str,
                  index: int) -> list[tuple[list[str], str | None]]:
    """The commands of one sample, in order, as (argv, cache dir) pairs.

    A cache dir of None means the command runs with caching off.  The
    general workload runs cold into a fresh cache dir, then warm against it.
    """
    if name == GENERAL:
        cfg = _write_config(workdir, general_config(seed))
        cache = os.path.join(workdir, f"cache-{index}")
        argv = ["converge", "--config", cfg, "--mode", "general"]
        return [(argv, cache), (argv, cache)]
    if name == SCALAR:
        cfg = _write_config(workdir, scalar_config(seed))
        return [(["converge", "--config", cfg, "--mode", "scalar"], None)]
    if name == ENUM:
        return [(["zeta", "as", "--ell", "3", "--q", "7", "--n", "1"], None)]
    if name == EXACT:
        return [(["zeta", "as", "--ell", "3", "--q", "19", "--n", "2"], None)]
    raise ValueError(f"unknown workload {name!r}")


def _write_config(workdir: str, config: dict) -> str:
    path = os.path.join(workdir, f"{config['name']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True)
    return path
