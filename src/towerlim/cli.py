"""Command-line driver.

Subcommands:

* ``converge`` — run the tower engine on a config file and report the
  per-level congruence rows (scalar or general mode).
* ``arnold`` — trace/charpoly congruence check for one integer matrix.
* ``zeta`` — curve pipelines: ``fermat``, ``as`` (Artin–Schreier), or
  ``motivating`` (the hyperelliptic 2-power family).
* ``coleman`` — degree-l descent identity checks: ``jacobi`` or ``gauss``.
* ``qsum`` — exact orbit character sums for a config (measured only).

Exit codes: 0 success (including measured-only and below-threshold rows),
2 a verified identity failed, 3 invalid input, 4 a resource guard tripped.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional, Sequence

from .cache import cached_r_poly, resolve_cache_dir
from .charsums import (
    artin_schreier_enum_count,
    coleman_gauss_check,
    coleman_jacobi_check,
    fermat_enum_count,
    h_poly_tower,
    motivating_zeta_check,
    predicted_counts,
    prime_power_split,
)
from .config import load_config
from .errors import CheckFailed, GuardExceeded, InputError
from .fields import check_field_size
from .matfermat import arnold_zarelua_check
from .report import Timer, decimal_list, make_report, write_report
from .tower import (
    check_orbit_threshold,
    check_scalar_twist,
    general_congruence_rows,
    orbit_params,
    qsum_rows,
    scalar_congruence_rows,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_INPUT = 3
EXIT_GUARD = 4


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through InputError (exit 3)."""

    def error(self, message):
        raise InputError(message)


def _parse_matrix(text: str) -> list[list[int]]:
    """Semicolon-separated rows of comma-separated integers (square or
    not: `matfermat.check_square` refuses a ragged matrix)."""
    try:
        return [
            [int(x.strip()) for x in row.split(",")]
            for row in text.strip().split(";")
        ]
    except ValueError:
        raise InputError(f"cannot parse matrix from {text!r}",
                         field="matrix") from None


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(x.strip()) for x in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse {what} from {text!r}",
                         field=what) from None


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        n = int(text)
        return n, n
    except ValueError:
        raise InputError(f"cannot parse level range from {text!r}",
                         field="n_range") from None


def _emit(report: dict, args) -> None:
    text = write_report(report, getattr(args, "out", None))
    sys.stdout.write(text)


def _default_m_max(q: int, cap: int) -> int:
    m = 1
    while q ** (m + 1) <= cap:
        m += 1
    return m


# -- converge -------------------------------------------------------------


def cmd_converge(args) -> int:
    timer = Timer()
    exp = load_config(args.config, n_max=args.n_max)
    spec = exp.spec
    if args.mode == "scalar":
        check_scalar_twist(spec)
    cachedir = resolve_cache_dir(exp.cache_dir)
    params = orbit_params(spec)
    timer.mark("orbit_params")
    pieces = {}  # each level's record by level, for the scalar rows too
    polys = {
        level: cached_r_poly(spec, level, cachedir, pieces)
        for level in range(1, spec.n_max + 1)
    }
    timer.mark("aggregate_polys")
    verified = check_orbit_threshold(spec, params, polys)
    if args.mode == "scalar":
        rows = scalar_congruence_rows(spec, params, pieces)
    else:
        rows = general_congruence_rows(spec, params, polys)
    timer.mark("congruences")
    body = {
        "mode": args.mode,
        "name": spec.name,
        "ell": spec.ell,
        "n_max": spec.n_max,
        "precision": spec.prec,
        "orbit": {
            "alpha": params.alpha,
            "beta0": params.beta0,
            "n0": params.n0,
            "verified_level": verified,
        },
        "levels": [
            {
                "n": level,
                "k_n": meta["k_n"],
                "num_orbits": meta["num_orbits"],
                "degree": meta["degree"],
                "coeffs": decimal_list(coeffs),
            }
            for level, (coeffs, meta) in sorted(polys.items())
        ],
        "rows": [r.as_record() for r in rows],
    }
    report = make_report("converge", body, digest=spec.digest(), timer=timer)
    # the work each level took in this run; a level read from the cache
    # whose charpolys no row needed took none
    idle = {"reps": 0, "classes": 0, "direct_charpolys": 0,
            "product_steps": 0}
    report["timings"]["levels"] = [
        {"n": level, **(pieces[level].work() if level in pieces else idle)}
        for level in sorted(polys)
    ]
    _emit(report, args)
    if any(r.status == "fail" for r in rows):
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- arnold ---------------------------------------------------------------


def cmd_arnold(args) -> int:
    timer = Timer()
    mat = _parse_matrix(args.matrix)
    rep = arnold_zarelua_check(mat, args.ell, args.n)
    timer.mark("check")
    body = {"matrix": mat, **rep.as_record()}
    report = make_report("arnold", body, timer=timer)
    _emit(report, args)
    return EXIT_CHECK_FAILED if rep.passed is False else EXIT_OK


# -- zeta -----------------------------------------------------------------


def _tower_zeta_body(family: str, args,
                     timer: Timer) -> tuple[dict, bool, list[dict]]:
    """The report body, whether every check passed, and one timing record
    per enumerated field (its size, g = gcd(d, size - 1), the elements the
    count stepped or scanned, and seconds)."""
    p, f = prime_power_split(args.q)  # before q is raised to any power
    m_max = args.m_max
    if m_max is None:
        m_max = _default_m_max(args.q, 10**6)
    if m_max < 1:
        raise InputError(f"--m-max must be >= 1, got {m_max}",
                         field="m_max")
    if m_max > 64:  # as predicted_counts would, but before the sums
        raise InputError("prediction range is capped at 64", field="m_max")
    check_field_size(p, f * m_max)  # the largest field counted
    res = h_poly_tower(family, args.ell, args.q, args.n)
    timer.mark("character_sums")
    d = args.ell**args.n
    count_rows, count_timings = [], []
    counts_ok = True
    predictions = predicted_counts(res["f"], args.q, m_max)
    for m in range(1, m_max + 1):
        t0 = time.perf_counter()
        field_q = args.q**m
        if family == "fermat":
            rec = fermat_enum_count(field_q, d)
            g, elements = math.gcd(d, field_q - 1), field_q
        else:
            rec = artin_schreier_enum_count(args.q, m, d)
            g, elements = rec["g"], rec["stepped"]
        count_timings.append({
            "m": m, "field_q": field_q, "g": g, "elements": elements,
            "s": round(time.perf_counter() - t0, 6),
        })
        measured = rec["count"]
        match = measured == predictions[m - 1]
        counts_ok = counts_ok and match
        count_rows.append({
            "m": m,
            "measured": str(measured),
            "predicted": str(predictions[m - 1]),
            "status": "pass" if match else "fail",
        })
    timer.mark("enumeration")
    stab_ok = res["stabilization_passed"]
    body = {
        "family": family,
        "ell": args.ell,
        "q": args.q,
        "n": args.n,
        "n1": res["n1"],
        "degree": res["degree"],
        "f": decimal_list(res["f"]),
        "levels": [
            {
                "m": lv["m"],
                "k": lv["k"],
                "field_q": lv["field_q"],
                "h": decimal_list(lv["h"]),
            }
            for lv in res["levels"]
        ],
        "counts": count_rows,
        "stabilization": res["stabilization"],
        "stabilization_passed": stab_ok,
    }
    return body, counts_ok and stab_ok is not False, count_timings


def cmd_zeta(args) -> int:
    timer = Timer()
    if args.family == "motivating":
        res = motivating_zeta_check(args.level)
        timer.mark("counts")
        body = {
            "family": "motivating",
            "curve": res["curve"],
            "genus": res["genus"],
            "counts": decimal_list(res["counts"]),
            "coeffs": decimal_list(res["coeffs"]),
            "reference": decimal_list(res["reference"]),
            "status": "pass" if res["passed"] else "fail",
        }
        report = make_report("zeta", body, timer=timer)
        _emit(report, args)
        return EXIT_OK if res["passed"] else EXIT_CHECK_FAILED
    family = "fermat" if args.family == "fermat" else "artin-schreier"
    body, ok, count_timings = _tower_zeta_body(family, args, timer)
    body["status"] = "pass" if ok else "fail"
    report = make_report("zeta", body, timer=timer)
    report["timings"]["counts"] = count_timings
    _emit(report, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- coleman --------------------------------------------------------------


def cmd_coleman(args) -> int:
    timer = Timer()
    if args.kind == "jacobi":
        res = coleman_jacobi_check(args.ell, args.q, args.v1, args.v2)
        ok = res["passed"]
    else:
        res = coleman_gauss_check(args.ell, args.q, args.v)
        ok = res["status"] == "pass"
    timer.mark("check")
    report = make_report("coleman", res, timer=timer)
    _emit(report, args)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- qsum -----------------------------------------------------------------


def cmd_qsum(args) -> int:
    timer = Timer()
    exp = load_config(args.config)
    spec = exp.spec
    lam = _parse_ints(args.lam, "lambda")
    v = _parse_ints(args.v, "v")
    n_lo, n_hi = _parse_range(args.n_range)
    res = qsum_rows(spec, lam, v, n_lo, n_hi,
                    emit_products=args.emit_products)
    timer.mark("sums")
    report = make_report("qsum", res, digest=spec.digest(), timer=timer)
    _emit(report, args)
    return EXIT_OK


# -- parser ---------------------------------------------------------------
#
# Each subcommand (and each family of zeta and coleman) has one `_add_*`
# function, which adds the parser `name` to `sub` and is given the rest of
# argv after that name.  `_add_chosen` builds only the entry argv names, or
# all of them when argv names none (no argument, -h, or an unknown name),
# so a command pays for its own parsers alone, while help and usage errors
# read as those of the full tree.


def _add_out(p) -> None:
    p.add_argument("--out", help="also write the JSON report to this file")


def _add_chosen(sub, table: dict, argv: Sequence[str]) -> None:
    if argv and argv[0] in table:
        table[argv[0]](sub, argv[0], argv[1:])
    else:
        for name, add in table.items():
            add(sub, name, ())


def _add_converge(sub, name, argv) -> None:
    p = sub.add_parser(name, help="tower congruence report")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--mode", required=True, choices=["scalar", "general"])
    p.add_argument("--n-max", type=int, default=None,
                   help="override the config's n_max (a configured "
                   "precision is kept)")
    _add_out(p)
    p.set_defaults(func=cmd_converge)


def _add_arnold(sub, name, argv) -> None:
    p = sub.add_parser(name, help="matrix trace/charpoly congruence")
    p.add_argument("--matrix", required=True,
                   help='integer matrix, e.g. "1,1;1,0"')
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_arnold)


def _add_tower_family(zs, name, argv) -> None:
    pf = zs.add_parser(name)
    pf.add_argument("--ell", type=int, required=True)
    pf.add_argument("--n", type=int, required=True,
                    help="tower level (curve exponent is ell^n)")
    pf.add_argument("--q", type=int, required=True,
                    help="base field size (prime power, 1 mod ell)")
    pf.add_argument("--m-max", type=int, default=None,
                    help="check counts over extensions up to this degree")
    _add_out(pf)
    pf.set_defaults(func=cmd_zeta, family=name)


def _add_motivating(zs, name, argv) -> None:
    pm = zs.add_parser(name)
    pm.add_argument("--level", type=int, default=3,
                    help="tower level t of y^2 = x^(2^t) + 1 over F_5")
    _add_out(pm)
    pm.set_defaults(func=cmd_zeta, family=name)


ZETA_FAMILIES = {"fermat": _add_tower_family, "as": _add_tower_family,
                 "motivating": _add_motivating}


def _add_zeta(sub, name, argv) -> None:
    p = sub.add_parser(name, help="curve point counts and Weil polynomials")
    _add_chosen(p.add_subparsers(dest="family", required=True),
                ZETA_FAMILIES, argv)


def _add_jacobi(cs, name, argv) -> None:
    pj = cs.add_parser(name)
    pj.add_argument("--ell", type=int, required=True)
    pj.add_argument("--q", type=int, required=True)
    pj.add_argument("--v1", type=int, required=True)
    pj.add_argument("--v2", type=int, required=True)
    _add_out(pj)
    pj.set_defaults(func=cmd_coleman, kind=name)


def _add_gauss(cs, name, argv) -> None:
    pg = cs.add_parser(name)
    pg.add_argument("--ell", type=int, required=True)
    pg.add_argument("--q", type=int, required=True)
    pg.add_argument("--v", type=int, default=None,
                    help="single character parameter (default: all units)")
    _add_out(pg)
    pg.set_defaults(func=cmd_coleman, kind=name)


COLEMAN_KINDS = {"jacobi": _add_jacobi, "gauss": _add_gauss}


def _add_coleman(sub, name, argv) -> None:
    p = sub.add_parser(name, help="degree-l descent identity checks")
    _add_chosen(p.add_subparsers(dest="kind", required=True),
                COLEMAN_KINDS, argv)


def _add_qsum(sub, name, argv) -> None:
    p = sub.add_parser(name, help="exact orbit character sums")
    p.add_argument("--config", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help='character weights, e.g. "3,1"')
    p.add_argument("--v", required=True, help='orbit base point, e.g. "1,1"')
    p.add_argument("--n-range", required=True, help='levels, e.g. "2..5"')
    p.add_argument("--emit-products", action="store_true",
                   help="include the twisted products themselves (r = 1)")
    _add_out(p)
    p.set_defaults(func=cmd_qsum)


COMMANDS = {"converge": _add_converge, "arnold": _add_arnold,
            "zeta": _add_zeta, "coleman": _add_coleman, "qsum": _add_qsum}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The command-line parser: the full tree, or with `argv` only the
    parsers on the path it names (`_add_chosen`)."""
    parser = _Parser(prog="towerlim", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_chosen(parser.add_subparsers(dest="cmd", required=True), COMMANDS,
                argv)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"towerlim: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardExceeded as exc:
        print(f"towerlim: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except CheckFailed as exc:
        print(f"towerlim: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
