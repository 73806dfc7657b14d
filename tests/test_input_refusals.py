"""Every refusal of user input is an InputError naming its field.

A malformed config is refused by `parse_config` with a message that starts
with the config's source and a `context["field"]` that names the offending
key, and through `towerlim converge` with exit 3, one `input error:` line
naming the config path, and no traceback.  The library entry points and the
CLI parsers name their fields the same way.
"""

from __future__ import annotations

import json

import pytest

from towerlim import charsums
from towerlim.cache import resolve_cache_dir
from towerlim.charsums import (
    coleman_gauss_check,
    coleman_jacobi_check,
    gauss_sum,
    jacobi_sum,
    motivating_curve_counts,
    motivating_reference_poly,
    primitive_char_sum,
    s_rho_n,
    zeta_from_counts,
)
from towerlim.cli import build_parser, main
from towerlim.config import load_config, parse_config
from towerlim.cyclo import BiCycloRing, CycloRing
from towerlim.errors import InputError
from towerlim.fields import field_build
from towerlim.matfermat import arnold_zarelua_check, check_square
from towerlim.tower import make_tower_spec, qsum_rows

BASE = {
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
}
# b = 2 over l = 3, for the shapes of Q and of the exponent vectors
TWO = {**BASE, "ell": 3, "b": 2, "Q": [[4, 0], [3, 4]],
       "F": [{"exponents": [0, 0], "matrix": [1]},
             {"exponents": [3, 1], "matrix": [1]}]}
# r = 2, for the shapes of the coefficient matrices
WIDE = {**BASE, "r": 2,
        "F": [{"exponents": [0], "matrix": [1, 0, 0, 1]},
              {"exponents": [1], "matrix": [[1, 1], [0, 1]]}]}


def _without(key):
    return {k: v for k, v in BASE.items() if k != key}


def _term(i, base=BASE, **term):
    terms = json.loads(json.dumps(base["F"]))
    terms[i] = {**terms[i], **term}
    return {**base, "F": terms}


# (config, the field its refusal must name)
MALFORMED = [
    # the document's shape
    ([], "config"),
    ("BASE", "config"),                          # a JSON string
    *[(_without(key), key) for key in ("ell", "b", "r", "n_max", "Q", "F")],
    ({**BASE, "extra": 1}, "extra"),
    ({**BASE, "guards": {"orbit_cap": 50000}}, "guards"),
    ({**BASE, "name": 7}, "name"),
    ({**BASE, "cache_dir": 5}, "cache_dir"),
    ({**BASE, "cache_dir": None}, "cache_dir"),
    ({**BASE, "F": {"exponents": [0], "matrix": [1]}}, "F"),
    ({**BASE, "F": 5}, "F"),
    ({**BASE, "F": [[0], [1]]}, "F[0]"),
    (_term(0, note="x"), "F[0].note"),
    ({**BASE, "F": [{"exponents": [0]}]}, "F[0].matrix"),
    ({**BASE, "F": [{"matrix": [1]}]}, "F[0].exponents"),
    # the integers
    ({**BASE, "ell": "5"}, "ell"),
    ({**BASE, "ell": True}, "ell"),
    ({**BASE, "ell": 4}, "ell"),
    ({**BASE, "ell": 2}, "ell"),
    ({**BASE, "ell": 5.0}, "ell"),
    *[({**BASE, key: bad}, key)
      for key in ("b", "r", "n_max", "precision")
      for bad in (0, -1, True, False, "1", 1.0, None)],
    ({**BASE, "b": "x"}, "b"),
    ({**TWO, "b": 0}, "b"),
    ({**WIDE, "r": 0}, "r"),
    ({**WIDE, "r": "2"}, "r"),
    ({**BASE, "precision": 3}, "precision"),     # below n_max + 1
    ({**TWO, "Q": [[10, 0], [0, 10]], "n_max": 4, "precision": 5},
     "precision"),                                # below b*(n_max - 1)
    # Q
    ({**BASE, "Q": 6}, "Q"),
    ({**BASE, "Q": "6"}, "Q"),
    ({**BASE, "Q": {"0": 6}}, "Q"),
    ({**BASE, "Q": []}, "Q"),
    ({**BASE, "Q": [6, 6]}, "Q"),                # flat, wrong length
    ({**TWO, "Q": [4, 0, 3]}, "Q"),
    ({**TWO, "Q": [[4, 0], [3]]}, "Q"),          # ragged rows
    ({**TWO, "Q": [[4, 0]]}, "Q"),
    ({**TWO, "Q": [[4, 0], [3, 4], [0, 0]]}, "Q"),
    ({**TWO, "Q": [[4, 0], 3, 4]}, "Q"),
    ({**BASE, "Q": [True]}, "Q"),
    ({**BASE, "Q": [6.0]}, "Q"),
    ({**BASE, "Q": ["6"]}, "Q"),
    ({**BASE, "Q": [7]}, "Q"),                   # Q != I mod l
    ({**BASE, "Q": [1]}, "Q"),                   # Q = I
    ({**TWO, "Q": [[4, 1], [3, 4]]}, "Q"),
    # F
    ({**BASE, "F": []}, "F"),
    (_term(1, exponents=1), "F[1].exponents"),
    (_term(1, exponents="1"), "F[1].exponents"),
    (_term(1, exponents={"0": 1}), "F[1].exponents"),
    (_term(1, exponents=[True]), "F[1].exponents"),
    (_term(1, exponents=[1.5]), "F[1].exponents"),
    (_term(1, exponents=[0]), "F[1].exponents"),  # repeated
    (_term(1, exponents=[-1]), "F[1].exponents"),
    (_term(1, exponents=[1, 0]), "F[1].exponents"),
    (_term(1, TWO, exponents=[3]), "F[1].exponents"),
    (_term(0, matrix=1), "F[0].matrix"),
    (_term(0, matrix="1"), "F[0].matrix"),
    (_term(0, matrix=[1, 2]), "F[0].matrix"),
    (_term(0, matrix=[True]), "F[0].matrix"),
    (_term(0, matrix=[[1.0]]), "F[0].matrix"),
    (_term(0, WIDE, matrix=[1, 0, 0]), "F[0].matrix"),
    (_term(1, WIDE, matrix=[[1, 1], [0]]), "F[1].matrix"),
    (_term(1, WIDE, matrix=[[1, 1], 0, 1]), "F[1].matrix"),
    (_term(1, WIDE, matrix=[[1, 1]]), "F[1].matrix"),
]
IDS = [f"{i}-{field}" for i, (_, field) in enumerate(MALFORMED)]


def test_the_tables_bases_are_accepted():
    for data in (BASE, TWO, WIDE):
        assert parse_config(data).spec.name == "demo"


@pytest.mark.parametrize("data, field", MALFORMED, ids=IDS)
def test_a_malformed_config_names_its_source_and_field(data, field):
    with pytest.raises(InputError) as exc:
        parse_config(data, source="my.json")
    assert str(exc.value).startswith("my.json: ")
    assert exc.value.context == {"field": field}


@pytest.mark.parametrize("data, field", MALFORMED, ids=IDS)
def test_converge_refuses_a_malformed_config(tmp_path, capsys, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["converge", "--config", str(path), "--mode", "general"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"towerlim: input error: {path}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_an_unreadable_config_names_the_config(tmp_path):
    for path, text in ((tmp_path / "absent.json", None),
                       (tmp_path / "broken.json", '{"ell": 5,,}')):
        if text is not None:
            path.write_text(text)
        with pytest.raises(InputError) as exc:
            load_config(str(path))
        assert str(path) in str(exc.value)
        assert exc.value.context == {"field": "config"}


@pytest.mark.parametrize("key", ["b", "r"])
@pytest.mark.parametrize("bad", [0, -2, True, "1"])
def test_a_bad_size_is_refused_as_itself_not_as_a_shape(key, bad):
    # b once reached the row-major reshape first: "field 'Q' needs 0 entries"
    with pytest.raises(InputError) as exc:
        parse_config({**WIDE, key: bad}, source="my.json")
    assert str(exc.value) == (f"my.json: {key} must be an integer >= 1, "
                              f"got {bad!r}")
    assert exc.value.context == {"field": key}


def test_overriding_n_max_keeps_the_configs_n_max_checked():
    assert parse_config(BASE, n_max=4).spec.n_max == 4
    with pytest.raises(InputError) as exc:
        parse_config({**BASE, "n_max": "3"}, n_max=4, source="my.json")
    assert str(exc.value).startswith("my.json: ")
    assert exc.value.context == {"field": "n_max"}
    # an override of 0 is the caller's fault, not the config's
    with pytest.raises(InputError) as exc:
        parse_config(BASE, n_max=0, source="my.json")
    assert str(exc.value) == "n_max must be an integer >= 1, got 0"
    assert exc.value.context == {"field": "n_max"}


# make_tower_spec once let a TypeError or ValueError through on each of these
SPEC = {"ell": 3, "b": 1, "r": 1, "q_matrix": [[4]],
        "f_terms": [((0,), [[1]]), ((1,), [[1]])], "n_max": 2}


@pytest.mark.parametrize("args, field", [
    ({"q_matrix": 4}, "Q"),
    ({"q_matrix": None}, "Q"),
    ({"q_matrix": [4]}, "Q"),
    ({"f_terms": [((0,), 1)]}, "F[0].matrix"),
    ({"f_terms": [((0,), [1])]}, "F[0].matrix"),
    ({"f_terms": [((0,), [[1]]), ((1,), None)]}, "F[1].matrix"),
    ({"f_terms": [(0, [[1]])]}, "F[0].exponents"),
    ({"f_terms": [((0,), [[1]]), (None, [[1]])]}, "F[1].exponents"),
    ({"f_terms": [5]}, "F[0]"),
    ({"f_terms": [((0,),)]}, "F[0]"),
    ({"f_terms": [((0,), [[1]]), ((1,), [[1]], 2)]}, "F[1]"),
])
def test_spec_refuses_values_of_the_wrong_kind(args, field):
    with pytest.raises(InputError) as exc:
        make_tower_spec(**{**SPEC, **args})
    assert exc.value.context == {"field": field}


# -- library and CLI refusals ----------------------------------------------


def _spec(b=1, r=1):
    if b == 1:
        return make_tower_spec(3, 1, r, [[4]], [((0,), [[1] * r] * r)], 2)
    return make_tower_spec(3, 2, r, [[4, 0], [3, 4]],
                           [((0, 0), [[1] * r] * r)], 2)


def _run(argv):
    args = build_parser().parse_args(argv)
    return args.func(args)


# Each case's id is explicit, so that deleting a case renames no other.  The
# ids are the names pytest gave the cases while it numbered repeated fields
# itself.
@pytest.mark.parametrize("call, field", [
    # the CLI parsers
    pytest.param(lambda: _run(["arnold", "--matrix", "a,b;c,d",
                               "--ell", "3", "--n", "1"]),
                 "matrix", id="<lambda>-matrix0"),
    pytest.param(lambda: _run(["arnold", "--matrix", "1,2;3",
                               "--ell", "3", "--n", "1"]),
                 "matrix", id="<lambda>-matrix1"),
    pytest.param(lambda: arnold_zarelua_check([[1]], 4, 1), "ell",
                 id="<lambda>-ell"),
    pytest.param(lambda: arnold_zarelua_check([[1]], 3, -1), "n",
                 id="<lambda>-n0"),
    pytest.param(lambda: check_square([]), "matrix", id="<lambda>-matrix2"),
    # qsum
    pytest.param(lambda: qsum_rows(_spec(b=2), [1], [1, 1], 1, 2), "lambda",
                 id="<lambda>-lambda"),
    pytest.param(lambda: qsum_rows(_spec(b=2), [1, 1], [1], 1, 2), "v",
                 id="<lambda>-v0"),
    pytest.param(lambda: qsum_rows(_spec(), [1], [1], 0, 2), "n_range",
                 id="<lambda>-n_range0"),
    pytest.param(lambda: qsum_rows(_spec(), [1], [1], 3, 2), "n_range",
                 id="<lambda>-n_range1"),
    pytest.param(lambda: qsum_rows(_spec(r=2), [1], [1], 1, 2,
                                   emit_products=True),
                 "emit_products", id="<lambda>-emit_products"),
    # the rings
    pytest.param(lambda: CycloRing(3, 0), "level", id="<lambda>-level0"),
    pytest.param(lambda: CycloRing(3, 1, 0), "prec", id="<lambda>-prec"),
    pytest.param(lambda: CycloRing(3, 1).elem([1, 2, 3]), "coeffs",
                 id="<lambda>-coeffs"),
    pytest.param(lambda: CycloRing(3, 1).one().galois_act(3), "a",
                 id="<lambda>-a"),
    pytest.param(lambda: BiCycloRing(4, 3, 1), "p", id="<lambda>-p0"),
    pytest.param(lambda: BiCycloRing(3, 3, 1), "p", id="<lambda>-p1"),
    # characters and sums
    pytest.param(lambda: gauss_sum(field_build(7, 1), 3, 0, 1), "level",
                 id="<lambda>-level1"),
    pytest.param(lambda: gauss_sum(field_build(7, 1), 3, 2, 1), "level",
                 id="<lambda>-level2"),
    pytest.param(lambda: gauss_sum(field_build(7, 1), 3, 1, 1, sub_q=5),
                 "sub_q", id="<lambda>-sub_q0"),
    pytest.param(lambda: gauss_sum(field_build(2, 4), 3, 1, 1, sub_q=4),
                 "sub_q", id="<lambda>-sub_q1"),
    pytest.param(lambda: jacobi_sum(field_build(7, 1), 3, 1, 1, 1, sub_q=1),
                 "sub_q", id="<lambda>-sub_q2"),
    pytest.param(lambda: s_rho_n(3, 0, 7, 1, 1), "n", id="<lambda>-n1"),
    pytest.param(lambda: s_rho_n(3, 1, 7, 1, 0), "rho", id="<lambda>-rho0"),
    pytest.param(lambda: s_rho_n(3, 2, 3, 1, 1), "q", id="<lambda>-q0"),
    pytest.param(lambda: s_rho_n(3, 2, 7, 1, 2), "rho", id="<lambda>-rho1"),
    pytest.param(lambda: primitive_char_sum(3, 1, [], []), "shape",
                 id="<lambda>-shape0"),
    pytest.param(lambda: primitive_char_sum(3, 1, [1], []), "lam",
                 id="<lambda>-lam"),
    pytest.param(lambda: primitive_char_sum(3, 1, [0, 1], [1, 1]), "shape",
                 id="<lambda>-shape1"),
    pytest.param(lambda: primitive_char_sum(3, 2, [1], [1]), "shape",
                 id="<lambda>-shape2"),
    pytest.param(lambda: zeta_from_counts(5, -1, []), "genus",
                 id="<lambda>-genus"),
    pytest.param(lambda: zeta_from_counts(5, 1, [6]), "counts",
                 id="<lambda>-counts"),
    pytest.param(lambda: motivating_curve_counts(1), "level",
                 id="<lambda>-level3"),
    pytest.param(lambda: motivating_reference_poly(1), "level",
                 id="<lambda>-level4"),
    pytest.param(lambda: charsums.fermat_enum_count(7, 0), "d",
                 id="<lambda>-d"),
    # Coleman
    pytest.param(lambda: coleman_jacobi_check(3, 5, 1, 1), "q",
                 id="<lambda>-q1"),
    pytest.param(lambda: coleman_jacobi_check(3, 7, 3, 1), "v1",
                 id="<lambda>-v1"),
    pytest.param(lambda: coleman_jacobi_check(3, 7, 1, 3), "v2",
                 id="<lambda>-v2"),
    pytest.param(lambda: coleman_jacobi_check(3, 7, 1, 2), "v1+v2",
                 id="<lambda>-v1+v2"),
    pytest.param(lambda: coleman_gauss_check(3, 5), "q", id="<lambda>-q2"),
    pytest.param(lambda: coleman_gauss_check(3, 7, 3), "v", id="<lambda>-v3"),
])
def test_refusals_name_their_field(call, field):
    with pytest.raises(InputError) as exc:
        call()
    assert exc.value.context == {"field": field}


@pytest.mark.parametrize("option, text, field", [
    ("--lambda", "1,x", "lambda"),
    ("--v", "", "v"),
    ("--n-range", "2..x", "n_range"),
])
def test_qsum_parsers_name_their_field(tmp_path, option, text, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    argv = {"--lambda": "1", "--v": "1", "--n-range": "1..2", option: text}
    with pytest.raises(InputError) as exc:
        _run(["qsum", "--config", str(path),
              *[x for kv in argv.items() for x in kv]])
    assert exc.value.context == {"field": field}


def test_an_unusable_cache_dir_names_its_field(tmp_path, monkeypatch):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    with pytest.raises(InputError) as exc:
        resolve_cache_dir(str(blocker))
    assert exc.value.context == {"field": "cache_dir"}
