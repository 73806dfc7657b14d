"""Tests for config parsing/loading and deterministic report rendering."""

from __future__ import annotations

import json

import pytest

from towerlim.config import load_config, parse_config
from towerlim.errors import InputError
from towerlim.report import (
    Timer,
    decimal_list,
    make_report,
    render,
    write_report,
)

from oracles import strip_timings

BASE_CONFIG = {
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


def _variant(**overrides):
    data = json.loads(json.dumps(BASE_CONFIG))
    data.update(overrides)
    for key in [k for k, val in overrides.items() if val is None]:
        del data[key]
    return data


def test_parse_minimal_config():
    exp = parse_config(BASE_CONFIG)
    assert exp.spec.ell == 5
    assert exp.spec.b == 1
    assert exp.spec.name == "demo"
    assert exp.spec.n_max == 3
    assert exp.spec.prec == 1 * 3 + 6  # default precision b*n_max + 6
    assert exp.cache_dir is None


def test_parse_nested_and_flat_matrices_agree():
    nested = _variant(b=2, Q=[[4, 0], [3, 4]], ell=3,
                      F=[{"exponents": [0, 0], "matrix": [1]},
                         {"exponents": [3, 1], "matrix": [1]}])
    flat = _variant(b=2, Q=[4, 0, 3, 4], ell=3,
                    F=[{"exponents": [0, 0], "matrix": [1]},
                       {"exponents": [3, 1], "matrix": [1]}])
    assert parse_config(nested).spec.digest() == parse_config(flat).spec.digest()


def test_parse_optional_fields():
    exp = parse_config(_variant(precision=12, cache_dir="/tmp/x"))
    assert exp.spec.prec == 12
    assert exp.cache_dir == "/tmp/x"
    # resource guards are constants, not config
    with pytest.raises(InputError) as err:
        parse_config(_variant(guards={"orbit_cap": 50000}))
    assert "unknown field 'guards'" in str(err.value)


@pytest.mark.parametrize("missing", ["ell", "b", "r", "n_max", "Q", "F"])
def test_parse_missing_required_field(missing):
    with pytest.raises(InputError) as err:
        parse_config(_variant(**{missing: None}))
    assert missing in str(err.value)


def test_parse_rejects_unknown_fields():
    with pytest.raises(InputError) as err:
        parse_config(_variant(extra=1))
    assert "extra" in str(err.value)
    with pytest.raises(InputError) as err:
        parse_config(_variant(guards={}))
    assert "guards" in str(err.value)
    bad_term = _variant(F=[{"exponents": [0], "matrix": [1], "note": "x"},
                           {"exponents": [1], "matrix": [1]}])
    with pytest.raises(InputError) as err:
        parse_config(bad_term)
    assert "note" in str(err.value)


def test_parse_rejects_wrong_types():
    with pytest.raises(InputError):
        parse_config(_variant(ell="5"))
    with pytest.raises(InputError):
        parse_config(_variant(ell=True))  # booleans are not integers here
    with pytest.raises(InputError):
        parse_config(_variant(name=7))
    with pytest.raises(InputError):
        parse_config([])


def test_parse_rejects_bad_matrix_shapes():
    with pytest.raises(InputError) as err:
        parse_config(_variant(b=2, Q=[4, 0, 3]))
    assert "Q" in str(err.value)
    with pytest.raises(InputError):
        parse_config(_variant(F=[{"exponents": [0]}]))
    with pytest.raises(InputError):
        parse_config(_variant(F=[]))
    with pytest.raises(InputError):
        parse_config(_variant(F=[{"exponents": [0], "matrix": [1, 2]},
                                 {"exponents": [1], "matrix": [1]}]))


def test_parse_error_names_source():
    with pytest.raises(InputError) as err:
        parse_config(_variant(b="x"), source="my.json")
    assert str(err.value).startswith("my.json:")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(BASE_CONFIG))
    exp = load_config(str(path))
    assert exp.spec.digest() == parse_config(BASE_CONFIG).spec.digest()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(InputError) as err:
        load_config(str(tmp_path / "absent.json"))
    assert "absent.json" in str(err.value)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "ell": 5,,\n}\n')
    with pytest.raises(InputError) as err:
        load_config(str(path))
    assert "line 2" in str(err.value)


def test_decimal_helpers():
    assert decimal_list([1, -2, 10**30]) == ["1", "-2", str(10**30)]


def test_make_report_structure():
    rep = make_report("converge", {"rows": [1, 2]}, digest="d1")
    assert rep["tool"] == "towerlim"
    assert rep["command"] == "converge"
    assert rep["config_digest"] == "d1"
    assert rep["rows"] == [1, 2]
    assert rep["timings"] == {}


def test_render_is_deterministic_and_sorted(tmp_path):
    rep = make_report("zeta", {"b_key": 1, "a_key": 2})
    text = render(rep)
    assert text.endswith("\n")
    assert text == render(make_report("zeta", {"a_key": 2, "b_key": 1}))
    assert text.index('"a_key"') < text.index('"b_key"')
    path = tmp_path / "out.json"
    written = write_report(rep, str(path))
    assert path.read_text() == written == text


def test_strip_timings_only_removes_timings():
    rep = make_report("qsum", {"rows": []})
    timer = Timer()
    timer.mark("stage")
    rep["timings"] = timer.as_record()
    bare = strip_timings(rep)
    assert "timings" not in bare
    assert bare["rows"] == []
    assert "timings" in rep  # original untouched


def test_timer_marks_accumulate():
    timer = Timer()
    timer.mark("first")
    timer.mark("second")
    rec = timer.as_record()
    assert set(rec) == {"first", "second"}
    assert all(isinstance(v, float) and v >= 0 for v in rec.values())


def test_version_has_one_source():
    import towerlim
    from towerlim.report import TOOL_VERSION

    assert towerlim.__version__ is TOOL_VERSION
    assert make_report("x", {})["version"] == "0.1.0"
