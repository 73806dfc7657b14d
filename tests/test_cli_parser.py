"""`cli.main` builds only the parsers on the path its argv names, and what
a user sees from them, help and usage errors alike, is byte for byte what
the full parser tree prints."""

from __future__ import annotations

import argparse

import pytest

from towerlim import cli
from towerlim.cli import build_parser, main

# every parser path, and one usage error (exit 3) on it
PATHS = {
    (): [],
    ("converge",): ["--config", "x.json", "--mode", "both"],
    ("arnold",): ["--matrix", "1,1;1,0", "--ell", "three", "--n", "1"],
    ("zeta",): ["cubic"],
    ("zeta", "fermat"): ["--ell", "3", "--n", "1"],
    ("zeta", "as"): ["--ell", "3", "--n", "1", "--q", "7", "--m-max", "x"],
    ("zeta", "motivating"): ["--level", "x"],
    ("coleman",): [],
    ("coleman", "jacobi"): ["--ell", "3", "--q", "7", "--v1", "1"],
    ("coleman", "gauss"): ["--ell", "3", "--q", "7", "--v", "1", "--w"],
    ("qsum",): ["--config", "x.json"],
}


def run(argv, capsys, full):
    """What `main(argv)` prints and returns (or exits with), with the
    parser it builds itself or with the full tree."""
    with pytest.MonkeyPatch.context() as mp:
        if full:
            mp.setattr(cli, "build_parser", lambda argv=(): build_parser())
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, capsys.readouterr()


@pytest.mark.parametrize("path", list(PATHS), ids=lambda p: "-".join(p)
                         or "top")
def test_help_and_usage_errors_match_the_full_tree(path, capsys):
    for argv in ([*path, "--help"], [*path, *PATHS[path]]):
        lazy = run(argv, capsys, full=False)
        assert lazy == run(argv, capsys, full=True), argv
    code, (out, err) = lazy
    assert code == 3 and out == "" and "input error" in err


@pytest.mark.parametrize("argv", [["no-such-command"], ["-h"],
                                  ["zeta", "-h"], ["coleman", "cubic"]])
def test_unknown_names_and_top_level_help_match_the_full_tree(argv, capsys):
    assert run(argv, capsys, full=False) == run(argv, capsys, full=True)


def choices(parser):
    """{name: its own choices} for each subparser of `parser`."""
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return {name: choices(sub) if any(
        isinstance(a, argparse._SubParsersAction) for a in sub._actions)
        else None for name, sub in action.choices.items()}


def test_only_the_named_path_is_built():
    assert choices(build_parser(["converge", "--config", "c.json"])) == {
        "converge": None}
    assert choices(build_parser(["zeta", "as", "--q", "19"])) == {
        "zeta": {"as": None}}
    assert choices(build_parser(["coleman", "-h"])) == {
        "coleman": {"jacobi": None, "gauss": None}}
    full = {"converge": None, "arnold": None,
            "zeta": {"fermat": None, "as": None, "motivating": None},
            "coleman": {"jacobi": None, "gauss": None}, "qsum": None}
    assert choices(build_parser()) == full
    assert choices(build_parser(["-h"])) == full
    assert choices(build_parser(["zeta-as"])) == full
