"""Every refusal in the package names its field.

Each `InputError(...)` call in `src/towerlim` must pass `field=`, the key,
option or parameter at fault, so a caller can point at it without parsing
the message.  A refusal that has no such field is listed in FIELDLESS by
the qualified name of the function that raises it, with the reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import towerlim

SRC = Path(towerlim.__file__).parent

FIELDLESS = {
    "cli._Parser.error": "argparse's usage message names the option itself",
    "config.parse_config": "re-raises a refusal with its context, field "
                           "included",
    "cyclo.CycloElem._coerce": "two elements of different rings: no input "
                               "key is at fault",
    "cyclo.BiCycloElem._coerce": "two elements of different rings",
    "cyclo.BiCycloRing.from_cyclo": "an element of a different ring",
    "fields.FqField.dlog": "dlog(0) is a misuse of an element, not input",
}


class _Refusals(ast.NodeVisitor):
    """Qualified names of the functions holding a fieldless InputError."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "InputError"
                and not any(k.arg == "field" for k in node.keywords)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def fieldless_refusals(src: Path) -> list[str]:
    found = []
    for p in sorted(src.glob("*.py")):
        visitor = _Refusals(p.stem)
        visitor.visit(ast.parse(p.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def test_every_refusal_names_its_field():
    assert [q for q in fieldless_refusals(SRC) if q not in FIELDLESS] == []


def test_every_fieldless_entry_still_refuses_without_a_field():
    assert sorted(set(FIELDLESS) - set(fieldless_refusals(SRC))) == []


def test_a_fieldless_refusal_is_flagged(tmp_path):
    (tmp_path / "kit.py").write_text(
        "from .errors import InputError\n\n\n"
        "class Ring:\n"
        "    def check(self, n):\n"
        "        if n < 0:\n"
        "            raise InputError('n must be >= 0', field='n')\n"
        "        if n > 9:\n"
        "            raise InputError('n must be < 10')\n\n\n"
        "def f(x):\n"
        "    raise InputError(f'bad {x}', level=1)\n")
    assert fieldless_refusals(tmp_path) == ["kit.Ring.check", "kit.f"]
