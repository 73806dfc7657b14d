"""One square-and-multiply in the package.

A `while` loop whose body halves a name in place (`e >>= 1`) walks the
bits of an exponent.  `matrices.power` is the one such loop in
`src/towerlim`: every power of a matrix, polynomial or ring element goes
through it, with the product passed in.  Any other is flagged by the
qualified name of the function holding it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import towerlim

SRC = Path(towerlim.__file__).parent

POWERING = {"matrices.power"}


def _halves_a_name(node: ast.AST) -> bool:
    return (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.RShift)
            and isinstance(node.target, ast.Name)
            and isinstance(node.value, ast.Constant) and node.value.value == 1)


class _Halvings(ast.NodeVisitor):
    """Qualified names of the functions holding a halving `while` loop."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_While(self, node):
        if any(_halves_a_name(n) for stmt in node.body
               for n in ast.walk(stmt)):
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def halving_loops(src: Path) -> list[str]:
    found = []
    for p in sorted(src.glob("*.py")):
        visitor = _Halvings(p.stem)
        visitor.visit(ast.parse(p.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def test_the_only_powering_loop_is_matrices_power():
    assert [q for q in halving_loops(SRC) if q not in POWERING] == []


def test_a_second_powering_loop_is_flagged(tmp_path):
    (tmp_path / "kit.py").write_text(
        "class Ring:\n"
        "    def pow(self, x, e):\n"
        "        out = 1\n"
        "        while e:\n"
        "            if e & 1:\n"
        "                out *= x\n"
        "            x *= x\n"
        "            e >>= 1\n"
        "        return out\n\n\n"
        "def shift(e):\n"
        "    while e > 1:\n"
        "        e >>= 2\n"
        "    return [e >> 1 for _ in range(3)]\n")
    assert halving_loops(tmp_path) == ["kit.Ring.pow"]
