"""No function, class or method in the package goes unread.

Every module-level `def`/`class` and every non-dunder method of a module in
`src/towerlim` (the re-exporting `__init__.py` aside) must be read somewhere
in the package: its name must appear as a loaded `ast.Name` or
`ast.Attribute` in another module, or in its own module outside its own
definition.  Code that only tests read belongs in the tests; a name that
stays for another reason is listed in KEEP with that reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

import towerlim

SRC = Path(towerlim.__file__).parent

# Library entry points tests/test_acceptance.py calls by criterion number.
KEEP = {
    "_Parser.error": "argparse calls it on a parse error",
    "CycloElem.galois_act": "the Galois transport of the tower engine "
                            "(ROADMAP open item 2) reads it",
    "s_rho_n": "acceptance criterion 5",
    "primitive_char_sum": "acceptance criterion 5",
    "fermat_point_count": "acceptance criterion 8",
    "artin_schreier_point_count": "acceptance criterion 8",
}


def _definitions(tree):
    """(qualified name, node) of each module-level def/class and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub


def _reads(tree, skip=None):
    """Names loaded as a Name or an Attribute, outside the node skip."""
    skipped = {id(n) for n in ast.walk(skip)} if skip else set()
    out = set()
    for n in ast.walk(tree):
        if id(n) in skipped or not isinstance(getattr(n, "ctx", None),
                                              ast.Load):
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unread_definitions(src: Path) -> list[str]:
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    unread = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            elsewhere = any(name in r for m, r in reads.items() if m != module)
            if not elsewhere and name not in _reads(tree, skip=node):
                unread.append(f"{module[:-3]}.{qualname}")
    return unread


def test_every_definition_is_read_or_kept():
    unread = [q for q in unread_definitions(SRC)
              if q.split(".", 1)[1] not in KEEP]
    assert unread == []


def test_every_kept_name_is_defined_and_unread():
    # A KEEP entry whose name is gone, or has gained a reader, is stale.
    unread = {q.split(".", 1)[1] for q in unread_definitions(SRC)}
    assert sorted(set(KEEP) - unread) == []
