"""No function, class or method in the package goes unread.

Every module-level `def`/`class` and every non-dunder method of a module in
`src/towerlim` (the re-exporting `__init__.py` aside) must be read somewhere
in the package, outside its own definition:

* a module-level name through a loaded `ast.Name` in its own module or in a
  module that binds it with `from .module import name`, or through a loaded
  `module.name`;
* a method through a loaded `ast.Attribute` of its name, never a bare Name
  (a local variable that shares the name reads nothing).

Attribute names are not resolved by type, so any `x.add` still counts as a
read of every method named `add`: that is how `set.add` once hid an unread
`FqField.add`.  Code that only tests read belongs in the tests; a name that
stays for another reason is listed in KEEP with that reason.
"""

from __future__ import annotations

import ast
from collections import Counter
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


def _reads(tree, module: str, own: bool):
    """Counts of the module-level names of `module` and of the method names
    that `tree` loads.  `own` says `tree` is (part of) `module` itself."""
    bound = {a.asname or a.name: a.name
             for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.level == 1
             and n.module == module for a in n.names}
    names, attrs = Counter(), Counter()
    for n in ast.walk(tree):
        if not isinstance(getattr(n, "ctx", None), ast.Load):
            continue
        if isinstance(n, ast.Name) and (own or n.id in bound):
            names[n.id if own else bound[n.id]] += 1
        elif isinstance(n, ast.Attribute):
            attrs[n.attr] += 1
            if isinstance(n.value, ast.Name) and n.value.id == module:
                names[n.attr] += 1
    return names, attrs


def unread_definitions(src: Path) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.glob("*.py")) if p.name != "__init__.py"}
    unread = []
    for module, tree in trees.items():
        elsewhere = [_reads(t, module, False)
                     for m, t in trees.items() if m != module]
        own = _reads(tree, module, True)
        for qualname, node in _definitions(tree):
            kind = 1 if "." in qualname else 0  # a method: attributes only
            name = qualname.rsplit(".", 1)[-1]
            inside = _reads(node, module, True)[kind][name]
            if (own[kind][name] == inside
                    and not any(r[kind][name] for r in elsewhere)):
                unread.append(f"{module}.{qualname}")
    return unread


def test_every_definition_is_read_or_kept():
    unread = [q for q in unread_definitions(SRC)
              if q.split(".", 1)[1] not in KEEP]
    assert unread == []


def test_every_kept_name_is_defined_and_unread():
    # A KEEP entry whose name is gone, or has gained a reader, is stale.
    unread = {q.split(".", 1)[1] for q in unread_definitions(SRC)}
    assert sorted(set(KEEP) - unread) == []
