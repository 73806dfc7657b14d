"""No function, class, method or module-level name in the package goes
unread.

Every module-level `def`/`class`, every name a module-level assignment binds
(guard constants, type aliases) and every non-dunder method of a module in
`src/towerlim` (the re-exporting `__init__.py` aside) must be read somewhere
in the package, outside its own definition:

* a module-level name through a loaded `ast.Name` in its own module or in a
  module that binds it with `from .module import name`, or through a loaded
  `module.name`;
* a method through a loaded `ast.Attribute` of its name, never a bare Name
  (a local variable that shares the name reads nothing); a `self.name`
  read counts only inside the method's own class.

Other attribute names are not resolved by type, so any `x.add` still counts
as a read of every method named `add`: that is how `set.add` once hid an
unread `FqField.add`.  Code that only tests read belongs in the tests; a
name that stays for another reason is listed in KEEP with that reason.

Every name an `import` binds in such a module must be loaded by that module
too (`from __future__` aside).
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
    "s_rho_n": "acceptance criterion 5",
    "primitive_char_sum": "acceptance criterion 5",
}


def _definitions(tree):
    """(qualified name, node, class node or None) of each module-level
    def/class, each name a module-level assignment binds, and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub, node


def _self_reads(node) -> Counter:
    """Counts of the names `node` loads as `self.name`."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load)
                   and isinstance(n.value, ast.Name) and n.value.id == "self")


def _reads(tree, module: str, own: bool):
    """Counts of the module-level names of `module` and of the method names
    that `tree` loads, `self.name` aside.  `own` says `tree` is (part of)
    `module` itself."""
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
            on = n.value.id if isinstance(n.value, ast.Name) else None
            if on != "self":
                attrs[n.attr] += 1
            if on == module:
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
        for qualname, node, cls in _definitions(tree):
            kind = 1 if cls else 0  # a method: attributes only
            name = qualname.rsplit(".", 1)[-1]
            inside = _reads(node, module, True)[kind][name]
            if (own[kind][name] == inside
                    and not any(r[kind][name] for r in elsewhere)
                    and (cls is None or _self_reads(cls)[name]
                         == _self_reads(node)[name])):
                unread.append(f"{module}.{qualname}")
    return unread


def unread_imports(src: Path) -> list[str]:
    """`module.name` of each name an import binds in `module` that the
    module never loads."""
    unread = []
    for p in sorted(src.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    if name not in loaded:
                        unread.append(f"{p.stem}.{name}")
    return unread


def test_every_definition_is_read_or_kept():
    unread = [q for q in unread_definitions(SRC)
              if q.split(".", 1)[1] not in KEEP]
    assert unread == []


def test_every_kept_name_is_defined_and_unread():
    # A KEEP entry whose name is gone, or has gained a reader, is stale.
    unread = {q.split(".", 1)[1] for q in unread_definitions(SRC)}
    assert sorted(set(KEEP) - unread) == []


def test_an_unread_module_constant_is_flagged(tmp_path):
    (tmp_path / "guards.py").write_text(
        "CAP = 1\nUSED: int = 2\n\n\ndef f():\n    return USED\n")
    (tmp_path / "main.py").write_text("from .guards import f\n\nf()\n")
    assert unread_definitions(tmp_path) == ["guards.CAP"]


def test_a_self_read_counts_only_for_its_own_class(tmp_path):
    # A.one's self.make reads A.make, not B.make; B.make's own recursive
    # self.make reads nothing
    (tmp_path / "rings.py").write_text(
        "class A:\n    def make(self):\n        return 1\n\n"
        "    def one(self):\n        return self.make()\n\n\n"
        "class B:\n    def make(self):\n        return self.make()\n\n"
        "    def one(self):\n        return 2\n\n\n"
        "A().one()\nB().one()\n")
    assert unread_definitions(tmp_path) == ["rings.B.make"]


def test_every_import_is_read():
    assert unread_imports(SRC) == []


def test_an_unread_import_is_flagged(tmp_path):
    (tmp_path / "kit.py").write_text(
        "from __future__ import annotations\n\nimport os\nimport sys\n"
        "from itertools import chain, product as prod\n\n\n"
        "def f():\n    return sys.argv, chain\n")
    assert unread_imports(tmp_path) == ["kit.os", "kit.prod"]
