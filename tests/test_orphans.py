"""No orphans in the package: every module-level function, class and
constant of ``src/pairpack`` is exported in ``pairpack.__all__`` or used
somewhere in the package outside its own definition, and so is every field,
property and method of a class that ``__all__`` does not export."""

import ast
import importlib
from pathlib import Path

import pairpack


def _members(cls: ast.ClassDef) -> list:
    """(name, node) of each field, property and method in a class body."""
    found = []
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node))
        elif isinstance(node, ast.Assign):
            found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
    return found


def _inherited(base: ast.expr, classes: dict) -> set:
    """The member names a base class brings: a package class's own and its
    bases', or the dir() of a builtin or a ``module.Class`` from outside the
    package."""
    if isinstance(base, ast.Name) and base.id in classes:
        cls = classes[base.id]
        return {name for name, _ in _members(cls)}.union(
            *(_inherited(b, classes) for b in cls.bases))
    module, _, name = ast.unparse(base).rpartition(".")
    return set(dir(getattr(importlib.import_module(module or "builtins"), name)))


def orphans(package: Path, exported) -> list:
    """``module.name`` of each module-level definition of the package's
    modules that is not in ``exported`` and that no Name or Attribute node
    of the package refers to outside the definition itself (imports do not
    count: a name only imported is not used); then ``module.Class.member``
    of each field, property and method of a class not in ``exported`` that
    no Attribute node reads outside the member itself.  Dunders, and
    members that override a base class's, are not orphans."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]
    defined = []                    # (module, name, the node that defines it)
    classes = {}                    # name -> its ClassDef
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined += [(module, n.id, node) for n in ast.walk(target)
                                if isinstance(n, ast.Name)]
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
    uses = {}                       # name -> the ids of the nodes that use it
    attributes = {}                 # attribute name -> the ids of the nodes that read it
    for _, tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, set()).add(id(node))
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                attributes.setdefault(node.attr, set()).add(id(node))
    found = []
    for module, name, node in defined:
        if name.startswith("__") or name in exported:
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not uses.get(name, set()) - inside:
            found.append(f"{module}.{name}")
    for module, tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in exported:
                continue
            inherited = set().union(*(_inherited(b, classes) for b in cls.bases))
            for name, node in _members(cls):
                if name.startswith("__") or name in inherited:
                    continue
                inside = {id(n) for n in ast.walk(node)}
                if not attributes.get(name, set()) - inside:
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def test_every_module_level_name_is_exported_or_used():
    assert orphans(Path(pairpack.__file__).parent, set(pairpack.__all__)) == []


def test_a_planted_orphan_is_found(tmp_path):
    # used only inside its own body, or only imported, or only assigned:
    # each is found; an exported name, a use elsewhere and a dunder are not.
    # Of an unexported class, a field no attribute reads and a method read
    # only inside itself are found; a member read elsewhere, a dunder and an
    # override of an imported base's method are not, nor any member of an
    # exported class
    (tmp_path / "a.py").write_text(
        "import argparse\n"
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "_ALONE = 4\n"
        "def public(): return LIMIT\n"
        "def _recursive(n): return _recursive(n - 1) if n else 0\n"
        "def _used(): return 1\n"
        "class _Imported: pass\n"
        "class _Record:\n"
        "    kept: int\n"
        "    dropped: int\n"
        "    def __init__(self): self.kept = 1\n"
        "    def again(self, n): return self.again(n - 1) if n else self.kept\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message): raise ValueError(message)\n"
        "class Public:\n"
        "    spare: int\n")
    (tmp_path / "b.py").write_text(
        "from .a import _Imported, _Parser, _Record, _used\n"
        "X = _used()\n"
        "Y = (_Record(), _Parser())\n")
    assert orphans(tmp_path, {"public", "X", "Y", "Public"}) == [
        "a._ALONE", "a._recursive", "a._Imported", "a._Record.dropped", "a._Record.again"]
