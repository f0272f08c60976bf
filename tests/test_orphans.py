"""No orphans in the package: every module-level function, class and
constant of ``src/pairpack`` is exported in ``pairpack.__all__`` or used
somewhere in the package outside its own definition."""

import ast
from pathlib import Path

import pairpack


def orphans(package: Path, exported) -> list:
    """``module.name`` of each module-level definition of the package's
    modules that is not in ``exported`` and that no Name or Attribute node
    of the package refers to outside the definition itself (imports do not
    count: a name only imported is not used)."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))]
    defined = []                    # (module, name, the node that defines it)
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    defined += [(module, n.id, node) for n in ast.walk(target)
                                if isinstance(n, ast.Name)]
    uses = {}                       # name -> the ids of the nodes that use it
    for _, tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, set()).add(id(node))
    found = []
    for module, name, node in defined:
        if name.startswith("__") or name in exported:
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not uses.get(name, set()) - inside:
            found.append(f"{module}.{name}")
    return found


def test_every_module_level_name_is_exported_or_used():
    assert orphans(Path(pairpack.__file__).parent, set(pairpack.__all__)) == []


def test_a_planted_orphan_is_found(tmp_path):
    # used only inside its own body, or only imported, or only assigned:
    # each is found; an exported name, a use elsewhere and a dunder are not
    (tmp_path / "a.py").write_text(
        "__version__ = '1'\n"
        "LIMIT = 3\n"
        "_ALONE = 4\n"
        "def public(): return LIMIT\n"
        "def _recursive(n): return _recursive(n - 1) if n else 0\n"
        "def _used(): return 1\n"
        "class _Imported: pass\n")
    (tmp_path / "b.py").write_text("from .a import _Imported, _used\nX = _used()\n")
    assert orphans(tmp_path, {"public", "X"}) == ["a._ALONE", "a._recursive", "a._Imported"]
