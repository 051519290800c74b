"""Static hygiene of the sources, read with ``ast``: no import that its
module never uses (in ``src/`` and ``tests/``), no module-level private
name in ``src/`` that nothing in ``src/`` uses, no ``__all__`` entry in
``src/`` that names nothing the module binds, and no dataclass field in
``src/`` that nothing reads."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    read |= _exported(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    out.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return out


@pytest.mark.parametrize("path", SRC + TESTS, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert _unused_imports(path) == []


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Names a module defines or assigns at module level."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
    return out


def _private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level private (not dunder) names a module defines."""
    return [(name, line) for name, line in _definitions(tree)
            if name.startswith("_") and not name.startswith("__")]


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, as bare names, attributes or imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_name_in_src_is_used_in_src():
    trees = {path: _tree(path) for path in SRC}
    used = set().union(*(_references(tree) for tree in trees.values()))
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees.items()
              for name, line in _private_definitions(tree) if name not in used]
    assert unused == []


def test_every_exported_name_is_bound():
    # an ``__all__`` entry must name something the module defines, assigns
    # or imports at module level, so a deletion cannot leave one behind
    missing = []
    for path in SRC:
        tree = _tree(path)
        bound = {name for name, _ in _definitions(tree)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        missing += [f"{path.relative_to(ROOT)} {name}"
                    for name in sorted(_exported(tree) - bound)]
    assert missing == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _attribute_reads(tree: ast.Module) -> set[str]:
    """Attribute names a module reads, as ``x.name`` or ``getattr(x, "name")``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            out.add(node.args[1].value)
    return out


def test_every_dataclass_field_is_read():
    # a field that nothing reads is carried for no one, and a deletion of
    # its last reader should take the field too
    read = set().union(*(_attribute_reads(_tree(path))
                         for path in SRC + TESTS + PERFBENCH))
    unread = []
    for path in SRC:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)]
            unread += [f"{path.relative_to(ROOT)}:{f.lineno} {node.name}.{f.target.id}"
                       for f in fields if f.target.id not in read]
    assert unread == []
