"""Static hygiene of the sources, read with ``ast``: no import that its
module never uses (in ``src/`` and ``tests/``), no module-level private
name in ``src/`` that nothing in ``src/`` uses, no ``__all__`` entry in
``src/`` that names nothing the module binds, no dataclass field in
``src/`` that nothing reads, no import of ``scipy.sparse`` or
``scipy.linalg`` in ``src/`` (checked in a verdict run as well), one
spelling of each flavor vocabulary in ``src/``, and no
transform outside the spectral core: only ``torus`` imports ``scipy.fft``,
and inside it only ``_Spectral`` and ``_PrunedFFT`` call it, and the cache
that interns the cores is the only cache in ``src/``, so every Fourier
symbol is a table of a core."""

import ast
import os
import subprocess
import sys
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


# the norm estimates run their own Lanczos on numpy; these two would add
# megabytes of resident memory and BLAS calls to every run
_BANNED = ("scipy.sparse", "scipy.linalg")


def _imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names a module imports, with ``from a import b`` read as
    both ``a`` and ``a.b``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def _banned(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in _BANNED)


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_sparse_or_dense_linalg_import(path):
    assert sorted(m for m in _imported_modules(_tree(path)) if _banned(m)) == []


def test_verdict_run_loads_neither_scipy_sparse_nor_linalg():
    code = ("import sys\n"
            "from formbound.cli import main\n"
            "assert main(['verdict', '--dim', '3', '--grid', '16', '--threads', '1']) == 0\n"
            "print(','.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    loaded = done.stdout.strip().splitlines()[-1].split(",")
    assert [m for m in loaded if _banned(m)] == []


# every transform goes through torus._Spectral (or torus._PrunedFFT, which
# the capacity solver and the band draw run), so the choice of path and the scipy
# arguments that fix every bit are made in one place
TORUS = ROOT / "src" / "formbound" / "torus.py"


def _fft_aliases(tree: ast.Module) -> set[str]:
    """The names a module binds ``scipy.fft`` to."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy":
            out.update(alias.asname or alias.name for alias in node.names
                       if alias.name == "fft")
        elif isinstance(node, ast.Import):
            out.update(alias.asname for alias in node.names
                       if alias.name == "scipy.fft" and alias.asname)
    return out


@pytest.mark.parametrize("path", [p for p in SRC if p != TORUS],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_transform_outside_torus(path):
    tree = _tree(path)
    fft = sorted(m for m in _imported_modules(tree)
                 if m == "scipy.fft" or m.startswith("scipy.fft."))
    assert fft == []


def test_only_the_spectral_core_calls_scipy_fft():
    tree = _tree(TORUS)
    aliases = _fft_aliases(tree)
    assert aliases
    callers = {getattr(node, "name", f"line {node.lineno}") for node in tree.body
               if not isinstance(node, (ast.Import, ast.ImportFrom))
               and any(isinstance(n, ast.Name) and n.id in aliases for n in ast.walk(node))}
    assert callers == {"_Spectral", "_PrunedFFT"}


def _cached_names(tree: ast.Module) -> set[str]:
    """The names a module binds to functions wrapped in functools'
    ``lru_cache`` or ``cache``."""
    def caches(node):
        return any(isinstance(n, ast.Name) and n.id in ("lru_cache", "cache")
                   or isinstance(n, ast.Attribute) and n.attr in ("lru_cache", "cache")
                   for n in ast.walk(node))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and any(caches(d) for d in node.decorator_list):
            out.add(node.name)
        elif isinstance(node, ast.Assign) and caches(node.value):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def test_the_core_cache_is_the_only_cache_in_src():
    # every Fourier symbol is a table of an interned core, built at its
    # path's shape, and every transform plan is built by its caller: no
    # module keeps a cache beside the cores' own
    cached = {f"{path.stem}.{name}" for path in SRC for name in _cached_names(_tree(path))}
    assert cached == {"torus._core"}


def test_one_flavor_vocabulary_in_src():
    # measures.FLAVORS is the one tuple of norm flavors, which formnorm,
    # capacity, hodge and the CLI read, and oscillation.FLAVORS the one
    # tuple of oscillation flavors, which the CLI reads: a new flavor
    # cannot reach one reader and miss another
    for vocabulary, home in ((["homogeneous", "inhomogeneous"], "measures"),
                             (["BMO", "bmo", "BMO_sharp"], "oscillation")):
        spelled = [f"{path.relative_to(ROOT)}:{node.lineno}"
                   for path in SRC for node in ast.walk(_tree(path))
                   if isinstance(node, (ast.Tuple, ast.List))
                   and [getattr(e, "value", None) for e in node.elts] == vocabulary]
        assert len(spelled) == 1 and \
            spelled[0].startswith(f"src/formbound/{home}.py:"), spelled
