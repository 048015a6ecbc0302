import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import genocchi

MODULES = ["genocchi"] + [f"genocchi.{m.name}" for m in pkgutil.iter_modules(genocchi.__path__)]
SOURCES = sorted(Path(genocchi.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
    assert len(MODULES) > 5
    assert not missing, missing


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads; an __all__ entry counts as a read."""
    tree = ast.parse(path.read_text())
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert len(SOURCES) > 10
    unused = [entry for path in SOURCES for entry in _unused_imports(path)]
    assert not unused, unused


def test_no_test_module_imports_another():
    # a helper two test modules share belongs in an oracle module, not in either test file
    offenders = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[-1].startswith("test_")]
    assert not offenders, offenders


def test_oracles_import_no_private_name():
    # an oracle that borrows a helper of the code it checks is not independent of it
    offenders = []
    for name in ("oracles.py", "density_oracles.py"):
        path = Path(__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or not (node.module or "").startswith("genocchi"):
                continue
            offenders += [f"{name}:{node.lineno} {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(node: ast.AST):
    """The nodes of one function body, not descending into nested scopes."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _own_nodes(child)


def _unused_locals(path: Path) -> list[str]:
    """Names a function binds by a plain `name = ...` and never reads, nested scopes included.

    `x += ...` counts as a read, and names that start with "_" are skipped.
    """
    unused = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = {
            target.id: node.lineno
            for node in _own_nodes(func)
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and not target.id.startswith("_")
        }
        read = set()
        for node in ast.walk(func):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
        unused += [f"{path.name}:{line} {func.name}: {name}" for name, line in bound.items()
                   if name not in read]
    return unused


def test_no_unused_locals():
    unused = [entry for path in SOURCES for entry in _unused_locals(path)]
    assert not unused, unused


def _bindings(tree: ast.Module):
    """(name, node) for each def and class anywhere, and each plain name bound by
    `=` or `: T =` at module level or in a class body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from ((t.id, node) for t in targets if isinstance(t, ast.Name))


def test_no_unreferenced_private_names():
    # a helper, class or table left behind when its reader is replaced: a private
    # def, class or module- or class-level assignment in the package that no
    # source file of the package reads. A def's reads of its own name (recursion)
    # do not count. Every tree stays alive to the end, so no node id is reused.
    trees = {path: ast.parse(path.read_text())
             for path in sorted(Path(genocchi.__file__).parent.glob("*.py"))}
    defined: dict[str, str] = {}
    own: dict[str, set[int]] = {}  # name -> the ids of the nodes inside its own defs
    reads: list[tuple[str, int]] = []
    for path, tree in trees.items():
        for name, node in _bindings(tree):
            if name.startswith("_") and not name.endswith("__"):
                defined[name] = f"{path.name}:{node.lineno}"
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    own.setdefault(name, set()).update(map(id, ast.walk(node)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((node.id, id(node)))
            elif isinstance(node, ast.Attribute):
                reads.append((node.attr, id(node)))
    read = {name for name, node in reads if node not in own.get(name, ())}
    assert len(defined) > 10
    unreferenced = [f"{where} {name}" for name, where in defined.items() if name not in read]
    assert not unreferenced, unreferenced


def test_import_starts_no_process_machinery():
    # the B-stage imports its process pool when it needs one; at import time it
    # would add ~12 ms to every command, warm or not
    check = (
        "import genocchi, sys; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))"
    )
    src = Path(genocchi.__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-c", check], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out.strip() == "[]"
