"""Every imported name, every private module-level name and every public
function, class and method is used, and no package module imports
another's private name: scans of the package and test sources.

An import is used when its name is loaded somewhere in the module. Names
listed in the module's `__all__` (re-exports) and imports on a line
marked `# noqa` are exempt. A private name (`_name`, not `__name__`)
that a package module defines at its top level is used when some package
module loads it or reads it as an attribute. A public function, class or
method (a top-level one, or a method of a top-level class; dunder methods
are called by Python) is used when the package or the benchmark's
non-test modules load it by name. No package module but `model.py`
imports `vfuncta.tensor` or names `Tensor`: the model alone makes and
unwraps parameter leaves, and its API speaks plain arrays. `tensor.py`
itself imports no module: it only holds the arrays the model took in.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "vfuncta").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
BENCH = [path for path in sorted((ROOT / "perfbench").glob("*.py"))
         if not path.name.startswith("test_")]
# tests call it to stop the pools of the runners they build
UNCALLED_EXPORTS = {"RowRunner.close"}


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    imported: dict[str, int] = {}
    exported: set[str] = set()
    loaded: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in loaded and name not in exported]


def test_no_unused_imports():
    assert {"model.py", "test_imports.py"} <= {path.name for path in SOURCES}
    unused = [entry for path in SOURCES for entry in unused_imports(path)]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names a module binds at its top level: functions,
    classes and assigned constants, by line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def loaded_names(trees) -> set[str]:
    """Every name the trees load, bare or as an attribute."""
    used: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def dead_private_names(paths: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    used = loaded_names(trees.values())
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in used]


def test_no_dead_private_names():
    assert {"container.py", "model.py"} <= {path.name for path in PACKAGE}
    dead = dead_private_names(PACKAGE)
    assert not dead, "private names never used in the package:\n" + "\n".join(dead)


def private_imports(path: Path) -> list[str]:
    """`from .module import _name` lines: a private name imported from
    another package module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


def test_no_module_imports_another_modules_private_name():
    assert "codec.py" in {path.name for path in PACKAGE}
    crossing = [entry for path in PACKAGE for entry in private_imports(path)]
    assert not crossing, "private names imported across modules:\n" + "\n".join(crossing)


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """The public functions and classes a module defines at its top level,
    and the public methods of those classes (`Class.method`), by line."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {}
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)) or node.name.startswith("_"):
            continue
        defined[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    defined[f"{node.name}.{item.name}"] = item.lineno
    return defined


def uncalled_exports(package: list[Path], callers: list[Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in package}
    used = loaded_names([*trees.values(),
                         *(ast.parse(path.read_text(), filename=str(path)) for path in callers)])
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in public_definitions(tree).items()
            if name.rpartition(".")[2] not in used and name not in UNCALLED_EXPORTS]


def test_every_public_definition_is_used_by_the_package_or_the_benchmark():
    assert {"heads.py", "parallel.py"} <= {path.name for path in PACKAGE}
    assert {"run.py", "workloads.py"} <= {path.name for path in BENCH}
    uncalled = uncalled_exports(PACKAGE, BENCH)
    assert not uncalled, "public names nobody outside the tests uses:\n" + "\n".join(uncalled)


def tensor_uses(path: Path) -> list[str]:
    """Imports of `vfuncta.tensor` (or of its names) and uses of the name
    `Tensor` in a module, by line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hit = (node.module in ("tensor", "vfuncta.tensor")
                   or any(alias.name in ("tensor", "Tensor") for alias in node.names))
        elif isinstance(node, ast.Import):
            hit = any(alias.name == "vfuncta.tensor" for alias in node.names)
        else:
            hit = (isinstance(node, ast.Name) and node.id == "Tensor"
                   or isinstance(node, ast.Attribute) and node.attr == "Tensor")
        if hit:
            found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_only_the_model_makes_tensor_leaves():
    assert {"model.py", "tensor.py", "container.py"} <= {path.name for path in PACKAGE}
    assert tensor_uses(ROOT / "src" / "vfuncta" / "model.py")
    uses = [entry for path in PACKAGE if path.name != "model.py" for entry in tensor_uses(path)]
    assert not uses, "Tensor leaves outside the model:\n" + "\n".join(uses)


def test_the_tensor_module_imports_nothing():
    path = ROOT / "src" / "vfuncta" / "tensor.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, "imports in the tensor module:\n" + "\n".join(imports)
