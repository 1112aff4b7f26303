"""Every imported name is used: a scan of the package and test sources.

An import is used when its name is loaded somewhere in the module. Names
listed in the module's `__all__` (re-exports) and imports on a line
marked `# noqa` are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "vfuncta").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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
