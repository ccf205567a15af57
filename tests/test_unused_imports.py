"""No module of the package imports a name it never uses.

No linter ships with the project, so this reads each module's syntax tree
with the standard library.  `__init__.py` is skipped: it imports names to
re-export them.  A name counts as used where it is loaded anywhere in the
module, the base of an attribute included, or where it appears in a
quoted annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fovea"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each module-level imported name and the line that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"line {line}: {name}" for name, line in _imported(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom x import a, b as c\n\n"
                     "def f(y: 'a') -> int:\n    return os.sep\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["c"]
