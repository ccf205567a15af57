"""No module of the package keeps a cache of its own.

Memos live on the objects whose lifetime they share, never in a module
global (see tests/test_module_state.py, which checks the imported
modules).  This reads each module's syntax tree instead, so a global
table is caught where it is written, whether or not it is filled yet: a
module or class body may bind no mutable container (a dict, list or set
display or comprehension, or a call that makes one), and no function may
be wrapped in `functools.cache` or `lru_cache`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fovea"
MODULES = sorted(SRC.glob("*.py"))

CONTAINER_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
                   "Counter", "ChainMap", "deque", "WeakValueDictionary",
                   "WeakKeyDictionary", "WeakSet"}
CACHES = {"cache", "lru_cache"}

# cli._parser: the argparse parser of each verb and the full one, at most
# 13 for the process; a parser holds no computed result
ALLOWED = {("cli.py", "_parser")}


def _name(node) -> str | None:
    """The last name of a Name or dotted Attribute, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _name(node.func) in CONTAINER_CALLS


def _bodies(tree: ast.Module):
    """The module body and every class body in it, nested classes
    included; a function's body runs per call and is not walked."""
    stack = [tree.body]
    while stack:
        body = stack.pop()
        yield body
        for node in body:
            if isinstance(node, ast.ClassDef):
                stack.append(node.body)
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
                stack.extend(getattr(node, field) for field in
                             ("body", "orelse", "finalbody") if getattr(node, field, None))
                stack.extend(h.body for h in getattr(node, "handlers", ()))


def offenders(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, bound name) of each module-level container and each cached
    function."""
    found = []
    for body in _bodies(tree):
        for node in body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            else:
                continue
            if value is not None and _is_container(value):
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            found.append((node.lineno, sub.id))
    decorators = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorators.add(dec)
                if _name(dec.func if isinstance(dec, ast.Call) else dec) in CACHES:
                    found.append((node.lineno, node.name))
    for node in ast.walk(tree):
        # functools.cache(f), or lru_cache(maxsize=n)(f), called directly
        if isinstance(node, ast.Call) and node not in decorators and _name(node.func) in CACHES:
            found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_level_cache(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"line {line}: {name}" for line, name in offenders(tree)
             if (path.name, name) not in ALLOWED]
    assert not found, f"{path.name} keeps module-level state: {found}"


def test_the_allowed_parser_table_is_still_there():
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [name for _, name in offenders(tree)] == ["_parser"]


def test_a_module_level_cache_is_caught():
    tree = ast.parse(
        "import functools\nfrom weakref import WeakValueDictionary\n"
        "NAMES = {}\nSEEN: list = []\nBY_ID = WeakValueDictionary()\n"
        "ROWS = [r for r in range(3)]\nFIXED = (1, 2)\nFROZEN = frozenset({1})\n"
        "if True:\n    LATE = set()\n"
        "class Memo:\n    table = dict()\n    def f(self):\n        local = {}\n\n"
        "@functools.lru_cache(maxsize=None)\ndef g(x):\n    return x\n\n"
        "@functools.cache\ndef h(x):\n    return x\n\n"
        "def k(x):\n    return x\n\nk2 = functools.cache(k)\n")
    assert sorted(name for _, name in offenders(tree)) == sorted(
        ["NAMES", "SEEN", "BY_ID", "ROWS", "LATE", "table", "g", "h", "functools.cache(k)"])
