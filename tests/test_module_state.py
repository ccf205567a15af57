"""No fovea module holds shared mutable state, and no caller hands one in.

Memos live on the objects whose lifetime they share (a BoundQuiver, a
VoltageQuiver, a PathBasis, the PairCache of one almost split certificate
or of one enumeration's final check, keyed on the modules), so nothing
survives a caller except through the values it holds.  The one table a
process keeps is `cli._parser`'s: the command line parser of each verb,
which holds no computed result.  A quiver owns its path basis and its
opposite, so no public callable takes either.
"""

import importlib
import inspect
import pkgutil
from collections.abc import MutableMapping, MutableSequence, MutableSet

import fovea
import fovea.cli


def test_no_module_level_mutable_containers():
    offenders = []
    for info in pkgutil.iter_modules(fovea.__path__, "fovea."):
        mod = importlib.import_module(info.name)
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            if isinstance(value, (MutableMapping, MutableSequence, MutableSet)):
                offenders.append(f"{info.name}.{name}")
    assert not offenders


def test_the_only_function_cache_is_the_parser_table():
    """A function cache is a module-level table the container scan above
    does not see; the parser table is the only one, keyed by verb."""
    caches = []
    for info in pkgutil.iter_modules(fovea.__path__, "fovea."):
        mod = importlib.import_module(info.name)
        for name, value in vars(mod).items():
            if callable(value) and hasattr(value, "cache_info"):
                caches.append(f"{info.name}.{name}")
    assert caches == ["fovea.cli._parser"]
    fovea.cli.main(["fixtures"])
    info = fovea.cli._parser.cache_info()
    assert 1 <= info.currsize <= len(fovea.cli._VERBS) + 1


def _public_callables(mod):
    for name, value in vars(mod).items():
        if name.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_path_basis_or_an_opposite_quiver():
    offenders = []
    for info in pkgutil.iter_modules(fovea.__path__, "fovea."):
        mod = importlib.import_module(info.name)
        for name, fn in _public_callables(mod):
            taken = {"basis", "op_basis", "op"} & set(inspect.signature(fn).parameters)
            if taken:
                offenders.append(f"{info.name}.{name}({', '.join(sorted(taken))})")
    assert not offenders
