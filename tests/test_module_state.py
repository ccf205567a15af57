"""No fovea module holds shared mutable state, and no caller hands one in.

Memos live on the objects whose lifetime they share (a BoundQuiver, a
VoltageQuiver, a PathBasis, the PairCache of one almost split certificate
or of one enumeration's final check, keyed on the modules), so nothing
survives a caller except through the values it holds.  A quiver owns its
path basis and its opposite, so no public callable takes either.
"""

import importlib
import inspect
import pkgutil
from collections.abc import MutableMapping, MutableSequence, MutableSet

import fovea


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
