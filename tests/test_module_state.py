"""No fovea module holds shared mutable state.

Memos live on the objects whose lifetime they share (a VoltageQuiver, a
PathBasis, the PairCache of one almost split certificate or of one
enumeration's final check, keyed on the modules), so nothing survives a
caller except through the values it holds.
"""

import importlib
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
