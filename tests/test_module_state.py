"""No fovea module holds shared mutable state, and no caller hands one in.

Memos live on the objects whose lifetime they share (a BoundQuiver, a
VoltageQuiver, a PathBasis, a Module's hom dimensions, the PairCache of
one almost split certificate or of one enumeration's final check, keyed
on the modules), so nothing survives a caller except through the values
it holds.  A Module keeps dim Hom(M, N) beside a weak reference to N, so
the memo keeps no partner alive and makes no cycle, not even for
End(M): both die without the cycle collector, and an entry whose partner
died answers for no later module.  The one table a
process keeps is `cli._parser`'s: the command line parser of each verb,
which holds no computed result.  A quiver owns its path basis and its
opposite, so no public callable takes either.
"""

import gc
import importlib
import inspect
import pkgutil
import weakref
from collections.abc import MutableMapping, MutableSequence, MutableSet

import fovea
import fovea.cli
from fovea.linalg import Field, Matrix
from fovea.modules import Module, hom_dim, hom_space
from fovea.quiver import BoundQuiver


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


LINE = BoundQuiver(["1", "2"], [("a", "1", "2")], [], Field.gf(7), 2)


def _line_module(top, bottom):
    """The module k^top <- k^bottom over 1 -> 2 with M(a) the identity or 0."""
    f = LINE.field
    a = Matrix.identity(f, top) if top == bottom else Matrix.zeros(f, top, bottom)
    return Module(LINE, {"1": top, "2": bottom}, {"a": a})


def test_the_hom_memo_keeps_no_module_alive():
    gc.disable()
    try:
        m, n = _line_module(1, 1), _line_module(0, 1)
        assert hom_space(m, n).dim == 1 and hom_space(m, m).dim == 1
        assert hom_dim(n, m) == 0
        partner, endo = weakref.ref(n), weakref.ref(m)
        del n
        assert partner() is None
        del m
        assert endo() is None
    finally:
        gc.enable()


def test_a_dead_partner_answers_for_no_later_module():
    m = _line_module(1, 1)
    assert hom_dim(m, _line_module(0, 1)) == 1
    # the first partner died; its entry is read before a later partner can
    # take over its id and its entry with it
    ref, dim = next(iter(m._hom_dims.values()))
    assert ref() is None and dim == 1
    # a later one is solved, not read off the dead entry
    later = _line_module(1, 0)
    assert hom_dim(m, later) == 0 == len(hom_space(m, later).maps)
    # the same when the later partner takes over the dead one's id
    m._hom_dims[id(later)] = (ref, dim)
    assert hom_dim(m, later) == 0
    assert m._hom_dims[id(later)][0]() is later
