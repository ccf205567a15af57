"""Fixture registry and the name grammar for modules and functors.

Quiver inputs resolve against the filesystem first and then against the
files packaged under fovea/fixtures, so `line-k2.vq` works from anywhere.
Module specs name the standard modules: S/P/I plus a vertex over an
algebra (`S1`, `P2`, `I@v`), and S/M/P plus a layer over a graded cover
(`S0`, `M-1`, `S@v@2`); `@path` loads a module file.
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

from .covering import LayeredModule, layered_injective, layered_projective, layered_simple
from .functors import FpFunctor, hom_functor, simple_functor, simple_functor_cover
from .linalg import parse_field_spec, parse_int
from .modules import Module, parse_module, projective, simple, injective
from .quiver import BoundQuiver, VoltageQuiver, parse_quiver


class FixtureError(ValueError):
    pass


def _fixture_root():
    return resources.files("fovea") / "fixtures"


def fixture_names() -> list[str]:
    out = []
    for entry in _fixture_root().iterdir():
        if entry.name.endswith((".bq", ".vq")):
            out.append(entry.name)
    return sorted(out)


def read_input(spec: str) -> tuple[str, bytes]:
    """(display name, raw bytes) for a path or a packaged fixture name."""
    p = Path(spec)
    if p.exists():
        return str(p), p.read_bytes()
    candidate = _fixture_root() / p.name
    if candidate.is_file():
        return f"fixtures/{p.name}", candidate.read_bytes()
    raise FixtureError(f"no such input: {spec}")


def load_quiver(spec: str, field_override: str | None = None):
    """Parse a quiver input, optionally overriding its field line.

    A bad override is a usage error that names it.  The override replaces
    each field line in place, or is appended as the last line, so every
    other line keeps its number in a parse error.
    """
    name, raw = read_input(spec)
    text = raw.decode("utf-8")
    if field_override:
        try:
            line = "field " + parse_field_spec(field_override).spec()
        except ValueError as e:
            raise FixtureError(f"field override {field_override!r}: {e}") from None
        lines = [line if ln.split("#", 1)[0].split()[:1] == ["field"] else ln
                 for ln in text.splitlines()]
        text = "\n".join(lines if line in lines else lines + [line]) + "\n"
    return name, hashlib.sha256(raw).hexdigest(), parse_quiver(text)


def resolve_module(bq: BoundQuiver, spec: str) -> Module:
    spec = spec.strip()
    if spec.startswith("@"):
        path = Path(spec[1:])
        return parse_module(bq, path.read_text())
    kind, vertex = _split_kind(spec, bq.vertices)
    if kind == "S":
        return simple(bq, vertex)
    if kind == "P":
        return projective(bq, vertex)
    if kind == "I":
        return injective(bq, vertex)
    raise FixtureError(f"unknown module spec {spec!r}")


def _split_kind(spec: str, vertices) -> tuple[str, str]:
    if "@" in spec:
        kind, _, vertex = spec.partition("@")
    else:
        kind, vertex = spec[:1], spec[1:]
    kind = kind.upper()
    if vertex not in vertices:
        raise FixtureError(f"unknown vertex {vertex!r} in module spec {spec!r}")
    return kind, vertex


def resolve_layered(vq: VoltageQuiver, spec: str) -> LayeredModule:
    """S<k>: simple at layer k; M<k>: injective at layer k; full forms
    S@v@k, P@v@k, I@v@k (M is an alias of I)."""
    spec = spec.strip()
    parts = spec.split("@")
    base = vq.base
    if len(parts) == 3:
        kind, vertex, layer = parts[0].upper(), parts[1], parts[2]
    elif len(parts) == 1:
        kind, layer = spec[:1].upper(), spec[1:]
        if len(base.vertices) != 1:
            raise FixtureError(
                f"short spec {spec!r} needs a single-vertex base; use kind@vertex@layer")
        vertex = base.vertices[0]
    else:
        raise FixtureError(f"bad layered module spec {spec!r}")
    try:
        layer = parse_int(layer)
    except ValueError:
        raise FixtureError(f"bad layered module spec {spec!r}") from None
    if vertex not in base.vertex_index:
        raise FixtureError(f"unknown vertex {vertex!r}")
    if kind == "S":
        return layered_simple(vq, vertex, layer)
    if kind in ("M", "I"):
        return layered_injective(vq, vertex, layer)
    if kind == "P":
        return layered_projective(vq, vertex, layer)
    raise FixtureError(f"unknown layered module spec {spec!r}")


def resolve_functor(carrier, spec: str, enum=None) -> FpFunctor:
    """H@<module>: representable; S@<module>: simple functor, which over an
    algebra is built on the list of indecomposables given."""
    spec = spec.strip()
    kind, _, rest = spec.partition("@")
    kind = kind.upper()
    if isinstance(carrier, VoltageQuiver):
        target = resolve_layered(carrier, rest)
        if kind in ("H", "HOM"):
            return hom_functor(carrier, target)
        if kind == "S":
            return simple_functor_cover(carrier, target)
    else:
        target = resolve_module(carrier, rest)
        if kind in ("H", "HOM"):
            return hom_functor(carrier, target)
        if kind == "S":
            if enum is None:
                raise FixtureError(f"simple functor {spec!r} over an algebra needs its list "
                                   "of indecomposables")
            return simple_functor(carrier, target, enum)
    raise FixtureError(f"unknown functor spec {spec!r}")
