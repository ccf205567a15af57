"""Machine-readable reports with deterministic serialization.

Reports carry exact values only: integers, strings and booleans, with
rationals rendered as p/q strings.  Serialization sorts keys and never
embeds timestamps, so a rerun with the same inputs, seed and field is
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import __version__
from .modules import Module


def jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    if isinstance(value, Module):
        dims = ",".join(str(value.dims[v]) for v in value.bq.vertices)
        return f"module[{dims}]"
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return repr(value)


@dataclass
class CheckRecord:
    check: str
    expected: object
    actual: object
    ok: bool


@dataclass
class Report:
    """The outcome of a check or a suite: records plus named verdicts.

    A suite's report also names its field, seed and inputs; a library
    check leaves them empty.  Records are rendered as id/expected/actual/
    pass entries only when the report is serialized.
    """

    name: str
    field: str = ""
    seed: int = 0
    inputs: list[dict] = dc_field(default_factory=list)
    records: list[CheckRecord] = dc_field(default_factory=list)
    verdicts: dict[str, str] = dc_field(default_factory=dict)

    def add(self, check: str, expected, actual) -> bool:
        ok = expected == actual
        self.records.append(CheckRecord(check, expected, actual, ok))
        return ok

    def assert_true(self, check: str, value: bool, detail=None):
        self.records.append(CheckRecord(check, True, detail if detail is not None else bool(value), bool(value)))

    def absorb(self, other: "Report", prefix: str = ""):
        self.verdicts.update(other.verdicts)
        self.records.extend(CheckRecord(prefix + r.check, r.expected, r.actual, r.ok)
                            for r in other.records)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def _checks(self) -> list[dict]:
        checks = [{"id": r.check, "expected": jsonable(r.expected),
                   "actual": jsonable(r.actual), "pass": bool(r.ok)} for r in self.records]
        return sorted(checks, key=lambda c: c["id"])

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "version": __version__,
            "field": self.field,
            "seed": self.seed,
            "inputs": self.inputs,
            "verdicts": jsonable(self.verdicts),
            "checks": self._checks(),
            "pass": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"suite {self.name}  field {self.field}  seed {self.seed}"]
        for entry in self.inputs:
            lines.append(f"input {entry['path']}  sha256 {entry['sha256'][:16]}")
        for key in sorted(self.verdicts):
            lines.append(f"verdict {key}: {self.verdicts[key]}")
        for c in self._checks():
            mark = "ok  " if c["pass"] else "FAIL"
            lines.append(f"{mark} {c['id']}  expected {c['expected']}  actual {c['actual']}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"
