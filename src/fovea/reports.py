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
class VerifyReport:
    """The outcome of one library check: records plus named verdicts."""

    name: str
    records: list[CheckRecord] = dc_field(default_factory=list)
    verdicts: dict[str, str] = dc_field(default_factory=dict)

    def add(self, check: str, expected, actual) -> bool:
        ok = expected == actual
        self.records.append(CheckRecord(check, expected, actual, ok))
        return ok

    def assert_true(self, check: str, value: bool, detail=None):
        self.records.append(CheckRecord(check, True, detail if detail is not None else bool(value), bool(value)))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)


@dataclass
class Report:
    suite: str
    field: str
    seed: int
    inputs: list[dict] = dc_field(default_factory=list)
    checks: list[dict] = dc_field(default_factory=list)
    verdicts: dict = dc_field(default_factory=dict)
    version: str = __version__

    def add_input(self, name: str, sha256: str):
        self.inputs.append({"path": name, "sha256": sha256})

    def absorb(self, verify: VerifyReport, prefix: str = ""):
        self.verdicts.update(verify.verdicts)
        for rec in verify.records:
            self.checks.append({
                "id": prefix + rec.check,
                "expected": jsonable(rec.expected),
                "actual": jsonable(rec.actual),
                "pass": bool(rec.ok),
            })

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "field": self.field,
            "seed": self.seed,
            "inputs": self.inputs,
            "verdicts": jsonable(self.verdicts),
            "checks": sorted(self.checks, key=lambda c: c["id"]),
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  field {self.field}  seed {self.seed}"]
        for entry in self.inputs:
            lines.append(f"input {entry['path']}  sha256 {entry['sha256'][:16]}")
        for key in sorted(self.verdicts):
            lines.append(f"verdict {key}: {self.verdicts[key]}")
        for c in sorted(self.checks, key=lambda c: c["id"]):
            mark = "ok  " if c["pass"] else "FAIL"
            lines.append(f"{mark} {c['id']}  expected {c['expected']}  actual {c['actual']}")
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines) + "\n"
