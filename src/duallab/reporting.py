"""Report records, deterministic seeding, and output writers.

Every experiment emits an :class:`ExperimentReport`: the echoed
configuration, a list of named checks with measured and predicted
values, and a wall-clock duration.  The report body (everything except
the duration) serializes to canonical JSON, so identical configs give
byte-identical bodies; per-check rows stream to JSON lines and
validate against :data:`REPORT_RECORD_SCHEMA`; jsonschema is loaded only
for a record that the package's own reading of the schema cannot certify.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__

OUTPUT_ENV_VAR = "DUALLAB_OUT"

__all__ = [
    "OUTPUT_ENV_VAR",
    "REPORT_RECORD_SCHEMA",
    "CheckResult",
    "ExperimentConfig",
    "ExperimentReport",
    "derive_seed",
    "default_output_dir",
    "validate_record",
    "write_jsonl",
    "write_csv",
]


REPORT_RECORD_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "duallab check record",
    "type": "object",
    "properties": {
        "experiment": {"type": "string", "minLength": 1},
        "N": {"type": ["integer", "null"], "minimum": 2},
        "p": {"type": ["integer", "null"], "minimum": 0},
        "q": {"type": ["integer", "null"], "minimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "samples": {"type": ["integer", "null"], "minimum": 0},
        "check": {"type": "string", "minLength": 1},
        "measured": {"type": ["number", "string", "boolean"]},
        "predicted": {"type": ["number", "string", "boolean", "null"]},
        "tolerance": {"type": ["number", "null"]},
        "pass": {"type": "boolean"},
    },
    "required": [
        "experiment",
        "N",
        "p",
        "q",
        "seed",
        "samples",
        "check",
        "measured",
        "predicted",
        "tolerance",
        "pass",
    ],
    "additionalProperties": True,
}


@functools.cache
def _record_validator():
    # imported here so that only a record the package cannot certify loads jsonschema
    import jsonschema

    cls = jsonschema.validators.validator_for(REPORT_RECORD_SCHEMA)
    cls.check_schema(REPORT_RECORD_SCHEMA)
    return cls(REPORT_RECORD_SCHEMA)


_JSON_TYPES = {dict: {"object"}, str: {"string"}, bool: {"boolean"}, type(None): {"null"},
               int: {"integer", "number"}, float: {"number"}}
_TYPE_NAMES = {"array", "boolean", "integer", "null", "number", "object", "string"}


def _certified(schema: dict, value) -> bool:
    """True only if jsonschema (draft 2020-12) accepts ``value`` under
    ``schema``.  False on a keyword not known here, and on a value not of
    an exact JSON type: jsonschema decides a subclass such as np.float64."""
    types = _JSON_TYPES.get(type(value))
    if types is None:
        return False
    if type(value) is float and value.is_integer():
        types = {"integer", "number"}
    for key, arg in schema.items():
        if key == "type":
            names = {arg} if isinstance(arg, str) else set(arg)
            ok = names <= _TYPE_NAMES and bool(names & types)
        elif key == "properties":
            ok = "object" not in types or all(_certified(s, value[k]) for k, s in arg.items() if k in value)
        elif key == "required":
            ok = "object" not in types or all(k in value for k in arg)
        elif key == "minimum":
            ok = "number" not in types or not value < arg
        elif key == "minLength":
            ok = "string" not in types or len(value) >= arg
        else:  # annotations, and additionalProperties that admits anything
            ok = key == "title" or (key, arg) in (
                ("$schema", "https://json-schema.org/draft/2020-12/schema"), ("additionalProperties", True))
        if not ok:
            return False
    return True


def validate_record(record: dict) -> None:
    """Raise ``jsonschema.validate``'s error (the best match) for a malformed
    record; jsonschema reads only a record :func:`_certified` cannot pass."""
    if _certified(REPORT_RECORD_SCHEMA, record):
        return
    from jsonschema.exceptions import best_match

    error = best_match(_record_validator().iter_errors(record))
    if error is not None:
        raise error


def derive_seed(master: int, name: str) -> int:
    """Stable per-experiment seed: adding experiments never shifts others."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def default_output_dir() -> Path:
    env = os.environ.get(OUTPUT_ENV_VAR)
    return Path(env) if env else Path.cwd() / "duallab-out"


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, complex):
        if value.imag == 0:
            return float(value.real)
        return f"{value.real}+{value.imag}j"
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


@dataclass(frozen=True)
class CheckResult:
    """One named verification: measured against predicted at a tolerance.

    ``tolerance`` None means an exact (integer or boolean) comparison.
    """

    name: str
    measured: object
    predicted: object
    tolerance: float | None
    passed: bool

    def to_record(self) -> dict:
        return {
            "check": self.name,
            "measured": _jsonable(self.measured),
            "predicted": _jsonable(self.predicted),
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
        }


def scalar_check(name: str, measured: float, predicted: float, tol: float) -> CheckResult:
    """Convenience: |measured - predicted| <= tol."""
    return CheckResult(
        name=name,
        measured=float(measured),
        predicted=float(predicted),
        tolerance=float(tol),
        passed=bool(abs(float(measured) - float(predicted)) <= tol),
    )


def bound_check(name: str, measured: float, bound: float, tol: float = 0.0) -> CheckResult:
    """Convenience: measured <= bound + tol."""
    return CheckResult(
        name=name,
        measured=float(measured),
        predicted=float(bound),
        tolerance=float(tol) if tol else None,
        passed=bool(float(measured) <= float(bound) + tol),
    )


def exact_check(name: str, measured, predicted) -> CheckResult:
    """Convenience: equality of discrete values."""
    return CheckResult(
        name=name,
        measured=measured,
        predicted=predicted,
        tolerance=None,
        passed=bool(measured == predicted),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Echoed configuration; None fields take experiment defaults."""

    experiment: str
    N: int | None = None
    p: int | None = None
    q: int | None = None
    seed: int = 20240
    samples: int | None = None

    def __post_init__(self) -> None:
        lows = {"N": 2, "p": 0, "q": 0, "seed": 0, "samples": 1}
        for name, low in lows.items():
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    def resolved(self, **defaults) -> "ExperimentConfig":
        """Fill None fields from the experiment's defaults."""
        updates = {
            key: defaults[key]
            for key in ("N", "p", "q", "samples")
            if getattr(self, key) is None and key in defaults
        }
        return replace(self, **updates) if updates else self


@dataclass(eq=False)
class ExperimentReport:
    """Config echo, check list and duration; the body adds the version."""

    config: ExperimentConfig
    checks: list[CheckResult]
    duration_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def body(self) -> dict:
        """Canonical content: everything except the wall-clock duration."""
        return {
            "config": asdict(self.config),
            "checks": [c.to_record() for c in self.checks],
            "version": __version__,
            "passed": self.passed,
        }

    def body_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":"))

    def records(self) -> list[dict]:
        """One schema-valid JSONL record per check: the config echo, with
        None for a field the experiment does not use, then the check."""
        out = [{**asdict(self.config), **c.to_record()} for c in self.checks]
        for rec in out:
            validate_record(rec)
        return out


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
