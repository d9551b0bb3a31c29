"""Structured experiment reports with a published schema.

Reports serialize deterministically: identical (config, seed) produce
byte-identical JSON/CSV artifacts.  Wall-clock time is therefore *not*
part of the serialized payload; runners print it to stderr instead.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "subcommand", "seed", "config", "metrics"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "subcommand": {"type": "string"},
        "seed": {"type": "integer"},
        "config": {"type": "object"},
        "metrics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["value", "trials"],
                "properties": {
                    "value": {"type": ["number", "null"]},
                    "half_width": {"type": ["number", "null"]},
                    "trials": {"type": "integer"},
                },
            },
        },
        "query_counts": {"type": "object"},
        "record": {"type": "object"},
    },
}

CSV_COLUMNS = [
    "schema_version",
    "subcommand",
    "seed",
    "metric",
    "value",
    "half_width",
    "trials",
    "config_json",
]


@dataclass
class ExperimentReport:
    subcommand: str
    seed: int
    config: dict
    metrics: dict = field(default_factory=dict)
    query_counts: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    def add_metric(self, name: str, value, trials: int, half_width=None):
        self.metrics[name] = {
            "value": None if value is None else float(value),
            "half_width": None if half_width is None else float(half_width),
            "trials": int(trials),
        }

    def to_dict(self) -> dict:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "seed": int(self.seed),
            "config": _finite(self.config),
            "metrics": self.metrics,
            "query_counts": self.query_counts,
            "record": _finite(self.record),
        }
        validate_report(payload)
        return payload

    def to_json_bytes(self) -> bytes:
        return (
            json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)
            + "\n"
        ).encode()

    def to_csv_bytes(self) -> bytes:
        import csv  # only --format csv needs it
        payload = self.to_dict()
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        config_json = json.dumps(payload["config"], sort_keys=True, allow_nan=False)
        for name in sorted(payload["metrics"]):
            m = payload["metrics"][name]
            writer.writerow(
                [
                    payload["schema_version"],
                    payload["subcommand"],
                    payload["seed"],
                    name,
                    _fmt(m["value"]),
                    _fmt(m["half_width"]),
                    m["trials"],
                    config_json,
                ]
            )
        return buf.getvalue().encode()


@dataclass(frozen=True)
class Rate:
    """``hits`` out of ``trials``: the ``rate`` and the half-width
    1.96 sqrt(p(1-p)/T) of its normal-approximation (Wald) 95% interval,
    which reads 0 at p = 0 or 1.  Both are nan without trials."""

    hits: int
    trials: int

    @property
    def rate(self) -> float:
        return self.hits / self.trials if self.trials else math.nan

    @property
    def half_width(self) -> float:
        p = self.rate
        return 1.96 * math.sqrt(p * (1 - p) / self.trials) if self.trials else math.nan


def _finite(value):
    """``value`` with every non-finite float written as the string "inf",
    "-inf" or "nan", which strict JSON can carry."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _fmt(v):
    return "" if v is None else repr(v)


class ReportError(ValueError):
    """A report payload that breaks ``REPORT_SCHEMA``."""


def validate_report(payload: dict) -> None:
    """Raise a ReportError naming the path of a value that breaks the schema."""
    _check(payload, REPORT_SCHEMA, "report")


_TYPES = dict(object=dict, string=str, null=type(None), number=(int, float), integer=int)


def _check(value, schema: dict, path: str) -> None:
    """The keywords ``REPORT_SCHEMA`` uses, as JSON Schema 2020-12 reads them:
    a bool is neither an integer nor a number, and 3.0 is an integer."""
    types = schema.get("type", [])
    kind = int if isinstance(value, float) and value.is_integer() else type(value)
    if types and (kind is bool or not any(issubclass(kind, _TYPES[t]) for t in (
            [types] if isinstance(types, str) else types))):
        raise ReportError(f"{path}: {value!r} is not of type {types!r}")
    if "const" in schema and value != schema["const"]:
        raise ReportError(f"{path}: {value!r} is not {schema['const']!r}")
    if isinstance(value, dict):
        if missing := [k for k in schema.get("required", []) if k not in value]:
            raise ReportError(f"{path}: lacks required keys {missing}")
        extra = schema.get("additionalProperties", {})
        for key, item in value.items():
            _check(item, schema.get("properties", {}).get(key, extra), f"{path}.{key}")
