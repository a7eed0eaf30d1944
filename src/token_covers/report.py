"""Structured pass/fail verification reports with JSON serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

SCHEMA_VERSION = 1

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_COMPLETED = "completed"


@dataclass(frozen=True)
class Evidence:
    """One labelled evidence item; ``kind`` is one of info, witness,
    counterexample, note."""

    label: str
    value: object
    kind: str = "info"

    def as_dict(self):
        return {"label": self.label, "value": self.value, "kind": self.kind}


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    status: str
    evidence: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "evidence", tuple(self.evidence))
        if self.status == STATUS_FAIL and not any(
            e.kind == "counterexample" for e in self.evidence
        ):
            raise ValueError("a failing report must carry a counterexample")

    @classmethod
    def from_outcome(cls, name: str, passed: bool, evidence: Iterable[Evidence] = ()):
        return cls(name, passed, STATUS_PASS if passed else STATUS_FAIL, tuple(evidence))

    def find(self, label: str):
        for e in self.evidence:
            if e.label == label:
                return e.value
        raise KeyError(label)

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "passed": self.passed,
            "status": self.status,
            "evidence": [e.as_dict() for e in self.evidence],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
