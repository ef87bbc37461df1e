"""Structured results shared by the verifiers, the CZ checker, and the CLI."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .grid import CubeSpec

__all__ = ["InvariantViolation", "VerificationReport", "to_jsonable"]


class InvariantViolation(RuntimeError):
    """A computed quantity broke a property that holds for every input.

    This is a fault in the program (for example a broken content), not in
    the data; ``witness`` holds the offending values.
    """

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    params: dict
    passed: bool
    constants: dict
    witnesses: list
    seed: int = 0

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        keys = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.constants.items()))
        return f"[{status}] {self.check_name}: {keys}"


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def to_jsonable(obj: Any) -> Any:
    """Recursively convert report objects to plain JSON-friendly values.

    Infinities become the strings "inf"/"-inf" so the output stays valid
    strict JSON; cube specs become their id strings.
    """
    if isinstance(obj, CubeSpec):
        return obj.cube_id()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
