"""Uniform pass/fail report for diagram and validity checks.

A check runs a batch of exact comparisons and either all of them hold or
there is a first failure worth naming.  Reports are plain values: ok flag,
how many comparisons ran, and a JSON-able witness for the first failure.
The module also holds json_ints, the check on integer fields of input
files; output needs no conversion, since json.dumps writes tuples as
arrays.
"""

from typing import Any

from ._record import record
from .errors import SelectorError


@record
class Report:
    ok: bool
    checks: int
    witness: Any = None
    notes: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def passed(checks: int, notes: tuple[str, ...] = ()) -> "Report":
        return Report(True, checks, None, notes)

    @staticmethod
    def failed(checks: int, witness: Any, notes: tuple[str, ...] = ()) -> "Report":
        return Report(False, checks, witness, notes)

    @staticmethod
    def merge(parts: list["Report"]) -> "Report":
        """Combine subreports: first failure wins, check counts add."""
        total = sum(p.checks for p in parts)
        notes = sum((p.notes for p in parts), ())
        for p in parts:
            if not p.ok:
                return Report(False, total, p.witness, notes)
        return Report(True, total, None, notes)


def json_ints(value: Any, what: str, depth: int = 0) -> Any:
    """value, checked to be a JSON integer (depth 0) or lists nested depth
    deep with JSON integers at the bottom.

    Floats, strings and booleans are refused, not converted, so a file
    cannot silently describe a different object; SelectorError names the
    field `what` and the offending value.
    """
    if depth == 0:
        if type(value) is not int:
            raise SelectorError(f"{what}: {value!r} is not a JSON integer")
        return value
    if not isinstance(value, list):
        raise SelectorError(f"{what}: {value!r} is not a JSON list")
    return [json_ints(x, what, depth - 1) for x in value]
