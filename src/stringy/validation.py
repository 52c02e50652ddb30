"""Finding/report types shared by config validation and the check routines,
and the one guard for integer arguments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


class ConfigFormatError(ValueError):
    """Raised while decoding a config document: wrong shape, wrong types,
    unknown fields.  Distinct from semantic validation, which produces
    findings instead of raising."""


class ConfigValidationError(ValueError):
    """Raised by computations handed a config that fails lenient validation."""

    def __init__(self, findings: list["Finding"]):
        self.findings = findings
        lines = "; ".join(f.describe() for f in findings)
        super().__init__(f"config rejected: {lines}")


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
    code: str
    message: str
    location: str = ""

    def describe(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.severity}: {self.code}{where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    mode: str  # "lenient" or "strict"
    findings: tuple[Finding, ...] = field(default_factory=tuple)

    @property
    def accepted(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")


def checked_int(value, what: str, least: Union[int, None] = 0) -> int:
    """``value`` if it is an int (not a bool) of at least ``least``, which
    None leaves unbounded; otherwise a ``ValueError`` that names ``what``.
    The one guard for the integer arguments of the public functions."""
    if isinstance(value, int) and not isinstance(value, bool) and (least is None or value >= least):
        return value
    from .exact_poly import decimal_str  # exact_poly imports this module

    bound = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}.get(least, f"an int >= {least}")
    shown = decimal_str(value) if isinstance(value, int) and not isinstance(value, bool) else repr(value)
    raise ValueError(f"{what} must be {bound}, got {shown}")
