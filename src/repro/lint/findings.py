"""Finding and severity types shared by every lint rule."""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings break determinism or the architecture outright and
    fail the run; ``WARNING`` findings are suspicious
    constructs worth a look but tolerated (reported, never fatal).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str  # e.g. "DET001"
    severity: Severity
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    col: int  # 0-based, as reported by ast
    message: str
    fix_hint: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.rule_id} [{self.severity}] {self.message}"
        if self.fix_hint:
            text += f"\n    hint: {self.fix_hint}"
        return text

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)
