"""Structured audit results shared by the asymptotics and Monte Carlo checks."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["CheckResult", "AuditReport", "PASS", "FAIL", "INCONCLUSIVE"]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CheckResult:
    """One named check with a PASS/FAIL/INCONCLUSIVE status and detail text."""

    name: str
    status: str
    detail: str = ""

    def line(self) -> str:
        return f"[{self.status}] {self.name}" + (f": {self.detail}" if self.detail else "")


def _judged(name: str, ok: bool, detail: str) -> CheckResult:
    """The check ``name``, PASS where its rule ``ok`` holds, else FAIL: every audit's
    one way to turn a rule into a status."""
    return CheckResult(name, PASS if ok else FAIL, detail)


@dataclass(frozen=True)
class AuditReport:
    """A titled collection of check results with an overall verdict.

    The verdict is FAIL if any check failed, INCONCLUSIVE if none failed
    but some were inconclusive, else PASS.  ``data`` carries
    audit-specific numbers for the JSON report.
    """

    title: str
    checks: tuple[CheckResult, ...]
    data: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        statuses = {c.status for c in self.checks}
        if FAIL in statuses:
            return FAIL
        if INCONCLUSIVE in statuses:
            return INCONCLUSIVE
        return PASS

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"{self.title}: {self.verdict}")
        return out

    def as_dict(self) -> dict:
        return {
            "title": self.title,
            "verdict": self.verdict,
            "checks": [asdict(c) for c in self.checks],
            "data": self.data,
        }
