"""Typed findings shared by the code linter and the pre-solve analyzer.

A :class:`Finding` locates one violated invariant.  Code-level rules
(REP001..REP007) and concurrency rules (REP201..REP204) anchor to a
``path``/``line``; model-level rules (REP101..REP104) anchor to a
``channel`` (a canonical link or stage reference such as ``up:1:3`` or
``pool12``).  Every finding carries a fix ``hint`` so the report is
actionable without reading the rule catalog.

This module also owns the shared rule catalog (:data:`RULE_CATALOG`) and
the pragma grammar: a same-line ``# lint: <tag>[, <tag>...]`` comment
suppresses the rules whose pragma tags it names
(:func:`pragma_lines` parses a source file into that map).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "Rule",
    "RULE_CATALOG",
    "pragma_lines",
    "render_findings",
]

ERROR = "error"
WARNING = "warning"

_SEVERITIES = (ERROR, WARNING)

_PRAGMA_RE = re.compile(r"#\s*lint:\s*([a-zA-Z0-9_,\- ]+)")


def pragma_lines(source: str) -> dict[int, frozenset[str]]:
    """Map line number → suppression tags for every pragma comment."""
    out: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _PRAGMA_RE.search(line)
        if m:
            tags = frozenset(t.strip() for t in m.group(1).split(",") if t.strip())
            out[lineno] = tags
    return out


@dataclass(frozen=True)
class Rule:
    """One catalog entry: id, suppression pragma, one-line description."""

    rule: str
    pragma: str
    summary: str


# Every rule either pass can emit, in catalog order.  ``--list-rules``
# renders this table; rule selection (``--rules REP001,REP2xx``) validates
# against it.  Model-level rules (REP1xx) have no pragma: they anchor to
# channels, not source lines.
RULE_CATALOG: dict[str, Rule] = {
    r.rule: r
    for r in (
        Rule("REP000", "-", "file must parse before any invariant can be checked"),
        Rule("REP001", "allow-rng", "no unseeded/ambient RNG outside util/rng.py"),
        Rule(
            "REP002",
            "allow-spec-field",
            "spec dataclasses must be frozen, mutable-default-free, JSON-able",
        ),
        Rule("REP003", "allow-raise", "raises must use ReproError subclasses"),
        Rule(
            "REP004",
            "allow-float-eq",
            "no float ==/!= against non-sentinel literals (0.0/1.0 ok)",
        ),
        Rule(
            "REP006",
            "allow-wall-clock",
            "no wall-clock reads outside the provenance modules",
        ),
        Rule(
            "REP007",
            "allow-registry-open",
            "no direct file access to run-registry storage outside its owners",
        ),
        Rule(
            "REP101",
            "-",
            "flow conservation on the channel graph (pre-solve analyzer)",
        ),
        Rule("REP102", "-", "stage-graph structure checks (pre-solve analyzer)"),
        Rule("REP103", "-", "entry weights must sum to 1 (pre-solve analyzer)"),
        Rule("REP104", "-", "static stability rho<1 precondition (pre-solve analyzer)"),
        Rule(
            "REP201",
            "allow-blocking-async",
            "no blocking effect reachable from an async def body except "
            "through run_in_executor/asyncio.to_thread",
        ),
        Rule(
            "REP202",
            "allow-shared-state",
            "module-global mutable state written from thread-pool-reachable "
            "and main-path code must be lock-guarded",
        ),
        Rule(
            "REP203",
            "allow-await-in-lock",
            "no await inside a sync `with <lock>` critical section",
        ),
        Rule(
            "REP204",
            "allow-bare-coroutine",
            "coroutine call whose result is never awaited or scheduled",
        ),
    )
}


@dataclass(frozen=True)
class Finding:
    """One violated invariant, located in code or in the channel graph."""

    rule: str
    severity: str
    message: str
    path: str | None = None
    line: int | None = None
    channel: str | None = None
    hint: str = ""

    def __post_init__(self) -> None:
        if self.severity not in _SEVERITIES:
            raise ConfigurationError(
                f"severity must be one of {_SEVERITIES}, got {self.severity!r}"
            )

    @property
    def location(self) -> str:
        """Human-readable anchor: ``path:line``, ``channel``, or ``-``."""
        if self.path is not None:
            return f"{self.path}:{self.line}" if self.line is not None else self.path
        if self.channel is not None:
            return self.channel
        return "-"

    def render(self) -> str:
        text = f"{self.location}: {self.severity}: {self.rule}: {self.message}"
        if self.hint:
            text += f" [{self.hint}]"
        return text

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
        if self.path is not None:
            out["path"] = self.path
        if self.line is not None:
            out["line"] = self.line
        if self.channel is not None:
            out["channel"] = self.channel
        if self.hint:
            out["hint"] = self.hint
        return out

    def sort_key(self) -> tuple[str, int, str, str]:
        return (self.path or "", self.line or 0, self.channel or "", self.rule)


def render_findings(findings: list[Finding] | tuple[Finding, ...]) -> str:
    """Render findings one per line, sorted by location then rule."""
    ordered = sorted(findings, key=Finding.sort_key)
    return "\n".join(f.render() for f in ordered)
