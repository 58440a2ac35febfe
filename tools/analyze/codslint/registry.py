"""Check registry, findings, and the allow-marker mechanism.

Every check registers itself under a stable kebab-case name and runs over
the shared CodeIndex. A finding names its check, file:line, the offending
symbol and a remedy. Audited exceptions are in-source markers:

    banned_thing();  // codslint-allow(check-name): why this one is safe

The marker must (a) name the exact check and (b) carry a non-empty reason
after the colon — a bare marker is itself reported, so suppression debt
stays visible. Markers bind to their own line or, when written on a line of
their own, to the following line. Bait files use the sibling marker
`// codslint-expect(check-name)` which --self-test verifies fires.
"""

from __future__ import annotations

import dataclasses
import json
import re
from typing import Callable, Optional

from .model import CodeIndex

ALLOW_RE = re.compile(r"codslint-allow\(([a-z-]+)\)\s*(?::\s*(\S.*))?")
EXPECT_RE = re.compile(r"codslint-expect\(([a-z-]+)\)")


@dataclasses.dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str
    symbol: str = ""

    def render(self, root: Optional[str] = None) -> str:
        path = self.file
        if root and path.startswith(root):
            path = path[len(root):].lstrip("/")
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{path}:{self.line}: [{self.check}] {self.message}{sym}"

    def as_json(self, root: Optional[str] = None) -> dict:
        path = self.file
        if root and path.startswith(root):
            path = path[len(root):].lstrip("/")
        return {"check": self.check, "file": path, "line": self.line,
                "message": self.message, "symbol": self.symbol}


class Check:
    """Base class. Subclasses set `name` / `description` and implement
    run(index) -> list[Finding]."""

    name = ""
    description = ""

    def run(self, index: CodeIndex) -> list[Finding]:  # pragma: no cover
        raise NotImplementedError


_REGISTRY: dict[str, Callable[[], Check]] = {}


def register(factory: Callable[[], Check]) -> Callable[[], Check]:
    check = factory()
    assert check.name, f"{factory} has no name"
    _REGISTRY[check.name] = factory
    return factory


def all_checks() -> dict[str, Callable[[], Check]]:
    return dict(_REGISTRY)


def make_checks(names: Optional[list[str]] = None) -> list[Check]:
    selected = names or sorted(_REGISTRY)
    unknown = [n for n in selected if n not in _REGISTRY]
    if unknown:
        raise SystemExit(
            f"codslint: unknown check(s) {', '.join(unknown)}; "
            f"available: {', '.join(sorted(_REGISTRY))}")
    return [_REGISTRY[n]() for n in selected]


def apply_allow_markers(findings: list[Finding],
                        index: CodeIndex) -> tuple[list[Finding],
                                                   list[Finding]]:
    """Split into (kept, suppressed). A malformed marker (missing reason)
    converts the suppression into its own finding."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        lf = index.files.get(f.file)
        marker = None
        if lf is not None:
            for line in (f.line, f.line - 1):
                text = lf.comment_by_line.get(line)
                if not text:
                    continue
                m = ALLOW_RE.search(text)
                if m and m.group(1) == f.check:
                    marker = m
                    break
        if marker is None:
            kept.append(f)
        elif not marker.group(2):
            kept.append(Finding(
                f.check, f.file, f.line,
                "allow-marker without a reason; write "
                f"`codslint-allow({f.check}): <why>` (policy: "
                "docs/STATIC_ANALYSIS.md)", f.symbol))
        else:
            suppressed.append(f)
    return kept, suppressed


def expected_findings(index: CodeIndex) -> list[tuple[str, str, int]]:
    """(check, file, line) for every codslint-expect marker in the corpus.
    A marker on its own line binds to the next line, like allow markers."""
    out = []
    for path, lf in index.files.items():
        code_lines = {t.line for t in lf.tokens}
        code_lines.update(line for line, _ in lf.directives)
        for c in lf.comments:
            for m in EXPECT_RE.finditer(c.text):
                line = c.line if c.line in code_lines else c.line + 1
                out.append((m.group(1), path, line))
    return out


def to_json(kept: list[Finding], suppressed: list[Finding],
            root: Optional[str] = None) -> str:
    return json.dumps(
        {
            "version": 1,
            "findings": [f.as_json(root) for f in kept],
            "suppressed": [f.as_json(root) for f in suppressed],
        },
        indent=2) + "\n"
