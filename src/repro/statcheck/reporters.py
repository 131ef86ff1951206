"""fluxlint output renderers: human text and machine JSON."""

from __future__ import annotations

import json
from typing import Dict, List

from .core import Violation, all_rules

__all__ = ["render_text", "render_json"]


def render_text(
    violations: List[Violation], files_checked: int, show_summary: bool = True
) -> str:
    """GCC-style ``path:line:col: RULE message`` lines plus a summary."""
    lines = [violation.render() for violation in violations]
    if show_summary:
        if violations:
            by_rule: Dict[str, int] = {}
            for violation in violations:
                by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
            breakdown = ", ".join(
                f"{rule}:{count}" for rule, count in sorted(by_rule.items())
            )
            lines.append(
                f"fluxlint: {len(violations)} violation(s) in "
                f"{files_checked} file(s) [{breakdown}]"
            )
        else:
            lines.append(f"fluxlint: OK ({files_checked} file(s) clean)")
    return "\n".join(lines)


def render_json(violations: List[Violation], files_checked: int) -> str:
    """A stable JSON document for CI annotation tooling."""
    catalogue = {rule_id: rule.summary for rule_id, rule in all_rules().items()}
    payload = {
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule,
                "summary": catalogue.get(violation.rule, ""),
                "message": violation.message,
            }
            for violation in violations
        ],
        "files_checked": files_checked,
        "violation_count": len(violations),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
