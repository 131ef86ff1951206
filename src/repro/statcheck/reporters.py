"""fluxlint output renderers: human text, machine JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from typing import Dict, List

from .core import Violation, all_rules

__all__ = ["render_text", "render_json", "render_sarif", "SARIF_SCHEMA_URI"]

SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
SARIF_VERSION = "2.1.0"


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
    catalogue = _rule_catalogue()
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


def _rule_catalogue() -> Dict[str, str]:
    """Every known rule id -> one-line summary."""
    return {rule_id: rule_cls.summary for rule_id, rule_cls in all_rules().items()}


def render_sarif(violations: List[Violation], files_checked: int = 0) -> str:
    """A minimal SARIF 2.1.0 log: one run, one result per violation.

    The document carries the pieces CI code-scanning upload endpoints
    require: ``$schema``/``version``, a tool driver with a rule catalogue,
    and per-result ``ruleId`` + physical location (1-based line/column;
    SARIF columns are 1-based while our columns are 0-based AST offsets).
    """
    catalogue = _rule_catalogue()
    used = sorted({violation.rule for violation in violations})
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": catalogue.get(rule_id, rule_id)},
        }
        for rule_id in used
    ]
    rule_index = {rule_id: index for index, rule_id in enumerate(used)}
    results = [
        {
            "ruleId": violation.rule,
            "ruleIndex": rule_index[violation.rule],
            "level": "error",
            "message": {"text": violation.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": violation.path,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {
                            "startLine": max(violation.line, 1),
                            "startColumn": violation.col + 1,
                        },
                    }
                }
            ],
        }
        for violation in violations
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "fluxlint",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "properties": {"filesChecked": files_checked},
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
