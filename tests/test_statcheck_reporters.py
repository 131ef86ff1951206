"""Golden-file tests for the fluxlint reporters (text / JSON).

The golden files under ``tests/golden/`` pin the exact bytes each reporter
emits for a fixed violation list, so any formatting drift — field renames,
ordering changes, indent changes — fails loudly.  Regenerate them only on a
deliberate format change:

    PYTHONPATH=src python - <<'EOF'
    from tests.test_statcheck_reporters import regenerate
    regenerate()
    EOF
"""

from __future__ import annotations

import json
import os

from repro.statcheck import Violation, render_json, render_text

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# A fixed, representative violation list: three rules, three files, reported
# at 0-based columns.
VIOLATIONS = [
    Violation(
        "src/repro/planner/book.py",
        4,
        4,
        "EXC001",
        "except Exception: pass silently discards failures adjacent to "
        "SimulatedCrash; handle or narrow it",
    ),
    Violation(
        "src/repro/sched/clock.py",
        4,
        11,
        "DET001",
        "wall-clock read time.time() is not replayable",
    ),
    Violation(
        "src/repro/sched/simulator.py",
        88,
        8,
        "JRN001",
        "state mutation before journal append",
    ),
]


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def regenerate():
    """Rewrite every golden file from the current reporter output."""
    outputs = {
        "statcheck_report.txt": render_text(VIOLATIONS, files_checked=3),
        "statcheck_report.json": render_json(VIOLATIONS, files_checked=3),
        "statcheck_empty.txt": render_text([], files_checked=7),
    }
    for name, text in outputs.items():
        path = os.path.join(GOLDEN_DIR, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


class TestGoldenText:
    def test_report_matches_golden(self):
        rendered = render_text(VIOLATIONS, files_checked=3) + "\n"
        assert rendered == _golden("statcheck_report.txt")

    def test_empty_report_matches_golden(self):
        rendered = render_text([], files_checked=7) + "\n"
        assert rendered == _golden("statcheck_empty.txt")


class TestGoldenJSON:
    def test_report_matches_golden(self):
        rendered = render_json(VIOLATIONS, files_checked=3) + "\n"
        assert rendered == _golden("statcheck_report.json")

    def test_rule_summaries_are_populated(self):
        document = json.loads(render_json(VIOLATIONS, files_checked=3))
        for violation in document["violations"]:
            assert violation["summary"]  # every rule is in the catalogue
