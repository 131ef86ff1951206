"""Plant each deleted fluxflow rule's bug and show which kept guard catches it.

    python3 benchmarks/planted_guards.py

The interprocedural analyses (SPAN001, DET002, EXC002, JRN002) were deleted
on the claim that every bug they exist for is caught by a guard that stays:
a tier-1 test, fluxlint, a FluxSan dual run or the crash matrix.  This
script checks the claim.  For each plant it copies ``src/`` and ``tests/``
to a temporary directory, edits the copy, and runs the named guards on the
clean copy and on the planted one.  A guard *catches* a plant when it
passes on the clean copy and fails on the planted one.  The repository
itself is never edited.  Exit status 1 when some plant is caught by no
guard (or an anchor no longer matches the source).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIM = "src/repro/sched/simulator.py"
WRITER = "src/repro/match/writer.py"

#: guard name -> command run from the copy's root (PYTHONPATH=src)
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
GUARDS: Dict[str, List[str]] = {
    "tier-1 booking tests": PYTEST + [
        "tests/test_match.py::TestBookingIsAllOrNothing",
        "tests/test_booking_rule.py",
    ],
    "dual-run tiny": [sys.executable, "-m", "repro.statcheck", "--dual-run", "tiny"],
    "dual-run tiny-faulty": [
        sys.executable, "-m", "repro.statcheck", "--dual-run", "tiny-faulty",
    ],
    "fluxlint src/repro": [sys.executable, "-m", "repro.statcheck", "src/repro"],
    "crash matrix end.released": PYTEST + [
        "tests/test_recovery.py::test_crash_equivalence", "-k", "end.released",
    ],
}

#: one edit: (file, exact text that must occur once, replacement)
Edit = Tuple[str, str, str]

#: plant name -> (deleted rule that claimed it, what it does, edits, guards)
PLANTS: Dict[str, Tuple[str, str, List[Edit], List[str]]] = {
    "book-rollback": (
        "SPAN001",
        "book drops its rollback loop: a refused booking leaks the spans "
        "it already took",
        [(WRITER,
          "    except BaseException:\n"
          "        for planner, span_id in reversed(records):\n"
          "            planner.rem_span(span_id)\n"
          "        raise\n",
          "    except BaseException:\n"
          "        raise\n")],
        ["tier-1 booking tests"],
    ),
    "sdfu-record": (
        "SPAN001",
        "book writes a filter span without recording it: a removed "
        "allocation leaves its filter charge behind",
        [(WRITER,
          "            records.append((planner, planner.add_span(start, duration, booked)))\n",
          "            span_id = planner.add_span(start, duration, booked)\n"
          "            if kind != \"filter\":\n"
          "                records.append((planner, span_id))\n")],
        ["dual-run tiny", "dual-run tiny-faulty"],
    ),
    "cycle-clock": (
        "DET002",
        "a time.time_ns() read two calls below _run_cycle "
        "(_run_cycle -> _pending_jobs -> _queued_jobs)",
        [(SIM, "import json\nimport os\n", "import json\nimport os\nimport time\n"),
         (SIM, "queue.sort(key=lambda j: j.job_id)",
          "queue.sort(key=lambda j: (j.job_id, time.time_ns()))")],
        ["fluxlint src/repro"],
    ),
    "end-swallow": (
        "EXC002",
        "a helper in _on_end catches SimulatedCrash around end.released",
        [(SIM, '        self._crashpoint("end.released")\n',
          "        self._released_quietly()\n"),
         (SIM, "    def _dispatch(self, when: int",
          "    def _released_quietly(self) -> None:\n"
          "        from ..recovery.crash import SimulatedCrash\n\n"
          "        try:\n"
          '            self._crashpoint("end.released")\n'
          "        except SimulatedCrash:\n"
          "            pass\n\n"
          "    def _dispatch(self, when: int")],
        ["crash matrix end.released"],
    ),
    "fail-helper": (
        "JRN002",
        "fail() counts the failure through self._note_failure() before "
        "its journal call",
        [(SIM,
          '        return self._command("fail", vertex, resubmit)\n',
          "        self._note_failure()\n"
          '        return self._command("fail", vertex, resubmit)\n'),
         (SIM, "        self.failures += 1\n", ""),
         (SIM, "    def _dispatch(self, when: int",
          "    def _note_failure(self) -> None:\n"
          "        self.failures += 1\n\n"
          "    def _dispatch(self, when: int")],
        ["dual-run tiny-faulty", "fluxlint src/repro"],
    ),
}


def make_copy(root: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(REPO, name), os.path.join(root, name),
                        ignore=ignore)
    shutil.copy(os.path.join(REPO, "pyproject.toml"), root)


def apply(root: str, edits: Sequence[Edit]) -> None:
    for rel, old, new in edits:
        path = os.path.join(root, rel)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(old) != 1:
            raise SystemExit(
                f"anchor not found exactly once in {rel}: {old.splitlines()[0]!r}"
            )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(old, new))


def passes(root: str, guard: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("FLUXSAN", None)
    proc = subprocess.run(GUARDS[guard], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main() -> int:
    uncaught = []
    clean: Dict[str, bool] = {}
    print(f"{'plant':14} {'deleted rule':12} {'guard':26} clean  planted  verdict")
    with tempfile.TemporaryDirectory() as tmpdir:
        base = os.path.join(tmpdir, "clean")
        make_copy(base)
        for name in PLANTS:
            rule, what, edits, guards = PLANTS[name]
            planted = os.path.join(tmpdir, name)
            make_copy(planted)
            apply(planted, edits)
            caught_by = []
            for guard in guards:
                if guard not in clean:
                    clean[guard] = passes(base, guard)
                hit = not passes(planted, guard)
                verdict = "caught" if clean[guard] and hit else "missed"
                if verdict == "caught":
                    caught_by.append(guard)
                print(f"{name:14} {rule:12} {guard:26} "
                      f"{'pass' if clean[guard] else 'FAIL':5}  "
                      f"{'FAIL' if hit else 'pass':7}  {verdict}")
            if not caught_by:
                uncaught.append(name)
            shutil.rmtree(planted)
    for name in PLANTS:
        print(f"  {name}: {PLANTS[name][1]}")
    print("every plant caught by a kept guard:",
          "yes" if not uncaught else f"NO ({', '.join(uncaught)})")
    return 1 if uncaught else 0


if __name__ == "__main__":
    sys.exit(main())
