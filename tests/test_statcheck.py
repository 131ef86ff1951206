"""Tests for repro.statcheck: the fluxlint engine, every lint rule
(positive fixture flagged at the right line + negative fixture showing the
clean spelling and the suppression directive), the FluxSan runtime
sanitizer, the dual-run nondeterminism detector, and the CLI."""

import io
import json
import os
import sys
import threading
import tokenize

import pytest

from repro.errors import FluxionError, SanitizerError
from repro.jobspec import nodes_jobspec, simple_node_jobspec
from repro.match import Traverser
from repro.match.writer import Allocation
from repro.planner import Planner, PlannerMulti
from repro.resource import ResourceGraph
from repro.sched.simulator import ClusterSimulator
from repro.statcheck import (
    FluxSan,
    LintEngine,
    LintParseError,
    LintRule,
    all_rules,
    core,
    dual_run,
    lint_source,
    register_rule,
)
from repro.statcheck.cli import main
from repro.statcheck.reporters import render_json, render_text

from .test_match import build_cluster


def rules_hit(source, path="mod.py", select=None):
    return [v.rule for v in lint_source(source, path, select=select)]


# ----------------------------------------------------------------------
# engine basics
# ----------------------------------------------------------------------
class TestEngine:
    def test_all_rules_registered(self):
        assert set(all_rules()) == {
            "DET001", "EXC001", "FLT001", "JRN001", "OBS001", "OVL001",
        }

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(FluxionError, match="unknown rule ids"):
            LintEngine(select=["NOPE999"])

    def test_select_and_ignore(self):
        src = "import time\n\ndef f(x):\n    return x == 0.5 or time.time()\n"
        assert set(rules_hit(src)) == {"FLT001", "DET001"}
        assert rules_hit(src, select=["DET001"]) == ["DET001"]
        only = lint_source(src, ignore=["DET001"])
        assert [v.rule for v in only] == ["FLT001"]

    def test_syntax_error_raises_parse_error(self):
        with pytest.raises(LintParseError):
            lint_source("def broken(:\n", "bad.py")

    def test_violation_render_is_clickable(self):
        (v,) = lint_source("import time\nt = time.time()\n", "pkg/mod.py")
        assert v.render().startswith("pkg/mod.py:2:")
        assert "DET001" in v.render()


# ----------------------------------------------------------------------
# the one rule registry
# ----------------------------------------------------------------------
def _scratch_rule(rule_id):
    class Scratch(LintRule):
        summary = "scratch rule for the registry tests"

        def visit_Pass(self, node):
            self.report(node, "pass statement")

    Scratch.rule_id = rule_id
    return Scratch


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registrations made during the test are dropped after it."""
    monkeypatch.setattr(core, "_REGISTRY", dict(core._REGISTRY))


class TestOneRegistry:
    def test_registered_rule_is_known_everywhere(
        self, scratch_registry, tmp_path, capsys
    ):
        f = tmp_path / "mod.py"
        f.write_text("def f():\n    pass\n")
        assert main(["--select", "ZZZ001", str(f)]) == 2
        assert "unknown rule ids: ['ZZZ001']" in capsys.readouterr().err

        rule_cls = register_rule(_scratch_rule("ZZZ001"))

        assert all_rules()["ZZZ001"] is rule_cls
        assert main(["--list-rules"]) == 0
        assert f"  ZZZ001  {rule_cls.summary}" in capsys.readouterr().out
        # --select accepts it, the engine runs it, and the JSON report
        # carries its summary
        assert main(["--select", "ZZZ001", "--format", "json", str(f)]) == 1
        (found,) = json.loads(capsys.readouterr().out)["violations"]
        assert (found["rule"], found["summary"]) == ("ZZZ001", rule_cls.summary)

    def test_duplicate_id_refused(self, scratch_registry):
        with pytest.raises(ValueError, match="duplicate rule id DET001"):
            register_rule(_scratch_rule("DET001"))
        assert all_rules()["DET001"].__name__ == "WallClockRule"

    def test_list_rules_is_the_kept_seven(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        section = out.split("fluxlint AST rules:\n")[1].split("\n\n")[0]
        assert [line.split()[0] for line in section.splitlines()] == [
            "DET001", "EXC001", "FLT001", "JRN001", "OBS001", "OVL001",
        ]
        # the runtime sanitizer has no static ids but is still listed
        assert "FluxSan" in out


# ----------------------------------------------------------------------
# DET001 — wall-clock / unseeded randomness
# ----------------------------------------------------------------------
class TestDET001:
    def test_time_time_flagged_at_line(self):
        src = "import time\n\ndef now():\n    return time.time()\n"
        (v,) = lint_source(src, select=["DET001"])
        assert (v.rule, v.line) == ("DET001", 4)

    def test_datetime_now_and_module_alias(self):
        src = (
            "import datetime as dt\n"
            "from datetime import datetime\n"
            "a = dt.datetime.now()\n"
            "b = datetime.utcnow()\n"
        )
        vs = lint_source(src, select=["DET001"])
        assert [v.line for v in vs] == [3, 4]

    def test_unseeded_random_flagged_seeded_ok(self):
        bad = "import random\nx = random.random()\nr = random.Random()\n"
        assert rules_hit(bad, select=["DET001"]) == ["DET001", "DET001"]
        good = (
            "import random\n"
            "import numpy as np\n"
            "r = random.Random(42)\n"
            "g = np.random.default_rng(7)\n"
        )
        assert rules_hit(good, select=["DET001"]) == []

    def test_perf_counter_flagged(self):
        src = "import time as _time\nt0 = _time.perf_counter()\n"
        (v,) = lint_source(src, select=["DET001"])
        assert v.line == 2

    def test_suppression_same_line(self):
        src = "import time\nt = time.time()  # fluxlint: disable=DET001\n"
        assert rules_hit(src, select=["DET001"]) == []

    def test_suppression_next_line(self):
        src = (
            "import time\n"
            "# fluxlint: disable-next-line=DET001\n"
            "t = time.time()\n"
        )
        assert rules_hit(src, select=["DET001"]) == []

    def test_suppression_whole_file(self):
        src = (
            "# fluxlint: disable-file=DET001\n"
            "import time\n"
            "t = time.time()\n"
            "u = time.monotonic()\n"
        )
        assert rules_hit(src, select=["DET001"]) == []


# ----------------------------------------------------------------------
# EXC001 — exception swallowing
# ----------------------------------------------------------------------
class TestEXC001:
    def test_bare_except_without_reraise(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        return None\n"
        )
        (v,) = lint_source(src, select=["EXC001"])
        assert v.line == 4

    def test_bare_except_with_reraise_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except BaseException:\n"
            "        undo()\n"
            "        raise\n"
        )
        assert rules_hit(src, select=["EXC001"]) == []

    def test_broad_exception_pass_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert rules_hit(src, select=["EXC001"]) == ["EXC001"]

    def test_capacity_regression_cleanup_then_reraise(self):
        # The exact shape fixed at sched/capacity.py: rollback + re-raise
        # must catch BaseException so a SimulatedCrash cannot skip it.
        src = (
            "def take_offline(records):\n"
            "    try:\n"
            "        book()\n"
            "    except Exception:\n"
            "        for planner, span_id in records:\n"
            "            planner.rem_span(span_id)\n"
            "        raise\n"
        )
        (v,) = lint_source(src, select=["EXC001"])
        assert v.line == 4
        assert "BaseException" in v.message
        fixed = src.replace("except Exception:", "except BaseException:")
        assert rules_hit(fixed, select=["EXC001"]) == []

    def test_narrow_handler_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        assert rules_hit(src, select=["EXC001"]) == []


# ----------------------------------------------------------------------
# FLT001 — float time equality
# ----------------------------------------------------------------------
class TestFLT001:
    def test_float_literal_equality_flagged(self):
        src = "def f(t):\n    return t == 0.5\n"
        (v,) = lint_source(src, select=["FLT001"])
        assert v.line == 2

    def test_time_attribute_equality_flagged(self):
        src = "def f(job, other):\n    return job.sched_time != other\n"
        assert rules_hit(src, select=["FLT001"]) == ["FLT001"]

    def test_epsilon_helper_and_int_compare_ok(self):
        src = (
            "from repro.epsilon import approx_eq\n"
            "def f(job, other):\n"
            "    return approx_eq(job.sched_time, other) and job.at == 3\n"
        )
        assert rules_hit(src, select=["FLT001"]) == []

    def test_epsilon_helpers_behave(self):
        from repro.epsilon import approx_eq, approx_ne, approx_zero

        assert approx_eq(1.0, 1.0 + 1e-12)
        assert approx_ne(1.0, 1.1)
        assert approx_zero(0.0) and not approx_zero(0.1)


# ----------------------------------------------------------------------
# JRN001 — journal before acting on the object (every class with _journal)
# ----------------------------------------------------------------------
JRN_BAD = """\
class ClusterSimulator:
    def _journal(self, command, payload):
        pass

    def submit(self, jobspec, at=None):
        self.jobs[1] = jobspec
        self._journal("submit", {})
"""

JRN_GOOD = """\
class ClusterSimulator:
    def _journal(self, command, payload):
        pass

    def submit(self, jobspec, at=None):
        self._journal("submit", {})
        self.jobs[1] = jobspec

    def cancel(self, job_id):
        self._journal("cancel", {})
        self.jobs.pop(job_id)

    def schedule_failure(self, vertex, at):
        self._journal("schedule_failure", {})

    def schedule_repair(self, vertex, at):
        self._journal("schedule_repair", {})

    def fail(self, vertex):
        self._journal("fail", {})

    def repair(self, vertex):
        self._journal("repair", {})

    def reschedule(self):
        self._journal("reschedule", {})

    def step(self):
        self._journal("step", {})

    def inject_corruption(self, kind, vertex, salt):
        self._journal("corrupt", {})
"""


class TestJRN001:
    def test_mutation_before_journal_flagged(self):
        vs = lint_source(JRN_BAD, "src/repro/sched/simulator.py",
                         select=["JRN001"])
        assert any(v.line == 6 for v in vs)

    def test_journal_first_clean(self):
        assert rules_hit(JRN_GOOD, "src/repro/sched/simulator.py",
                         select=["JRN001"]) == []

    def test_missing_journal_call_in_required_handler(self):
        src = JRN_GOOD.replace(
            '    def cancel(self, job_id):\n        self._journal("cancel", {})\n',
            "    def cancel(self, job_id):\n",
        )
        vs = lint_source(src, "src/repro/sched/simulator.py",
                         select=["JRN001"])
        assert len(vs) == 1 and "cancel" in vs[0].message

    def test_rule_reaches_every_journaling_class(self):
        # Any file, any class that defines _journal; a class without one is
        # not JRN001's business.
        for path in ("src/repro/sched/other.py", "src/repro/recovery/x.py"):
            vs = lint_source(JRN_BAD, path, select=["JRN001"])
            assert [v.line for v in vs] == [6]
        plain = JRN_BAD.replace("def _journal(", "def _record(")
        assert rules_hit(plain, "src/repro/sched/other.py",
                         select=["JRN001"]) == []

    def test_mutator_call_before_journal_flagged(self):
        for call in ("self.event_log.append(1)",
                     "heapq.heappush(self._events, (0, jobspec))",
                     "affected_jobs(self, jobspec)"):
            src = JRN_BAD.replace("self.jobs[1] = jobspec", call)
            vs = lint_source(src, "src/repro/sched/simulator.py",
                             select=["JRN001"])
            assert [v.line for v in vs] == [6], call

    def test_helper_call_before_journal_flagged(self):
        src = (
            "class MiniSim:\n"
            "    def _journal(self, rec):\n"
            "        self.log.append(rec)\n\n"
            "    def _admit(self, job):\n"
            "        self.jobs.append(job)\n\n"
            "    def submit(self, job):\n"
            "        self._admit(job)\n"
            "        self._journal(('submit', job))\n"
        )
        (v,) = lint_source(src, "src/repro/sched/minisim.py",
                           select=["JRN001"])
        assert v.line == 9  # the self._admit(job) call site
        assert "calls self._admit()" in v.message

    def test_journal_then_helper_clean(self):
        src = (
            "class MiniSim:\n"
            "    def _journal(self, rec):\n"
            "        self.log.append(rec)\n\n"
            "    def _admit(self, job):\n"
            "        self.jobs.append(job)\n\n"
            "    def submit(self, job):\n"
            "        self._crashpoint('submit.pre')\n"
            "        self._journal(('submit', job))\n"
            "        self._admit(job)\n"
        )
        assert rules_hit(src, "src/repro/sched/minisim.py",
                         select=["JRN001"]) == []

    def test_direct_mutation_outside_simulator_module(self):
        src = (
            "class Store:\n"
            "    def _journal(self, rec):\n"
            "        self.log.append(rec)\n\n"
            "    def put(self, key, value):\n"
            "        self.data[key] = value\n"
            "        self._journal(('put', key))\n"
        )
        (v,) = lint_source(src, "src/repro/recovery/store.py",
                           select=["JRN001"])
        assert v.line == 6 and "mutates self.data[key]" in v.message

    def test_reading_helper_before_journal_flagged(self):
        # Stricter than a helper-summary analysis: the rule is
        # intraprocedural, so it cannot tell a reading helper from a
        # mutating one.  Read the attribute itself, or journal first.
        src = (
            "class MiniSim:\n"
            "    def _journal(self, rec):\n"
            "        self.log.append(rec)\n\n"
            "    def lookup(self, ref):\n"
            "        return self.table[ref]\n\n"
            "    def submit(self, job):\n"
            "        name = self.lookup(job)\n"
            "        self._journal(('submit', name))\n"
        )
        (v,) = lint_source(src, "src/repro/sched/minisim.py",
                           select=["JRN001"])
        assert v.line == 9
        direct = src.replace("self.lookup(job)", "self.table[job]")
        assert rules_hit(direct, "src/repro/sched/minisim.py",
                         select=["JRN001"]) == []

    def test_failure_counted_in_a_helper_before_journal_flagged(self):
        # fail() bumping its counter through a helper ahead of the journal:
        # a crash between the two keeps the count and loses the command.
        src = (
            "class ClusterSimulator:\n"
            "    def _journal(self, record):\n"
            "        pass\n\n"
            "    def _note_failure(self):\n"
            "        self.failures += 1\n\n"
            "    def fail(self, vertex, resubmit=True):\n"
            "        if vertex.status == 'down':\n"
            "            return [], []\n"
            "        self._note_failure()\n"
            "        self._journal({'type': 'fail', 'vertex': vertex.name})\n"
            "        self.graph.mark_down(vertex)\n"
        )
        (v,) = lint_source(src, "src/repro/sched/simulator.py",
                           select=["JRN001"])
        assert v.line == 11 and "fail()" in v.message

    def test_handler_names_apply_to_every_journaling_class(self):
        # A journaling class outside the simulator with a method named like
        # a command handler must journal in it too.
        src = (
            "class Monitor:\n"
            "    def _journal(self, rec):\n"
            "        self.log.append(rec)\n\n"
            "    def step(self):\n"
            "        return None\n"
        )
        (v,) = lint_source(src, "src/repro/recovery/monitor.py",
                           select=["JRN001"])
        assert "step() never journals" in v.message

    #: the simulator's shape: public methods check, then journal and apply
    #: through the command table's entry point
    ENTRY_POINT = (
        "class ClusterSimulator:\n"
        "    def _command(self, rtype, *args):\n"
        "        self.recovery.record({'type': rtype})\n"
        "        return COMMANDS[rtype].apply(self, *args)\n\n"
        "    def _fail(self, vertex, resubmit):\n"
        "        self.failures += 1\n\n"
        "    def fail(self, vertex, resubmit=True):\n"
        "        if vertex.status == 'down':\n"
        "            return [], []\n"
        "        return self._command('fail', vertex, resubmit)\n"
    )

    def test_entry_point_is_the_journal_call(self):
        assert rules_hit(self.ENTRY_POINT, "src/repro/sched/simulator.py",
                         select=["JRN001"]) == []

    def test_mutation_before_the_entry_point_flagged(self):
        src = self.ENTRY_POINT.replace(
            "        return self._command(",
            "        self.failures += 1\n        return self._command(",
        )
        (v,) = lint_source(src, "src/repro/sched/simulator.py",
                           select=["JRN001"])
        assert v.line == 12 and "mutates self.failures" in v.message

    def test_command_method_that_skips_the_entry_point_flagged(self):
        src = self.ENTRY_POINT.replace(
            "        return self._command('fail', vertex, resubmit)\n",
            "        return self._fail(vertex, resubmit)\n",
        )
        (v,) = lint_source(src, "src/repro/sched/simulator.py",
                           select=["JRN001"])
        assert "fail() never journals" in v.message


# ----------------------------------------------------------------------
# OBS001 — instrumentation funnels through repro.obs
# ----------------------------------------------------------------------
class TestOBS001:
    def test_raw_timer_flagged_at_line(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        (v,) = lint_source(src, "src/repro/sched/thing.py",
                           select=["OBS001"])
        assert (v.rule, v.line) == ("OBS001", 4)
        assert "repro.obs" in v.message

    def test_aliased_timer_and_from_import(self):
        src = (
            "import time as _time\n"
            "from time import monotonic\n"
            "a = _time.perf_counter_ns()\n"
            "b = monotonic()\n"
        )
        vs = lint_source(src, "src/repro/sched/thing.py", select=["OBS001"])
        assert [v.line for v in vs] == [3, 4]

    def test_stats_dict_increment_flagged(self):
        src = (
            "def visit(self):\n"
            "    self.stats['visits'] += 1\n"
            "    stats['x'] += 2\n"
        )
        vs = lint_source(src, "src/repro/match/thing.py", select=["OBS001"])
        assert [v.line for v in vs] == [2, 3]

    def test_other_dicts_and_assignments_ok(self):
        src = (
            "def f(self):\n"
            "    self.recovery_stats['replays'] += 1\n"
            "    self.stats = {}\n"
            "    counts['x'] += 1\n"
        )
        assert rules_hit(src, "src/repro/sched/thing.py",
                         select=["OBS001"]) == []

    def test_obs_package_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert rules_hit(src, "src/repro/obs/clock.py",
                         select=["OBS001"]) == []
        assert rules_hit(src, "lib/other.py", select=["OBS001"]) == []

    def test_suppression_directive(self):
        src = (
            "import time\n"
            "# fluxlint: disable-next-line=OBS001\n"
            "t = time.perf_counter()\n"
        )
        assert rules_hit(src, "src/repro/sched/thing.py",
                         select=["OBS001"]) == []


class TestOVL001:
    def test_swallowed_deadline_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        pass\n"
        )
        (v,) = lint_source(src, "src/repro/sched/queue.py",
                           select=["OVL001"])
        assert (v.rule, v.line) == ("OVL001", 4)
        assert "re-raise" in v.message

    def test_deadline_return_and_base_flagged(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        return None\n"
            "    try:\n"
            "        g()\n"
            "    except (ValueError, OverloadError):\n"
            "        log()\n"
        )
        vs = lint_source(src, "src/repro/planner/thing.py",
                         select=["OVL001"])
        assert [v.line for v in vs] == [4, 8]

    def test_bare_reraise_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        cleanup()\n"
            "        raise\n"
        )
        assert rules_hit(src, "src/repro/sched/queue.py",
                         select=["OVL001"]) == []

    def test_overload_machinery_exempt(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except SchedulingDeadlineExceeded:\n"
            "        pass\n"
        )
        for path in (
            "src/repro/resilience/overload.py",
            "src/repro/match/traverser.py",
            "src/repro/sched/simulator.py",
        ):
            assert rules_hit(src, path, select=["OVL001"]) == []
        # the integrity monitor has no budget of its own to absorb
        assert rules_hit(src, "src/repro/recovery/integrity.py",
                         select=["OVL001"]) == ["OVL001"]

    def test_unrelated_handlers_ok(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert rules_hit(src, "src/repro/sched/queue.py",
                         select=["OVL001"]) == []


# ----------------------------------------------------------------------
# zero-tolerance regression: the shipped tree must stay clean
# ----------------------------------------------------------------------
class TestTreeClean:
    def test_src_repro_is_fluxlint_clean(self):
        import os

        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        violations, count = LintEngine().lint_paths([root])
        assert count > 60
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_suppressions_name_registered_rules(self):
        """A directive naming a rule that no longer exists silences nothing
        and says nothing: every ``# fluxlint: disable...`` comment in the
        tree must name registered rules (or ``all``)."""
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        known = set(all_rules()) | {"ALL"}
        stale = []
        for dirpath, _, filenames in os.walk(root):
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as handle:
                    tokens = tokenize.generate_tokens(
                        io.StringIO(handle.read()).readline
                    )
                    for tok in tokens:
                        if tok.type != tokenize.COMMENT:
                            continue
                        for match in core._DIRECTIVE.finditer(tok.string):
                            ids = core._parse_rule_list(match.group(2))
                            stale += [
                                f"{path}:{tok.start[0]}: {rule_id}"
                                for rule_id in sorted(ids - known)
                            ]
        assert stale == [], "\n".join(stale)


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------
class TestReporters:
    def test_text_and_json(self):
        vs = lint_source("import time\nt = time.time()\n", "m.py")
        text = render_text(vs, 1)
        assert "m.py:2" in text and "1 violation" in text
        doc = json.loads(render_json(vs, 1))
        assert doc["violation_count"] == 1
        assert doc["violations"][0]["rule"] == "DET001"
        assert render_text([], 3).startswith("fluxlint: OK")


# ----------------------------------------------------------------------
# FluxSan: span double-free
# ----------------------------------------------------------------------
class TestFluxSanDoubleFree:
    def test_planted_double_free_caught_with_report(self):
        with FluxSan() as san:
            p = Planner(4, 0, 1000, "core")
            sid = p.add_span(0, 10, 2)
            p.rem_span(sid)
            with pytest.raises(SanitizerError) as exc:
                p.rem_span(sid)
        msg = str(exc.value)
        assert "double-free" in msg
        assert "already freed at" in msg  # names the first-free site
        assert "test_statcheck" in msg  # ...and it is a usable location
        assert san.stats["double_frees"] == 1

    def test_reinsert_after_free_is_not_double_free(self):
        with FluxSan():
            p = Planner(4, 0, 1000, "core")
            sid = p.add_span(0, 10, 2)
            p.rem_span(sid)
            # crash recovery legitimately re-inserts with an explicit id
            p.add_span(0, 10, 2, span_id=sid)
            p.rem_span(sid)  # must not raise

    def test_inactive_sanitizer_leaves_planner_behavior(self):
        from repro.errors import SpanNotFoundError

        p = Planner(4, 0, 1000, "core")
        sid = p.add_span(0, 10, 2)
        p.rem_span(sid)
        with pytest.raises(SpanNotFoundError):
            p.rem_span(sid)


# ----------------------------------------------------------------------
# FluxSan: exclusivity + SDFU ground truth
# ----------------------------------------------------------------------
class TestFluxSanAllocationChecks:
    def test_clean_workload_passes_all_checks(self):
        g = build_cluster()
        with FluxSan() as san:
            t = Traverser(g, policy="first")
            a1 = t.allocate(nodes_jobspec(2, duration=100), at=0)
            a2 = t.allocate(simple_node_jobspec(cores=4, duration=50), at=0)
            assert a1 is not None and a2 is not None
        assert san.stats["sdfu_checks"] >= 2
        assert san.stats["exclusive_checks"] >= 2

    def test_planted_exclusive_overlap_caught(self):
        g = build_cluster()
        t = Traverser(g, policy="first")
        alloc = t.allocate(nodes_jobspec(1, duration=100), at=0)
        assert alloc is not None
        clone = Allocation(
            alloc_id=alloc.alloc_id + 1000,
            at=alloc.at,
            duration=alloc.duration,
            reserved=False,
            selections=list(alloc.selections),
        )
        with FluxSan():
            with pytest.raises(SanitizerError) as exc:
                t.install_allocation(clone)
        assert "exclusively-held vertex" in str(exc.value)

    def test_planted_overlap_below_exclusive_top_caught(self):
        from repro.grug import tiny_cluster
        from repro.jobspec import Jobspec, ResourceRequest, slot
        from repro.match.writer import Selection

        g = tiny_cluster(racks=2, nodes_per_rack=2, cores=2)
        t = Traverser(g, policy="first")
        rack = Jobspec(
            resources=(ResourceRequest(
                type="rack", count=1, exclusive=True,
                with_=(slot(1, ResourceRequest(type="node", count=1)),),
            ),),
            duration=100,
        )
        alloc = t.allocate(rack, at=0)
        assert alloc is not None
        (top,) = [s.vertex for s in alloc.selections if s.type == "rack"]
        held = {s.vertex.uniq_id for s in alloc.selections}
        other = next(
            v for v in g.children(top) if v.type == "node"
            and v.uniq_id not in held
        )
        clone = Allocation(
            alloc_id=alloc.alloc_id + 1000,
            at=alloc.at,
            duration=alloc.duration,
            reserved=False,
            selections=[Selection(other, other.size, True)],
        )
        with FluxSan():
            with pytest.raises(SanitizerError) as exc:
                t.install_allocation(clone)
        assert f"inside exclusively-held {top.name!r}" in str(exc.value)

    def test_sdfu_defect_only_the_reference_sees(self, monkeypatch):
        """A dropped filter charge books consistently wrong spans: the
        auditor's expected table comes from the same ``sdfu_charges``, so
        only FluxSan's independent reference catches it."""
        from repro.grug import tiny_cluster
        from repro.match import writer
        from repro.workloads.trace import synthetic_trace

        original = writer.sdfu_charges

        def drop_first_charge(graph, subsystem, selections):
            charges = original(graph, subsystem, selections)
            for uid, counts in charges.items():
                if counts:
                    del charges[uid]
                    break
            return charges

        monkeypatch.setattr(writer, "sdfu_charges", drop_first_charge)
        monkeypatch.delenv("FLUXSAN", raising=False)

        def run(sanitize):
            sim = ClusterSimulator(tiny_cluster(), audit=True, sanitize=sanitize)
            try:
                for job in synthetic_trace(
                    n_jobs=8, seed=3, max_nodes=2, min_duration=60,
                    max_duration=600, arrival_spread=300,
                ):
                    sim.submit(job.to_jobspec(), at=job.submit_time)
                sim.run()
            finally:
                if sim.fluxsan is not None:
                    sim.fluxsan.deactivate()
            return sim

        sim = run(sanitize=False)
        assert sim.auditor.collect(sim) == []
        with pytest.raises(SanitizerError) as exc:
            run(sanitize=True)
        assert "SDFU" in str(exc.value)

    def test_planted_sdfu_divergence_caught(self, monkeypatch):
        from repro.match import traverser as traverser_mod

        original = traverser_mod.allocation_bookings

        def without_filters(graph, subsystem, selections):
            # drop every pruning-filter charge
            return [entry for entry in original(graph, subsystem, selections)
                    if entry[1] != "filter"]

        monkeypatch.setattr(traverser_mod, "allocation_bookings", without_filters)
        g = build_cluster()
        with FluxSan():
            t = Traverser(g, policy="first")
            with pytest.raises(SanitizerError) as exc:
                t.allocate(nodes_jobspec(1, duration=100), at=0)
        assert "SDFU" in str(exc.value)


# ----------------------------------------------------------------------
# FluxSan: simulator integration (sanitize=True / FLUXSAN=1)
# ----------------------------------------------------------------------
class TestFluxSanSimulatorHook:
    def test_sanitize_kwarg_attaches_and_full_run_passes(self):
        from repro.grug import tiny_cluster
        from repro.workloads.trace import synthetic_trace

        sim = ClusterSimulator(tiny_cluster(), sanitize=True)
        try:
            assert sim.fluxsan is not None
            for job in synthetic_trace(
                n_jobs=8, seed=3, max_nodes=2, min_duration=60,
                max_duration=600, arrival_spread=300,
            ):
                sim.submit(job.to_jobspec(), at=job.submit_time)
            sim.run()
            assert sim.fluxsan.stats["sdfu_checks"] > 0
            assert "FluxSan" in sim.fluxsan.report()
        finally:
            sim.fluxsan.deactivate()

    def test_fluxsan_env_var(self, monkeypatch):
        from repro.grug import tiny_cluster

        monkeypatch.setenv("FLUXSAN", "1")
        sim = ClusterSimulator(tiny_cluster())
        try:
            assert sim.fluxsan is not None
        finally:
            sim.fluxsan.deactivate()
        monkeypatch.setenv("FLUXSAN", "0")
        assert ClusterSimulator(tiny_cluster()).fluxsan is None

    def test_double_free_fails_loudly_under_fluxsan_env(self, monkeypatch):
        from repro.grug import tiny_cluster

        monkeypatch.setenv("FLUXSAN", "1")
        sim = ClusterSimulator(tiny_cluster())
        try:
            node = next(sim.graph.vertices("node"))
            sid = node.plans.add_span(0, 10, 1)
            node.plans.rem_span(sid)
            with pytest.raises(SanitizerError, match="double-free"):
                node.plans.rem_span(sid)
        finally:
            sim.fluxsan.deactivate()

    def test_proxies_fully_uninstalled(self):
        import repro.planner.planner as planner_mod

        assert not FluxSan.active()
        fn = planner_mod.Planner.rem_span
        assert "statcheck" not in (fn.__module__ or "")

    def test_concurrent_activation_leaves_nothing_patched(self):
        """Class-level patching is process-wide: two threads entering and
        leaving FluxSan at the same moment must not save a proxy as the
        "original" (``_SAN_LOCK`` serializes install / uninstall)."""
        patched = [
            (Planner, "add_span"), (Planner, "rem_span"),
            (PlannerMulti, "add_span"), (PlannerMulti, "rem_span"),
            (Traverser, "_book"), (Traverser, "install_allocation"),
            (ResourceGraph, "mark_down"), (ResourceGraph, "mark_up"),
        ]
        before = [cls.__dict__[name] for cls, name in patched]
        barrier = threading.Barrier(2)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10)
                # free-running after a common start: with the lock taken
                # out, 2 000 rounds left a proxy behind in 10 trials of 10
                for _ in range(5000):
                    with FluxSan():
                        pass
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert FluxSan._active == [] and FluxSan._originals == {}
        assert [cls.__dict__[name] for cls, name in patched] == before


# ----------------------------------------------------------------------
# dual-run nondeterminism detector
# ----------------------------------------------------------------------
def _deterministic_factory():
    from repro.grug import tiny_cluster
    from repro.workloads.trace import synthetic_trace

    sim = ClusterSimulator(tiny_cluster(), queue="conservative")
    for job in synthetic_trace(
        n_jobs=6, seed=5, max_nodes=2, min_duration=60,
        max_duration=600, arrival_spread=300,
    ):
        sim.submit(job.to_jobspec(), at=job.submit_time)
    return sim


class TestDualRun:
    def test_deterministic_workload_passes(self):
        report = dual_run(_deterministic_factory)
        assert report.ok
        assert report.events > 0
        assert "deterministic" in report.summary()

    def test_planted_nondeterminism_caught(self):
        seeds = iter([5, 6])  # second build sees a different workload

        def leaky_factory():
            from repro.grug import tiny_cluster
            from repro.workloads.trace import synthetic_trace

            sim = ClusterSimulator(tiny_cluster())
            for job in synthetic_trace(
                n_jobs=6, seed=next(seeds), max_nodes=2, min_duration=60,
                max_duration=600, arrival_spread=300,
            ):
                sim.submit(job.to_jobspec(), at=job.submit_time)
            return sim

        report = dual_run(leaky_factory, raise_on_divergence=False)
        assert not report.ok
        assert report.diverged_at is not None
        assert "DIVERGED" in report.summary()

    def test_divergence_raises_by_default(self):
        seeds = iter([5, 6])

        def leaky_factory():
            from repro.grug import tiny_cluster
            from repro.workloads.trace import synthetic_trace

            sim = ClusterSimulator(tiny_cluster())
            for job in synthetic_trace(
                n_jobs=4, seed=next(seeds), max_nodes=2, min_duration=60,
                max_duration=600, arrival_spread=300,
            ):
                sim.submit(job.to_jobspec(), at=job.submit_time)
            return sim

        with pytest.raises(SanitizerError, match="DIVERGED"):
            dual_run(leaky_factory)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        f = tmp_path / "clean.py"
        f.write_text("def f(a=None):\n    return a\n")
        assert main([str(f)]) == 0
        assert "fluxlint: OK" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("import time\nt = time.time()\n")
        assert main([str(f)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "dirty.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        f = tmp_path / "dirty.py"
        f.write_text("import time\nt = time.time()\n")
        assert main(["--select", "DET001", "--format", "json", str(f)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"][0]["rule"] == "DET001"

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_syntax_error_exits_two(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def broken(:\n")
        assert main([str(f)]) == 2

    def test_no_paths_exits_two(self):
        assert main([]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out

    def test_unknown_preset_exits_two(self):
        assert main(["--dual-run", "bogus"]) == 2

    def test_select_unknown_rule_exits_two(self, tmp_path):
        f = tmp_path / "clean.py"
        f.write_text("x = 1\n")
        assert main(["--select", "NOPE", str(f)]) == 2

    def test_unreadable_file_exits_two_with_diagnostic(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "gone.py"
        link = tmp_path / "dangling.py"
        link.symlink_to(missing)
        assert main([str(link)]) == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_file_exits_two_with_diagnostic(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"x = '\xff\xfe'\n")
        assert main([str(bad)]) == 2
        err = capsys.readouterr().err
        assert "cannot decode" in err and "bad.py" in err

    def test_null_bytes_exit_two_with_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "nul.py"
        bad.write_bytes(b"a\x00b = 1\n")
        assert main([str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err
