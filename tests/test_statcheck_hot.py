"""fluxhot tests: the hotness model, the PRF rules on planted fixtures,
the ``--perf`` CLI mode, and the two lint-pipeline fixes that rode along
(cache rule-set fingerprinting and the ``--changed-only`` git fallback).

The PRF fixtures are virtual programs (``FlowProgram.from_sources``) paired
with synthetic hotspot manifests, so every test controls exactly which
functions are hot and can assert the hot-caller chain verbatim.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import FluxionError
from repro.statcheck import all_rules
from repro.statcheck import cache as cache_mod
from repro.statcheck.cache import LintCache, _rules_fingerprint
from repro.statcheck.cli import main
from repro.statcheck.flow.callgraph import build_call_graph
from repro.statcheck.flow.program import FlowProgram, module_name_for_path
from repro.statcheck.hot import (
    DEFAULT_MANIFEST,
    HOT_THRESHOLD,
    HOTSPOTS_VERSION,
    HotModel,
    PerfEngine,
    load_hotspots,
    render_hot_report,
)
from repro.statcheck.hot.model import CHAIN_DECAY, measured_roots

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# fixture helpers
# ---------------------------------------------------------------------------


def manifest(*entries, total=1.0):
    """Synthetic hotspot manifest: entries are (qualname, cum_s) pairs."""
    return {
        "version": HOTSPOTS_VERSION,
        "workload": "synthetic",
        "total_s": total,
        "functions": [
            {"qualname": q, "cum_s": c, "self_s": c / 2, "calls": 100}
            for q, c in entries
        ],
    }


def analyze(source, entries, select=None, total=1.0):
    """Run the PRF rules over one virtual module named ``hotmod``."""
    program = FlowProgram.from_sources({"hotmod.py": source})
    engine = PerfEngine(select=select)
    return engine.analyze_program(program, manifest(*entries, total=total))


def build_model(source, entries, total=1.0):
    program = FlowProgram.from_sources({"hotmod.py": source})
    graph = build_call_graph(program)
    return HotModel.build(program, graph, manifest(*entries, total=total))


# ---------------------------------------------------------------------------
# hotness model
# ---------------------------------------------------------------------------

CHAIN_SRC = (
    "def driver(items):\n"
    "    return [helper(i) for i in items]\n"
    "\n"
    "def helper(x):\n"
    "    return leaf(x) + 1\n"
    "\n"
    "def leaf(x):\n"
    "    return x * 2\n"
    "\n"
    "def cold(x):\n"
    "    return x\n"
)


class TestHotModel:
    def test_measured_function_keeps_its_score(self):
        model = build_model(CHAIN_SRC, [("hotmod.driver", 0.5)])
        info = model.functions["hotmod.driver"]
        assert info.measured
        assert info.score == pytest.approx(0.5)
        assert model.is_hot("hotmod.driver")

    def test_unmeasured_callee_inherits_decayed_score(self):
        model = build_model(CHAIN_SRC, [("hotmod.driver", 0.5)])
        helper = model.functions["hotmod.helper"]
        assert not helper.measured
        assert helper.score == pytest.approx(0.5 * CHAIN_DECAY)
        assert helper.via == "hotmod.driver"
        leaf = model.functions["hotmod.leaf"]
        assert leaf.score == pytest.approx(0.5 * CHAIN_DECAY * CHAIN_DECAY)

    def test_unreached_function_is_cold(self):
        model = build_model(CHAIN_SRC, [("hotmod.driver", 0.5)])
        assert model.score("hotmod.cold") == 0.0
        assert not model.is_hot("hotmod.cold")

    def test_hottest_caller_wins_the_chain(self):
        src = (
            "def hot_caller(x):\n"
            "    return shared(x)\n"
            "\n"
            "def cool_caller(x):\n"
            "    return shared(x)\n"
            "\n"
            "def shared(x):\n"
            "    return x\n"
        )
        model = build_model(
            src, [("hotmod.hot_caller", 0.8), ("hotmod.cool_caller", 0.1)]
        )
        assert model.functions["hotmod.shared"].via == "hotmod.hot_caller"
        assert model.functions["hotmod.shared"].score == pytest.approx(
            0.8 * CHAIN_DECAY
        )

    def test_chain_text_roots_at_the_measured_driver(self):
        model = build_model(CHAIN_SRC, [("hotmod.driver", 0.5)])
        assert (
            model.chain_text("hotmod.leaf")
            == "hotmod.driver -> helper -> leaf"
        )

    def test_hot_functions_ranked_hottest_first(self):
        model = build_model(
            CHAIN_SRC, [("hotmod.driver", 0.2), ("hotmod.helper", 0.6)]
        )
        ranked = [f.qualname for f in model.hot_functions()]
        assert ranked[0] == "hotmod.helper"
        assert ranked.index("hotmod.helper") < ranked.index("hotmod.driver")

    def test_measured_roots_excludes_called_functions(self):
        program = FlowProgram.from_sources({"hotmod.py": CHAIN_SRC})
        graph = build_call_graph(program)
        model = build_model(
            CHAIN_SRC, [("hotmod.driver", 0.5), ("hotmod.helper", 0.3)]
        )
        roots = measured_roots(
            {q: f for q, f in model.functions.items() if f.measured}, graph
        )
        assert roots == {"hotmod.driver"}

    def test_threshold_is_configurable(self):
        program = FlowProgram.from_sources({"hotmod.py": CHAIN_SRC})
        graph = build_call_graph(program)
        model = HotModel.build(
            program, graph, manifest(("hotmod.driver", 0.02)), threshold=0.5
        )
        assert not model.is_hot("hotmod.driver")


class TestLoadHotspots:
    def test_missing_file_raises_with_regen_hint(self, tmp_path):
        with pytest.raises(FluxionError, match="hotprofile"):
            load_hotspots(str(tmp_path / "nope.json"))

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FluxionError, match="not valid JSON"):
            load_hotspots(str(path))

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"version": 9, "functions": []}))
        with pytest.raises(FluxionError, match="unsupported version"):
            load_hotspots(str(path))

    def test_malformed_entry_raises(self, tmp_path):
        path = tmp_path / "malformed.json"
        path.write_text(
            json.dumps({"version": 1, "functions": [{"cum_s": 1.0}]})
        )
        with pytest.raises(FluxionError, match="qualname"):
            load_hotspots(str(path))

    def test_checked_in_manifest_is_valid(self):
        document = load_hotspots(os.path.join(REPO, DEFAULT_MANIFEST))
        assert document["version"] == HOTSPOTS_VERSION
        assert document["functions"]
        for entry in document["functions"]:
            assert entry["qualname"].startswith("repro.")


# ---------------------------------------------------------------------------
# planted PRF fixtures — each must fire with the hot-caller chain
# ---------------------------------------------------------------------------

HOT_DRIVER = [("hotmod.driver", 0.5)]


class TestPRF001:
    def test_list_literal_in_hot_loop(self):
        src = (
            "def driver(items):\n"
            "    total = 0\n"
            "    for item in items:\n"
            "        pair = [item, item]\n"
            "        total += len(pair)\n"
            "    return total\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        (v,) = violations
        assert v.rule == "PRF001"
        assert "list literal" in v.message
        assert "hot path: hotmod.driver" in v.message
        assert "50.0% of workload" in v.message

    def test_dict_ctor_and_comprehension_in_hot_loop(self):
        src = (
            "def driver(items):\n"
            "    out = None\n"
            "    for item in items:\n"
            "        out = dict(a=item)\n"
            "        keys = [k for k in out]\n"
            "    return keys\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        messages = " | ".join(v.message for v in violations)
        assert "dict() is allocated" in messages
        assert "list comprehension" in messages

    def test_string_concat_in_hot_loop(self):
        src = (
            "def driver(items):\n"
            "    label = ''\n"
            "    for item in items:\n"
            "        label += f'{item},'\n"
            "    return label\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        assert any("string concatenation" in v.message for v in violations)

    def test_cold_function_is_not_checked(self):
        src = (
            "def driver(items):\n"
            "    return len(items)\n"
            "\n"
            "def cold(items):\n"
            "    out = []\n"
            "    for item in items:\n"
            "        out.append([item])\n"
            "    return out\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        assert violations == []

    def test_inherited_hot_helper_carries_the_chain(self):
        src = (
            "def driver(items):\n"
            "    return [helper(i) for i in items]\n"
            "\n"
            "def helper(item):\n"
            "    acc = 0\n"
            "    for part in item:\n"
            "        acc += len([part])\n"
            "    return acc\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        (v,) = violations
        assert "hot path: hotmod.driver -> helper" in v.message

    def test_suppression_comment_wins(self):
        src = (
            "def driver(items):\n"
            "    total = 0\n"
            "    for item in items:\n"
            "        pair = [item, item]  # fluxlint: disable=PRF001\n"
            "        total += len(pair)\n"
            "    return total\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        assert violations == []


class TestPRF002:
    def test_repeated_attribute_chain(self):
        src = (
            "def driver(ctx, items):\n"
            "    out = 0\n"
            "    for item in items:\n"
            "        out += ctx.stats.count\n"
            "        out += ctx.stats.count\n"
            "        out += ctx.stats.count\n"
            "    return out\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF002"])
        (v,) = violations
        assert v.rule == "PRF002"
        # both 'ctx.stats' and 'ctx.stats.count' hit the threshold; the
        # engine reports one best finding per loop
        assert "'ctx.stats' is looked up 3 times" in v.message
        assert "hot path: hotmod.driver" in v.message

    def test_repeated_module_global(self):
        src = (
            "def helper(x):\n"
            "    return x\n"
            "\n"
            "def driver(items):\n"
            "    out = 0\n"
            "    for item in items:\n"
            "        out += helper(item) + helper(item) + helper(item)\n"
            "    return out\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF002"])
        (v,) = violations
        assert "module-global name 'helper'" in v.message

    def test_rebound_name_is_not_flagged(self):
        src = (
            "def driver(items):\n"
            "    out = 0\n"
            "    for item in items:\n"
            "        item = item.strip()\n"
            "        out += item.count('a') + item.count('b') + item.count('c')\n"
            "    return out\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF002"])
        assert violations == []

    def test_loop_target_is_not_flagged(self):
        """A ``for`` target is a new object every iteration: there is
        nothing to bind before the loop."""
        src = (
            "def driver(items):\n"
            "    out = 0\n"
            "    for item in items:\n"
            "        out += item.size + item.size + item.size\n"
            "    return out\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF002"])
        assert violations == []

    def test_below_threshold_is_quiet(self):
        src = (
            "def driver(ctx, items):\n"
            "    out = 0\n"
            "    for item in items:\n"
            "        out += ctx.stats.count\n"
            "        out += ctx.stats.count\n"
            "    return out\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF002"])
        assert violations == []


class TestPRF003:
    CONSTRUCTING_DRIVER = (
        "class Point:\n"
        "    def __init__(self, x, y):\n"
        "        self.x = x\n"
        "        self.y = y\n"
        "\n"
        "def driver(items):\n"
        "    out = []\n"
        "    for item in items:\n"
        "        out.append(Point(item, item))\n"
        "    return out\n"
    )

    def test_hot_construction_site_flags_the_class(self):
        violations, _ = analyze(
            self.CONSTRUCTING_DRIVER, HOT_DRIVER, select=["PRF003"]
        )
        (v,) = violations
        assert v.rule == "PRF003"
        assert "hot class 'Point' has no __slots__" in v.message
        assert "hot path:" in v.message
        assert v.line == 1  # reported at the class definition

    def test_hot_method_flags_the_class(self):
        src = (
            "class Walker:\n"
            "    def visit(self, items):\n"
            "        return len(items)\n"
        )
        violations, _ = analyze(
            src, [("hotmod.Walker.visit", 0.5)], select=["PRF003"]
        )
        (v,) = violations
        assert "hot class 'Walker'" in v.message

    def test_slotted_class_is_quiet(self):
        src = (
            "class Point:\n"
            "    __slots__ = ('x', 'y')\n"
            "    def __init__(self, x, y):\n"
            "        self.x = x\n"
            "        self.y = y\n"
            "\n"
            "def driver(items):\n"
            "    return [Point(i, i) for i in items]\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF003"])
        assert violations == []

    def test_external_base_disqualifies(self):
        src = (
            "import threading\n"
            "\n"
            "class Worker(threading.Thread):\n"
            "    def run(self):\n"
            "        return 1\n"
        )
        violations, _ = analyze(
            src, [("hotmod.Worker.run", 0.5)], select=["PRF003"]
        )
        assert violations == []

    def test_slotted_project_base_still_flags_subclass(self):
        src = (
            "class Base:\n"
            "    __slots__ = ('a',)\n"
            "\n"
            "class Leaf(Base):\n"
            "    def visit(self):\n"
            "        return self.a\n"
        )
        violations, _ = analyze(
            src, [("hotmod.Leaf.visit", 0.5)], select=["PRF003"]
        )
        (v,) = violations
        assert "'Leaf'" in v.message


class TestPRF004:
    def test_membership_against_list_local(self):
        src = (
            "def driver(items):\n"
            "    seen = []\n"
            "    hits = 0\n"
            "    for item in items:\n"
            "        if item in seen:\n"
            "            hits += 1\n"
            "        seen.append(item)\n"
            "    return hits\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF004"])
        (v,) = violations
        assert v.rule == "PRF004"
        assert "membership test against a list" in v.message
        assert "hot path: hotmod.driver" in v.message

    def test_list_index_call(self):
        src = (
            "def driver(items, order):\n"
            "    ranked = list(order)\n"
            "    return [ranked.index(item) for item in items]\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF004"])
        (v,) = violations
        assert "list.index()" in v.message

    def test_sorted_inside_loop(self):
        src = (
            "def driver(items):\n"
            "    queue = []\n"
            "    for item in items:\n"
            "        queue.append(item)\n"
            "        queue = sorted(queue)\n"
            "    return queue\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF004"])
        assert any(
            "sorted() runs on every iteration" in v.message
            for v in violations
        )

    def test_membership_against_set_is_quiet(self):
        src = (
            "def driver(items):\n"
            "    seen = set()\n"
            "    hits = 0\n"
            "    for item in items:\n"
            "        if item in seen:\n"
            "            hits += 1\n"
            "        seen.add(item)\n"
            "    return hits\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF004"])
        assert violations == []

    def test_sorted_outside_loop_is_quiet(self):
        src = (
            "def driver(items):\n"
            "    ranked = sorted(items)\n"
            "    return ranked\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF004"])
        assert violations == []


# ---------------------------------------------------------------------------
# engine + report
# ---------------------------------------------------------------------------


class TestPerfEngine:
    def test_registry_has_all_four_rules(self):
        assert set(all_rules(kind="perf")) == {
            "PRF001",
            "PRF002",
            "PRF003",
            "PRF004",
        }

    def test_unknown_rule_id_raises(self):
        with pytest.raises(FluxionError, match="unknown perf rule ids"):
            PerfEngine(select=["PRF999"])

    def test_ignore_drops_a_rule(self):
        src = (
            "def driver(items):\n"
            "    for item in items:\n"
            "        pair = [item, item]\n"
        )
        violations, _ = analyze(src, HOT_DRIVER)
        assert any(v.rule == "PRF001" for v in violations)
        program = FlowProgram.from_sources({"hotmod.py": src})
        engine = PerfEngine(ignore=["PRF001"])
        quiet, _ = engine.analyze_program(program, manifest(*HOT_DRIVER))
        assert not any(v.rule == "PRF001" for v in quiet)

    def test_results_are_sorted_and_unique(self):
        src = (
            "def driver(items):\n"
            "    for item in items:\n"
            "        a = [item]\n"
            "        b = [item, item]\n"
        )
        violations, _ = analyze(src, HOT_DRIVER, select=["PRF001"])
        assert violations == sorted(set(violations))


class TestHotReport:
    def test_ranked_report_shape(self):
        _, model = analyze(CHAIN_SRC, [("hotmod.driver", 0.5)])
        report = render_hot_report(model)
        assert "fluxhot ranked hot-path report" in report
        lines = report.splitlines()
        assert any("hotmod.driver" in line for line in lines)
        assert any("(inherited)" in line for line in lines)
        assert any("via hotmod.driver -> helper" in line for line in lines)

    def test_empty_report(self):
        _, model = analyze("x = 1\n", [])
        assert "(no hot functions above the threshold)" in render_hot_report(
            model
        )


# ---------------------------------------------------------------------------
# --perf CLI mode
# ---------------------------------------------------------------------------


def write_fixture(tmp_path):
    """A hot driver with one PRF001 violation, plus a matching manifest."""
    fixture = tmp_path / "hotmod.py"
    fixture.write_text(
        "def driver(items):\n"
        "    total = 0\n"
        "    for item in items:\n"
        "        pair = [item, item]\n"
        "        total += len(pair)\n"
        "    return total\n"
    )
    qualname = module_name_for_path(str(fixture).replace(os.sep, "/"))
    hotspots = tmp_path / "hotspots.json"
    hotspots.write_text(
        json.dumps(manifest((f"{qualname}.driver", 0.5)))
    )
    return fixture, hotspots


class TestPerfCLI:
    def test_perf_mode_reports_prf_findings(self, tmp_path, capsys):
        fixture, hotspots = write_fixture(tmp_path)
        code = main(["--perf", "--hotspots", str(hotspots), str(fixture)])
        assert code == 1
        out = capsys.readouterr().out
        assert "PRF001" in out
        assert "hot path:" in out

    def test_hot_report_artifact_is_written(self, tmp_path, capsys):
        fixture, hotspots = write_fixture(tmp_path)
        report = tmp_path / "report.txt"
        main(
            [
                "--perf",
                "--hotspots",
                str(hotspots),
                "--hot-report",
                str(report),
                str(fixture),
            ]
        )
        assert "fluxhot ranked hot-path report" in report.read_text()

    def test_selecting_prf_without_perf_exits_two(self, tmp_path, capsys):
        fixture, _ = write_fixture(tmp_path)
        assert main(["--select", "PRF001", str(fixture)]) == 2
        assert "--perf" in capsys.readouterr().err

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        fixture, _ = write_fixture(tmp_path)
        code = main(
            ["--perf", "--hotspots", str(tmp_path / "nope.json"), str(fixture)]
        )
        assert code == 2

    def test_perf_baseline_round_trip(self, tmp_path, capsys):
        fixture, hotspots = write_fixture(tmp_path)
        baseline = tmp_path / "perf-baseline.json"
        assert (
            main(
                [
                    "--perf",
                    "--hotspots",
                    str(hotspots),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                    str(fixture),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "--perf",
                    "--hotspots",
                    str(hotspots),
                    "--baseline",
                    str(baseline),
                    str(fixture),
                ]
            )
            == 0
        )
        assert "OK" in capsys.readouterr().out

    def test_checked_in_perf_baseline_is_clean(self, capsys, monkeypatch):
        """The acceptance criterion: the shipped tree runs clean under
        ``--perf`` against the checked-in manifest and baseline."""
        monkeypatch.chdir(REPO)
        code = main(
            [
                "--perf",
                "--baseline",
                "statcheck-perf-baseline.json",
                os.path.join("src", "repro"),
            ]
        )
        assert code == 0, capsys.readouterr().out


# ---------------------------------------------------------------------------
# satellite 1 — cache keys fingerprint the rule implementations
# ---------------------------------------------------------------------------


class TestCacheRuleFingerprint:
    def test_fingerprint_changes_when_rule_source_changes(self, monkeypatch):
        baseline = _rules_fingerprint(["DET001"])
        monkeypatch.setitem(
            cache_mod._SOURCE_DIGESTS,
            "repro.statcheck.rules",
            "pretend-the-rule-module-was-edited",
        )
        assert _rules_fingerprint(["DET001"]) != baseline

    def test_cache_key_depends_on_rule_fingerprint(self, tmp_path, monkeypatch):
        cache = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        key_before = cache.key("mod.py", b"x = 1\n")
        monkeypatch.setitem(
            cache_mod._SOURCE_DIGESTS,
            "repro.statcheck.rules",
            "pretend-the-rule-module-was-edited",
        )
        edited = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        assert edited.key("mod.py", b"x = 1\n") != key_before

    def test_fingerprint_is_stable_across_constructions(self, tmp_path):
        first = LintCache(root=str(tmp_path), rule_ids=["DET001", "MUT001"])
        second = LintCache(root=str(tmp_path), rule_ids=["DET001", "MUT001"])
        assert first.signature == second.signature

    def test_unknown_rule_ids_do_not_crash(self):
        assert _rules_fingerprint(["NOPE999"])

    def test_stale_results_not_served_after_rule_edit(self, tmp_path, monkeypatch):
        """The regression this fixes: a cached clean verdict must not
        survive a rule edit that would now flag the file."""
        raw = b"import time\nt = time.time()\n"
        cache = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        cache.put(cache.key("mod.py", raw), [])  # old (stale) clean result
        monkeypatch.setitem(
            cache_mod._SOURCE_DIGESTS,
            "repro.statcheck.rules",
            "pretend-the-rule-module-was-edited",
        )
        edited = LintCache(root=str(tmp_path), rule_ids=["DET001"])
        assert edited.get(edited.key("mod.py", raw)) is None


# ---------------------------------------------------------------------------
# satellite 2 — --changed-only degrades to a full scan outside git
# ---------------------------------------------------------------------------


class TestChangedOnlyFallback:
    def test_outside_git_warns_and_scans_everything(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # no enclosing git checkout under /tmp
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        code = main(["--changed-only", str(dirty)])
        captured = capsys.readouterr()
        assert "falling back to a full scan" in captured.err
        assert code == 1  # the full scan ran and found the violation
        assert "DET001" in captured.out

    def test_outside_git_clean_tree_still_exits_zero(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        clean = tmp_path / "clean.py"
        clean.write_text("def f(a=None):\n    return a\n")
        code = main(["--changed-only", str(clean)])
        captured = capsys.readouterr()
        assert "falling back to a full scan" in captured.err
        assert code == 0
        assert "fluxlint: OK" in captured.out
