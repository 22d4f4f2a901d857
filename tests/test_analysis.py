"""Static-analysis suite: ``repro.analysis`` passes + the ``sgml lint`` CLI.

Covers the determinism linter (wall clocks behind import aliases, unseeded
RNG, builtin ``hash``, set-iteration order, journal flushes, the pacing
allowlist), the async-hazard detector (loop blockers, the
``submit().result()`` anti-pattern, dropped coroutines), the scenario-spec
analyzer (reachability, dead and gate-only cycles, inventory target
existence — including the three edge cases the issue pins), suppressions
and the content-addressed baseline, and the seeded **mutation tests**:
injecting a wall-clock read into ``kernel/simulator.py``, a blocking
sleep into ``service/server.py`` and an unreachable phase into the
checked-in example spec must each yield exactly the expected rule id and
a non-zero exit — proving the CI gate actually detects the bug classes
it exists for.
"""

from __future__ import annotations

import copy
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintReport,
    analyze_spec,
    builtin_inventory,
    lint_source_text,
    load_baseline,
    module_path,
    run_lint,
    write_baseline,
)
from repro.analysis.findings import fingerprint_findings, make_finding
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


def lint_snippet(source: str, module: str = "repro/kernel/example.py"):
    findings, suppressed = lint_source_text(
        module, textwrap.dedent(source)
    )
    return findings, suppressed


def rules(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Determinism pass
# ---------------------------------------------------------------------------


class TestDeterminismPass:
    def test_wallclock_reads_flagged_through_aliases(self):
        findings, _ = lint_snippet(
            """
            import time as _wallclock
            from time import perf_counter
            import datetime

            def f():
                a = _wallclock.time()
                b = perf_counter()
                c = datetime.datetime.now()
                return a, b, c
            """
        )
        assert rules(findings) == ["det-wallclock"] * 3

    def test_time_sleep_is_not_a_wallclock_read(self):
        findings, _ = lint_snippet(
            """
            import time

            def f():
                time.sleep(0.1)
            """
        )
        assert findings == []

    def test_service_modules_are_pacing_allowlisted(self):
        findings, _ = lint_snippet(
            """
            import time
            import random

            def f():
                return time.time() + random.random()
            """,
            module="repro/service/driver.py",
        )
        assert findings == []

    def test_inline_suppression_on_line_and_line_above(self):
        findings, suppressed = lint_snippet(
            """
            import time

            def f():
                a = time.time()  # sgml: lint-ok[det-wallclock]
                # sgml: lint-ok[det-wallclock] wall accounting
                b = time.time()
                c = time.time()
                return a, b, c
            """
        )
        assert suppressed == 2
        assert rules(findings) == ["det-wallclock"]
        assert findings[0].context == "c = time.time()"

    def test_suppression_is_rule_scoped(self):
        findings, suppressed = lint_snippet(
            """
            import time

            def f():
                return time.time()  # sgml: lint-ok[det-unseeded-random]
            """
        )
        assert suppressed == 0
        assert rules(findings) == ["det-wallclock"]

    def test_global_rng_and_unseeded_random_flagged(self):
        findings, _ = lint_snippet(
            """
            import random
            from random import choice, Random

            def f(items):
                a = random.random()
                b = choice(items)
                rng = Random()
                good = Random(42)
                return a, b, rng, good
            """
        )
        assert rules(findings) == ["det-unseeded-random"] * 3

    def test_seeded_random_instance_passes(self):
        findings, _ = lint_snippet(
            """
            import random
            import zlib

            def make_rng(seed, name):
                return random.Random(seed ^ zlib.crc32(name.encode()))
            """
        )
        assert findings == []

    def test_builtin_hash_flagged_outside_dunder_hash(self):
        findings, _ = lint_snippet(
            """
            def derive(name):
                return hash(name) % 100

            class Key:
                def __hash__(self):
                    return hash(("key", 1))
            """
        )
        assert rules(findings) == ["det-builtin-hash"]
        assert findings[0].line == 3

    def test_set_iteration_in_order_sensitive_contexts(self):
        findings, _ = lint_snippet(
            """
            def f(pending):
                names = {"a", "b"}
                for name in names:
                    print(name)
                ordered = list(set(pending))
                pairs = [(n, 1) for n in names]
                return ordered, pairs
            """
        )
        assert rules(findings) == ["det-set-iteration"] * 3
        assert all(f.severity == "warning" for f in findings)

    def test_sorted_and_order_insensitive_set_use_passes(self):
        findings, _ = lint_snippet(
            """
            def f(pending):
                names = {"a", "b"}
                for name in sorted(names):
                    print(name)
                count = len(names)
                hit = any(n in names for n in pending)
                return count, hit
            """
        )
        assert findings == []

    def test_set_locals_do_not_leak_across_functions(self):
        findings, _ = lint_snippet(
            """
            def g():
                names = {"a"}
                return names

            def f(names):
                # same name, but here it's a parameter of unknown type
                for name in names:
                    print(name)
            """
        )
        assert findings == []

    def test_journal_write_without_flush_flagged(self):
        source = """
            def append(handle, line):
                handle.write(line)

            def append_durable(handle, line):
                handle.write(line)
                handle.flush()
            """
        findings, _ = lint_snippet(
            source, module="repro/service/recovery.py"
        )
        assert rules(findings) == ["det-journal-unflushed"]
        # Same code outside a journal module: rule does not apply.
        findings, _ = lint_snippet(source, module="repro/kernel/report.py")
        assert findings == []

    def test_real_tree_lints_clean(self):
        report = LintReport()
        from repro.analysis import lint_source_paths

        lint_source_paths([str(REPO / "src" / "repro")], report)
        assert report.findings == []
        assert report.sources > 100
        assert report.suppressed > 0  # the annotated wall-accounting reads


# ---------------------------------------------------------------------------
# Async-hazard pass
# ---------------------------------------------------------------------------


class TestAsyncHazardPass:
    def test_blocking_sleep_only_inside_async_def(self):
        findings, _ = lint_snippet(
            """
            import time

            def sync_ok():
                time.sleep(0.1)

            async def bad():
                time.sleep(0.1)
            """,
            module="repro/service/driver.py",
        )
        assert rules(findings) == ["async-blocking-call"]
        assert "bad" in findings[0].message

    def test_submit_result_anti_pattern(self):
        findings, _ = lint_snippet(
            """
            async def bad(pool, fn):
                return pool.submit(fn).result()
            """,
            module="repro/service/driver.py",
        )
        assert rules(findings) == ["async-blocking-call"]
        assert ".submit(...).result()" in findings[0].message

    def test_awaited_task_result_is_fine(self):
        findings, _ = lint_snippet(
            """
            import asyncio

            async def ok():
                task = asyncio.create_task(asyncio.sleep(0))
                await task
                return task.result()
            """,
            module="repro/service/driver.py",
        )
        assert findings == []

    def test_unawaited_local_coroutine_flagged(self):
        findings, _ = lint_snippet(
            """
            import asyncio

            async def _send(payload):
                return payload

            async def good():
                await _send(1)
                asyncio.create_task(_send(2))
                pending = _send(3)  # held for a later gather: allowed
                await asyncio.gather(pending)

            async def bad():
                _send(4)
            """,
            module="repro/service/driver.py",
        )
        assert rules(findings) == ["async-unawaited-coroutine"]
        assert "_send" in findings[0].message


# ---------------------------------------------------------------------------
# Spec analyzer
# ---------------------------------------------------------------------------


def minimal_spec(**overrides) -> dict:
    spec = {
        "name": "t",
        "phases": [
            {
                "name": "start",
                "trigger": {"at": 1.0},
                "outcomes": [{"name": "scored", "check": "status/CB/closed"}],
            },
        ],
    }
    spec.update(overrides)
    return spec


class TestSpecAnalyzer:
    def test_valid_spec_is_clean(self):
        assert analyze_spec(minimal_spec()) == []

    def test_not_a_spec_at_all(self):
        findings = analyze_spec(["nope"])
        assert rules(findings) == ["spec-invalid"]

    def test_unknown_edge_target_single_finding(self):
        spec = minimal_spec()
        spec["phases"][0]["on_pass"] = "missing"
        findings = analyze_spec(spec)
        # from_spec also rejects this; the structural finding covers it
        # and must not be duplicated by spec-invalid.
        assert rules(findings) == ["spec-unknown-edge-target"]
        assert findings[0].phase == "start"

    def test_after_trigger_unknown_phase(self):
        spec = minimal_spec()
        spec["phases"].append({
            "name": "follow",
            "trigger": {"after": "ghost", "delay": 1.0},
        })
        findings = analyze_spec(spec)
        assert "spec-unknown-edge-target" in rules(findings)

    def test_mutually_referencing_pair_is_unreachable(self):
        # validate_graph passes (a root exists) but no execution can ever
        # arm ghost-a/ghost-b: only each other's edges reference them.
        spec = minimal_spec()
        spec["phases"] += [
            {"name": "ghost-a", "trigger": {"at": 2.0}, "on_pass": "ghost-b"},
            {"name": "ghost-b", "trigger": {"at": 3.0}, "on_pass": "ghost-a"},
        ]
        findings = analyze_spec(spec)
        assert set(rules(findings)) == {"spec-unreachable-phase"}
        assert sorted(f.phase for f in findings) == ["ghost-a", "ghost-b"]

    def test_dead_cycle_edge_to_exhausted_ancestor(self):
        # Issue edge case: a branch edge naming a phase that exists but is
        # its own ancestor with max_visits=1 — exactly one finding.
        spec = {
            "name": "retry",
            "phases": [
                {
                    "name": "start",
                    "trigger": {"at": 1.0},
                    "on_fail": "probe",
                },
                {
                    "name": "probe",
                    "trigger": {"at": 0.5},
                    "outcomes": [
                        {"name": "scored", "check": "status/CB/closed"}
                    ],
                    "on_fail": "strike",
                },
                {
                    "name": "strike",
                    "trigger": {"at": 0.5},
                    "max_visits": 2,
                    "outcomes": [
                        {"name": "landed", "check": "not status/CB/closed",
                         "gate": True}
                    ],
                    "on_fail": "probe",
                },
            ],
        }
        findings = analyze_spec(spec)
        # probe->strike is also a back edge, but strike has headroom
        # (max_visits=2); only the edge re-entering spent 'probe' fires.
        assert rules(findings) == ["spec-dead-cycle"]
        assert findings[0].phase == "strike"
        assert "'probe'" in findings[0].message
        assert "max_visits" in findings[0].message

    def test_gate_only_cycle(self):
        # Issue edge case: a spec whose only cycle is gate->gate — exactly
        # one finding.  max_visits=2 on both keeps the cycle alive (no
        # dead-cycle), and the scored exit phase keeps the spec from also
        # tripping spec-no-scoring-outcome.
        spec = {
            "name": "spin",
            "phases": [
                {
                    "name": "enter",
                    "trigger": {"at": 1.0},
                    "on_pass": "ping",
                },
                {
                    "name": "ping",
                    "trigger": {"at": 1.0},
                    "max_visits": 2,
                    "outcomes": [
                        {"name": "g", "check": "status/CB/closed",
                         "gate": True}
                    ],
                    "on_pass": "pong",
                },
                {
                    "name": "pong",
                    "trigger": {"at": 0.5},
                    "max_visits": 2,
                    "outcomes": [
                        {"name": "g", "check": "status/CB/closed",
                         "gate": True}
                    ],
                    "on_pass": "ping",
                    "on_fail": "score",
                },
                {
                    "name": "score",
                    "trigger": {"at": 0.5},
                    "outcomes": [
                        {"name": "scored", "check": "status/CB/closed"}
                    ],
                },
            ],
        }
        findings = analyze_spec(spec)
        assert rules(findings) == ["spec-gate-only-cycle"]
        assert findings[0].severity == "warning"
        assert findings[0].phase == "ping"

    def test_bounded_cycle_with_headroom_is_clean(self):
        spec = {
            "name": "retry-ok",
            "phases": [
                {
                    "name": "start",
                    "trigger": {"at": 1.0},
                    "on_fail": "probe",
                },
                {
                    "name": "probe",
                    "trigger": {"at": 1.0},
                    "max_visits": 3,
                    "outcomes": [
                        {"name": "scored", "check": "status/CB/closed"}
                    ],
                    "on_fail": "strike",
                },
                {
                    "name": "strike",
                    "trigger": {"at": 0.5},
                    "max_visits": 3,
                    "outcomes": [
                        {"name": "landed", "check": "not status/CB/closed",
                         "gate": True}
                    ],
                    "on_fail": "probe",
                },
            ],
        }
        assert analyze_spec(spec) == []

    def test_no_scoring_outcome_is_vacuous_pass(self):
        spec = minimal_spec()
        spec["phases"][0]["outcomes"] = [
            {"name": "g", "check": "status/CB/closed", "gate": True}
        ]
        findings = analyze_spec(spec)
        assert rules(findings) == ["spec-no-scoring-outcome"]
        assert findings[0].severity == "warning"

    def test_checked_in_example_spec_is_clean_against_epic(
        self, epic_inventory
    ):
        spec = json.loads(
            (REPO / "examples" / "fci_on_overload_epic.json").read_text()
        )
        assert analyze_spec(spec, inventory=epic_inventory) == []


@pytest.fixture(scope="session")
def epic_inventory():
    return builtin_inventory("epic")


class TestInventoryTargets:
    def test_catalog_family_against_model_missing_breaker(
        self, epic_inventory
    ):
        # Issue edge case: generate a catalog family, then analyze it
        # against a model set whose targeted breaker is gone.  Every
        # finding carries the one stable rule id.
        from repro.scenario.catalog.families import generate_catalog

        entry = generate_catalog(
            epic_inventory, families=["fci-on-overload"]
        )[0]
        match = re.search(
            r"status/([A-Za-z0-9_]+)/closed", json.dumps(entry.spec)
        )
        assert match, "fci-on-overload spec must check a breaker status"
        target = match.group(1)
        stripped = copy.deepcopy(epic_inventory)
        stripped.breakers = [
            b for b in stripped.breakers if b.name != target
        ]
        findings = analyze_spec(
            entry.spec, path=f"catalog/{entry.name}", inventory=stripped
        )
        assert set(rules(findings)) == {"spec-missing-target"}
        assert all(target in f.message for f in findings)
        # Against the untouched inventory the same entry is clean.
        assert analyze_spec(entry.spec, inventory=epic_inventory) == []

    def test_unknown_point_ied_and_hmi_targets(self, epic_inventory):
        spec = {
            "name": "bad-targets",
            "phases": [
                {
                    "name": "strike",
                    "trigger": {"when": "meas/NOPE/loading > 50"},
                    "actions": [
                        {"inject_breaker": {
                            "server_ip": "10.9.9.9", "ied": "GHOST",
                            "switch": "sw-x",
                        }},
                        {"operate": {
                            "hmi": "NOHMI", "point": "p", "value": 1,
                        }},
                    ],
                    "outcomes": [
                        {"name": "scored", "check": "status/CB_M1/closed"}
                    ],
                },
            ],
        }
        findings = analyze_spec(spec, inventory=epic_inventory)
        assert rules(findings).count("spec-missing-target") == 3
        messages = " | ".join(f.message for f in findings)
        assert "meas/NOPE/loading" in messages
        assert "GHOST" in messages
        assert "NOHMI" in messages

    def test_full_builtin_catalogs_are_clean(self, epic_inventory):
        from repro.analysis import lint_catalog

        report = LintReport()
        lint_catalog("epic", report, inventory=epic_inventory)
        assert report.findings == []
        assert report.specs >= 5


# ---------------------------------------------------------------------------
# Baseline + fingerprints
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_fingerprints_survive_line_shifts(self):
        a = make_finding("r", "m", path="p.py", line=10, context="x = 1")
        b = make_finding("r", "m", path="p.py", line=99, context="x = 1")
        assert a.fingerprint() == b.fingerprint()

    def test_identical_lines_get_occurrence_indices(self):
        a = make_finding("r", "m", path="p.py", line=1, context="w()")
        b = make_finding("r", "m", path="p.py", line=2, context="w()")
        fps = fingerprint_findings([a, b])
        assert len(fps) == 2

    def test_baseline_roundtrip_and_apply(self, tmp_path):
        baseline_file = str(tmp_path / "baseline.json")
        old = make_finding("r", "m", path="p.py", line=3, context="old()")
        write_baseline(baseline_file, [old])
        report = LintReport(findings=[
            make_finding("r", "m", path="p.py", line=30, context="old()"),
            make_finding("r", "m", path="p.py", line=31, context="new()"),
        ])
        report.apply_baseline(load_baseline(baseline_file))
        assert [f.context for f in report.findings] == ["new()"]
        assert [f.context for f in report.baselined] == ["old()"]
        assert report.failed  # the new finding still gates

    def test_shipped_baseline_is_empty(self):
        entries = load_baseline(str(REPO / "lint-baseline.json"))
        assert entries == {}


# ---------------------------------------------------------------------------
# Engine + CLI (including the seeded mutation tests)
# ---------------------------------------------------------------------------


class TestEngineAndCli:
    def test_module_path_normalizes_from_last_repro_segment(self):
        assert module_path(
            "/tmp/x/src/repro/service/server.py"
        ) == "repro/service/server.py"
        assert module_path(
            "src/repro/kernel/simulator.py"
        ) == "repro/kernel/simulator.py"
        assert module_path("examples/demo.py") == "examples/demo.py"

    def test_lint_cli_clean_run_exit_zero(self, tmp_path, capsys):
        clean = tmp_path / "repro" / "kernel" / "clean.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("VALUE = 1\n")
        assert main(["lint", str(clean)]) == 0
        assert "passed" in capsys.readouterr().out

    def test_lint_cli_nothing_to_do_is_usage_error(self, capsys):
        assert main(["lint"]) == 2

    def test_mutation_wallclock_in_simulator(self, tmp_path, capsys):
        # Acceptance mutation #1: time.time() injected into
        # kernel/simulator.py must be caught as det-wallclock.
        mutant = tmp_path / "repro" / "kernel" / "simulator.py"
        mutant.parent.mkdir(parents=True)
        original = (
            REPO / "src" / "repro" / "kernel" / "simulator.py"
        ).read_text()
        mutant.write_text(
            original
            + "\n\ndef _mutant_stamp():\n"
              "    import time\n"
              "    return time.time()\n"
        )
        out = tmp_path / "findings.json"
        assert main(["lint", str(mutant), "--json", str(out)]) == 1
        data = json.loads(out.read_text())
        new_rules = [f["rule"] for f in data["findings"]]
        assert new_rules == ["det-wallclock"]
        assert data["findings"][0]["path"] == "repro/kernel/simulator.py"

    def test_mutation_blocking_sleep_in_server(self, tmp_path):
        # Acceptance mutation #2: a blocking time.sleep inside an async
        # def in service/server.py must be caught as async-blocking-call
        # (the service pacing allowlist must NOT hide it).
        mutant = tmp_path / "repro" / "service" / "server.py"
        mutant.parent.mkdir(parents=True)
        original = (
            REPO / "src" / "repro" / "service" / "server.py"
        ).read_text()
        mutant.write_text(
            original
            + "\n\nasync def _mutant_pause():\n"
              "    import time\n"
              "    time.sleep(0.5)\n"
        )
        out = tmp_path / "findings.json"
        assert main(["lint", str(mutant), "--json", str(out)]) == 1
        data = json.loads(out.read_text())
        assert [f["rule"] for f in data["findings"]] == [
            "async-blocking-call"
        ]

    def test_mutation_unreachable_phase_in_example_spec(self, tmp_path):
        # Acceptance mutation #3: an unreachable phase injected into the
        # checked-in example spec must be caught as spec-unreachable-phase.
        spec = json.loads(
            (REPO / "examples" / "fci_on_overload_epic.json").read_text()
        )
        spec["phases"] += [
            {"name": "ghost-a", "trigger": {"at": 2.0}, "on_pass": "ghost-b"},
            {"name": "ghost-b", "trigger": {"at": 3.0}, "on_pass": "ghost-a"},
        ]
        mutant = tmp_path / "mutant_spec.json"
        mutant.write_text(json.dumps(spec))
        out = tmp_path / "findings.json"
        assert main(
            ["lint", "--spec", str(mutant), "--json", str(out)]
        ) == 1
        data = json.loads(out.read_text())
        assert {f["rule"] for f in data["findings"]} == {
            "spec-unreachable-phase"
        }

    def test_update_baseline_grandfathers_findings(self, tmp_path, capsys):
        mutant = tmp_path / "repro" / "kernel" / "mut.py"
        mutant.parent.mkdir(parents=True)
        mutant.write_text(
            "import time\n\ndef f():\n    return time.time()\n"
        )
        baseline = tmp_path / "baseline.json"
        assert main(
            ["lint", str(mutant), "--baseline", str(baseline),
             "--update-baseline"]
        ) == 0
        # Grandfathered: the same finding no longer gates ...
        assert main(
            ["lint", str(mutant), "--baseline", str(baseline)]
        ) == 0
        # ... but a new finding alongside it still does.
        mutant.write_text(
            "import time\n\ndef f():\n    return time.time()\n"
            "\ndef g():\n    return time.perf_counter()\n"
        )
        assert main(
            ["lint", str(mutant), "--baseline", str(baseline)]
        ) == 1

    def test_run_lint_api_over_spec_and_sources(self, tmp_path):
        source = tmp_path / "repro" / "kernel" / "m.py"
        source.parent.mkdir(parents=True)
        source.write_text("import time\nSTAMP = time.time()\n")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(minimal_spec()))
        report = run_lint([str(source)], [str(spec)])
        assert rules(report.findings) == ["det-wallclock"]
        assert report.sources == 1 and report.specs == 1
        payload = report.to_dict()
        assert payload["failed"] is True
        assert payload["counts_by_rule"] == {"det-wallclock": 1}

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "repro" / "kernel" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        report = run_lint([str(bad)])
        assert rules(report.findings) == ["parse-error"]


# ---------------------------------------------------------------------------
# Fork-availability guards (CI skip legibility)
# ---------------------------------------------------------------------------


class TestForkGuards:
    @pytest.mark.parametrize(
        "script", ["campaign_differential.py", "chaos_smoke.py"]
    )
    def test_scripts_skip_with_distinct_code_without_fork(
        self, script, monkeypatch, capsys
    ):
        import importlib.util
        import multiprocessing

        spec = importlib.util.spec_from_file_location(
            script.removesuffix(".py"), str(REPO / "scripts" / script)
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.EXIT_SKIP_NO_FORK == 75
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert module.require_fork() == 75
        out = capsys.readouterr().out
        assert out.startswith("SKIP:") and out.count("\n") == 1

    @pytest.mark.parametrize(
        "script", ["campaign_differential.py", "chaos_smoke.py"]
    )
    def test_scripts_proceed_when_fork_available(self, script, monkeypatch):
        import importlib.util
        import multiprocessing

        spec = importlib.util.spec_from_file_location(
            script.removesuffix(".py") + "_forked",
            str(REPO / "scripts" / script),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods",
            lambda: ["fork", "spawn"],
        )
        assert module.require_fork() is None

    def test_differential_names_the_file_that_is_not_a_report(
        self, tmp_path, monkeypatch, capsys
    ):
        import importlib.util
        import multiprocessing

        spec = importlib.util.spec_from_file_location(
            "campaign_differential_paths",
            str(REPO / "scripts" / "campaign_differential.py"),
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["fork"]
        )
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"scenarios": []}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"matrix": True}))
        assert module.main(["prog", str(good), str(bad)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"sharded file {bad}:")
        assert str(good) not in out


# ---------------------------------------------------------------------------
# Scenario graph introspection helpers
# ---------------------------------------------------------------------------


class TestGraphHelpers:
    def test_scenario_reachability_and_back_edges(self):
        from repro.scenario import Scenario

        scenario = Scenario.from_spec({
            "name": "g",
            "phases": [
                {"name": "root", "trigger": {"at": 1.0}, "on_fail": "retry",
                 "outcomes": [{"name": "s", "check": "status/CB/closed"}]},
                {"name": "retry", "trigger": {"at": 0.5}, "max_visits": 2,
                 "on_fail": "again"},
                {"name": "again", "trigger": {"at": 0.5}, "max_visits": 2,
                 "on_pass": "retry"},
                {"name": "island-a", "trigger": {"at": 9.0},
                 "on_pass": "island-b"},
                {"name": "island-b", "trigger": {"at": 9.0},
                 "on_pass": "island-a"},
            ],
        })
        # validate_graph accepts this (a root exists); the islands only
        # fall out of the deeper reachability analysis.
        assert scenario.unreachable_phases() == ["island-a", "island-b"]
        assert scenario.reachable_phases() == {"root", "retry", "again"}
        back = scenario.back_edges()
        assert ("again", "on_pass", "retry") in back
