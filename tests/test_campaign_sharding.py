"""Determinism-differential suite for sharded campaign sweeps.

The correctness contract of :meth:`Campaign.run`: a process-pool sweep
(``workers=N``) of a campaign is *provably equivalent* to the in-process
placement (``workers=1``) — identical per-run verdicts, branch paths, seeds
and data-plane deltas field for field (wall-clock fields excluded), with
aggregation invariant to completion order.  Plus the fault paths (raising
specs, killed workers, per-run timeouts each become structured failed
results without sinking the sweep), the unified seed-provenance contract,
and :class:`CampaignReport` / :class:`MatrixReport` JSON round-trips
including the CLI ``--report`` path (golden-file tolerant of field
additions).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.range.range import DATA_PLANE_KINDS
from repro.scenario import (
    Campaign,
    CampaignError,
    CampaignReport,
    CampaignScenario,
    MatrixReport,
    derive_seed,
    run_matrix,
    run_one,
)
from repro.scenario.sharding import (
    TEST_HOOK_KEY,
    TEST_HOOKS_ENV,
    differential,
    run_on_range,
    stable_hash,
    strip_wall_clock,
)
from repro.sgml import SgmlProcessor
from repro.telemetry import Snapshot

GOLDEN = Path(__file__).parent / "data" / "campaign_report_golden.json"


def _noop_spec(name: str, duration_s: float = 1.0) -> dict:
    """A minimal valid spec that runs quickly on the EPIC range."""
    return {
        "name": name,
        "duration_s": duration_s,
        "phases": [
            {
                "name": "step",
                "team": "white",
                "trigger": {"at": 0.2},
                "actions": [
                    {"write_point": {"key": "cmd/Load_SH1/scale", "value": 1.1}}
                ],
                "outcomes": [
                    {"name": "breaker held", "check": "status/CB_T1/closed",
                     "after_s": 0.2}
                ],
            }
        ],
    }


def _members(*specs: dict) -> list[CampaignScenario]:
    return [
        CampaignScenario(name=spec["name"], spec=spec, source="test")
        for spec in specs
    ]


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


def test_derived_seeds_are_stable_and_distinct():
    # Pinned values: stable across processes, platforms and sessions —
    # a recorded report stays reproducible forever.
    assert stable_hash("fci-on-overload-ML1") == stable_hash(
        "fci-on-overload-ML1"
    )
    assert derive_seed(7, "a") == 7 + stable_hash("a")
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "breaker-storm-drill-3x") == 2427610556


def test_seed_provenance_unified(epic_model):
    """Every result — dry or live, fresh or reused — carries ``seed``."""
    campaign = Campaign.from_catalog(epic_model, seed=3)
    dry = campaign.dry_run()
    assert all("seed" in result for result in dry.results)
    for member, result in zip(campaign.scenarios, dry.results):
        assert result["seed"] == derive_seed(3, member.name)
    # Reused-range sweeps run everything on one range under the root seed.
    reused = Campaign.from_catalog(
        epic_model, families=["breaker-storm-drill"], reuse_range=True, seed=3
    )
    assert reused.member_seed(reused.scenarios[0]) == 3
    assert reused.dry_run().results[0]["seed"] == 3
    report = reused.run()
    assert report.results[0]["seed"] == 3


# ---------------------------------------------------------------------------
# The determinism differential (the tentpole contract)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def differential_reports(epic_model_dir):
    """One EPIC catalog swept serially and with four workers."""
    from repro.sgml import SgmlModelSet

    model = SgmlModelSet.from_directory(epic_model_dir)
    serial = Campaign.from_catalog(model).run(workers=1)
    sharded = Campaign.from_catalog(model).run(workers=4)
    return serial, sharded


def test_sharded_equals_serial_field_for_field(differential_reports):
    serial, sharded = differential_reports
    assert serial.workers == 1 and sharded.workers == 4
    assert serial.passed and sharded.passed
    problems = differential(serial.results, sharded.results)
    assert problems == [], "\n".join(problems)
    # The contract covers the fields by name, not just dict equality.
    for left, right in zip(serial.results, sharded.results):
        for key in ("passed", "branch_path", "seed", "phases", "branches"):
            assert left[key] == right[key], key
        assert strip_wall_clock(left)["data_plane_delta"] == (
            strip_wall_clock(right)["data_plane_delta"]
        )


def test_sharded_results_sorted_by_member_name(differential_reports):
    serial, sharded = differential_reports
    for report in (serial, sharded):
        names = [result["name"] for result in report.results]
        assert names == sorted(names)
    assert sharded.per_run_wall_s > 0
    assert sharded.scenarios_per_minute > 0


def test_differential_reports_real_divergence(differential_reports):
    serial, sharded = differential_reports
    mutated = [dict(result) for result in sharded.results]
    mutated[0]["passed"] = not mutated[0]["passed"]
    mutated[1]["seed"] += 1
    problems = differential(serial.results, mutated)
    assert any(".passed:" in problem for problem in problems)
    assert any(".seed:" in problem for problem in problems)
    # Wall-clock divergence alone is NOT a failure.
    waltzed = [dict(result) for result in sharded.results]
    for result in waltzed:
        result["wall_s"] = 1e9
    assert differential(serial.results, waltzed) == []


def test_aggregation_is_invariant_to_completion_order(differential_reports):
    """Property: any completion order aggregates to the same report."""
    _, sharded = differential_reports
    rng = random.Random(42)
    for _ in range(8):
        shuffled = list(sharded.results)
        rng.shuffle(shuffled)
        report = CampaignReport.from_results(
            shuffled,
            model=sharded.model,
            reuse_range=sharded.reuse_range,
            workers=sharded.workers,
            wall_s=sharded.wall_s,
        )
        assert report == sharded


def test_reuse_range_delta_diffs_counters_and_keeps_gauges(epic_model):
    """Two runs on one shared range (the reuse-range sweep's per-run unit).

    Each run's ``data_plane_delta`` carries counters as the run's window
    delta and gauges (levels, ratios, flags) at the range's end-of-run
    value — a gauge is never subtracted, so the second run on a reused
    range reads the same prune ratio and cut-through flag as the range.
    """
    shared = SgmlProcessor(epic_model, seed=3).compile()
    shared.start()
    shared.run_for(1.0)
    readings = [shared.data_plane_stats()]
    deltas = []
    for index in range(2):
        result = run_on_range(
            _noop_spec(f"run-{index}"), lambda: shared, 0.0, 1.0, seed=index
        )
        assert result["passed"], result
        deltas.append(result["data_plane_delta"])
        readings.append(shared.data_plane_stats())
    for delta, before, after in zip(deltas, readings, readings[1:]):
        assert set(delta) == set(after)
        for name, kind in DATA_PLANE_KINDS.items():
            if kind == Snapshot.GAUGE:
                assert delta[name] == after[name], name
            elif kind == Snapshot.COUNTER:
                assert delta[name] == after[name] - before[name], name
    for delta in deltas:
        assert delta["netem_sends"] > 0
        # The gauges a counter-style subtraction zeroes.
        assert delta["netem_cut_through"] == 1.0
        assert delta["netem_mcast_prune_ratio"] == 1.0
        assert delta["netem_forwarding_rev"] > 0


# ---------------------------------------------------------------------------
# Pool fault paths
# ---------------------------------------------------------------------------


def test_raising_spec_yields_structured_error(epic_model):
    """A spec that fails validation inside the worker cannot sink the sweep."""
    bad = {"name": "bad", "bogus_field": 1, "phases": []}
    campaign = Campaign(
        epic_model, _members(_noop_spec("ok-a"), bad, _noop_spec("ok-b"))
    )
    report = campaign.run(workers=2)
    assert len(report.results) == 3
    by_name = {result["name"]: result for result in report.results}
    assert by_name["bad"]["passed"] is False
    assert "error" in by_name["bad"]
    assert by_name["ok-a"]["passed"] and by_name["ok-b"]["passed"]
    assert not report.passed


def test_failing_action_yields_structured_failed_result(epic_model):
    """A runtime action failure is scored, not raised out of the pool."""
    spec = {
        "name": "doomed-operate",
        "duration_s": 1.0,
        "phases": [
            {
                "name": "strike",
                "trigger": {"at": 0.2},
                "actions": [
                    {"operate": {"hmi": "NO_SUCH_HMI", "point": "x",
                                 "value": 1}}
                ],
                "outcomes": [
                    # The operate raised, so the breaker stayed closed.
                    {"name": "breaker opened",
                     "check": "not status/CB_T1/closed", "after_s": 0.2}
                ],
            }
        ],
    }
    campaign = Campaign(epic_model, _members(spec, _noop_spec("ok")))
    report = campaign.run(workers=2)
    assert len(report.results) == 2
    by_name = {result["name"]: result for result in report.results}
    doomed = by_name["doomed-operate"]
    assert doomed["passed"] is False
    (phase,) = doomed["phases"]
    assert "unknown HMI" in phase["actions"][0]["result"]
    assert by_name["ok"]["passed"]


def test_killed_worker_becomes_worker_crash_result(epic_model, monkeypatch):
    """SIGKILL mid-run: the poison member is isolated, the rest complete."""
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    poison = _noop_spec("poison")
    poison[TEST_HOOK_KEY] = {"kill": True}
    campaign = Campaign(
        epic_model, _members(_noop_spec("ok-a"), poison, _noop_spec("ok-b"))
    )
    report = campaign.run(workers=2)
    assert len(report.results) == len(campaign.scenarios)
    by_name = {result["name"]: result for result in report.results}
    assert by_name["poison"]["worker_crash"] is True
    assert by_name["poison"]["passed"] is False
    assert by_name["poison"]["seed"] == derive_seed(0, "poison")
    assert by_name["ok-a"]["passed"] and by_name["ok-b"]["passed"]
    assert not report.passed


@pytest.mark.parametrize("workers", [1, 2])
def test_per_run_timeout_yields_structured_result(
    epic_model, monkeypatch, workers
):
    """The timer is armed in-process (``workers=1``) as in a pool worker."""
    monkeypatch.setenv(TEST_HOOKS_ENV, "1")
    stuck = _noop_spec("stuck")
    stuck[TEST_HOOK_KEY] = {"sleep_s": 30.0}
    campaign = Campaign(epic_model, _members(stuck, _noop_spec("ok")))
    report = campaign.run(workers=workers, per_run_timeout_s=1.0)
    assert len(report.results) == 2
    by_name = {result["name"]: result for result in report.results}
    assert by_name["stuck"]["timed_out"] is True
    assert by_name["stuck"]["passed"] is False
    assert "timeout" in by_name["stuck"]["error"]
    assert by_name["ok"]["passed"]


def test_hooks_are_inert_without_the_env_var(epic_model):
    """The marker key is rejected as an unknown field when not enabled."""
    marked = _noop_spec("marked")
    marked[TEST_HOOK_KEY] = {"kill": True}
    result = run_one(epic_model, marked, seed=0, settle_s=0.5, duration_s=1.0)
    assert result["passed"] is False
    assert "unknown" in result["error"]


def test_sharded_rejects_sequential_modes(epic_model):
    campaign = Campaign.from_catalog(
        epic_model, families=["breaker-storm-drill"], reuse_range=True
    )
    with pytest.raises(CampaignError, match="sequential"):
        campaign.run(workers=2)
    with pytest.raises(CampaignError, match="per-run timeout"):
        campaign.run(per_run_timeout_s=5.0)
    in_memory = Campaign(
        epic_model, _members(_noop_spec("x"))
    )
    in_memory.model.source_dir = ""
    with pytest.raises(CampaignError, match="model directory"):
        in_memory.run(workers=2)


# ---------------------------------------------------------------------------
# Report round-trips + golden file
# ---------------------------------------------------------------------------


def test_campaign_report_json_round_trip(differential_reports, tmp_path):
    _, sharded = differential_reports
    path = tmp_path / "report.json"
    sharded.write_json(str(path))
    reloaded = CampaignReport.from_dict(json.loads(path.read_text()))
    assert reloaded == sharded
    assert reloaded.workers == 4
    assert reloaded.to_dict() == sharded.to_dict()
    # Forward tolerance: unknown future fields are ignored on reload.
    payload = json.loads(path.read_text())
    payload["future_field"] = {"anything": 1}
    assert CampaignReport.from_dict(payload) == sharded


def test_matrix_report_round_trip(epic_model_dir, tmp_path):
    from repro.sgml import SgmlModelSet

    model = SgmlModelSet.from_directory(epic_model_dir)
    matrix = run_matrix(
        [("epic", model)], families=["breaker-storm-drill"], workers=2
    )
    assert matrix.passed
    assert matrix.scenario_count == 1
    assert matrix.scenarios_per_minute > 0
    path = tmp_path / "matrix.json"
    matrix.write_json(str(path))
    reloaded = MatrixReport.from_dict(json.loads(path.read_text()))
    assert reloaded == matrix
    assert "matrix verdict" in matrix.summary()
    # A one-model matrix equals that model's standalone sharded sweep
    # (wall-clock aside) — the matrix layer adds grouping, not behavior.
    standalone = Campaign.from_catalog(
        model, families=["breaker-storm-drill"]
    ).run(workers=2)
    assert differential(
        matrix.reports[0]["report"]["scenarios"], standalone.results
    ) == []


def test_cli_report_matches_golden_schema(epic_model_dir, tmp_path):
    """The ``sgml campaign --report`` JSON keeps every golden field.

    Tolerant of additions: the report may grow fields, but every key in
    the golden file must still exist with the same type — per-run keys
    included.
    """
    report_path = tmp_path / "cli-report.json"
    code = main(
        [
            "campaign", epic_model_dir,
            "--families", "breaker-storm-drill",
            "--workers", "2",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    actual = json.loads(report_path.read_text())
    golden = json.loads(GOLDEN.read_text())

    def assert_covers(expected, value, crumb):
        assert type(expected) is type(value), f"{crumb}: type changed"
        if isinstance(expected, dict):
            for key, sub in expected.items():
                assert key in value, f"{crumb}.{key}: golden field missing"
                assert_covers(sub, value[key], f"{crumb}.{key}")
        elif isinstance(expected, list) and expected:
            assert value, f"{crumb}: emptied"
            assert_covers(expected[0], value[0], f"{crumb}[0]")

    assert_covers(golden, actual, "report")
    assert actual["workers"] == 2


def test_cli_matrix_sweep(epic_model_dir, tmp_path):
    report_path = tmp_path / "matrix.json"
    code = main(
        [
            "campaign", "--matrix", epic_model_dir,
            "--families", "breaker-storm-drill",
            "--workers", "2",
            "--report", str(report_path),
        ]
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["matrix"] is True
    assert payload["passed"] is True
    assert payload["model_sets"] == [epic_model_dir]
    assert payload["reports"][0]["report"]["workers"] == 2


def test_cli_matrix_rejects_incompatible_flags(epic_model_dir, capsys):
    assert main(["campaign", "--matrix", epic_model_dir, "--dry-run"]) == 1
    assert "does not combine" in capsys.readouterr().err
    assert main(["campaign", "--matrix", "no-such-model-set"]) == 1


def test_cli_reuse_range_rejects_per_run_timeout(epic_model_dir, capsys):
    code = main(
        [
            "campaign", epic_model_dir,
            "--families", "breaker-storm-drill",
            "--reuse-range", "--per-run-timeout", "5",
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "per-run timeout" in captured.err
