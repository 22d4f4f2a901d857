"""Branch-on-outcome scenario graphs: routing, bounds, spec, accounting.

Runs on the bare Simulator + PointRegistry harness (no compiled range) so
edge semantics are pinned exactly: pass/fail/timeout routing, dormant
branch targets costing zero kernel events and zero subscriptions, bounded
revisits on cyclic graphs, and strict spec validation of the new fields.
"""

import pytest

from repro.kernel import SECOND, Simulator
from repro.pointdb import PointRegistry
from repro.scenario import (
    Scenario,
    ScenarioError,
    ScenarioRun,
    ScenarioRunError,
    WritePointAction,
    after,
    at,
    point,
    when,
)


class FakeRange:
    """The minimal surface ScenarioRun and simple actions need."""

    def __init__(self):
        self.simulator = Simulator()
        self.pointdb = PointRegistry()

    def run_for(self, seconds):
        self.simulator.run_for(int(seconds * SECOND))

    def run_scenario(self, scenario, duration_s):
        run = ScenarioRun(scenario, self).start()
        self.run_for(duration_s)
        return run.finish()

    def measurement(self, key):
        return float(self.pointdb.get(key, 0.0))


@pytest.fixture
def rng():
    return FakeRange()


def _mark(scenario, name, trigger, hits, **phase_kwargs):
    phase = scenario.phase(name, trigger)
    phase.action(f"mark {name}", lambda r, n=name: hits.append(n))
    if phase_kwargs:
        phase.branch(**phase_kwargs)
    return phase


def _probe_scenario(hits):
    """probe scores `flag >= 1`; pass -> celebrate, fail -> escalate."""
    scenario = Scenario("probe-drill")
    probe = _mark(scenario, "probe", at(1.0), hits)
    probe.gate("flag raised", point("flag") >= 1.0)
    probe.branch(on_pass="celebrate", on_fail="escalate")
    _mark(scenario, "celebrate", at(0.5), hits)
    _mark(scenario, "escalate", at(0.5), hits)
    return scenario


# ---------------------------------------------------------------------------
# Routing: the same scenario takes different paths under pass vs fail
# ---------------------------------------------------------------------------


def test_on_pass_routes_to_pass_target_only(rng, write_point):
    hits = []
    write_point(rng.pointdb, "flag", 1.0)
    run = rng.run_scenario(_probe_scenario(hits), 5.0)
    assert hits == ["probe", "celebrate"]
    assert run.records["celebrate"].fired
    assert not run.records["escalate"].fired
    assert not run.records["escalate"].armed  # never even armed
    assert run.branch_path() == ["probe --on_pass--> celebrate"]
    assert run.records["probe"].verdict == "pass"
    assert run.records["probe"].branch_taken == "on_pass -> celebrate"


def test_on_fail_routes_to_fail_target_only(rng):
    hits = []  # flag never set: the gate fails
    run = rng.run_scenario(_probe_scenario(hits), 5.0)
    assert hits == ["probe", "escalate"]
    assert not run.records["celebrate"].armed
    assert run.branch_path() == ["probe --on_fail--> escalate"]
    assert run.records["probe"].verdict == "fail"
    # The gate outcome steered the branch but does not fail the run.
    assert run.passed


def test_branch_target_at_offset_is_relative_to_routing(rng):
    hits = []
    scenario = Scenario("relative-at")
    probe = _mark(scenario, "probe", at(1.0), hits)
    probe.branch(on_pass="delayed")
    _mark(scenario, "delayed", at(2.0), hits)
    run = rng.run_scenario(scenario, 5.0)
    # probe resolves at t=1 (no outcomes -> vacuous pass); the branch
    # target's at(2.0) counts from the routing instant, so it fires at 3.
    assert run.records["delayed"].triggered_at_s == pytest.approx(3.0)


def test_branch_target_after_completed_phase_delays_from_routing(rng):
    hits = []
    scenario = Scenario("after-complete")
    first = _mark(scenario, "first", at(1.0), hits)
    probe = _mark(scenario, "probe", at(2.0), hits)
    probe.branch(on_pass="followup")
    # followup references a phase that completed *before* routing: the
    # delay counts from the routing instant (t=2), not from completion.
    scenario.phase("followup", after("first", 1.5)).action(
        "mark followup", lambda r: hits.append("followup")
    )
    run = rng.run_scenario(scenario, 6.0)
    assert run.records["followup"].triggered_at_s == pytest.approx(3.5)


def test_timeout_routes_and_disarms_the_trigger(rng, write_point):
    hits = []
    scenario = Scenario("timeout")
    watch = _mark(scenario, "watch", when(point("load") > 80), hits)
    watch.branch(on_timeout="fallback", timeout_s=2.0)
    _mark(scenario, "fallback", at(0.5), hits)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(5.0)
    # Condition turns true only after the window expired: no phantom fire.
    write_point(rng.pointdb, "load", 99.0)
    rng.run_for(1.0)
    run.finish()
    assert hits == ["fallback"]
    assert not run.records["watch"].fired
    assert run.records["watch"].verdict == "timeout"
    assert run.records["fallback"].triggered_at_s == pytest.approx(2.5)
    assert run.branch_path() == ["watch --on_timeout--> fallback"]


def test_trigger_due_at_exact_timeout_instant_wins_the_tie(rng):
    """Fire and timeout landing on the same instant: the fire wins (the
    timeout is scheduled after the trigger, so kernel FIFO order holds)."""
    hits = []
    scenario = Scenario("tie")
    strike = _mark(scenario, "strike", at(2.0), hits)
    strike.branch(on_pass="win", on_timeout="lose", timeout_s=2.0)
    _mark(scenario, "win", at(0.1), hits)
    _mark(scenario, "lose", at(0.1), hits)
    run = rng.run_scenario(scenario, 5.0)
    assert hits == ["strike", "win"]
    assert run.records["strike"].verdict == "pass"
    assert run.branch_path() == ["strike --on_pass--> win"]


def test_fire_before_timeout_cancels_the_timeout_edge(rng, write_point):
    hits = []
    scenario = Scenario("no-timeout")
    watch = _mark(scenario, "watch", when(point("load") > 80), hits)
    watch.branch(on_timeout="fallback", timeout_s=3.0)
    _mark(scenario, "fallback", at(0.5), hits)
    run = ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "load", 99.0)
    rng.run_for(6.0)
    run.finish()
    assert hits == ["watch"]
    assert not run.records["fallback"].armed
    assert run.branches == []


# ---------------------------------------------------------------------------
# Cycles + revisit bounds
# ---------------------------------------------------------------------------


def test_self_loop_retries_up_to_max_visits(rng):
    attempts = []
    scenario = Scenario("retry")
    kick = scenario.phase("kick", at(1.0))
    kick.branch(on_pass="try")
    retry = scenario.phase("try", at(0.5))
    retry.action("attempt", lambda r: attempts.append(len(attempts)))
    retry.gate("never true", point("ghost") > 1)
    retry.branch(on_fail="try", max_visits=3)
    run = rng.run_scenario(scenario, 10.0)
    assert len(attempts) == 3
    assert run.records["try"].visits == 3
    # The fourth routing attempt was suppressed by the visit bound.
    suppressed = [b for b in run.branches if not b.armed]
    assert len(suppressed) == 1
    assert "visit limit 3" in suppressed[0].reason
    assert run.passed  # gate outcomes never fail the run


def test_routing_to_an_armed_phase_is_suppressed(rng, write_point):
    hits = []
    scenario = Scenario("already-armed")
    a = _mark(scenario, "a", at(1.0), hits)
    a.branch(on_pass="target")
    b = _mark(scenario, "b", at(2.0), hits)
    b.branch(on_pass="target")
    _mark(scenario, "target", when(point("go") > 0), hits)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(3.0)
    write_point(rng.pointdb, "go", 1.0)
    rng.run_for(1.0)
    run.finish()
    assert hits == ["a", "b", "target"]  # fired once, not twice
    assert run.records["target"].visits == 1
    suppressed = [x for x in run.branches if not x.armed]
    assert [x.source for x in suppressed] == ["b"]
    assert suppressed[0].reason == "already armed"


# ---------------------------------------------------------------------------
# Zero idle cost: dormant branches and armed-but-idle conditions
# ---------------------------------------------------------------------------


def test_dormant_branch_target_costs_nothing(rng, write_point):
    scenario = Scenario("dormant-cost")
    probe = scenario.phase("probe", when(point("load") > 80))
    probe.branch(on_fail="fallback")
    scenario.phase("fallback", when(point("other") > 5))
    run = ScenarioRun(scenario, rng).start()
    # The dormant target's condition key was never even subscribed.
    other_handle = rng.pointdb.resolve("other")
    assert other_handle.index not in rng.pointdb._subscribers
    rng.simulator.enable_accounting(True)
    rng.simulator.label_counts.clear()
    rng.run_for(5.0)
    for value in (10.0, 20.0, 10.0, 20.0):
        write_point(rng.pointdb, "other", value)  # dormant: notifies nobody
    rng.run_for(5.0)
    accounting = rng.simulator.event_accounting()
    # An armed-but-idle branched scenario schedules zero kernel events.
    assert not any(label.startswith("scenario") for label in accounting)
    run.finish()


def test_branched_run_zero_idle_polling_with_accounting(rng, write_point):
    """The branched graph inherits when()'s zero-idle-cost guarantee."""
    hits = []
    scenario = Scenario("branched-idle")
    strike = _mark(scenario, "strike", when(point("load") > 80), hits)
    strike.gate("hit", point("struck") >= 1)
    strike.branch(on_fail="escalate")
    escalate = _mark(scenario, "escalate", at(0.5), hits)
    escalate.action(WritePointAction(key="struck", value=1.0))
    run = ScenarioRun(scenario, rng).start()
    rng.simulator.enable_accounting(True)
    rng.simulator.label_counts.clear()
    rng.run_for(10.0)  # idle: nothing crosses the threshold
    assert rng.simulator.event_accounting() == {}
    write_point(rng.pointdb, "load", 90.0)
    rng.run_for(2.0)
    run.finish()
    assert hits == ["strike", "escalate"]
    scenario_events = rng.simulator.event_accounting().get("scenario", 0)
    assert scenario_events >= 2  # the fire hop + the routed at()
    assert scenario_events <= 4  # ... and nothing resembling polling
    assert run.branch_path() == ["strike --on_fail--> escalate"]


# ---------------------------------------------------------------------------
# Graph validation + spec strictness
# ---------------------------------------------------------------------------


def test_unknown_edge_target_rejected_at_start(rng):
    scenario = Scenario("bad-edge")
    scenario.phase("only", at(1.0)).branch(on_pass="ghost")
    with pytest.raises(ScenarioRunError, match="ghost"):
        ScenarioRun(scenario, rng).start()


def test_on_timeout_requires_timeout_s(rng):
    scenario = Scenario("no-window")
    scenario.phase("a", at(1.0)).branch(on_timeout="b")
    scenario.phase("b", at(1.0))
    problems = scenario.validate_graph()
    assert any("on_timeout needs timeout_s" in p for p in problems)
    with pytest.raises(ScenarioRunError):
        ScenarioRun(scenario, rng).start()


def test_all_phases_branch_targets_is_rejected():
    scenario = Scenario("no-roots")
    scenario.phase("a", at(1.0)).branch(on_pass="b")
    scenario.phase("b", at(1.0)).branch(on_pass="a")
    assert any("no root phase" in p for p in scenario.validate_graph())


def test_fluent_branch_validation():
    scenario = Scenario("fluent-bad")
    phase = scenario.phase("p", at(1.0))
    with pytest.raises(ScenarioError):
        phase.branch(timeout_s=0.0)
    with pytest.raises(ScenarioError):
        phase.branch(max_visits=0)


@pytest.mark.parametrize(
    "phase_extra",
    [
        {"on_sucess": "x"},  # typo'd edge field
        {"on_pass": "ghost"},  # unknown target
        {"on_timeout": "x", "name_clash": 1},  # unknown field
        {"on_timeout": "x"},  # missing timeout_s (x exists below)
        {"max_visits": 0},
        {"max_visits": 1.5},
        {"timeout_s": -1.0},
    ],
)
def test_from_spec_rejects_malformed_branch_fields(phase_extra):
    spec = {
        "name": "strict",
        "phases": [
            {"name": "p", "trigger": {"at": 1.0}, **phase_extra},
            {"name": "x", "trigger": {"at": 2.0}},
        ],
    }
    with pytest.raises(ScenarioError):
        Scenario.from_spec(spec)


def test_from_spec_builds_branched_graph_and_runs(rng, write_point):
    spec = {
        "name": "spec-branch",
        "phases": [
            {
                "name": "probe",
                "trigger": {"at": 1.0},
                "outcomes": [
                    {"name": "flagged", "check": "flag >= 1", "gate": True}
                ],
                "on_pass": "good",
                "on_fail": "bad",
            },
            {"name": "good", "trigger": {"at": 0.5},
             "actions": [{"write_point": {"key": "path", "value": 1.0}}]},
            {"name": "bad", "trigger": {"at": 0.5},
             "actions": [{"write_point": {"key": "path", "value": 2.0}}]},
        ],
    }
    scenario = Scenario.from_spec(spec)
    assert scenario.branch_targets() == {"good", "bad"}
    run = rng.run_scenario(scenario, 3.0)
    assert rng.pointdb.get("path") == 2.0  # flag unset -> on_fail
    assert run.branch_path() == ["probe --on_fail--> bad"]

    passing = FakeRange()
    write_point(passing.pointdb, "flag", 5.0)
    run2 = passing.run_scenario(Scenario.from_spec(spec), 3.0)
    assert passing.pointdb.get("path") == 1.0  # on_pass this time
    assert run2.branch_path() == ["probe --on_pass--> good"]


# ---------------------------------------------------------------------------
# Report + serialization of the new fields
# ---------------------------------------------------------------------------


def test_report_and_to_dict_carry_branch_data(rng):
    hits = []
    run = rng.run_scenario(_probe_scenario(hits), 5.0)
    payload = run.to_dict()
    assert payload["branches"] == [
        {
            "time_s": 1.0,
            "source": "probe",
            "edge": "on_fail",
            "target": "escalate",
            "armed": True,
            "reason": "",
        }
    ]
    by_name = {p["name"]: p for p in payload["phases"]}
    assert by_name["probe"]["verdict"] == "fail"
    assert by_name["probe"]["branch_taken"] == "on_fail -> escalate"
    assert by_name["celebrate"]["armed_at_s"] is None
    assert by_name["escalate"]["visits"] == 1
    report = run.after_action_report()
    assert "BRANCH on_fail -> escalate" in report
    assert "dormant (branch target, never routed to)" in report
    assert "[gate]" in report
    assert "branch path: probe --on_fail--> escalate" in report


def test_to_spec_round_trips_branch_fields():
    spec = {
        "name": "round",
        "description": "branchy",
        "phases": [
            {
                "name": "probe",
                "trigger": {"when": "load > 80", "hysteresis": 5.0},
                "actions": [
                    {"write_point": {"key": "cmd/L1/scale", "value": 2.0}}
                ],
                "outcomes": [
                    {"name": "hit", "check": "not status/CB/closed",
                     "after_s": 1.0, "gate": True}
                ],
                "on_pass": "good",
                "on_fail": "bad",
                "timeout_s": 4.0,
                "on_timeout": "bad",
            },
            {"name": "good", "trigger": {"at": 0.5}, "team": "white",
             "max_visits": 2},
            {"name": "bad", "trigger": {"after": "probe", "delay": 1.0}},
        ],
    }
    scenario = Scenario.from_spec(spec)
    round_tripped = scenario.to_spec()
    assert Scenario.from_spec(round_tripped).to_spec() == round_tripped
    probe = round_tripped["phases"][0]
    assert probe["on_pass"] == "good"
    assert probe["on_fail"] == "bad"
    assert probe["on_timeout"] == "bad"
    assert probe["timeout_s"] == 4.0
    assert probe["trigger"] == {"when": "load > 80", "hysteresis": 5.0}
    assert round_tripped["phases"][1]["max_visits"] == 2
