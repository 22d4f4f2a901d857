"""Unit tests for the event-driven scenario subsystem (repro.scenario).

These run against a bare Simulator + PointRegistry (no compiled range):
the engine only needs ``simulator`` and ``pointdb`` attributes, which lets
the trigger semantics be pinned down without power-flow noise.
"""

import pytest

from repro.kernel import SECOND, Simulator
from repro.pointdb import PointRegistry
from repro.scenario import (
    CallAction,
    Comparison,
    ConditionError,
    Scenario,
    ScenarioError,
    ScenarioRun,
    WritePointAction,
    after,
    all_of,
    any_of,
    at,
    is_false,
    is_true,
    parse_condition,
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


def _counting_phase(scenario, name, trigger, counter, team="red"):
    scenario.phase(name, trigger, team=team).action(
        f"count {name}", lambda r: counter.append(name)
    )


# ---------------------------------------------------------------------------
# Condition DSL + spec parsing
# ---------------------------------------------------------------------------


def test_point_expression_operators():
    cond = point("meas/TIE1/loading") > 80
    assert isinstance(cond, Comparison)
    assert cond.keys() == ("meas/TIE1/loading",)
    assert cond.evaluate(lambda _key: 81.0)
    assert not cond.evaluate(lambda _key: 80.0)
    assert (point("x") <= 5).evaluate(lambda _key: 5.0)
    assert point("x").eq(2).evaluate(lambda _key: 2)
    assert point("x").ne(2).evaluate(lambda _key: 3)


def test_comparison_hysteresis_band():
    cond = (point("x") > 80).with_hysteresis(5)
    assert not cond.rearm_ready(lambda _key: 78.0)  # inside the band
    assert cond.rearm_ready(lambda _key: 74.0)  # cleanly below
    low = (point("x") < 10).with_hysteresis(2)
    assert not low.rearm_ready(lambda _key: 11.0)
    assert low.rearm_ready(lambda _key: 12.5)


def test_bool_and_compound_conditions():
    values = {"a": True, "b": 0.0}
    read = values.get
    assert is_true("a").evaluate(read)
    assert is_false("b").evaluate(read)
    both = is_true("a") & is_false("b")
    assert both.evaluate(read)
    assert set(both.keys()) == {"a", "b"}
    either = is_false("a") | is_false("b")
    assert either.evaluate(read)


def test_parse_condition_spec_strings():
    cond = parse_condition("meas/TIE1/loading >= 80.5")
    assert cond == Comparison("meas/TIE1/loading", ">=", 80.5)
    assert parse_condition("not status/CB1/closed") == is_false(
        "status/CB1/closed"
    )
    assert parse_condition("status/CB1/closed") == is_true("status/CB1/closed")
    with pytest.raises(ConditionError):
        parse_condition("meas/x > banana")
    with pytest.raises(ConditionError):
        parse_condition("two words")


def test_condition_string_truthiness_uses_parse_bool():
    # A republished string "false" must not read as breaker-closed.
    assert is_false("k").evaluate(lambda _key: "false")
    assert is_true("k").evaluate(lambda _key: "on")


# ---------------------------------------------------------------------------
# at() triggers + deterministic ordering
# ---------------------------------------------------------------------------


def test_at_phases_fire_in_time_order(rng):
    fired = []
    scenario = Scenario("timing")
    _counting_phase(scenario, "late", at(2.0), fired)
    _counting_phase(scenario, "early", at(1.0), fired)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(3.0)
    run.finish()
    assert fired == ["early", "late"]
    assert run.records["early"].triggered_at_s == pytest.approx(1.0)
    assert run.records["late"].completed_at_s == pytest.approx(2.0)


def test_equal_timestamp_phases_fire_in_declaration_order(rng):
    fired = []
    scenario = Scenario("ties")
    _counting_phase(scenario, "red-strike", at(1.0), fired, team="red")
    _counting_phase(scenario, "blue-response", at(1.0), fired, team="blue")
    ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)
    assert fired == ["red-strike", "blue-response"]


def test_playbook_equal_timestamp_preserves_insertion_order():
    """A timed exercise playbook: phases at the same at() instant fire and
    log in declaration order, red-before-blue iff red was declared first,
    with an earlier white phase still leading."""
    for first, second in (("red", "blue"), ("blue", "red")):
        fired = []
        scenario = Scenario("ties")
        _counting_phase(scenario, "setup", at(0.5), fired, team="white")
        _counting_phase(scenario, first, at(1.0), fired, team=first)
        _counting_phase(scenario, second, at(1.0), fired, team=second)
        run = ScenarioRun(scenario, FakeRange()).start()
        run.simulator.run_for(2 * SECOND)
        run.finish()
        assert fired == ["setup", first, second]
        assert [entry.team for entry in run.log] == ["white", first, second]


# ---------------------------------------------------------------------------
# when() trigger edge/hysteresis semantics (the delta-subscription path)
# ---------------------------------------------------------------------------


def test_when_fires_once_on_rising_edge(rng, write_point):
    fired = []
    scenario = Scenario("edge")
    _counting_phase(scenario, "strike", when(point("load") > 80), fired)
    run = ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "load", 50.0)
    rng.run_for(0.1)
    assert fired == []
    write_point(rng.pointdb, "load", 85.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    # Still above threshold: no re-fire (edge, not level).
    write_point(rng.pointdb, "load", 90.0)
    write_point(rng.pointdb, "load", 95.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    assert run.records["strike"].fire_count == 1


def test_when_ignores_unchanged_republication(rng, write_point):
    """Delta-suppression guarantee: equal writes never reach the trigger."""
    fired = []
    scenario = Scenario("suppress")
    _counting_phase(
        scenario, "strike", when(point("load") > 80, repeat=True), fired
    )
    ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "load", 85.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    notifications_before = rng.pointdb.notifications
    for _ in range(5):
        write_point(rng.pointdb, "load", 85.0)  # suppressed by the registry
    rng.run_for(0.1)
    assert fired == ["strike"]
    assert rng.pointdb.notifications == notifications_before


def test_when_rearms_only_after_hysteresis_exit(rng, write_point):
    fired = []
    scenario = Scenario("hysteresis")
    _counting_phase(
        scenario,
        "strike",
        when(point("load") > 80, repeat=True, hysteresis=5.0),
        fired,
    )
    ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "load", 85.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    # Dips below threshold but stays inside the band: no re-arm.
    write_point(rng.pointdb, "load", 78.0)
    write_point(rng.pointdb, "load", 86.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    # Clean band exit (< 75), then a new rising edge: second fire.
    write_point(rng.pointdb, "load", 70.0)
    write_point(rng.pointdb, "load", 86.0)
    rng.run_for(0.1)
    assert fired == ["strike", "strike"]


def test_when_rising_already_true_at_arm_needs_band_exit(rng, write_point):
    fired = []
    write_point(rng.pointdb, "load", 90.0)  # condition true before arming
    scenario = Scenario("armed-high")
    _counting_phase(scenario, "strike", when(point("load") > 80), fired)
    ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "load", 95.0)
    rng.run_for(0.1)
    assert fired == []  # no phantom edge at arm time
    write_point(rng.pointdb, "load", 50.0)
    write_point(rng.pointdb, "load", 85.0)
    rng.run_for(0.1)
    assert fired == ["strike"]


def test_when_level_mode_fires_if_already_true(rng, write_point):
    fired = []
    write_point(rng.pointdb, "load", 90.0)
    scenario = Scenario("level")
    _counting_phase(
        scenario, "strike", when(point("load") > 80, mode="level"), fired
    )
    ScenarioRun(scenario, rng).start()
    rng.run_for(0.1)
    assert fired == ["strike"]


def test_oneshot_when_unsubscribes_after_firing(rng, write_point):
    fired = []
    scenario = Scenario("cleanup")
    _counting_phase(scenario, "strike", when(point("load") > 80), fired)
    run = ScenarioRun(scenario, rng).start()
    handle = rng.pointdb.resolve("load")
    write_point(rng.pointdb, "load", 85.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    # The subscription is gone: later changes cost zero notifications.
    notifications = rng.pointdb.notifications
    write_point(rng.pointdb, "load", 10.0)
    write_point(rng.pointdb, "load", 99.0)
    rng.run_for(0.1)
    assert fired == ["strike"]
    assert rng.pointdb.notifications == notifications
    run.finish()
    assert handle.index not in rng.pointdb._subscribers


# ---------------------------------------------------------------------------
# after() + combinators
# ---------------------------------------------------------------------------


def test_after_trigger_sequences_from_completion(rng):
    fired = []
    scenario = Scenario("sequence")
    _counting_phase(scenario, "first", at(1.0), fired)
    _counting_phase(scenario, "second", after("first", 2.0), fired)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(5.0)
    run.finish()
    assert fired == ["first", "second"]
    assert run.records["second"].triggered_at_s == pytest.approx(3.0)


def test_after_unknown_phase_is_an_error(rng):
    scenario = Scenario("bad")
    scenario.phase("only", after("ghost", 1.0))
    with pytest.raises(Exception, match="ghost"):
        ScenarioRun(scenario, rng).start()


def test_all_of_is_a_barrier(rng, write_point):
    fired = []
    scenario = Scenario("barrier")
    _counting_phase(
        scenario, "both", all_of(at(1.0), point("load") > 80), fired
    )
    ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)
    assert fired == []  # timer fired, condition did not
    write_point(rng.pointdb, "load", 90.0)
    rng.run_for(0.1)
    assert fired == ["both"]


def test_any_of_fires_on_first_and_disarms_rest(rng, write_point):
    fired = []
    scenario = Scenario("race")
    _counting_phase(
        scenario, "either", any_of(point("load") > 80, at(5.0)), fired
    )
    run = ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "load", 90.0)
    rng.run_for(0.1)
    assert fired == ["either"]
    rng.run_for(6.0)  # the at(5) alternative was disarmed
    assert fired == ["either"]
    assert run.records["either"].fire_count == 1


# ---------------------------------------------------------------------------
# Actions, outcomes, report
# ---------------------------------------------------------------------------


def test_action_failure_is_logged_not_raised(rng):
    scenario = Scenario("failure")
    phase = scenario.phase("risky", at(1.0))
    phase.action("explode", lambda r: (_ for _ in ()).throw(RuntimeError("boom")))
    phase.action("survive", lambda r: "made it")
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)
    run.finish()
    first, second = run.records["risky"].actions
    assert first.result == "FAILED: boom" and not first.ok
    assert second.result == "made it" and second.ok


def test_outcomes_scored_and_verdict(rng):
    scenario = Scenario("scored")
    phase = scenario.phase("set", at(1.0), team="white")
    phase.action(WritePointAction(key="flag", value=1.0))
    phase.outcome("flag raised", point("flag") >= 1.0)
    phase.outcome("later check", "flag >= 1", after_s=1.0)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(3.0)
    run.finish()
    outcomes = run.records["set"].outcomes
    assert [o.status for o in outcomes] == ["pass", "pass"]
    assert run.passed
    report = run.after_action_report()
    assert "verdict: PASS" in report
    assert "OUTCOME flag raised: PASS" in report


def test_failed_outcome_fails_the_run(rng):
    scenario = Scenario("failing")
    scenario.phase("check", at(1.0)).outcome("impossible", point("ghost") > 1)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)
    run.finish()
    assert not run.passed
    assert "verdict: FAIL" in run.after_action_report()


def test_scenario_reusable_across_ranges():
    """Combinator state must reset on re-arm: a scenario is a reusable
    artifact, not a single-shot object."""
    scenario = Scenario("reused")
    scenario.phase("both", all_of(at(1.0), at(2.0)))
    scenario.phase("either", any_of(at(1.0), point("x") > 5))
    for attempt in range(2):
        run = FakeRange().run_scenario(scenario, 3.0)
        assert run.records["both"].fired, f"attempt {attempt}"
        assert run.records["either"].fired, f"attempt {attempt}"


def test_finish_freezes_pending_outcomes(rng, write_point):
    scenario = Scenario("frozen")
    scenario.phase("check", at(1.0)).outcome(
        "late", point("x") > 0, after_s=5.0
    )
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)
    run.finish()
    assert run.records["check"].outcomes[0].status == "pending"
    # The same simulator keeps running (e.g. a second scenario): the
    # orphaned check must not retroactively change this run's verdict.
    write_point(rng.pointdb, "x", 1.0)
    rng.run_for(10.0)
    assert run.records["check"].outcomes[0].status == "pending"
    assert not run.passed


def test_pending_outcome_counts_as_not_passed(rng):
    scenario = Scenario("pending")
    scenario.phase("check", at(1.0)).outcome(
        "too late", point("x") > 0, after_s=60.0
    )
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)  # ends before the outcome is scored
    run.finish()
    assert run.records["check"].outcomes[0].status == "pending"
    assert not run.passed


def test_unfired_phase_reported(rng):
    scenario = Scenario("quiet")
    scenario.phase("never", when(point("ghost") > 99))
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(1.0)
    run.finish()
    assert not run.records["never"].fired
    assert "never fired" in run.after_action_report()


def test_to_dict_structure(rng):
    scenario = Scenario("structured", description="a drill")
    scenario.phase("go", at(1.0)).action("noop", lambda r: None)
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(2.0)
    run.finish()
    payload = run.to_dict()
    assert payload["scenario"] == "structured"
    assert payload["passed"] is True
    (phase,) = payload["phases"]
    assert phase["name"] == "go"
    assert phase["triggered_at_s"] == pytest.approx(1.0)
    assert phase["actions"][0]["result"] == "ok"


# ---------------------------------------------------------------------------
# Declarative spec
# ---------------------------------------------------------------------------


def test_from_spec_runs_end_to_end(rng):
    spec = {
        "name": "spec-drill",
        "description": "declarative artifact",
        "phases": [
            {
                "name": "stress",
                "trigger": {"at": 1.0},
                "team": "white",
                "actions": [{"write_point": {"key": "load", "value": 90.0}}],
            },
            {
                "name": "strike",
                "trigger": {"when": "load > 80", "hysteresis": 5.0},
                "actions": [{"write_point": {"key": "struck", "value": 1.0}}],
                "outcomes": [
                    {"name": "struck", "check": "struck >= 1", "after_s": 0.5}
                ],
            },
        ],
    }
    scenario = Scenario.from_spec(spec)
    assert [p.name for p in scenario.phases] == ["stress", "strike"]
    run = ScenarioRun(scenario, rng).start()
    rng.run_for(3.0)
    run.finish()
    assert run.records["strike"].fired
    assert run.passed


def test_from_spec_trigger_shapes():
    spec = {
        "name": "shapes",
        "phases": [
            {"name": "a", "trigger": 1.5},
            {"name": "b", "trigger": "load > 5"},
            {"name": "c", "trigger": {"after": "a", "delay": 2.0}},
            {"name": "d", "trigger": {"any_of": [{"at": 9}, {"when": "x > 1"}]}},
            {"name": "e", "trigger": {"all_of": [{"at": 1}, {"at": 2}]}},
        ],
    }
    scenario = Scenario.from_spec(spec)
    assert scenario.find_phase("a").trigger.describe() == "at 1.5s"
    assert "when" in scenario.find_phase("b").trigger.describe()
    assert "after 'a'" in scenario.find_phase("c").trigger.describe()
    assert "any of" in scenario.find_phase("d").trigger.describe()
    assert "all of" in scenario.find_phase("e").trigger.describe()


@pytest.mark.parametrize(
    "spec",
    [
        {"phases": []},
        {"phases": [{"trigger": {"at": 1}}]},  # no name
        {"phases": [{"name": "x"}]},  # no trigger
        {"phases": [{"name": "x", "trigger": {"bogus": 1}}]},
        {"phases": [{"name": "x", "trigger": {"at": 1},
                     "actions": [{"unknown_kind": {}}]}]},
        {"phases": [{"name": "x", "trigger": {"at": 1}},
                    {"name": "x", "trigger": {"at": 2}}]},  # duplicate
        # Strictness: typos and ambiguity must fail loudly, not half-parse.
        {"phases": [{"name": "x",
                     "trigger": {"when": "a > 1", "hysterisis": 5.0}}]},
        {"phases": [{"name": "x", "trigger": {"at": 1, "when": "a > 1"}}]},
        {"phases": [{"name": "x", "trigger": {"at": 1}, "outcome": []}]},
        {"phases": [{"name": "x", "trigger": {"at": 1},
                     "actions": [{"record": {"key": "k", "kye": "k"}}]}]},
        {"phases": [{"name": "x", "trigger": {"at": 1},
                     "outcomes": [{"name": "o", "check": "a > 1",
                                   "afters": 2}]}]},
    ],
)
def test_from_spec_rejects_malformed(spec):
    with pytest.raises(Exception):
        Scenario.from_spec(spec)


def test_to_spec_round_trips_every_trigger_and_action_kind():
    """to_spec is the inverse of from_spec and a fixed point over it."""
    spec = {
        "name": "zoo",
        "description": "every spec-able construct",
        "duration_s": 12.5,
        "phases": [
            {"name": "a", "trigger": {"at": 1.5}, "team": "white",
             "actions": [
                 {"write_point": {"key": "cmd/L/scale", "value": 2.0}},
                 {"record": {"key": "meas/system/hz"}},
                 {"operate": {"hmi": "SCADA1", "point": "CB_T1",
                              "value": True}},
             ]},
            {"name": "b",
             "trigger": {"when": "load > 5", "mode": "level",
                         "repeat": True, "hysteresis": 1.0},
             "actions": [
                 {"inject_breaker": {"server_ip": "10.0.1.13",
                                     "ied": "TIED1", "switch": "sw-X"}},
                 {"mitm_spoof": {"victim_a_ip": "10.0.1.100",
                                 "victim_b_ip": "10.0.1.13",
                                 "switch": "sw-X",
                                 "ref": "TIED1LD0/MMXU1.x",
                                 "value": 0.99}},
             ],
             "outcomes": [
                 {"name": "tripped", "check": "not status/CB_T1/closed",
                  "after_s": 1.0},
             ]},
            {"name": "c", "trigger": {"after": "a", "delay": 2.0}},
            {"name": "d",
             "trigger": {"any_of": [{"at": 9.0},
                                    {"all_of": [{"when": "x > 1"},
                                                {"at": 3.0}]}]}},
        ],
    }
    scenario = Scenario.from_spec(spec)
    round_tripped = scenario.to_spec()
    assert round_tripped == spec
    assert Scenario.from_spec(round_tripped).to_spec() == round_tripped


def test_from_spec_rejects_unknown_top_level_fields():
    with pytest.raises(ScenarioError, match="durations_s"):
        Scenario.from_spec({
            "name": "typo",
            "durations_s": 30.0,  # typo'd duration must not pass --dry-run
            "phases": [{"name": "p", "trigger": {"at": 1.0}}],
        })


def test_to_spec_preserves_high_precision_thresholds():
    """%g display formatting must not leak into serialization."""
    spec = {
        "name": "precise",
        "phases": [{"name": "p", "trigger": {"when": "meas/x > 0.1234567"}}],
    }
    round_tripped = Scenario.from_spec(spec).to_spec()
    assert round_tripped["phases"][0]["trigger"]["when"] == "meas/x > 0.1234567"
    # Compact values keep their compact spelling.
    assert parse_condition("meas/x > 80").to_spec_str() == "meas/x > 80"


def test_to_spec_rejects_python_only_constructs():
    code_action = Scenario("code-action")
    code_action.phase("p", at(1.0)).action("callable", lambda r: None)
    with pytest.raises(ScenarioError, match="not spec-serializable"):
        code_action.to_spec()

    compound = Scenario("compound-cond")
    compound.phase("p", when(is_true("a") & is_false("b")))
    with pytest.raises(ScenarioError, match="not spec-serializable"):
        compound.to_spec()

    callable_check = Scenario("callable-check")
    callable_check.phase("p", at(1.0)).outcome("pred", lambda cr: True)
    with pytest.raises(ScenarioError, match="not spec-serializable"):
        callable_check.to_spec()


def test_failed_start_disarms_already_armed_triggers(rng, write_point):
    """An aborted start() must not leave phantom subscriptions behind."""
    fired = []
    scenario = Scenario("aborted")
    _counting_phase(scenario, "armed-first", when(point("x") > 1), fired)
    scenario.phase("broken", after("no-such-phase"))
    with pytest.raises(Exception, match="no-such-phase"):
        ScenarioRun(scenario, rng).start()
    write_point(rng.pointdb, "x", 5.0)
    rng.run_for(0.5)
    assert fired == []  # the aborted run's phase did not execute


def test_duplicate_phase_name_rejected():
    scenario = Scenario("dup")
    scenario.phase("a", at(1.0))
    with pytest.raises(ScenarioError):
        scenario.phase("a", at(2.0))


def test_call_action_requires_fn():
    scenario = Scenario("bad-action")
    phase = scenario.phase("p", at(1.0))
    with pytest.raises(ScenarioError):
        phase.action("description only")
    assert isinstance(
        phase.action(CallAction("ok", lambda r: None)).actions[0], CallAction
    )
