"""Scenario API integration on compiled ranges.

Covers the acceptance criterion of the event-driven redesign: an FCI
scenario triggered by ``when("meas/TIE1/loading > threshold")`` runs
end-to-end on the 5-substation / 104-IED scale-out range with **zero**
scenario events while the condition is idle (kernel per-label accounting),
plus a blue/red/white drill on the EPIC range using condition-armed
response phases and scored outcomes.
"""

import pytest

from repro.epic import generate_scaleout_model
from repro.scenario import (
    InjectBreakerAction,
    OperateAction,
    Scenario,
    ScenarioRun,
    at,
    is_false,
    point,
    when,
)
from repro.sgml import SgmlModelSet, SgmlProcessor

TBUS_VM = "meas/EPIC/VL1/TransmissionBay/TBUS/vm_pu"


# ---------------------------------------------------------------------------
# EPIC: condition-armed blue-team response with scored outcomes
# ---------------------------------------------------------------------------


def test_epic_condition_armed_response_drill(running_epic):
    cr = running_epic
    scenario = Scenario(
        "cb-open-drill", description="FCI strike, event-armed blue response"
    )
    scenario.phase("strike", at(1.0), team="red").action(
        InjectBreakerAction(
            server_ip="10.0.1.13", ied="TIED1", switch="sw-TransLAN"
        )
    )
    # The blue response is armed by the data plane (breaker status change),
    # not by guessing a timestamp.
    respond = scenario.phase(
        "respond", when(is_false("status/CB_T1/closed")), team="blue"
    )
    respond.action(OperateAction(hmi="SCADA1", point="CB_T1", value=True))
    respond.outcome(
        "breaker reclosed", "status/CB_T1/closed", after_s=2.0
    )
    respond.outcome(
        "voltage restored", point(TBUS_VM) > 0.9, after_s=2.0
    )
    run = cr.run_scenario(scenario, 8.0)

    assert run.records["strike"].fired
    assert run.records["respond"].fired
    # The response armed strictly after the strike landed.
    assert (
        run.records["respond"].triggered_at_s
        > run.records["strike"].triggered_at_s
    )
    assert [o.status for o in run.records["respond"].outcomes] == [
        "pass", "pass",
    ]
    assert run.passed
    assert cr.breaker_state("CB_T1") is True
    report = run.after_action_report()
    assert "verdict: PASS (2/2 outcomes)" in report
    assert "phase 'respond'" in report


def test_range_point_handle_and_cached_fast_paths(running_epic):
    cr = running_epic
    handle = cr.point_handle(TBUS_VM)
    assert handle.index == cr.point_handle(TBUS_VM).index  # stable interning
    value = cr.measurement(TBUS_VM)
    assert value == pytest.approx(cr.pointdb.get(TBUS_VM))
    assert TBUS_VM in cr._meas_handles  # cached after first use
    assert cr.breaker_state("CB_T1") is True
    assert "CB_T1" in cr._breaker_handles
    # Cached reads agree with the registry.
    assert cr.measurement(TBUS_VM) == pytest.approx(
        cr.pointdb.get_float(handle)
    )
    # Read paths are read-only: a misspelled key returns the default
    # without interning a new registry slot.
    size_before = cr.pointdb.size
    assert cr.measurement("meas/definitely/not/a/key") == 0.0
    assert cr.breaker_state("GHOST_BREAKER") is True
    assert cr.pointdb.size == size_before


# ---------------------------------------------------------------------------
# 5-substation acceptance: when() costs zero events while idle
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scale5_range(tmp_path_factory):
    """The paper's full 5-substation / 104-IED scale-out range, running."""
    directory = tmp_path_factory.mktemp("scale5-model")
    generate_scaleout_model(str(directory), substations=5, total_ieds=104)
    cyber_range = SgmlProcessor(
        SgmlModelSet.from_directory(str(directory))
    ).compile()
    cyber_range.start()
    cyber_range.run_for(1.0)  # settle: associations, initial GOOSE
    return cyber_range


def test_fci_when_trigger_zero_idle_polling(scale5_range):
    cr = scale5_range
    base_loading = cr.measurement("meas/TIE1/loading")
    assert base_loading > 0.0
    threshold = base_loading * 1.5

    scenario = Scenario("tie-overload-fci")
    strike = scenario.phase(
        "strike",
        when(
            (point("meas/TIE1/loading") > threshold).with_hysteresis(
                threshold * 0.1
            )
        ),
        team="red",
    )
    strike.action(
        InjectBreakerAction(
            server_ip="10.0.1.12", ied="S1IED2", switch="sw-S1LAN"
        )
    )
    strike.outcome(
        "tie breaker tripped open", "not status/CB_S1_TIE/closed", after_s=1.5
    )

    run = ScenarioRun(scenario, cr).start()
    cr.simulator.enable_accounting(True)
    cr.simulator.label_counts.clear()
    try:
        # Idle: the condition holds below threshold, nothing fires, and the
        # armed trigger schedules zero kernel events — no per-tick polling.
        cr.run_for(3.0)
        accounting = cr.simulator.event_accounting()
        assert accounting.get("scenario", 0) == 0
        assert accounting.get("powerflow-tick", 0) >= 30  # range was busy
        assert not run.records["strike"].fired

        # White cell steps a downstream load; TIE1 loading crosses the
        # threshold on the next solve and the delta subscription fires.
        cr.pointdb.write_command(
            cr.pointdb.resolve("cmd/Load_S2_1/scale"), 3.0, writer="white-cell"
        )
        cr.run_for(3.0)
    finally:
        cr.simulator.enable_accounting(False)
    run.finish()

    record = run.records["strike"]
    assert record.fired
    assert record.fire_count == 1
    assert "meas/TIE1/loading" in record.trigger_reason
    assert cr.simulator.event_accounting().get("scenario", 0) >= 1
    # The injected MMS breaker-open landed: the tie tripped and the
    # downstream island went dark.
    assert cr.breaker_state("CB_S1_TIE") is False
    assert record.actions[0].ok
    assert run.passed, run.after_action_report()
    assert cr.measurement("meas/TIE1/loading") < threshold
