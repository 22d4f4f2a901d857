"""Training-exercise drill on the EPIC range: a red/white/blue CB_T1
open-and-reclose drill built as timed :class:`~repro.scenario.Scenario`
phases."""

import pytest

from repro.attacks import FalseCommandInjector
from repro.scenario import Scenario, at

TBUS_VM = "meas/EPIC/VL1/TransmissionBay/TBUS/vm_pu"


@pytest.fixture
def drill_run(running_epic):
    """The CB_T1 open/reclose drill, expressed as timed scenario phases."""
    cr = running_epic
    attacker = cr.add_attacker("sw-TransLAN", name="red1")
    injector = FalseCommandInjector(attacker)

    scenario = Scenario("cb-open-drill")
    scenario.phase("strike", at(1.0), team="red").action(
        "red team injects CB_T1 open via MMS",
        lambda r: injector.open_breaker("10.0.1.13", "TIED1").reference,
    )
    scenario.phase("observe-outage", at(3.0), team="white").action(
        "white cell records TBUS voltage",
        lambda r: f"{r.measurement(TBUS_VM):.3f} pu",
    )
    scenario.phase("reclose", at(5.0), team="blue").action(
        "blue team recloses CB_T1 from the HMI",
        lambda r: r.hmis["SCADA1"].operate("CB_T1", True),
    )
    scenario.phase("observe-recovery", at(8.0), team="white").action(
        "white cell records TBUS voltage after restoration",
        lambda r: f"{r.measurement(TBUS_VM):.3f} pu",
    )
    scenario.phase("hardened-probe", at(9.0), team="red").action(
        "red team tries a bogus reference (expected to fail)",
        lambda r: (_ for _ in ()).throw(RuntimeError("target hardened")),
    )
    run = cr.run_scenario(scenario, 10.0)
    return cr, run


def test_drill_executes_in_order(drill_run):
    _, run = drill_run
    assert len(run.log) == 5
    times = [entry.time_s for entry in run.log]
    assert times == sorted(times)
    assert [entry.team for entry in run.log] == [
        "red", "white", "blue", "white", "red",
    ]


def test_drill_observes_attack_and_recovery(drill_run):
    cr, run = drill_run
    outage_reading = run.log[1].result
    restored_reading = run.log[3].result
    assert outage_reading.startswith("0.000")  # dead bus during the attack
    assert restored_reading.startswith("0.99")  # restored by the blue team
    assert cr.breaker_state("CB_T1") is True


def test_drill_logs_failures_without_crashing(drill_run):
    _, run = drill_run
    assert run.log[-1].result.startswith("FAILED: target hardened")
    assert not run.log[-1].ok


def test_drill_after_action_report_format(drill_run):
    _, run = drill_run
    report = run.after_action_report()
    assert "after-action report: cb-open-drill" in report
    assert "( blue)" in report or "(blue)" in report.replace(" ", "")
    assert "FAILED" in report
