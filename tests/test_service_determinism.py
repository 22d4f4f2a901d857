"""Pause/resume determinism: sliced kernels replay run_for exactly.

The service drives many ranges on one thread by slicing each kernel with
``step_until`` under arbitrary event budgets, interleaved with other
sessions' slices.  These tests pin the contract that makes that safe:
**any** slicing schedule produces the byte-identical point history and the
identical scenario verdict as one uninterrupted ``run_for`` — and an
attached event broker changes neither.
"""

from __future__ import annotations

import json

from repro.kernel import SECOND
from repro.scenario.engine import ScenarioRun
from repro.scenario.scenario import Scenario
from repro.service import EventBroker, RangeSession
from repro.sgml import SgmlModelSet, SgmlProcessor

RUN_S = 6.0
SEED = 7


def _compile(epic_model):
    return SgmlProcessor(epic_model, seed=SEED).compile()


def _record_history(cyber_range) -> list:
    """Every point delta, in flush order, with its virtual timestamp."""
    history: list = []
    simulator = cyber_range.simulator

    def on_change(handle, value):
        history.append((simulator.now, handle.key, repr(value)))

    cyber_range.pointdb.subscribe_all(on_change)
    return history


def _scenario_spec() -> dict:
    return {
        "name": "drill",
        "phases": [
            {
                "name": "stress",
                "team": "white",
                "trigger": {"at": 1.0},
                "actions": [
                    {"write_point": {"key": "cmd/Load1/scale", "value": 2.5}}
                ],
                "outcomes": [
                    {
                        "name": "volts present",
                        "check": (
                            "meas/EPIC/VL1/GenerationBay/GBUS/vm_pu > 0.5"
                        ),
                        "after_s": 1.0,
                    }
                ],
            }
        ],
    }


def _run_reference(epic_model):
    """Uninterrupted run_for + a scenario run; the golden history."""
    cyber_range = _compile(epic_model)
    history = _record_history(cyber_range)
    cyber_range.start()
    run = ScenarioRun(Scenario.from_spec(_scenario_spec()), cyber_range)
    run.start()
    cyber_range.run_for(RUN_S)
    run.finish()
    report = run.to_dict()
    cyber_range.close()
    return history, report


def _strip_wall(report: dict) -> dict:
    cleaned = dict(report)
    cleaned.pop("wall_s", None)
    return cleaned


def test_interleaved_slices_match_run_for(epic_model):
    """Two ranges advanced in interleaved, unequal slices == run_for."""
    golden_history, golden_report = _run_reference(epic_model)
    assert golden_history, "reference run produced no point deltas"

    range_a = _compile(epic_model)
    range_b = _compile(epic_model)
    history_a = _record_history(range_a)
    history_b = _record_history(range_b)
    runs = []
    for cyber_range in (range_a, range_b):
        cyber_range.start()
        run = ScenarioRun(
            Scenario.from_spec(_scenario_spec()), cyber_range
        )
        run.start()
        runs.append(run)

    # Interleave: A moves in 0.37 s strides under a tiny event budget, B
    # in 0.23 s strides under a different one; neither schedule divides
    # the other, so the slice boundaries land mid-flush all over the run.
    end_us = int(RUN_S * SECOND)
    deadline_a = deadline_b = 0
    budgets = [1, 7, 3, 50, 2, 11]
    turn = 0
    while (
        range_a.simulator.now < end_us or range_b.simulator.now < end_us
    ):
        budget = budgets[turn % len(budgets)]
        turn += 1
        if range_a.simulator.now < end_us:
            deadline_a = min(deadline_a + int(0.37 * SECOND), end_us)
            while not range_a.step_until(deadline_a, budget).done:
                pass
        if range_b.simulator.now < end_us:
            deadline_b = min(deadline_b + int(0.23 * SECOND), end_us)
            while not range_b.step_until(deadline_b, budget).done:
                pass

    reports = []
    for run in runs:
        run.finish()
        reports.append(run.to_dict())
    for cyber_range in (range_a, range_b):
        cyber_range.close()

    golden_bytes = json.dumps(golden_history).encode()
    assert json.dumps(history_a).encode() == golden_bytes
    assert json.dumps(history_b).encode() == golden_bytes
    assert _strip_wall(reports[0]) == _strip_wall(golden_report)
    assert _strip_wall(reports[1]) == _strip_wall(golden_report)
    assert golden_report["seed"] == SEED


def test_attached_broker_does_not_perturb_history(epic_model):
    """The broker's hooks are read-only: history with == without."""
    golden_history, _ = _run_reference(epic_model)

    cyber_range = _compile(epic_model)
    history = _record_history(cyber_range)
    broker = EventBroker(stats_period_s=1.0)
    broker.attach(cyber_range)
    subscription = broker.subscribe(["points", "stats", "alarms"])
    cyber_range.start()
    run = ScenarioRun(Scenario.from_spec(_scenario_spec()), cyber_range)
    run.set_observer(broker.scenario_observer)
    run.start()
    cyber_range.run_for(RUN_S)
    run.finish()
    cyber_range.close()

    # The stats periodic task adds kernel *events* but no point writes:
    # the observable history is byte-identical.
    assert json.dumps(history).encode() == json.dumps(golden_history).encode()
    assert subscription.take(), "broker delivered no events"


def test_paused_session_slices_match_run_for(epic_model):
    """Session-level pause/resume/speed changes preserve the history."""
    golden_history, golden_report = _run_reference(epic_model)

    fake_wall = [100.0]
    session = RangeSession(
        "s-det",
        _compile(epic_model),
        speed=1.0,
        stats_period_s=0.0,  # stats tick off: match the bare reference
        clock=lambda: fake_wall[0],
    )
    history = _record_history(session.cyber_range)
    session.start()
    run = ScenarioRun(
        Scenario.from_spec(_scenario_spec()), session.cyber_range
    )
    run.start()

    end_us = int(RUN_S * SECOND)
    paused_once = False
    while True:
        fake_wall[0] += 0.11
        # Stop before the pacing target would overshoot the reference
        # horizon; the final step_until lands exactly on RUN_S.
        if session.target_virtual(fake_wall[0]) >= end_us:
            break
        while not session.advance(fake_wall[0], 37).done:
            pass
        if not paused_once and fake_wall[0] > 101.0:  # mid-run pause
            paused_once = True
            session.pause()
            fake_wall[0] += 50.0  # a long wall-clock gap while paused
            session.resume()
            session.set_speed(4.0)
    session.cyber_range.step_until(end_us)
    run.finish()
    report = run.to_dict()
    session.close()

    assert json.dumps(history).encode() == json.dumps(golden_history).encode()
    assert _strip_wall(report) == _strip_wall(golden_report)


def test_data_plane_snapshots_do_not_perturb_the_run(scaleout_model_dir):
    """Telemetry is read-only: a scale-out run that snapshots and diffs
    ``data_plane_stats()`` every 100 simulated ms ends with the same
    kernel digest, point history and deterministic counters as the same
    run without snapshots."""

    def run(snapshots: bool):
        model = SgmlModelSet.from_directory(scaleout_model_dir)
        cyber_range = SgmlProcessor(model, seed=SEED).compile()
        history = _record_history(cyber_range)
        cyber_range.start()
        windows = []
        before = cyber_range.data_plane_stats() if snapshots else None
        for _ in range(int(RUN_S * 10)):
            cyber_range.run_for(0.1)
            if snapshots:
                after = cyber_range.data_plane_stats()
                windows.append(after.diff(before))
                before = after
        digest = cyber_range.simulator.digest()
        final = dict(cyber_range.data_plane_stats().deterministic())
        cyber_range.close()
        return digest, history, final, windows

    digest, history, final, _ = run(snapshots=False)
    digest_s, history_s, final_s, windows = run(snapshots=True)
    assert digest_s == digest
    assert json.dumps(history_s) == json.dumps(history)
    assert final_s == final
    assert len(windows) == int(RUN_S * 10)
    assert sum(w["netem_sends"] for w in windows) > 0
