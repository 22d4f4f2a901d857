"""Crash-safe sessions: journal WAL, deterministic restore, supervision.

The tentpole contract under test: a session SIGKILLed (or crashed) at an
arbitrary instant is rebuilt from its write-ahead journal to the exact
pre-crash virtual time, with a point history and after-action report
byte-identical to an uninterrupted golden run — and the supervisor does
that restart automatically, in the crashed session's own failure domain,
without perturbing its neighbours.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.kernel import SECOND
from repro.service import (
    HealthState,
    SessionManager,
    launch_service,
)
from repro.service.client import (
    BadRequestError,
    SessionLimitError,
    ServiceClient,
    ServiceOverloadedError,
)
from repro.service.client import UnknownSessionError as ClientUnknownSession
from repro.service.recovery import (
    RecoveryError,
    SessionJournal,
    journal_path,
    load_journal,
    read_journal,
    replay_session,
)
from repro.service.session import RangeSession
from repro.service.supervisor import SessionSupervisor
from repro.sgml import SgmlProcessor

SEED = 11
RUN_S = 3.0


@pytest.fixture
def compile_epic(epic_model):
    return lambda: SgmlProcessor(epic_model, seed=SEED).compile()


@pytest.fixture
def fake_clock():
    wall = [0.0]

    def clock():
        return wall[0]

    clock.wall = wall  # type: ignore[attr-defined]
    return clock


@pytest.fixture
def manager(tmp_path, fake_clock, compile_epic):
    manager = SessionManager(
        journal_dir=str(tmp_path / "journals"), clock=fake_clock
    )
    yield manager
    manager.close_all(suspend=False)


def _record_history(cyber_range) -> list:
    history: list = []
    simulator = cyber_range.simulator

    def on_change(handle, value):
        history.append((simulator.now, handle.key, repr(value)))

    cyber_range.pointdb.subscribe_all(on_change)
    return history


def _strip_wall(report: dict) -> dict:
    cleaned = json.loads(json.dumps(report))
    cleaned.pop("wall_s", None)
    for entry in cleaned.get("scenarios", []):
        entry.pop("wall_s", None)
    return cleaned


def _advance_to(session, fake_clock, end_us, budget=500):
    simulator = session.cyber_range.simulator
    while simulator.now < end_us:
        session.advance(fake_clock(), budget)
        session.journal_mark()
        fake_clock.wall[0] += 0.01


def _scenario_spec() -> dict:
    return {
        "name": "recovery-drill",
        "phases": [
            {
                "name": "stress",
                "trigger": {"at": 0.5},
                "actions": [
                    {"write_point": {"key": "cmd/Load1/scale", "value": 2.5}}
                ],
                "outcomes": [
                    {
                        "name": "volts present",
                        "check": (
                            "meas/EPIC/VL1/GenerationBay/GBUS/vm_pu > 0.5"
                        ),
                        "after_s": 0.5,
                    }
                ],
            }
        ],
    }


def _exercised_session(manager, compile_epic, fake_clock):
    """A journaled session driven through a realistic mid-exercise life:
    run, inject, arm a scenario, change speed, run some more."""
    session = manager.create(
        compile_epic,
        tenant="blue",
        name="drill",
        model="epic",
        speed=0.0,
        create_spec={"model": "epic", "name": "drill", "speed": 0.0},
    )
    _advance_to(session, fake_clock, int(1.0 * SECOND))
    session.inject({"write_point": {"key": "cmd/Load1/scale", "value": 2.0}})
    session.start_scenario(_scenario_spec(), duration_s=1.5)
    _advance_to(session, fake_clock, int(2.0 * SECOND))
    session.set_speed(4.0)
    _advance_to(session, fake_clock, int(RUN_S * SECOND))
    return session


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------
def test_journal_is_write_ahead_and_typed(manager, compile_epic, fake_clock):
    session = _exercised_session(manager, compile_epic, fake_clock)
    path = journal_path(manager.journal_dir, session.id)
    ops = [r["op"] for r in read_journal(path)]
    assert ops[0] == "create"
    assert ops[1] == "start"
    assert "action" in ops and "scenario" in ops
    assert ops.index("action") < ops.index("scenario")
    # speed change journaled as lifecycle
    lifecycle = [r for r in read_journal(path) if r["op"] == "lifecycle"]
    assert any(r["kind"] == "speed" and r["speed"] == 4.0 for r in lifecycle)
    # every mutation is virtual-time stamped at a drained instant
    for record in read_journal(path):
        if record["op"] in ("action", "scenario"):
            assert isinstance(record["t_us"], int)
    stats = session.journal.stats()
    assert stats["records_written"] == len(read_journal(path))
    assert stats["marks_written"] >= 2
    session.suspend()
    assert read_journal(path)[-1]["op"] == "suspend"


def test_bad_specs_are_rejected_before_journaling(
    manager, compile_epic, fake_clock
):
    """WAL discipline: a spec that cannot replay must never hit the log."""
    from repro.service.session import ServiceError

    session = manager.create(
        compile_epic, tenant="blue", create_spec={"model": "epic"}
    )
    path = journal_path(manager.journal_dir, session.id)
    before = len(read_journal(path))
    with pytest.raises(ServiceError):
        session.inject({"no_such_action": {}})
    with pytest.raises(ServiceError):
        session.start_scenario({"name": "bad", "phases": "nope"}, 1.0)
    assert len(read_journal(path)) == before


def test_read_journal_tolerates_torn_tail_only(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text('{"op":"create","session":"s1","v":1}\n{"op":"ma')
    records = read_journal(path)
    assert [r["op"] for r in records] == ["create"]
    # mid-file corruption is NOT tolerated: fail loud, not wrong
    path.write_text('{"op":"create"}\nGARBAGE\n{"op":"mark","t_us":1}\n')
    with pytest.raises(RecoveryError):
        read_journal(path)


def test_clean_close_and_eviction_are_not_restorable(
    manager, compile_epic, fake_clock
):
    session = manager.create(
        compile_epic, tenant="blue", create_spec={"model": "epic"}
    )
    path = journal_path(manager.journal_dir, session.id)
    manager.close(session.id)
    state = load_journal(path)
    assert not state.restorable and state.closed_reason == "close"
    with pytest.raises(RecoveryError):
        replay_session(state, compile_epic)
    with pytest.raises(RecoveryError):
        manager.restore(path)

    # TTL eviction is a clean shutdown too, with its own reason.
    evictable = manager.create(
        compile_epic, tenant="blue", create_spec={"model": "epic"}
    )
    manager.ttl_s = 10.0
    fake_clock.wall[0] += 60.0
    manager.evict_idle(fake_clock())
    evicted_state = load_journal(
        journal_path(manager.journal_dir, evictable.id)
    )
    assert not evicted_state.restorable
    assert evicted_state.closed_reason == "evicted"


# ----------------------------------------------------------------------
# Deterministic replay restore
# ----------------------------------------------------------------------
def test_crash_restore_is_bit_for_bit(manager, compile_epic, fake_clock):
    """SIGKILL mid-exercise: sliced replay == uninterrupted golden replay,
    digest-verified against what the live session actually processed."""
    live = _exercised_session(manager, compile_epic, fake_clock)
    live_history = _record_history(live.cyber_range)  # from here on: empty
    path = journal_path(manager.journal_dir, live.id)
    # Simulate SIGKILL: no close/suspend record, plus a torn final write.
    live.journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"op":"mark","t_us":9')

    state = load_journal(path)
    assert state.restorable
    target_us = state.target_us
    assert target_us >= int(2.0 * SECOND)  # a durable mark past the speed op

    histories, reports, sessions = [], [], []
    for mode in ("slices", "run_until"):
        captured: dict = {}

        def observe(session, captured=captured):
            captured["history"] = _record_history(session.cyber_range)

        session = replay_session(
            state, compile_epic, clock=fake_clock, mode=mode, observe=observe
        )
        assert session.cyber_range.simulator.now == target_us
        # run armed scenarios to their horizon so the report is final
        horizon = state.scenario_horizon_us()
        if horizon > session.cyber_range.simulator.now:
            session.cyber_range.simulator.run_until(horizon)
        histories.append(captured["history"])
        reports.append(_strip_wall(session.report()))
        sessions.append(session)

    assert json.dumps(histories[0]).encode() == json.dumps(histories[1]).encode()
    assert histories[0], "replay produced no point deltas"
    assert reports[0] == reports[1]
    assert reports[0]["scenarios"][0]["passed"]
    assert [a["action"] for a in sessions[0].action_log] == [
        a["action"] for a in sessions[1].action_log
    ]
    for session in sessions:
        assert session.restored == 1
        assert session.speed == 4.0  # the journaled speed change survived
        session.close(journal_reason=None)


def test_restore_verifies_digest_and_refuses_divergence(
    manager, compile_epic, fake_clock
):
    session = _exercised_session(manager, compile_epic, fake_clock)
    session.suspend()
    path = journal_path(manager.journal_dir, session.id)
    records = read_journal(path)
    assert records[-1]["op"] == "suspend"
    records[-1]["events"] += 7  # corrupt the digest
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    with pytest.raises(RecoveryError, match="diverged"):
        replay_session(load_journal(path), compile_epic, clock=fake_clock)


def test_suspend_restore_roundtrips_through_manager(
    manager, compile_epic, fake_clock, tmp_path
):
    session = _exercised_session(manager, compile_epic, fake_clock)
    digest = session.cyber_range.simulator.digest()
    actions = [a["action"] for a in session.action_log]
    session.suspend()
    path = journal_path(manager.journal_dir, session.id)

    second = SessionManager(journal_dir=manager.journal_dir, clock=fake_clock)
    restored = second.restore(path, resolver=lambda spec: compile_epic)
    assert restored.id == session.id
    assert restored.cyber_range.simulator.digest() == digest
    assert [a["action"] for a in restored.action_log] == actions
    assert restored.state.value == "running"  # suspended while running
    assert restored.journal is not None  # keeps appending: crash-safe again
    assert restored.restored == 1

    # ... and a restore of the restore still verifies (journal reopened).
    restored.suspend()
    third = SessionManager(journal_dir=manager.journal_dir, clock=fake_clock)
    again = third.restore(path, resolver=lambda spec: compile_epic)
    assert again.cyber_range.simulator.digest() == digest
    assert again.restored == 2
    again.close(journal_reason=None)


def test_paused_session_restores_paused(manager, compile_epic, fake_clock):
    session = manager.create(
        compile_epic, tenant="blue", create_spec={"model": "epic"}
    )
    _advance_to(session, fake_clock, int(1.0 * SECOND))
    session.pause()
    session.journal.close()  # crash while paused
    restored = replay_session(
        load_journal(journal_path(manager.journal_dir, session.id)),
        compile_epic,
        clock=fake_clock,
    )
    assert restored.state.value == "paused"
    restored.close(journal_reason=None)


def test_compaction_bounds_journal_and_preserves_restore(
    tmp_path, compile_epic, fake_clock
):
    path = tmp_path / "compact.jsonl"
    journal = SessionJournal(
        path,
        mark_min_interval_s=0.01,
        compact_every=8,
        clock=fake_clock,
    )
    journal.record_create(
        session_id="s-compact", tenant="blue", name="", model="epic",
        spec={"model": "epic"}, seed=SEED, speed=0.0, max_lag_s=2.0,
        queue_depth=2048, stats_period_s=1.0,
    )
    session = RangeSession(
        "s-compact", compile_epic(), tenant="blue", speed=0.0,
        clock=fake_clock, journal=journal,
    )
    session.start()
    _advance_to(session, fake_clock, int(2.0 * SECOND), budget=200)
    session.inject({"write_point": {"key": "cmd/Load1/scale", "value": 1.5}})
    _advance_to(session, fake_clock, int(4.0 * SECOND), budget=200)
    assert journal.compactions >= 1
    digest = session.cyber_range.simulator.digest()
    session.suspend()

    records = read_journal(path)
    marks = [r for r in records if r["op"] == "mark"]
    assert len(marks) <= 8, "compaction must discard stale marks"
    assert [r for r in records if r["op"] == "action"], (
        "compaction must never drop mutations"
    )
    restored = replay_session(
        load_journal(path), compile_epic, clock=fake_clock
    )
    assert restored.cyber_range.simulator.digest() == digest
    restored.close(journal_reason=None)


# ----------------------------------------------------------------------
# Supervision: quarantine, backoff, restart-from-journal
# ----------------------------------------------------------------------
def _poison(session, delay_s=0.05):
    """Schedule a raising event *outside* the journaled inputs — exactly
    the transient poison a replay does not reproduce."""

    def boom():
        raise RuntimeError("chaos poison")

    session.cyber_range.simulator.schedule(
        int(delay_s * SECOND), boom, label="chaos:poison"
    )


def test_supervisor_quarantines_and_restarts_without_perturbing_neighbor(
    manager, compile_epic, fake_clock
):
    golden = compile_epic()
    golden_history = _record_history(golden)
    golden.start()
    golden.run_for(2.0)
    golden_bytes = json.dumps(golden_history).encode()
    golden.close()

    supervisor = SessionSupervisor(
        manager,
        restore=lambda wreck: _supervisor_restore(manager, wreck, compile_epic),
        backoff_base_s=0.5,
        max_restarts=3,
        clock=fake_clock,
    )
    victim = manager.create(
        compile_epic, tenant="blue", name="victim", speed=0.0,
        create_spec={"model": "epic", "name": "victim", "speed": 0.0},
    )
    neighbor = manager.create(
        compile_epic, tenant="blue", name="neighbor", speed=0.0,
        autostart=False,
        create_spec={"model": "epic", "name": "neighbor", "speed": 0.0},
    )
    neighbor_history = _record_history(neighbor.cyber_range)
    neighbor.start()

    _advance_to(victim, fake_clock, int(1.0 * SECOND))
    _poison(victim)
    with pytest.raises(RuntimeError):
        while True:
            victim.advance(fake_clock(), 500)

    entry = supervisor.record_failure(
        victim, RuntimeError("chaos poison"), fake_clock()
    )
    assert entry.state is HealthState.QUARANTINED
    assert entry.next_restart_wall == fake_clock() + 0.5  # base backoff
    # quarantine froze the wreck without journaling a pause
    assert victim.state.value == "paused"
    assert not any(
        r["op"] == "lifecycle" and r["kind"] == "pause"
        for r in read_journal(journal_path(manager.journal_dir, victim.id))
    )
    crash = [
        r for r in read_journal(journal_path(manager.journal_dir, victim.id))
        if r["op"] == "crash"
    ]
    assert crash and "chaos poison" in crash[0]["error"]

    # the neighbour's failure domain is untouched: it still replays golden
    _advance_to(neighbor, fake_clock, int(2.0 * SECOND))
    assert json.dumps(neighbor_history).encode() == golden_bytes

    assert supervisor.due_restarts(fake_clock()) == []
    fake_clock.wall[0] += 0.6
    assert supervisor.due_restarts(fake_clock()) == [victim.id]
    restarted = supervisor.attempt_restart(victim.id)
    assert restarted is not None and restarted.id == victim.id
    assert supervisor.health(victim.id)["state"] == "healthy"
    assert supervisor.health(victim.id)["restarts"] == 1
    # the poison was not journaled, so the restarted session runs clean
    _advance_to(restarted, fake_clock, int(2.0 * SECOND))
    assert restarted.state.value == "running"


def _supervisor_restore(manager, wreck, compile_epic):
    path = wreck.journal.path
    wreck.journal.close()
    wreck.journal = None
    manager.forget(wreck.id)
    wreck.close(journal_reason=None)
    return manager.restore(path, resolver=lambda spec: compile_epic)


def test_supervisor_escalates_backoff_then_fails(
    manager, compile_epic, fake_clock
):
    attempts = []

    def always_broken(wreck):
        attempts.append(fake_clock())
        raise RuntimeError("deterministic poison")

    supervisor = SessionSupervisor(
        manager, restore=always_broken, backoff_base_s=1.0,
        max_restarts=3, clock=fake_clock,
    )
    session = manager.create(
        compile_epic, tenant="blue", create_spec={"model": "epic"}
    )
    entry = supervisor.record_failure(session, RuntimeError("x"), fake_clock())
    backoffs = []
    while entry.state is HealthState.QUARANTINED:
        backoffs.append(entry.next_restart_wall - fake_clock())
        fake_clock.wall[0] = entry.next_restart_wall
        supervisor.attempt_restart(session.id)
    assert entry.state is HealthState.FAILED
    assert backoffs == [1.0, 2.0, 4.0]  # capped exponential: base·2^(n-1)
    assert len(attempts) == 3
    assert supervisor.summary()["by_state"]["failed"] == 1


def test_unjournaled_session_fails_on_first_crash(compile_epic, fake_clock):
    manager = SessionManager(clock=fake_clock)  # no journal_dir
    supervisor = SessionSupervisor(
        manager, restore=lambda wreck: wreck, clock=fake_clock
    )
    session = manager.create(compile_epic, tenant="blue")
    entry = supervisor.record_failure(session, RuntimeError("x"), fake_clock())
    assert entry.state is HealthState.FAILED
    manager.close_all(suspend=False)


# ----------------------------------------------------------------------
# Service-level: boot recovery, driver restart, shedding, idempotency
# ----------------------------------------------------------------------
WAIT_S = 10.0


def _wait_until(predicate, timeout_s=WAIT_S):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_service_stop_suspends_and_boot_recovers(tmp_path, epic_model_dir):
    journal_dir = str(tmp_path / "journals")
    handle = launch_service(journal_dir=journal_dir)
    client = ServiceClient(port=handle.port, tenant="blue")
    session = client.create_session(
        model_dir=epic_model_dir, speed=0.0, name="durable"
    )
    assert session["journaled"]
    assert _wait_until(
        lambda: client.session(session["id"])["time_s"] > 1.0
    )
    client.inject(
        session["id"],
        {"write_point": {"key": "cmd/Load1/scale", "value": 2.0}},
    )
    suspended_t = client.session(session["id"])["time_s"]
    handle.stop()  # orderly shutdown → suspend records, resumable

    relaunched = launch_service(journal_dir=journal_dir)
    try:
        assert relaunched.service.boot_recovery["restored"] == [session["id"]]
        client2 = ServiceClient(port=relaunched.port, tenant="blue")
        info = client2.session(session["id"])
        assert info["state"] == "running"
        assert info["restored"] == 1
        assert info["time_s"] >= suspended_t
        assert info["action_count"] == 1
        health = client2.health()
        assert health["boot_recovery"]["restored"] == 1
        # clean close → the journal is spent; a third boot skips it
        client2.close_session(session["id"])
    finally:
        relaunched.stop()
    third = launch_service(journal_dir=journal_dir)
    try:
        assert third.service.boot_recovery["restored"] == []
        assert third.service.boot_recovery["skipped"], (
            "closed journal must be skipped, not restored"
        )
    finally:
        third.stop()


def test_driver_restarts_crashed_session_in_place(tmp_path, epic_model_dir):
    handle = launch_service(
        journal_dir=str(tmp_path / "journals"),
        backoff_base_s=0.05,
        backoff_cap_s=0.2,
    )
    client = ServiceClient(port=handle.port, tenant="blue")
    try:
        victim = client.create_session(
            model_dir=epic_model_dir, speed=0.0, name="victim"
        )
        neighbor = client.create_session(
            model_dir=epic_model_dir, speed=0.0, name="neighbor"
        )
        assert _wait_until(
            lambda: client.session(victim["id"])["time_s"] > 0.5
        )

        def poison():
            wreck = handle.service.manager._sessions[victim["id"]]
            _poison(wreck, delay_s=0.0)

        handle._loop.call_soon_threadsafe(poison)
        assert _wait_until(
            lambda: client.session(victim["id"])["health"]["restarts"] >= 1
        ), "supervisor never restarted the poisoned session"
        info = client.session(victim["id"])
        assert info["health"]["state"] == "healthy"
        assert info["state"] == "running"
        assert info["restored"] >= 1
        resumed_t = info["time_s"]
        assert _wait_until(
            lambda: client.session(victim["id"])["time_s"] > resumed_t
        ), "restarted session must keep advancing"
        # the neighbour never stopped
        neighbor_t = client.session(neighbor["id"])["time_s"]
        assert _wait_until(
            lambda: client.session(neighbor["id"])["time_s"] > neighbor_t
        )
        assert client.session(neighbor["id"])["health"]["state"] == "healthy"
        assert client.health()["supervisor"]["crashes_seen"] >= 1
    finally:
        handle.stop()


def test_overload_sheds_with_retry_after_and_client_retries(
    tmp_path, epic_model_dir
):
    handle = launch_service(journal_dir=str(tmp_path / "journals"))
    service = handle.service
    try:
        # Force shedding: an impossible busy-share threshold.
        service.shed_busy_share = -1.0
        strict = ServiceClient(port=handle.port, tenant="blue", retries=0)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            strict.create_session(model_dir=epic_model_dir, speed=0.0)
        assert excinfo.value.status == 503
        assert excinfo.value.retryable
        assert excinfo.value.retry_after_s >= 1.0
        assert service.shed_count >= 1

        # Reads are never shed — only session creates.
        assert strict.list_sessions() == []

        # A retrying client rides the 503 out transparently.
        import threading

        threading.Timer(
            0.3, lambda: setattr(service, "shed_busy_share", 0.9)
        ).start()
        patient = ServiceClient(
            port=handle.port, tenant="blue",
            retries=4, retry_backoff_s=0.2,
        )
        session = patient.create_session(model_dir=epic_model_dir, speed=0.0)
        assert session["state"] == "running"
        assert patient.retries_used >= 1
    finally:
        handle.stop()


def test_idempotency_key_applies_mutation_exactly_once(
    tmp_path, epic_model_dir
):
    handle = launch_service(journal_dir=str(tmp_path / "journals"))
    client = ServiceClient(port=handle.port, tenant="blue")
    try:
        session = client.create_session(model_dir=epic_model_dir, speed=0.0)
        _wait_until(lambda: client.session(session["id"])["time_s"] > 0.5)
        spec = {"write_point": {"key": "cmd/Load1/scale", "value": 3.0}}
        path = f"/v1/sessions/{session['id']}/actions"
        first = client._request_once("POST", path, spec, 10.0, "retry-key-1")
        second = client._request_once("POST", path, spec, 10.0, "retry-key-1")
        assert first == second, "replayed response must be byte-identical"
        assert client.session(session["id"])["action_count"] == 1

        # the replay is visible on the wire
        import http.client as http_client

        connection = http_client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10.0
        )
        connection.request(
            "POST", path, body=json.dumps(spec),
            headers={"Content-Type": "application/json",
                     "X-Tenant": "blue",
                     "Idempotency-Key": "retry-key-1"},
        )
        response = connection.getresponse()
        response.read()
        assert response.getheader("X-Idempotent-Replay") == "true"
        connection.close()
        assert client.session(session["id"])["action_count"] == 1

        # a different key is a different logical call
        client._request_once("POST", path, spec, 10.0, "retry-key-2")
        assert client.session(session["id"])["action_count"] == 2
    finally:
        handle.stop()


def test_error_envelope_and_typed_client_exceptions(tmp_path, epic_model_dir):
    handle = launch_service(
        manager=SessionManager(max_sessions=2, max_per_tenant=1, ttl_s=0)
    )
    client = ServiceClient(port=handle.port, tenant="blue")
    try:
        with pytest.raises(ClientUnknownSession) as excinfo:
            client.session("deadbeef0000")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_session"
        assert not excinfo.value.retryable

        session = client.create_session(model_dir=epic_model_dir, speed=0.0)
        with pytest.raises(BadRequestError) as excinfo:
            client.inject(session["id"], {"no_such_kind": {}})
        assert excinfo.value.status == 400

        with pytest.raises(SessionLimitError) as excinfo:
            client.create_session(model_dir=epic_model_dir, speed=0.0)
        assert excinfo.value.status == 429
        assert excinfo.value.code == "limit_reached"
        assert excinfo.value.retryable

        # raw envelope shape on the wire
        import http.client as http_client

        connection = http_client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10.0
        )
        connection.request(
            "GET", "/v1/sessions/nope", headers={"X-Tenant": "blue"}
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        connection.close()
        assert set(body) == {"error"}
        assert set(body["error"]) == {"code", "message", "retryable"}
    finally:
        handle.stop()
