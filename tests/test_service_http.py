"""Wire layer end-to-end: a live service driven through the blocking client.

One service per test module (session-scoped fixture), ephemeral port,
sessions created from the generated EPIC model directory.  These tests
exercise exactly what the CI ``service-smoke`` job exercises, in-process.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import SessionManager, launch_service
from repro.service.client import ClientError, ServiceClient

WAIT_S = 8.0


@pytest.fixture(scope="module")
def service(epic_model_dir):
    handle = launch_service(
        manager=SessionManager(max_sessions=6, max_per_tenant=4, ttl_s=0)
    )
    handle.model_dir = epic_model_dir
    yield handle
    handle.stop()


@pytest.fixture
def client(service):
    client = ServiceClient(port=service.port, tenant="blue")
    created: list[str] = []
    original = client.create_session

    def create(**body):
        body.setdefault("model_dir", service.model_dir)
        session = original(**body)
        created.append(session["id"])
        return session

    client.create_session = create  # type: ignore[method-assign]
    yield client
    for session_id in created:
        try:
            client.close_session(session_id)
        except ClientError:
            pass


def _wait_until(predicate, timeout_s=WAIT_S):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_health_reports_driver_liveness(client):
    health = client.health()
    assert health["ok"]
    assert _wait_until(
        lambda: client.health()["driver_passes"] > health["driver_passes"]
    )


def test_create_advances_in_real_time_and_close(client):
    session = client.create_session(speed=1.0, name="drill-1")
    assert session["state"] == "running" and session["speed"] == 1.0
    assert _wait_until(
        lambda: client.session(session["id"])["time_s"] > 0.2
    ), "a speed-1.0 session must advance with the wall clock"
    closed = client.close_session(session["id"])
    assert closed["state"] == "closed"
    # Closed sessions stay inspectable; their virtual clock is frozen.
    frozen = client.session(session["id"])["time_s"]
    time.sleep(0.2)
    assert client.session(session["id"])["time_s"] == frozen


def test_two_concurrent_sessions_advance_independently(client):
    fast = client.create_session(speed=0.0, name="fast")
    slow = client.create_session(speed=0.5, name="slow")
    assert _wait_until(lambda: client.session(slow["id"])["time_s"] > 0.3)
    fast_t = client.session(fast["id"])["time_s"]
    slow_t = client.session(slow["id"])["time_s"]
    assert fast_t > slow_t, "unpaced session must outrun the 0.5x one"
    listed = {s["name"] for s in client.list_sessions()}
    assert {"fast", "slow"} <= listed


def test_lifecycle_pause_resume_speed(client):
    session = client.create_session(speed=1.0)
    assert client.pause(session["id"])["state"] == "paused"
    frozen = client.session(session["id"])["time_s"]
    time.sleep(0.3)
    assert client.session(session["id"])["time_s"] == frozen
    assert client.resume(session["id"])["state"] == "running"
    faster = client.set_speed(session["id"], 5.0)
    assert faster["speed"] == 5.0
    assert _wait_until(
        lambda: client.session(session["id"])["time_s"] > frozen + 1.0
    )


def test_inject_action_and_read_points(client):
    session = client.create_session(speed=0.0)
    _wait_until(lambda: client.session(session["id"])["time_s"] > 1.0)
    ack = client.inject(
        session["id"],
        {"inject_breaker": {"ied": "GIED1", "server_ip": "10.0.1.11",
                            "switch": "sw-GenLAN"}},
    )
    assert "XCBR" in ack["result"]
    # The FCI command must eventually open GIED1's breaker CB_G1.
    assert _wait_until(
        lambda: client.points(session["id"], prefix="status/CB_G1").get(
            "status/CB_G1/closed"
        ) is False
    ), "breaker open command never reached the status point"


def test_scenario_roundtrip_and_report(client):
    session = client.create_session(speed=0.0)
    spec = {
        "name": "http-drill",
        "phases": [
            {
                "name": "watch",
                "trigger": {"at": 0.5},
                "outcomes": [
                    {"name": "live",
                     "check": "meas/EPIC/VL1/GenerationBay/GBUS/vm_pu > 0.5",
                     "after_s": 0.5}
                ],
            }
        ],
    }
    armed = client.start_scenario(session["id"], spec, duration_s=2.0)
    assert armed["scenario"] == "http-drill"
    assert _wait_until(
        lambda: client.report(session["id"])["scenarios"][0]["finished"]
    )
    report = client.report(session["id"])
    (entry,) = report["scenarios"]
    assert entry["passed"] and report["passed"]
    assert "wall_s" in entry and "seed" in entry  # campaign schema


def test_websocket_stream_with_channel_filter(client):
    session = client.create_session(speed=0.0)
    events = client.stream_events(
        session["id"], channels=["points"], max_events=8, timeout_s=WAIT_S
    )
    meta = [e for e in events if e.get("event") == "stream_open"]
    assert meta and meta[0]["channels"] == ["points"]
    data = [e for e in events if "event" not in e]
    assert len(data) == 8
    assert all(e["channel"] == "points" for e in data)
    assert all("point" in e and "time_s" in e for e in data)


def test_websocket_stats_channel_streams_multicast_stats(client):
    session = client.create_session(speed=0.0)
    events = client.stream_events(
        session["id"], channels=["stats"], max_events=2, timeout_s=WAIT_S
    )
    stats = [e for e in events if e.get("channel") == "stats"]
    assert stats and "multicast_groups" in stats[0]
    assert "data_plane" in stats[0]


def test_stream_timeout_is_one_overall_deadline(client, scaleout_model_dir):
    """Keepalives must not extend ``timeout_s``: a stream that never sees
    a counted event returns once its one overall deadline passes.  The
    settled scale-out grid publishes no point changes at all."""
    session = client.create_session(model_dir=scaleout_model_dir, speed=0.0)
    assert _wait_until(lambda: client.session(session["id"])["time_s"] > 5.0)
    result = {}

    def stream():
        started = time.monotonic()
        result["events"] = client.stream_events(
            session["id"], channels=["points"], max_events=1, timeout_s=3.0
        )
        result["elapsed_s"] = time.monotonic() - started

    worker = threading.Thread(target=stream, daemon=True)
    worker.start()
    worker.join(timeout=20.0)
    assert not worker.is_alive(), "keepalives kept the stream open"
    assert result["elapsed_s"] < 6.0


def test_errors_unknown_session_bad_action_bad_channel(client):
    with pytest.raises(ClientError) as excinfo:
        client.session("deadbeef0000")
    assert excinfo.value.status == 404
    session = client.create_session(speed=0.0)
    with pytest.raises(ClientError) as excinfo:
        client.inject(session["id"], {"no_such_kind": {}})
    assert excinfo.value.status == 400
    with pytest.raises(ClientError) as excinfo:
        client._request("POST", f"/v1/sessions/{session['id']}/lifecycle",
                        {"op": "explode"})
    assert excinfo.value.status == 400


def test_tenant_isolation_over_http(service, client):
    session = client.create_session(speed=0.0)
    other = ServiceClient(port=service.port, tenant="red")
    assert session["id"] not in {s["id"] for s in other.list_sessions()}
    with pytest.raises(ClientError) as excinfo:
        other.session(session["id"])
    assert excinfo.value.status == 404


def test_per_tenant_limit_maps_to_429(service, client):
    sessions = [client.create_session(speed=0.0) for _ in range(4)]
    with pytest.raises(ClientError) as excinfo:
        client.create_session(speed=0.0)
    assert excinfo.value.status == 429
    for session in sessions:
        client.close_session(session["id"])
