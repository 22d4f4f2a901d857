"""Range-as-a-Service concurrency — many live sessions, one thread.

The service acceptance bar: one process must sustain **8 concurrent
5-substation sessions** (104 IEDs each — the paper's full scale, ×8) at
real-time pacing (speed=1.0) with event streaming active.  This bench
builds that fleet exactly the way :class:`repro.service.server.RangeService`
does — a :class:`SessionManager` full of speed-paced
:class:`RangeSession` objects advanced round-robin with bounded
``step_until`` slices, each with a live broker subscription being drained
(the in-process equivalent of an attached WebSocket consumer) — and
measures:

* ``busy_share`` — wall time spent inside ``advance()`` + event draining
  divided by elapsed wall time.  Real-time feasibility means < 1.0: the
  driver has idle headroom at the target pace.
* ``wall_per_sim_s`` — busy wall seconds per *session*-simulated second
  (aggregate busy / (sessions × simulated seconds)); the per-session cost
  figure comparable with the single-range scalability sweep.
* ``per_tick_ms`` — mean power-flow tick cost across the whole fleet.

Two ``BENCH_scalability.json`` points: ``concurrent_sessions`` (the full
8×5-substation acceptance shape; skipped under ``BENCH_SMOKE``) and
``concurrent_sessions_smoke`` (2 sessions × 2 substations — the shape CI
re-measures and gates with ``check_bench_regression.py``).
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import print_report, record_scalability_result

from repro.kernel import SECOND
from repro.service import RangeSession, SessionManager
from repro.sgml import SgmlModelSet, SgmlProcessor

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Simulated seconds each session runs at speed=1.0 (≈ the wall time of
#: the whole fleet run, since sessions pace concurrently).
SIM_S = 3.0
#: Kernel events per cooperative slice (the server's default budget).
SLICE_EVENTS = 2000


def _run_fleet(model_dir: str, session_count: int) -> dict:
    """Drive ``session_count`` paced sessions to SIM_S; measure the cost."""
    model = SgmlModelSet.from_directory(model_dir)
    manager = SessionManager(
        max_sessions=session_count, max_per_tenant=session_count
    )
    sessions: list[RangeSession] = []
    subscriptions = []
    for index in range(session_count):
        session = manager.create(
            lambda seed=index: SgmlProcessor(model, seed=seed).compile(),
            tenant=f"tenant-{index}",
            name=f"bench-{index}",
            speed=1.0,
            autostart=False,
        )
        # An active consumer per session: points + stats, drained inline.
        subscriptions.append(session.broker.subscribe(["points", "stats"]))
        sessions.append(session)

    end_us = int(SIM_S * SECOND)
    for session in sessions:
        session.start()
    start_wall = time.perf_counter()
    busy_s = 0.0
    delivered = 0
    while any(s.cyber_range.simulator.now < end_us for s in sessions):
        pass_start = time.perf_counter()
        pending = False
        wall_now = time.monotonic()
        for session, subscription in zip(sessions, subscriptions):
            if session.cyber_range.simulator.now >= end_us:
                continue
            result = session.advance(wall_now, SLICE_EVENTS)
            pending = pending or not result.done
            delivered += len(subscription.take())
        busy_s += time.perf_counter() - pass_start
        if not pending:
            time.sleep(0.002)  # the driver's idle sleep, miniature
    elapsed_s = time.perf_counter() - start_wall

    total_ticks = sum(s.cyber_range.coupling.tick_count for s in sessions)
    total_tick_wall = sum(
        s.cyber_range.coupling.tick_clock.seconds for s in sessions
    )
    dropped = sum(sub.dropped for sub in subscriptions)
    lag_resets = sum(s.lag_resets for s in sessions)
    ieds = len(sessions[0].cyber_range.ieds)
    manager.close_all()
    return {
        "sessions": session_count,
        "ieds_per_session": ieds,
        "sim_s_per_session": SIM_S,
        "elapsed_s": elapsed_s,
        "busy_share": busy_s / elapsed_s,
        "wall_per_sim_s": busy_s / (session_count * SIM_S),
        "per_tick_ms": total_tick_wall * 1000.0 / max(1, total_ticks),
        "events_delivered": delivered,
        "events_dropped": dropped,
        "lag_resets": lag_resets,
    }


def _report(point: str, result: dict) -> None:
    print_report(
        f"service concurrency — {result['sessions']} sessions × "
        f"{result['ieds_per_session']} IEDs ({point})",
        [
            f"elapsed: {result['elapsed_s']:.2f} s wall for "
            f"{result['sim_s_per_session']:.0f} simulated s/session",
            f"busy share of wall: {result['busy_share'] * 100:.1f}% "
            f"(must stay < 100% for real-time)",
            f"busy wall per session-simulated-second: "
            f"{result['wall_per_sim_s'] * 1000:.2f} ms",
            f"power-flow tick (fleet mean): {result['per_tick_ms']:.3f} ms",
            f"events streamed: {result['events_delivered']} "
            f"(dropped: {result['events_dropped']}), "
            f"lag resets: {result['lag_resets']}",
        ],
    )


def _assert_realtime(result: dict) -> None:
    # Sessions are paced, so the fleet cannot finish faster than SIM_S;
    # finishing close to it (not a multiple of it) is the acceptance.
    assert result["elapsed_s"] < SIM_S * 1.5, (
        f"fleet took {result['elapsed_s']:.2f}s wall for {SIM_S:.0f}s "
        f"simulated — sessions are not keeping real-time pace"
    )
    assert result["busy_share"] < 1.0
    assert result["lag_resets"] == 0, "a session fell behind and re-anchored"
    assert result["events_delivered"] > 0


def test_concurrent_sessions_full(scaleout_dirs):
    """Acceptance: 8×5-substation sessions, real-time, streaming on."""
    if SMOKE:
        pytest.skip("BENCH_SMOKE: full 8-session fleet runs in tier-1")
    result = _run_fleet(scaleout_dirs[5], 8)
    _report("concurrent_sessions", result)
    _assert_realtime(result)
    record_scalability_result("concurrent_sessions", result)


def test_concurrent_sessions_smoke_point(scaleout_dirs):
    """The 2×2-substation shape CI re-measures and gates every run."""
    result = _run_fleet(scaleout_dirs[2], 2)
    _report("concurrent_sessions_smoke", result)
    _assert_realtime(result)
    record_scalability_result("concurrent_sessions_smoke", result)
