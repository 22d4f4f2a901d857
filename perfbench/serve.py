"""``serve_sessions``: session cycles against an in-process range service.

``launch_service`` runs the service on its own thread.  One paced
session (speed 1.0, 5-substation model) stays live while one client runs
closed-loop cycles: create an unpaced session, wait for its first
``stats`` event on a WebSocket stream, start a catalog scenario, poll the
report until it finishes, close.  Session creates compile on the
service's event-loop thread, so each create stalls the paced session;
the paced session's lag is sampled at every client interaction.

Two service behaviours shape this client (see ``perfbench/README.md``):
``ServiceClient.stream_events(timeout_s=...)`` is a per-``recv`` timeout
that the server's 2 s keepalives keep resetting, so the stream reader
here enforces its own wall deadline and waits on ``stats`` only; and
handlers still parked in ``_handle_websocket`` at shutdown print
``CancelledError`` tracebacks, so every stream is closed before
``ServiceHandle.stop()``.

Load: one process, two threads (client + service), at most two client
sockets open at once (the stream and one request).
"""

from __future__ import annotations

import gc
import json
import socket
import time

from perfbench.common import (
    CATALOG_MAX_SITES,
    Run,
    median,
    perf,
    quantile,
    scaleout_dir,
)
from perfbench.layers import COUNTER_KEYS, add_counters, layer_metrics
from perfbench.tracer import Tracer

SETUP_BUILDS = 5
#: Cycles per untraced run at least, so the p75 has ten cycles above it.
MIN_CYCLES = 40
#: Cycles per half of a traced run (two rounds of the 11 specs).
TRACE_CYCLES = 22
STREAM_DEADLINE_S = 10.0
REPORT_DEADLINE_S = 30.0
POLL_S = 0.01
#: Never shed: a single closed-loop client is not an overload, and the
#: unpaced sessions keep the service's stepping loop busy near 100%.
SHED_BUSY_SHARE = 1.0


class CycleError(Exception):
    """One cycle failed (refused request, stream deadline, bad report)."""


def _recv_chunk(sock: socket.socket, deadline: float) -> bytes:
    """One ``recv`` bounded by the remaining wall time to ``deadline``."""
    remaining = deadline - perf()
    if remaining <= 0:
        raise CycleError("stream deadline passed")
    sock.settimeout(remaining)
    try:
        return sock.recv(4096)
    except socket.timeout as exc:
        raise CycleError("stream deadline passed") from exc


def first_event(port: int, session_id: str, channel: str,
                deadline_s: float) -> tuple[float, float]:
    """Open a stream on ``channel``, wait for its first event, close.

    Returns (seconds to the 101 handshake, seconds to the first event),
    both from the connect.  The deadline is on wall time for the whole
    exchange, not per ``recv``.
    """
    from repro.service import http as wire

    start = perf()
    deadline = start + deadline_s
    key = "cGVyZmJlbmNoLXN0cmVhbQ=="
    sock = socket.create_connection(("127.0.0.1", port), timeout=deadline_s)
    try:
        sock.sendall(
            (
                f"GET /v1/sessions/{session_id}/events?channels={channel} "
                f"HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n"
                "X-Tenant: default\r\n\r\n"
            ).encode("latin-1")
        )
        buffer = b""
        while b"\r\n\r\n" not in buffer:
            chunk = _recv_chunk(sock, deadline)
            if not chunk:
                raise CycleError("stream closed during the handshake")
            buffer += chunk
        head, _, buffer = buffer.partition(b"\r\n\r\n")
        if b" 101 " not in head.split(b"\r\n", 1)[0]:
            raise CycleError(f"websocket upgrade refused: {head[:80]!r}")
        opened = perf() - start
        while True:
            frames, buffer = wire.decode_frames(buffer)
            for opcode, payload in frames:
                if opcode == wire.WS_OP_CLOSE:
                    raise CycleError("stream closed before the first event")
                if opcode == wire.WS_OP_TEXT:
                    if json.loads(payload).get("channel") == channel:
                        first = perf() - start
                        _close_stream(sock, buffer, deadline)
                        return opened, first
            chunk = _recv_chunk(sock, deadline)
            if not chunk:
                raise CycleError("stream closed before the first event")
            buffer += chunk
    finally:
        sock.close()


def _close_stream(sock: socket.socket, buffer: bytes, deadline: float) -> None:
    """Send a close frame and wait for the server's close (or EOF), so its
    handler has left ``_handle_websocket`` before we go on."""
    from repro.service import http as wire

    sock.sendall(wire.encode_close(mask=True))
    while True:
        frames, buffer = wire.decode_frames(buffer)
        if any(opcode == wire.WS_OP_CLOSE for opcode, _ in frames):
            return
        try:
            chunk = _recv_chunk(sock, deadline)
        except CycleError as exc:
            raise CycleError("stream close not acknowledged") from exc
        if not chunk:
            return
        buffer += chunk


class Service:
    """One launched service with its paced session."""

    def __init__(self, model_dir: str, seed: int) -> None:
        from repro.service import ServiceClient, launch_service

        start = perf()
        self.handle = launch_service(shed_busy_share=SHED_BUSY_SHARE)
        self.client = ServiceClient(port=self.handle.port, retries=0)
        self.paced_id = self.client.create_session(
            model_dir=model_dir, speed=1.0, seed=seed, name="paced"
        )["id"]
        self.paced = self.handle.service.manager.get(self.paced_id)
        self.setup_s = perf() - start

    def lag_ms(self) -> float:
        """How far (ms) the paced session's clock trails its wall target."""
        return 1000.0 * max(0.0, self.paced.behind_s(time.monotonic()))

    def stop(self) -> None:
        try:
            self.client.close_session(self.paced_id)
        finally:
            self.handle.stop()


class Cycles:
    """Closed-loop cycles and what they measured."""

    def __init__(self, service: Service, model_dir: str, specs, seed: int,
                 with_stats: bool) -> None:
        self.service = service
        self.model_dir = model_dir
        self.specs = specs
        self.seed = seed
        self.with_stats = with_stats
        self.walls: list[float] = []
        self.sim_s = 0.0
        self.routes: dict[str, list[float]] = {
            "create": [], "stream_open": [], "scenario": [], "close": [],
            "first_event": [],
        }
        self.lags: list[float] = []
        self.outcomes: list[tuple] = []
        self.counters: dict = {}
        self.counter_sim_s = 0.0
        self.dropped = 0

    def run_one(self, run: Run, index: int) -> None:
        from repro.service import ClientError, ServiceError

        run.attempted += 1
        try:
            self._cycle(index)
        except (CycleError, ClientError, ServiceError, OSError) as exc:
            run.op_failed(f"cycle {index}: {type(exc).__name__}: {exc}")

    def _cycle(self, index: int) -> None:
        from repro.scenario.sharding import derive_seed

        name, spec = self.specs[(self.seed + index) % len(self.specs)]
        client = self.service.client
        start = perf()
        session_id = client.create_session(
            model_dir=self.model_dir, speed=0.0,
            seed=derive_seed(self.seed, name), name=f"cycle-{index}",
        )["id"]
        created = perf()
        self.lags.append(self.service.lag_ms())
        try:
            opened, first = first_event(
                self.service.handle.port, session_id, "stats",
                STREAM_DEADLINE_S,
            )
            streamed = perf()
            armed = client.start_scenario(session_id, spec)
            armed_at = perf()
            report = self._wait_report(session_id)
            if self.with_stats:
                stats = client.stats(session_id)
                add_counters(self.counters, {
                    key: stats["data_plane"][key] for key in COUNTER_KEYS
                })
                self.counter_sim_s += stats["time_s"]
                self.dropped += stats["broker"]["dropped_total"]
        finally:
            closing = perf()
            client.close_session(session_id)
            closed = perf()
        self.walls.append(closed - start)
        self.sim_s += armed["armed_at_s"] + armed["duration_s"]
        routes = self.routes
        routes["create"].append(created - start)
        routes["stream_open"].append(opened)
        routes["first_event"].append(created - start + first)
        routes["scenario"].append(armed_at - streamed)
        routes["close"].append(closed - closing)
        entry = report["scenarios"][0]
        self.outcomes.append((
            index, name, entry["passed"],
            tuple(phase["verdict"] for phase in entry["phases"]),
        ))
        if not report["passed"]:
            raise CycleError(f"{name}: scenario verdict failed")

    def _wait_report(self, session_id: str) -> dict:
        client = self.service.client
        deadline = perf() + REPORT_DEADLINE_S
        while True:
            report = client.report(session_id)
            self.lags.append(self.service.lag_ms())
            scenarios = report["scenarios"]
            if scenarios and all(s["finished"] for s in scenarios):
                return report
            if perf() > deadline:
                raise CycleError("scenario report not finished in time")
            time.sleep(POLL_S)


def _specs(model_dir: str) -> list[tuple[str, dict]]:
    from repro.scenario.catalog import generate_catalog
    from repro.sgml import SgmlModelSet

    model = SgmlModelSet.from_directory(model_dir)
    return [
        (entry.name, entry.spec)
        for entry in generate_catalog(model, max_sites=CATALOG_MAX_SITES)
    ]


def _check_repeats(run: Run, outcomes: list[tuple], period: int) -> None:
    """Cycles ``period`` apart ran the same spec on the same seed; their
    verdicts and per-phase outcomes must be identical."""
    by_index = {index: rest for index, *rest in outcomes}
    for index, rest in by_index.items():
        twin = by_index.get(index + period)
        if twin is not None and twin != rest:
            run.fail(f"cycle {index} vs {index + period}: {rest} != {twin}")


def run(workload: str, seed: int, seconds: int, trace: bool, work) -> Run:
    model_dir = scaleout_dir(work, 5, 104)
    specs = _specs(model_dir)
    result = Run()

    setups: list[float] = []
    service = None
    for _ in range(SETUP_BUILDS):
        if service is not None:
            service.stop()
        service = Service(model_dir, seed)
        setups.append(service.setup_s)
    gc.collect()

    if not trace:
        cycles = Cycles(service, model_dir, specs, seed, with_stats=False)
        start = perf()
        index = 0
        try:
            while index < MIN_CYCLES or perf() - start < seconds:
                cycles.run_one(result, index)
                index += 1
            if service.paced.state.value != "running":
                result.fail(f"paced session is {service.paced.state.value}")
        finally:
            service.stop()
        _check_repeats(result, cycles.outcomes, len(specs))
        result.end_to_end(cycles.walls, cycles.sim_s, setups)
        return result

    # Traced run: untraced cycles on this service, then a fresh service
    # launched under the tracer running the same cycle sequence.
    baseline = Cycles(service, model_dir, specs, seed, with_stats=True)
    try:
        for index in range(TRACE_CYCLES):
            baseline.run_one(result, index)
    finally:
        service.stop()
    gc.collect()
    tracer = Tracer().install()
    try:
        start_all = tracer.snapshot()
        service = Service(model_dir, seed)
        traced = Cycles(service, model_dir, specs, seed, with_stats=True)
        mark, window_start = tracer.snapshot(), perf()
        try:
            for index in range(TRACE_CYCLES):
                traced.run_one(result, index)
            dropped = service.client.stats(service.paced_id)["broker"][
                "dropped_total"
            ]
        finally:
            window_s = perf() - window_start
            window = tracer.snapshot().since(mark)
            service.stop()
        whole = tracer.snapshot().since(start_all)
    finally:
        tracer.uninstall()
    _check_repeats(result, baseline.outcomes + [
        (index + TRACE_CYCLES, *rest) for index, *rest in traced.outcomes
    ], TRACE_CYCLES)
    passed = sum(1 for _, _, ok, _ in traced.outcomes if ok)
    result.metrics.update(
        layer_metrics(
            window,
            whole,
            total_s=window_s,
            counters=traced.counters,
            counter_sim_s=traced.counter_sim_s,
            verdicts=len(traced.outcomes),
            verdicts_passed=passed,
        )
    )
    routes = traced.routes
    result.metrics.update({
        "service.create_ms_p50": 1000.0 * median(routes["create"]),
        "service.stream_open_ms_p50": 1000.0 * median(routes["stream_open"]),
        "service.scenario_ms_p50": 1000.0 * median(routes["scenario"]),
        "service.close_ms_p50": 1000.0 * median(routes["close"]),
        "service.first_event_ms_p50": 1000.0
        * quantile(routes["first_event"], 0.5),
        "service.first_event_ms_p90": 1000.0
        * quantile(routes["first_event"], 0.9),
        "service.paced_lag_ms_p50": quantile(traced.lags, 0.5),
        "service.paced_lag_ms_p90": quantile(traced.lags, 0.9),
        "service.broker.dropped": float(traced.dropped + dropped),
    })
    result.metrics["trace.overhead_share"] = (
        (sum(traced.walls) / len(traced.walls))
        / (sum(baseline.walls) / len(baseline.walls)) - 1.0
    )
    return result
