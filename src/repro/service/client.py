"""A small blocking client for the range service (stdlib only).

Wraps the JSON-over-HTTP protocol plus a minimal WebSocket consumer so
scripts, docs and the CI smoke test can drive a live service without any
async plumbing::

    client = ServiceClient(port=handle.port, tenant="blue-team")
    session = client.create_session(model="epic", speed=0.0)
    client.inject(session["id"], {"inject_breaker": {"ied": "SIED1"}})
    events = client.stream_events(session["id"], channels=["alarms"],
                                  max_events=5)
    report = client.report(session["id"])
"""

from __future__ import annotations

import http.client
import json
import random
import secrets
import socket
import time
from typing import Any, Optional

from repro.service import http as wire
from repro.service.session import ServiceError


class ClientError(ServiceError):
    """Non-2xx response from the service.

    Carries the typed error envelope the service returns
    (``{"error": {"code", "message", "retryable"}}``): ``status``,
    ``code``, ``retryable`` and, on 503 responses, the server's
    ``retry_after_s`` hint.
    """

    def __init__(
        self,
        status: int,
        message: str,
        *,
        code: str = "",
        retryable: bool = False,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.code = code
        self.retryable = retryable
        self.retry_after_s = retry_after_s


class BadRequestError(ClientError):
    """400 — malformed body, bad spec, bad lifecycle op."""


class UnknownSessionError(ClientError):
    """404 — no such session for this tenant (or no such route)."""


class SessionLimitError(ClientError):
    """429 — global or per-tenant session limit reached."""


class ServiceOverloadedError(ClientError):
    """503 — admission refused; honor ``retry_after_s`` and retry."""


class ServerError(ClientError):
    """5xx — the service hit an internal error."""


_ERROR_BY_CODE = {
    "bad_request": BadRequestError,
    "unknown_session": UnknownSessionError,
    "not_found": UnknownSessionError,
    "limit_reached": SessionLimitError,
    "overloaded": ServiceOverloadedError,
    "internal": ServerError,
}
_ERROR_BY_STATUS = {
    400: BadRequestError,
    404: UnknownSessionError,
    405: BadRequestError,
    429: SessionLimitError,
    500: ServerError,
    503: ServiceOverloadedError,
}

#: Transport-level failures worth retrying (the request may never have
#: reached the service — idempotency keys make the retry safe).
_TRANSPORT_ERRORS = (ConnectionError, socket.timeout, http.client.HTTPException)


def _raise_typed(
    status: int, decoded: Any, raw: bytes, retry_after_s: Optional[float]
) -> None:
    envelope = decoded.get("error") if isinstance(decoded, dict) else None
    if isinstance(envelope, dict):
        code = str(envelope.get("code", ""))
        message = str(envelope.get("message", ""))
        retryable = bool(envelope.get("retryable", False))
    else:  # pre-envelope server or plain-text body
        code = ""
        message = (
            str(envelope)
            if envelope is not None
            else raw.decode("utf-8", "replace")
        )
        retryable = status == 503
    exc_type = _ERROR_BY_CODE.get(code, _ERROR_BY_STATUS.get(status, ClientError))
    raise exc_type(
        status,
        message,
        code=code,
        retryable=retryable,
        retry_after_s=retry_after_s,
    )


class ServiceClient:
    """Blocking JSON client; one connection per request.

    Mutating requests (POST/DELETE) carry an ``Idempotency-Key`` header
    generated once per logical call, so the bounded retry loop — which
    fires on connection errors, timeouts and 503 load-shedding responses
    (honoring ``Retry-After``) — can never double-apply an action: the
    server replays its stored response instead of re-executing.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8471,
        *,
        tenant: str = "default",
        timeout_s: float = 30.0,
        retries: int = 2,
        retry_backoff_s: float = 0.2,
        retry_backoff_cap_s: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.timeout_s = timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        #: Retries performed over this client's lifetime (observability).
        self.retries_used = 0

    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        timeout_s: Optional[float] = None,
    ) -> Any:
        timeout = self.timeout_s if timeout_s is None else timeout_s
        idempotency_key = (
            secrets.token_hex(8) if method in ("POST", "DELETE") else None
        )
        delay = self.retry_backoff_s
        attempt = 0
        while True:
            try:
                return self._request_once(
                    method, path, payload, timeout, idempotency_key
                )
            except ServiceOverloadedError as exc:
                if attempt >= self.retries:
                    raise
                # Honor the server's Retry-After hint; jittered backoff is
                # the floor so a shed herd does not return in lockstep.
                wait_s = max(
                    exc.retry_after_s or 0.0,
                    delay * (0.5 + random.random()),
                )
            except _TRANSPORT_ERRORS:
                if attempt >= self.retries:
                    raise
                wait_s = delay * (0.5 + random.random())
            attempt += 1
            self.retries_used += 1
            time.sleep(wait_s)
            delay = min(delay * 2, self.retry_backoff_cap_s)

    def _request_once(
        self,
        method: str,
        path: str,
        payload: Optional[dict],
        timeout: float,
        idempotency_key: Optional[str],
    ) -> Any:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {
                "Content-Type": "application/json",
                "X-Tenant": self.tenant,
            }
            if idempotency_key is not None:
                headers["Idempotency-Key"] = idempotency_key
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            decoded = json.loads(data) if data else {}
            if response.status >= 400:
                retry_after = response.getheader("Retry-After")
                _raise_typed(
                    response.status,
                    decoded,
                    data,
                    float(retry_after) if retry_after else None,
                )
            return decoded
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def create_session(self, **body: Any) -> dict:
        """Create a session; see ``docs/service.md`` for body fields."""
        return self._request("POST", "/v1/sessions", body)

    def list_sessions(self) -> list[dict]:
        return self._request("GET", "/v1/sessions")["sessions"]

    def session(self, session_id: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session_id}")

    def close_session(self, session_id: str) -> dict:
        return self._request("DELETE", f"/v1/sessions/{session_id}")

    def pause(self, session_id: str) -> dict:
        return self._request(
            "POST", f"/v1/sessions/{session_id}/lifecycle", {"op": "pause"}
        )

    def resume(self, session_id: str) -> dict:
        return self._request(
            "POST", f"/v1/sessions/{session_id}/lifecycle", {"op": "resume"}
        )

    def set_speed(self, session_id: str, speed: float) -> dict:
        return self._request(
            "POST",
            f"/v1/sessions/{session_id}/lifecycle",
            {"op": "speed", "speed": speed},
        )

    def inject(self, session_id: str, spec: dict) -> dict:
        """Inject one ``{kind: params}`` action spec into the live range."""
        return self._request(
            "POST", f"/v1/sessions/{session_id}/actions", spec
        )

    def start_scenario(
        self,
        session_id: str,
        spec: dict,
        duration_s: Optional[float] = None,
    ) -> dict:
        body = dict(spec)
        if duration_s is not None:
            body["duration_s"] = duration_s
        return self._request(
            "POST", f"/v1/sessions/{session_id}/scenarios", body
        )

    def report(self, session_id: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session_id}/report")

    def points(self, session_id: str, prefix: str = "") -> dict:
        suffix = f"?prefix={prefix}" if prefix else ""
        return self._request(
            "GET", f"/v1/sessions/{session_id}/points{suffix}"
        )["points"]

    def stats(self, session_id: str) -> dict:
        return self._request("GET", f"/v1/sessions/{session_id}/stats")

    # ------------------------------------------------------------------
    # WebSocket streaming
    # ------------------------------------------------------------------
    def stream_events(
        self,
        session_id: str,
        channels: Optional[list[str]] = None,
        *,
        max_events: int = 10,
        timeout_s: Optional[float] = None,
    ) -> list[dict]:
        """Open the event stream, collect ``max_events`` events, close.

        Keepalive and ``stream_open`` meta events do not count toward
        ``max_events`` but are included in the returned list, so callers
        see drop accounting (``keepalive.dropped``) too.  ``timeout_s`` is
        one deadline for the whole call: the events collected by then are
        returned, however many keepalives arrived in between.
        """
        deadline_s = timeout_s if timeout_s is not None else self.timeout_s
        deadline = time.monotonic() + deadline_s
        query = f"?channels={','.join(channels)}" if channels else ""
        path = f"/v1/sessions/{session_id}/events{query}"
        sock = socket.create_connection(
            (self.host, self.port), timeout=deadline_s
        )
        try:
            key = "c2dtbC1zZXJ2aWNlLXdz"  # any 16-byte base64 token works
            sock.sendall(
                (
                    f"GET {path} HTTP/1.1\r\n"
                    f"Host: {self.host}:{self.port}\r\n"
                    f"Upgrade: websocket\r\n"
                    f"Connection: Upgrade\r\n"
                    f"Sec-WebSocket-Key: {key}\r\n"
                    f"Sec-WebSocket-Version: 13\r\n"
                    f"X-Tenant: {self.tenant}\r\n\r\n"
                ).encode("latin-1")
            )
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(4096)
                if not chunk:
                    raise ServiceError("connection closed during handshake")
                buffer += chunk
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
            if " 101 " not in status_line:
                raise ServiceError(f"websocket upgrade refused: {status_line}")
            expected = wire.websocket_accept_key(key)
            if expected.encode("latin-1") not in head:
                raise ServiceError("bad Sec-WebSocket-Accept from server")
            events: list[dict] = []
            counted = 0
            while counted < max_events:
                frames, buffer = wire.decode_frames(buffer)
                for opcode, payload in frames:
                    if opcode == wire.WS_OP_CLOSE:
                        return events
                    if opcode != wire.WS_OP_TEXT:
                        continue
                    event = json.loads(payload)
                    events.append(event)
                    if event.get("event") not in ("keepalive", "stream_open"):
                        counted += 1
                        if counted >= max_events:
                            break
                if counted >= max_events:
                    break
                remaining_s = deadline - time.monotonic()
                if remaining_s <= 0:
                    return events
                sock.settimeout(remaining_s)
                try:
                    chunk = sock.recv(4096)
                except socket.timeout:
                    return events
                if not chunk:
                    return events
                buffer += chunk
            sock.sendall(wire.encode_close(mask=True))
            return events
        finally:
            sock.close()
