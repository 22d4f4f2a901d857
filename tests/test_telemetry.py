"""The telemetry spine: :class:`Stopwatch` spans and typed :class:`Snapshot`
windows."""

from __future__ import annotations

import time

import pytest

from repro.telemetry import Snapshot, Stopwatch

KINDS = {
    "sends": Snapshot.COUNTER,
    "ratio": Snapshot.GAUGE,
    "flag": Snapshot.GAUGE,
    "busy_s": Snapshot.WALL,
}


def test_stopwatch_accumulates_spans_and_closes_on_raise():
    clock = Stopwatch()
    assert clock.seconds == 0.0
    with clock:
        time.sleep(0.001)
    first = clock.seconds
    assert first >= 0.001
    with pytest.raises(ValueError):
        with clock:
            time.sleep(0.001)
            raise ValueError("early exit")
    second = clock.seconds
    assert second >= first + 0.001
    clock.start()  # a span that crosses methods
    time.sleep(0.001)
    span = clock.stop()
    assert span >= 0.001
    assert clock.seconds == pytest.approx(second + span)


def test_snapshot_diff_subtracts_counters_and_keeps_gauges():
    before = Snapshot({"sends": 10, "ratio": 0.5, "flag": 1.0,
                       "busy_s": 0.25}, KINDS)
    after = Snapshot({"sends": 40, "ratio": 1.0, "flag": 1.0,
                      "busy_s": 0.75}, KINDS)
    window = after.diff(before)
    assert window == {"sends": 30, "ratio": 1.0, "flag": 1.0, "busy_s": 0.5}
    assert window.deterministic() == {"sends": 30, "ratio": 1.0, "flag": 1.0}
    # A plain mapping works as ``before``; a missing counter counts from 0.
    assert after.diff({"ratio": 9.0})["sends"] == 40
    assert after.diff({"ratio": 9.0})["ratio"] == 1.0


def test_snapshot_rejects_undeclared_names():
    with pytest.raises(KeyError, match="undeclared_s"):
        Snapshot({"sends": 1, "undeclared_s": 0.1}, KINDS)
