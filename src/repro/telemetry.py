"""Telemetry spine: one wall-clock span timer and one typed stats snapshot.

:class:`Stopwatch` is the only wall-clock read for accounting under
``repro``; the determinism linter allowlists exactly this module for
``det-wallclock``.  :class:`Snapshot` kinds are declared by the producer
(for the data plane, :data:`repro.range.range.DATA_PLANE_KINDS`), never
inferred from a name.
"""

from __future__ import annotations

from collections.abc import Mapping
from time import perf_counter


class Stopwatch:
    """Accumulates the wall seconds of every span it times.

    ``with clock:`` times one block, closing the span on early returns
    and exceptions too; :meth:`start` / :meth:`stop` time a span that
    crosses methods.  Spans on one stopwatch do not nest.
    """

    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._started = perf_counter()

    def stop(self) -> float:
        """Close the open span; returns its length in seconds."""
        elapsed = perf_counter() - self._started
        self.seconds += elapsed
        return elapsed

    def __enter__(self) -> "Stopwatch":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds += perf_counter() - self._started


class Snapshot(dict):
    """A flat ``name -> number`` dict with a declared kind per name.

    A *counter* is a cumulative count, a *gauge* a level, ratio or flag,
    and *wall* a cumulative wall-clock accumulator.
    """

    COUNTER = "counter"
    GAUGE = "gauge"
    WALL = "wall"

    __slots__ = ("kinds",)

    def __init__(
        self, values: Mapping[str, float], kinds: Mapping[str, str]
    ) -> None:
        undeclared = sorted(name for name in values if name not in kinds)
        if undeclared:
            raise KeyError(f"names without a declared kind: {undeclared}")
        super().__init__(values)
        self.kinds = kinds

    def diff(self, before: Mapping[str, float]) -> "Snapshot":
        """The window from ``before`` to this snapshot: counters and wall
        subtract (a name missing from ``before`` counts from 0), gauges
        keep this snapshot's value."""
        kinds = self.kinds
        return Snapshot(
            {
                name: value if kinds[name] == self.GAUGE
                else value - before.get(name, 0)
                for name, value in self.items()
            },
            kinds,
        )

    def deterministic(self) -> "Snapshot":
        """This snapshot without its wall entries — the only ones that may
        differ between two runs of the same seed."""
        kinds = self.kinds
        return Snapshot(
            {
                name: value
                for name, value in self.items()
                if kinds[name] != self.WALL
            },
            kinds,
        )
