"""Typed point-handle registry: the delta-publication core of the data plane.

The registry interns every point key exactly once into an integer-indexed
slot.  Producers (the power-flow coupling) and consumers (IEDs, PLCs, the
HMI) resolve :class:`PointHandle` objects up front — at range compile time —
and then read/write through plain list indexing on the hot path: no string
formatting, no hashing of long hierarchical keys per tick.

Writes are *delta* writes: a value equal to the stored one is suppressed
(no generation bump, no dirty bit, no subscriber callback).  Batch producers
call :meth:`PointRegistry.write` many times and :meth:`PointRegistry.flush`
once per tick; the flush visits each dirty point exactly once, in slot
order, so subscribers fire once per changed value per tick regardless of
how many times the point was written inside the batch.

Generation counters let pull-style consumers (the IED scan cycle) skip
points that have not changed since their last sync without subscribing at
all: compare :meth:`generation` against a remembered value.

Commands (breaker operates, load steps) go through :meth:`PointRegistry.
write_command`, which writes the point and appends a :class:`PointWrite`
to an arrival-ordered log; the co-simulation tick drains it exactly once
per tick (the paper's 100 ms granularity, §III-C).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


class PointType(enum.Enum):
    """Declared slot type of a registered point."""

    ANY = "any"
    FLOAT = "float"
    BOOL = "bool"
    INT = "int"


#: Strings that parse as an explicit boolean, lower-cased.
_FALSE_STRINGS = frozenset({"", "0", "false", "off", "no", "f", "n"})
_TRUE_STRINGS = frozenset({"1", "true", "on", "yes", "t", "y"})


def parse_bool(value: Any, default: bool = False) -> bool:
    """Boolean coercion that understands string truthiness.

    ``bool("false")`` is ``True`` in python; measurement sources that
    deliver strings (XML configs, spoofed writes) must not flip breakers
    because of that.  Unrecognised strings fall back to numeric parsing,
    then to ``default``.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip().lower()
        if text in _FALSE_STRINGS:
            return False
        if text in _TRUE_STRINGS:
            return True
        try:
            return float(text) != 0.0
        except ValueError:
            return default
    if value is None:
        return default
    return bool(value)


@dataclass(frozen=True)
class PointHandle:
    """A resolved point: stable integer slot + the interned key.

    Handles are value objects — re-resolving the same key returns an equal
    handle with the same ``index`` for the lifetime of the registry.
    """

    index: int
    key: str
    ptype: PointType = PointType.ANY

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PointHandle({self.index}, {self.key!r}, {self.ptype.value})"


@dataclass(frozen=True)
class PointWrite:
    """One recorded command write: who wrote what, when."""

    time_us: int
    key: str
    value: Any
    writer: str


def _values_equal(old: Any, new: Any) -> bool:
    """Equality with NaN == NaN (a NaN measurement is not 'fresh' forever)."""
    if old is new:
        return True
    if isinstance(old, float) and isinstance(new, float):
        if math.isnan(old) and math.isnan(new):
            return True
    if isinstance(old, bool) is not isinstance(new, bool):
        return False
    try:
        return bool(old == new)
    except Exception:  # exotic value types never compare equal
        return False


class PointRegistry:
    """Interned, typed, dirty-tracked point store."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._keys: list[str] = []
        self._types: list[PointType] = []
        self._values: list[Any] = []
        self._present: list[bool] = []
        self._generations: list[int] = []
        self._dirty: list[bool] = []
        self._dirty_indices: list[int] = []
        self._subscribers: dict[int, list[Callable[[PointHandle, Any], None]]] = {}
        #: Wildcard subscribers: notified for *every* changed point,
        #: including points interned after they subscribed.  Used by the
        #: service event broker; empty (one falsy check per notify) in
        #: batch runs.
        self._global_subscribers: list[Callable[[PointHandle, Any], None]] = []
        self._handles: list[PointHandle] = []
        self._present_count = 0
        self._command_log: list[PointWrite] = []
        self._drained = 0
        #: Write-path accounting (benchmarks report these).
        self.writes = 0
        self.changed_writes = 0
        self.suppressed_writes = 0
        self.flushes = 0
        self.notifications = 0

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def resolve(
        self, key: str, ptype: PointType = PointType.ANY
    ) -> PointHandle:
        """Intern ``key`` (idempotent) and return its handle.

        The first caller to name a non-ANY type fixes the slot type; later
        resolutions get the established handle back regardless of the type
        they ask for, so interning is stable across re-resolution.
        """
        slot = self._index.get(key)
        if slot is None:
            slot = len(self._keys)
            self._index[key] = slot
            self._keys.append(key)
            self._types.append(ptype)
            self._values.append(None)
            self._present.append(False)
            self._generations.append(0)
            self._dirty.append(False)
            self._handles.append(PointHandle(slot, key, ptype))
            return self._handles[slot]
        if ptype is not PointType.ANY and self._types[slot] is PointType.ANY:
            self._types[slot] = ptype
            self._handles[slot] = PointHandle(slot, key, ptype)
        return self._handles[slot]

    def handle_for(self, key: str) -> Optional[PointHandle]:
        """Return the handle for an already-interned key, else ``None``."""
        slot = self._index.get(key)
        return None if slot is None else self._handles[slot]

    # ------------------------------------------------------------------
    # Writing (batch + immediate)
    # ------------------------------------------------------------------
    def _coerce(self, slot: int, value: Any) -> Any:
        ptype = self._types[slot]
        if ptype is PointType.ANY:
            return value
        try:
            if ptype is PointType.FLOAT:
                return float(value)
            if ptype is PointType.BOOL:
                return parse_bool(value)
            return int(value)
        except (TypeError, ValueError):
            return value  # keep the raw value rather than lose the write

    def _store(self, slot: int, value: Any) -> bool:
        """Shared write core: coerce, suppress unchanged, bump generation."""
        self.writes += 1
        value = self._coerce(slot, value)
        if self._present[slot] and _values_equal(self._values[slot], value):
            self.suppressed_writes += 1
            return False
        if not self._present[slot]:
            self._present[slot] = True
            self._present_count += 1
        self._values[slot] = value
        self._generations[slot] += 1
        self.changed_writes += 1
        return True

    def write(self, handle: PointHandle, value: Any) -> bool:
        """Store ``value``; returns True when it differs from the slot.

        Changed slots are marked dirty for the next :meth:`flush`;
        unchanged writes are suppressed entirely.
        """
        slot = handle.index
        if not self._store(slot, value):
            return False
        if not self._dirty[slot]:
            self._dirty[slot] = True
            self._dirty_indices.append(slot)
        return True

    def write_now(self, handle: PointHandle, value: Any) -> bool:
        """Write + immediate single-point notification (non-batch path).

        Does not touch the dirty set: the change is delivered here, so a
        later :meth:`flush` has nothing more to say about this point.
        """
        slot = handle.index
        if not self._store(slot, value):
            return False
        self._dirty[slot] = False  # a batched write before this is superseded
        self._notify(slot)
        return True

    def flush(self) -> int:
        """Notify subscribers of every dirty point exactly once.

        Returns the number of points flushed.  Points written again during
        the flush (by a subscriber) land in the next batch.
        """
        if not self._dirty_indices:
            return 0
        batch = self._dirty_indices
        self._dirty_indices = []
        flushed = 0
        for slot in batch:
            if not self._dirty[slot]:
                continue  # already delivered via write_now
            self._dirty[slot] = False
            flushed += 1
            self._notify(slot)
        self.flushes += 1
        return flushed

    def _notify(self, slot: int) -> None:
        callbacks = self._subscribers.get(slot)
        if not callbacks and not self._global_subscribers:
            return
        handle = self._handles[slot]
        value = self._values[slot]
        # Copy: a callback may unsubscribe itself (one-shot scenario
        # triggers) without corrupting this delivery round.
        for callback in tuple(callbacks or ()):
            self.notifications += 1
            callback(handle, value)
        for callback in tuple(self._global_subscribers):
            self.notifications += 1
            callback(handle, value)

    # ------------------------------------------------------------------
    # Command queue (IEDs/PLCs/scenarios write, the coupling tick drains)
    # ------------------------------------------------------------------
    def write_command(
        self,
        handle: PointHandle,
        value: Any,
        writer: str = "",
        time_us: int = 0,
    ) -> None:
        """Write ``value`` now and record it for the next drain."""
        self.write_now(handle, value)
        self._command_log.append(
            PointWrite(time_us, handle.key, value, writer)
        )

    def drain_commands(self) -> list[PointWrite]:
        """Commands recorded since the previous drain (arrival order)."""
        fresh = self._command_log[self._drained :]
        self._drained = len(self._command_log)
        return fresh

    @property
    def command_history(self) -> list[PointWrite]:
        """Full audit log of every command ever written (forensics)."""
        return list(self._command_log)

    @property
    def pending_dirty(self) -> int:
        """Dirty points awaiting the next flush."""
        return sum(1 for slot in self._dirty_indices if self._dirty[slot])

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(self, handle: PointHandle, default: Any = None) -> Any:
        slot = handle.index
        return self._values[slot] if self._present[slot] else default

    def get(self, key: str, default: Any = None) -> Any:
        """Read by key text without interning it (unknown → ``default``)."""
        slot = self._index.get(key)
        if slot is None or not self._present[slot]:
            return default
        return self._values[slot]

    def get_float(self, handle: PointHandle, default: float = 0.0) -> float:
        value = self.read(handle, default)
        try:
            return float(value)
        except (TypeError, ValueError):
            return default

    def get_bool(self, handle: PointHandle, default: bool = False) -> bool:
        value = self.read(handle, default)
        return parse_bool(value, default)

    def present(self, handle: PointHandle) -> bool:
        return self._present[handle.index]

    def generation(self, handle: PointHandle) -> int:
        """Monotonic per-point change counter (0 = never written)."""
        return self._generations[handle.index]

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(
        self,
        handle: PointHandle,
        callback: Callable[[PointHandle, Any], None],
    ) -> None:
        """Invoke ``callback(handle, value)`` when the point *changes*."""
        self._subscribers.setdefault(handle.index, []).append(callback)

    def unsubscribe(
        self,
        handle: PointHandle,
        callback: Callable[[PointHandle, Any], None],
    ) -> bool:
        """Remove one registration of ``callback``; True if it was found.

        Scenario triggers subscribe at arm time and must detach after
        firing so a completed phase costs nothing on later flushes.
        """
        callbacks = self._subscribers.get(handle.index)
        if not callbacks:
            return False
        try:
            callbacks.remove(callback)
        except ValueError:
            return False
        if not callbacks:
            del self._subscribers[handle.index]
        return True

    def subscribe_all(
        self, callback: Callable[[PointHandle, Any], None]
    ) -> None:
        """Invoke ``callback(handle, value)`` for *every* changed point.

        Unlike per-handle subscription this also covers points interned
        after the call, which is what a live event stream needs: a
        scenario armed mid-session may intern new keys and subscribers
        must still see them change.
        """
        self._global_subscribers.append(callback)

    def unsubscribe_all(
        self, callback: Callable[[PointHandle, Any], None]
    ) -> bool:
        """Remove one wildcard registration; ``True`` if it was found."""
        try:
            self._global_subscribers.remove(callback)
        except ValueError:
            return False
        return True

    # ------------------------------------------------------------------
    # Introspection / string-keyed views
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Interned key count (present or not)."""
        return len(self._keys)

    @property
    def present_count(self) -> int:
        return self._present_count

    def keys(self, prefix: str = "") -> list[str]:
        if not prefix:
            return sorted(
                key
                for key, slot in self._index.items()
                if self._present[slot]
            )
        return sorted(
            key
            for key, slot in self._index.items()
            if self._present[slot] and key.startswith(prefix)
        )

    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        return {key: self._values[self._index[key]] for key in self.keys(prefix)}

    def __len__(self) -> int:
        return self._present_count

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def stats(self) -> dict[str, int]:
        """Write-path accounting snapshot (benchmarks, reports)."""
        return {
            "points": self.size,
            "present": self._present_count,
            "writes": self.writes,
            "changed_writes": self.changed_writes,
            "suppressed_writes": self.suppressed_writes,
            "flushes": self.flushes,
            "notifications": self.notifications,
        }
