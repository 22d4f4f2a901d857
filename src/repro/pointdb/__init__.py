"""Point database — the cyber↔physical coupling cache.

The paper's cyber range connects virtual IEDs to the power-system simulator
"through an open-sourced MySQL database.  This works as a 'cache' storing a
set of key-value pairs, for reading power grid measurements (voltages,
power flow, etc.) and executing control (e.g., opening/closing circuit
breakers)."  :class:`~repro.pointdb.registry.PointRegistry` reproduces that
contract in-process.

Key naming convention (produced by the SSD parser and consumed via the
IED Config XML mapping):

* ``meas/<bus>/vm_pu``, ``meas/<bus>/va_deg``        — bus voltages
* ``meas/<line>/p_mw|q_mvar|i_ka|loading``           — branch flows
* ``status/<breaker>/closed``                        — breaker positions
* ``cmd/<breaker>/close``                            — breaker commands
  (written by IEDs, drained by the co-simulation loop each tick)

Data-plane architecture
-----------------------

* **Handles** — every key is interned **once** into an integer-indexed
  slot with a declared :class:`~repro.pointdb.registry.PointType`
  (float/bool/int/any), a per-point dirty bit and a monotonic generation
  counter.  Producers and consumers resolve
  :class:`~repro.pointdb.registry.PointHandle` objects at range compile
  time and then touch plain list slots on the hot path — no f-string key
  formatting, no string hashing per tick.

* **Delta publication** — the power-flow coupling writes each tick's
  snapshot through handles (:meth:`PointRegistry.write` suppresses
  unchanged values entirely) and performs **one** dirty-set
  :meth:`PointRegistry.flush` per tick.  Handle subscribers therefore fire
  exactly once per changed value per tick; a steady-state grid generates
  ~zero data-plane events, which is what lets idle substations cost ~zero
  scan work.

* **Pull-side skipping** — consumers that sync on their own schedule (the
  IED scan cycle) compare :meth:`PointRegistry.generation` against a
  remembered value instead of subscribing, skipping unchanged points.

* **Commands** — :meth:`PointRegistry.write_command` writes through a
  handle and appends a :class:`PointWrite` to the command log, which the
  co-simulation tick drains once per tick.

* **Text keys** — a key that arrives as text (a scenario condition, the
  CLI) is read with :meth:`PointRegistry.get`, which never interns it.
"""

from repro.pointdb.registry import (
    PointHandle,
    PointRegistry,
    PointType,
    PointWrite,
    parse_bool,
)

__all__ = [
    "PointHandle",
    "PointRegistry",
    "PointType",
    "PointWrite",
    "parse_bool",
]
