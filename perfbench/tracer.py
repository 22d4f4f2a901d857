"""Outside-in span tracer: times calls into each layer's entry points.

:meth:`Tracer.install` replaces module functions and class methods of
``repro`` with wrappers that record one span per call; nothing under
``src/`` is edited.  A span's *self time* is its duration minus the
durations of the spans it directly encloses on the same thread, so the
self times of one thread never overlap and add up to the wall time its
root spans cover.

Span stacks are kept per thread because ``serve_sessions`` steps ranges
on the service's event-loop thread while the client runs on the main
thread.

Install before compiling the ranges to be traced: devices bind some
callbacks (scan tasks, frame handlers) when they are built, and a bound
method captured before :meth:`Tracer.install` keeps calling the
original.

Where a protocol function is memoised at import (``decode_goose``,
``decode_sv`` and ``rgoose._decode_sv`` wrap ``from_bytes`` objects
captured at import), the tracer wraps the ``encode_value`` /
``decode_value`` names those functions look up at call time in
``goose``, ``sv``, ``rgoose`` and ``mms`` — not the classes' methods,
which the memos never see, and not the recursive ``codec.encode_value``,
whose inner calls would each count.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable, Optional

#: Span name → entry points (``module``, ``attribute path``).  Names
#: follow the layer packages; ``kernel.run`` is the run loop.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "kernel.run": (
        ("repro.kernel.simulator", "Simulator.run_until"),
        ("repro.kernel.simulator", "Simulator.step_until"),
    ),
    "iec61850.encode": (
        ("repro.iec61850.goose", "encode_value"),
        ("repro.iec61850.sv", "encode_value"),
        ("repro.iec61850.rgoose", "encode_value"),
        ("repro.iec61850.mms", "encode_value"),
    ),
    "iec61850.decode": (
        ("repro.iec61850.goose", "decode_value"),
        ("repro.iec61850.sv", "decode_value"),
        ("repro.iec61850.rgoose", "decode_value"),
        ("repro.iec61850.mms", "decode_value"),
    ),
    "iec61850.publish": (
        ("repro.iec61850.goose", "GoosePublisher._publish_now"),
        ("repro.iec61850.rgoose", "RGoosePublisher._publish_now"),
        ("repro.iec61850.sv", "SvPublisher._publish"),
        ("repro.iec61850.rgoose", "RSvPublisher._publish"),
    ),
    "iec61850.subscribe": (
        ("repro.iec61850.goose", "GooseSubscriber._on_frame"),
        ("repro.iec61850.sv", "SvSubscriber._on_frame"),
        ("repro.iec61850.rgoose", "RGooseSubscriber._on_payload"),
        ("repro.iec61850.rgoose", "RSvSubscriber._on_payload"),
    ),
    "iec61850.mms": (
        ("repro.iec61850.mms", "MmsServer._on_data"),
        ("repro.iec61850.mms", "MmsClient._on_data"),
        ("repro.iec61850.mms", "MmsClient.request"),
    ),
    "netem.forward": (("repro.netem.forwarding", "ForwardingPlane.send"),),
    "netem.deliver": (("repro.netem.forwarding", "ForwardingPlane._flush"),),
    "powersim.solve": (("repro.powersim.solver", "SolverSession.solve"),),
    "range.tick": (("repro.range.cosim", "PowerCoupling.tick"),),
    "range.start": (("repro.range.range", "CyberRange.start"),),
    "ied.scan": (("repro.ied.device", "VirtualIed.scan"),),
    "plc.scan": (("repro.plc.runtime", "VirtualPlc.scan"),),
    "scada.poll": (("repro.scada.hmi", "ScadaHmi._poll_source"),),
    "scl.parse": (("repro.sgml.modelset", "SgmlModelSet.from_directory"),),
    "sgml.compile": (("repro.sgml.processor", "SgmlProcessor.compile"),),
    "scenario.run_scenario": (
        ("repro.range.range", "CyberRange.run_scenario"),
        ("repro.scenario.engine", "ScenarioRun.start"),
        ("repro.scenario.engine", "ScenarioRun.finish"),
        ("repro.scenario.engine", "ScenarioRun._execute_phase"),
        ("repro.scenario.actions", "Outcome.evaluate"),
    ),
    "attacks.actions": (),  # every Action subclass's execute; see install
    "service.advance": (("repro.service.session", "RangeSession.advance"),),
}

#: Spans whose individual durations are kept (for medians/percentiles).
KEEP_DURATIONS = ("powersim.solve", "scl.parse", "sgml.compile", "range.start")

#: The benchmark's own root span around one measured operation.
ROOT = "op"

perf = time.perf_counter


class _ThreadState:
    """One thread's span stack and accumulators (written by that thread
    only; other threads just read numbers out of it)."""

    def __init__(self, names: list[str]) -> None:
        self.stack: list[list[float]] = []
        #: name → [calls, self seconds, inclusive seconds]
        self.acc: dict[str, list] = {name: [0, 0.0, 0.0] for name in names}
        self.durations: dict[str, list[float]] = {
            name: [] for name in KEEP_DURATIONS
        }
        #: ``SgmlProcessor`` stage timings (ms) per compile, per stage.
        self.stages: dict[str, list[float]] = {}
        self.kernel_depth = 0
        self.kernel_events = 0
        self.kernel_sim_us = 0


class Snapshot:
    """Totals over every thread at one instant; subtract two for a window."""

    def __init__(self, tracer: "Tracer") -> None:
        with tracer._lock:
            states = list(tracer._states)
        names = tracer.names
        self.calls = {name: 0 for name in names}
        self.self_s = {name: 0.0 for name in names}
        self.incl_s = {name: 0.0 for name in names}
        self.durations: dict[str, list[float]] = {n: [] for n in KEEP_DURATIONS}
        self.stages: dict[str, list[float]] = {}
        self.kernel_events = 0
        self.kernel_sim_us = 0
        for state in states:
            for name in names:
                calls, self_s, incl_s = state.acc[name]
                self.calls[name] += calls
                self.self_s[name] += self_s
                self.incl_s[name] += incl_s
            for name in KEEP_DURATIONS:
                self.durations[name].extend(state.durations[name])
            for stage, values in list(state.stages.items()):
                self.stages.setdefault(stage, []).extend(values)
            self.kernel_events += state.kernel_events
            self.kernel_sim_us += state.kernel_sim_us
        self._marks = {n: len(v) for n, v in self.durations.items()}
        self._stage_marks = {n: len(v) for n, v in self.stages.items()}

    def since(self, earlier: "Snapshot") -> "Snapshot":
        """This snapshot minus ``earlier`` (durations: the new tail).

        Duration lists are concatenated per thread, so a tail slice is
        exact when one thread records them (true for every workload: all
        compiles of a window run on one thread).
        """
        window = object.__new__(Snapshot)
        window.calls = {n: v - earlier.calls[n] for n, v in self.calls.items()}
        window.self_s = {n: v - earlier.self_s[n] for n, v in self.self_s.items()}
        window.incl_s = {n: v - earlier.incl_s[n] for n, v in self.incl_s.items()}
        window.durations = {
            n: v[earlier._marks.get(n, 0):] for n, v in self.durations.items()
        }
        window.stages = {
            n: v[earlier._stage_marks.get(n, 0):] for n, v in self.stages.items()
        }
        window.kernel_events = self.kernel_events - earlier.kernel_events
        window.kernel_sim_us = self.kernel_sim_us - earlier.kernel_sim_us
        window._marks = {}
        window._stage_marks = {}
        return window


class Tracer:
    """Patches the :data:`SPANS` entry points; :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.names = [ROOT, *SPANS]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(self.names)
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self) -> tuple[_ThreadState, list[float]]:
        state = self._state()
        frame = [0.0]
        state.stack.append(frame)
        return state, frame

    @staticmethod
    def _exit(state: _ThreadState, frame: list[float], name: str,
              elapsed: float) -> None:
        stack = state.stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
        acc = state.acc[name]
        acc[0] += 1
        acc[1] += elapsed - frame[0]
        acc[2] += elapsed
        durations = state.durations.get(name)
        if durations is not None:
            durations.append(elapsed)

    def span(self, name: str = ROOT) -> "_Span":
        """Context manager recording a benchmark-side span (the root)."""
        return _Span(self, name)

    def snapshot(self) -> Snapshot:
        return Snapshot(self)

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn: Callable,
              on_return: Optional[Callable] = None) -> Callable:
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            state, frame = enter()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(state, frame, name, perf() - start)
            if on_return is not None:
                on_return(state, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_kernel(self, fn: Callable) -> Callable:
        """``kernel.run``: also counts events and simulated time, once
        per outermost run-loop call."""
        enter, leave = self._enter, self._exit

        def traced(simulator, *args, **kwargs):
            state, frame = enter()
            outer = state.kernel_depth == 0
            state.kernel_depth += 1
            events, now = simulator.processed, simulator.now
            start = perf()
            try:
                return fn(simulator, *args, **kwargs)
            finally:
                leave(state, frame, "kernel.run", perf() - start)
                state.kernel_depth -= 1
                if outer:
                    state.kernel_events += simulator.processed - events
                    state.kernel_sim_us += simulator.now - now

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    @staticmethod
    def _record_stages(state: _ThreadState, args: tuple) -> None:
        processor = args[0]
        for stage, ms in processor.artifacts.stage_timings_ms.items():
            state.stages.setdefault(stage, []).append(ms)

    def _patch(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(name, original.__func__))
        elif name == "kernel.run":
            wrapped = self._wrap_kernel(original)
        elif name == "sgml.compile":
            wrapped = self._wrap(name, original, self._record_stages)
        else:
            wrapped = self._wrap(name, original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`SPANS` (idempotent per tracer)."""
        if self._patches:
            return self
        for name, points in SPANS.items():
            for module_name, path in points:
                owner: Any = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                self._patch(owner, attr, name)
        actions = importlib.import_module("repro.scenario.actions")
        for cls in _subclasses(actions.Action):
            if "execute" in cls.__dict__:
                self._patch(cls, "execute", "attacks.actions")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._state, self._frame = self._tracer._enter()
        self._start = perf()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._exit(
            self._state, self._frame, self._name, perf() - self._start
        )


def _subclasses(cls: type) -> list[type]:
    """``cls`` and every subclass, depth first, each once."""
    found: list[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in found:
            continue
        found.append(current)
        pending.extend(current.__subclasses__())
    return found
