"""``grid20_steady`` and ``grid5_storm``: one range, 1-simulated-second slices.

``grid20_steady`` is the 20-substation / 416-IED scale-out range in
steady state: the solver skips and IEDs never scan, so the slice cost is
protocol heartbeats (encode, netem send, decode).  ``grid5_storm`` is the
paper's 5-substation / 104-IED range with tie breaker ``CB_S5_TIEIN``
toggled on every power-flow tick, so every tick re-solves, IEDs scan and
every GOOSE data set changes state.

Set-up (parse + compile + start + one warm-up second) is repeated and
the median reported; every build must reach the same kernel digest and
data-plane counters after warm-up.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext

from perfbench.common import Run, perf, scaleout_dir
from perfbench.layers import (
    COUNTER_KEYS,
    counter_delta,
    exact_counts,
    layer_metrics,
    no_service,
)
from perfbench.tracer import ROOT, Tracer

SHAPES = {
    "grid20_steady": {"substations": 20, "ieds": 416, "storm": False,
                      "builds": 5, "trace_slices": 30},
    "grid5_storm": {"substations": 5, "ieds": 104, "storm": True,
                    "builds": 9, "trace_slices": 60},
}

STORM_BREAKER = "CB_S5_TIEIN"
#: Buses the storm breaker de-energises while it is open (they read 0).
STORM_ISLAND = "meas/S5/"

#: Per-unit voltage band every energised bus must stay inside.
VM_PU_BAND = (0.9, 1.1)


class _Storm:
    """Toggles :data:`STORM_BREAKER` every power-flow tick."""

    def __init__(self, cyber_range) -> None:
        from repro.kernel import MS

        self.cyber_range = cyber_range
        self.closed = True
        interval = int(cyber_range.sim_interval_ms * MS)
        self.task = cyber_range.simulator.every(
            interval, self._toggle, label="event-storm"
        )

    def _toggle(self) -> None:
        self.closed = not self.closed
        self.cyber_range.power_net.set_switch(STORM_BREAKER, self.closed)


def _build(model_dir: str, seed: int, storm: bool):
    from repro.sgml import SgmlModelSet, SgmlProcessor

    start = perf()
    model = SgmlModelSet.from_directory(model_dir)
    cyber_range = SgmlProcessor(model, seed=seed).compile()
    cyber_range.start()
    toggler = _Storm(cyber_range) if storm else None
    cyber_range.run_for(1.0)
    return cyber_range, toggler, perf() - start


def _counters(cyber_range) -> dict:
    stats = cyber_range.data_plane_stats()
    return {key: stats[key] for key in COUNTER_KEYS}


def _check_outputs(run: Run, cyber_range, toggler, sim_s: int) -> None:
    digest = cyber_range.simulator.digest()
    if digest["now"] != sim_s * 1_000_000:
        run.fail(f"clock at {digest['now']} us after {sim_s} simulated s")
    trips = sum(len(ied.engine.trips) for ied in cyber_range.ieds.values())
    if trips:
        run.fail(f"{trips} protection trips in a range with no fault")
    low, high = VM_PU_BAND
    for key in cyber_range.pointdb.keys("meas/"):
        if key.endswith("/vm_pu"):
            value = cyber_range.measurement(key)
            if value == 0.0 and toggler and key.startswith(STORM_ISLAND):
                continue
            if not low <= value <= high:
                run.fail(f"{key} = {value:.4f} outside {VM_PU_BAND}")
    if toggler is not None:
        switch = cyber_range.power_net.find_switch(STORM_BREAKER)
        if switch.closed != toggler.closed:
            run.fail(f"{STORM_BREAKER} state diverged from the toggler")


def _slices(cyber_range, count=None, seconds=None, tracer=None) -> list[float]:
    """Wall seconds of consecutive 1-simulated-second slices: ``count`` of
    them, or as many as fit in ``seconds``."""
    span = tracer.span if tracer is not None else nullcontext
    times: list[float] = []
    deadline = perf() + seconds if seconds is not None else None
    while (len(times) < count) if count is not None else (perf() < deadline):
        with span():
            start = perf()
            cyber_range.run_for(1.0)
            times.append(perf() - start)
    return times


def run(workload: str, seed: int, seconds: int, trace: bool, work) -> Run:
    shape = SHAPES[workload]
    storm = shape["storm"]
    model_dir = scaleout_dir(work, shape["substations"], shape["ieds"])
    result = Run()

    setups: list[float] = []
    settled: list[tuple] = []
    cyber_range = toggler = None
    for _ in range(shape["builds"]):
        if cyber_range is not None:
            cyber_range.close()
            cyber_range = toggler = None
            gc.collect()
        cyber_range, toggler, elapsed = _build(model_dir, seed, storm)
        setups.append(elapsed)
        settled.append(
            (cyber_range.simulator.digest(), _counters(cyber_range))
        )
    if any(state != settled[0] for state in settled):
        result.fail(f"builds disagree after warm-up: {settled}")
    gc.collect()

    if not trace:
        times = _slices(cyber_range, seconds=seconds)
        result.attempted = len(times)
        _check_outputs(result, cyber_range, toggler, 1 + len(times))
        result.end_to_end(times, float(len(times)), setups)
        cyber_range.close()
        return result

    # Traced run: an untraced baseline on the last build, then two traced
    # builds whose exact counts must match.
    count = shape["trace_slices"]
    baseline = _slices(cyber_range, count=count)
    _check_outputs(result, cyber_range, toggler, 1 + count)
    cyber_range.close()
    cyber_range = toggler = None
    gc.collect()
    tracer = Tracer().install()
    try:
        start_all = tracer.snapshot()
        repeats = []
        for _ in range(2):
            cyber_range, toggler, _ = _build(model_dir, seed, storm)
            gc.collect()
            before = _counters(cyber_range)
            mark = tracer.snapshot()
            times = _slices(cyber_range, count=count, tracer=tracer)
            window = tracer.snapshot().since(mark)
            counters = counter_delta(_counters(cyber_range), before)
            _check_outputs(result, cyber_range, toggler, 1 + count)
            cyber_range.close()
            cyber_range = toggler = None
            gc.collect()
            repeats.append((window, counters, times))
        whole = tracer.snapshot().since(start_all)
    finally:
        tracer.uninstall()
    first, second = (exact_counts(w, c) for w, c, _ in repeats)
    if first != second:
        result.fail(f"exact counts differ between repeats: {first} vs {second}")
    result.attempted = count * 3
    window, counters, times = repeats[1]
    traced = [t for _, _, ts in repeats for t in ts]
    result.metrics.update(
        layer_metrics(
            window,
            whole,
            total_s=window.incl_s[ROOT],
            counters=counters,
            counter_sim_s=float(count),
        )
    )
    result.metrics.update(no_service())
    result.metrics["trace.overhead_share"] = (
        (sum(traced) / len(traced)) / (sum(baseline) / len(baseline)) - 1.0
    )
    return result
