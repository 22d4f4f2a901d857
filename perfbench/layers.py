"""Per-layer metrics from a traced window plus data-plane counters.

Every workload reports the same names; a layer the workload does not
exercise reads 0 (no calls, no share).  Shares are self time divided by
the window's wall time, so on one thread the shares plus
``kernel.residual_share`` add up to 1.
"""

from __future__ import annotations

from perfbench.common import median, ratio
from perfbench.tracer import ROOT, Snapshot

#: ``CyberRange.data_plane_stats`` keys summed over the measured window.
COUNTER_KEYS = (
    "changed_writes",
    "suppressed_writes",
    "ied_scans",
    "ied_wakes",
    "solves",
    "solve_skipped",
    "nr_iterations",
    "netem_sends",
    "netem_deliveries",
    "netem_mcast_pruned_sends",
    "netem_mcast_flooded_sends",
    "netem_cache_hits",
    "netem_path_compiles",
)

#: ``SgmlProcessor`` stages, in toolchain order (``stage_timings_ms``).
STAGES = (
    "ssd_merger",
    "scd_merger",
    "ssd_parser",
    "network_plan",
    "network_launch",
    "multicast_plan",
    "ied_builder",
    "plc_builder",
    "scada_config",
)

#: Spans reported as ``<span>.self_share``.
SHARED_SPANS = (
    "iec61850.encode",
    "iec61850.decode",
    "iec61850.publish",
    "iec61850.subscribe",
    "iec61850.mms",
    "netem.forward",
    "netem.deliver",
    "powersim.solve",
    "range.tick",
    "ied.scan",
    "plc.scan",
    "scada.poll",
    "scenario.run_scenario",
    "service.advance",
)


def counter_delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in COUNTER_KEYS}


def add_counters(total: dict, delta: dict) -> None:
    for key in COUNTER_KEYS:
        total[key] = total.get(key, 0) + delta[key]


def exact_counts(window: Snapshot, counters: dict) -> dict:
    """The deterministic counts a repeat on the same seed must match."""
    counts = {key: counters.get(key, 0) for key in COUNTER_KEYS}
    counts["kernel_events"] = window.kernel_events
    for span in ("iec61850.encode", "iec61850.decode", "powersim.solve",
                 "ied.scan", "plc.scan"):
        counts[f"{span}.calls"] = window.calls[span]
    return counts


def layer_metrics(
    window: Snapshot,
    whole: Snapshot,
    *,
    total_s: float,
    counters: dict,
    counter_sim_s: float,
    verdicts: int = 0,
    verdicts_passed: int = 0,
) -> dict[str, float]:
    """Per-layer values for one traced window.

    ``whole`` covers the entire traced part of the run (set-up too) and
    supplies the per-call durations of parse, compile, start and solve;
    ``counters`` are data-plane deltas covering ``counter_sim_s``
    simulated seconds.
    """
    sim_s = window.kernel_sim_us / 1e6
    c = {key: counters.get(key, 0) for key in COUNTER_KEYS}
    metrics: dict[str, float] = {
        "kernel.events_per_sim_s": ratio(window.kernel_events, sim_s),
        "kernel.residual_share": ratio(
            window.self_s[ROOT] + window.self_s["kernel.run"], total_s
        ),
        "iec61850.encode.calls_per_sim_s": ratio(
            window.calls["iec61850.encode"], sim_s
        ),
        "iec61850.decode.calls_per_sim_s": ratio(
            window.calls["iec61850.decode"], sim_s
        ),
        "netem.sends_per_sim_s": ratio(c["netem_sends"], counter_sim_s),
        "netem.deliveries_per_sim_s": ratio(
            c["netem_deliveries"], counter_sim_s
        ),
        "netem.prune_ratio": ratio(
            c["netem_mcast_pruned_sends"],
            c["netem_mcast_pruned_sends"] + c["netem_mcast_flooded_sends"],
        ),
        "netem.path_cache_hit_ratio": ratio(
            c["netem_cache_hits"],
            c["netem_cache_hits"] + c["netem_path_compiles"],
        ),
        "powersim.solve.calls_per_sim_s": ratio(
            window.calls["powersim.solve"], sim_s
        ),
        "powersim.solve.ms_p50": 1000.0
        * median(whole.durations["powersim.solve"]),
        "powersim.skip_ratio": ratio(
            c["solve_skipped"], c["solves"] + c["solve_skipped"]
        ),
        "powersim.nr_iterations_per_solve": ratio(
            c["nr_iterations"], c["solves"]
        ),
        "pointdb.changed_writes_per_sim_s": ratio(
            c["changed_writes"], counter_sim_s
        ),
        "pointdb.suppression_ratio": ratio(
            c["suppressed_writes"],
            c["suppressed_writes"] + c["changed_writes"],
        ),
        "ied.scans_per_sim_s": ratio(c["ied_scans"], counter_sim_s),
        "ied.scan_per_wake_ratio": ratio(c["ied_scans"], c["ied_wakes"]),
        "range.start_s": median(whole.durations["range.start"]),
        "scl.parse_s": median(whole.durations["scl.parse"]),
        "sgml.compile_s": median(whole.durations["sgml.compile"]),
        "scenario.compile_share_of_verdict": ratio(
            window.incl_s["sgml.compile"], total_s
        ) if verdicts else 0.0,
        "scenario.verdicts_passed": float(verdicts_passed),
        "scenario.kernel_events_per_verdict": ratio(
            window.kernel_events, verdicts
        ),
        "attacks.actions.self_s": ratio(
            window.self_s["attacks.actions"], verdicts
        ),
    }
    for span in SHARED_SPANS:
        metrics[f"{span}.self_share"] = ratio(window.self_s[span], total_s)
    for stage in STAGES:
        metrics[f"sgml.stage.{stage}_ms"] = median(whole.stages.get(stage, ()))
    return metrics


#: Service metrics, 0 on workloads without a service.
SERVICE_METRICS = (
    "service.create_ms_p50",
    "service.stream_open_ms_p50",
    "service.scenario_ms_p50",
    "service.close_ms_p50",
    "service.first_event_ms_p50",
    "service.first_event_ms_p90",
    "service.paced_lag_ms_p50",
    "service.paced_lag_ms_p90",
    "service.broker.dropped",
)


def no_service() -> dict[str, float]:
    return {name: 0.0 for name in SERVICE_METRICS}
