"""``campaign_mix``: a serial, closed-loop sweep of the scenario catalog.

Every catalog family on EPIC and on the 5-substation scale-out model
(21 specs at ``max_sites=4``) runs through the public
:func:`repro.scenario.run_one` with ``derive_seed(root, name)``, one
scenario in flight.  Each verdict pays compile, settle, the scenario
engine and attack actions; MITM specs put interceptor hosts on the path,
so netem leaves its pruned fast path.

Passes run whole and in pairs on the same seed root; the two results of
a pair must agree field for field (wall clocks aside).
"""

from __future__ import annotations

import gc
from contextlib import nullcontext

from perfbench.common import (
    CATALOG_MAX_SITES,
    Run,
    epic_dir,
    perf,
    scaleout_dir,
)
from perfbench.layers import (
    COUNTER_KEYS,
    add_counters,
    exact_counts,
    layer_metrics,
    no_service,
)
from perfbench.tracer import ROOT, Tracer

SETTLE_S = 2.0
DEFAULT_DURATION_S = 10.0
SETUP_BUILDS = 9
#: Two passes give 42 verdicts per run, so the p75 has ten above it.
MIN_PASSES = 2


def _setup(model_dirs: list[tuple[str, str]]):
    """Parse every model set and generate its catalog (timed)."""
    from repro.scenario.catalog import generate_catalog
    from repro.sgml import SgmlModelSet

    start = perf()
    members = []
    for label, path in model_dirs:
        model = SgmlModelSet.from_directory(path)
        for entry in generate_catalog(model, max_sites=CATALOG_MAX_SITES):
            members.append((f"{label}/{entry.name}", model, entry.spec))
    return members, perf() - start


def _sim_seconds(spec: dict) -> float:
    return SETTLE_S + float(spec.get("duration_s") or DEFAULT_DURATION_S)


def _pass(run: Run, members, root: int, tracer=None):
    """One sweep over every member; returns (results, walls, sim s)."""
    from repro.scenario.sharding import derive_seed, run_one

    span = tracer.span if tracer is not None else nullcontext
    results, walls, sim_s = [], [], 0.0
    for name, model, spec in members:
        seed = derive_seed(root, name)
        with span():
            start = perf()
            result = run_one(model, spec, seed, SETTLE_S, DEFAULT_DURATION_S,
                             name=name)
            walls.append(perf() - start)
        sim_s += _sim_seconds(spec)
        run.attempted += 1
        if not result.get("passed"):
            run.op_failed(
                f"{name} (seed {seed}): verdict failed "
                f"{result.get('error', '')}".rstrip()
            )
        results.append(result)
    return results, walls, sim_s


def _compare(run: Run, first: list[dict], second: list[dict]) -> None:
    from repro.scenario.sharding import differential

    problems = differential(first, second)
    if problems:
        run.fail(f"same-seed passes differ: {problems[:5]}")


def _counters(results: list[dict]) -> dict:
    total: dict = {}
    for result in results:
        delta = result.get("data_plane_delta", {})
        add_counters(total, {key: delta.get(key, 0) for key in COUNTER_KEYS})
    return total


def run(workload: str, seed: int, seconds: int, trace: bool, work) -> Run:
    model_dirs = [
        ("epic", epic_dir(work)),
        ("scaleout5", scaleout_dir(work, 5, 104)),
    ]
    result = Run()
    setups = []
    for _ in range(SETUP_BUILDS):
        members, elapsed = _setup(model_dirs)
        setups.append(elapsed)
    gc.collect()

    def root(index: int) -> int:
        return seed * 1000 + index // 2

    if not trace:
        walls: list[float] = []
        sim_s = 0.0
        previous = None
        index = 0
        start = perf()
        while index < MIN_PASSES or perf() - start < seconds:
            results, pass_walls, pass_sim = _pass(result, members, root(index))
            walls += pass_walls
            sim_s += pass_sim
            if index % 2:
                _compare(result, previous, results)
            previous = results
            index += 1
        result.end_to_end(walls, sim_s, setups)
        return result

    # Traced run: a same-root pair of untraced passes (the second, past
    # first-use costs, is the baseline), then a same-root pair of traced
    # passes whose exact counts must match.
    first, _, _ = _pass(result, members, root(0))
    second, baseline, _ = _pass(result, members, root(0))
    _compare(result, first, second)
    tracer = Tracer().install()
    try:
        start_all = tracer.snapshot()
        members, _ = _setup(model_dirs)
        repeats = []
        for _ in range(2):
            gc.collect()
            mark = tracer.snapshot()
            results, walls, sim_s = _pass(result, members, root(0), tracer)
            repeats.append(
                (tracer.snapshot().since(mark), results, walls, sim_s)
            )
        whole = tracer.snapshot().since(start_all)
    finally:
        tracer.uninstall()
    _compare(result, repeats[0][1], repeats[1][1])
    counts = [exact_counts(w, _counters(r)) for w, r, _, _ in repeats]
    if counts[0] != counts[1]:
        result.fail(f"exact counts differ between repeats: {counts}")
    window, results, walls, sim_s = repeats[1]
    traced = repeats[0][2] + walls
    result.metrics.update(
        layer_metrics(
            window,
            whole,
            total_s=window.incl_s[ROOT],
            counters=_counters(results),
            counter_sim_s=sim_s,
            verdicts=len(results),
            verdicts_passed=sum(1 for r in results if r.get("passed")),
        )
    )
    result.metrics.update(no_service())
    result.metrics["trace.overhead_share"] = (
        (sum(traced) / len(traced)) / (sum(baseline) / len(baseline)) - 1.0
    )
    return result
