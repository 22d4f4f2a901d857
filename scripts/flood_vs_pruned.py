#!/usr/bin/env python3
"""Flood-vs-pruned smoke comparison on the EPIC range (CI gate).

Compiles the EPIC model twice, runs the same settled window with
multicast pruning disabled (the flood oracle) and enabled, and asserts
the pruned run's ``netem_deliveries`` drop by at least the required
factor (default 5x) with an identical send count.  This is the cheap CI
proof that subscription-aware pruning is actually wired end to end —
compiler group table → switches → cut-through plane — not silently
disabled by a regression.

Usage::

    PYTHONPATH=src python scripts/flood_vs_pruned.py [--min-drop 5.0]
                                                     [--seconds 2.0]

Exit code 1 when the drop factor is not met.
"""

from __future__ import annotations

import argparse
import sys
import tempfile


def measure(model_dir: str, multicast_prune: bool, seconds: float) -> dict:
    from repro.sgml import SgmlModelSet, SgmlProcessor

    model = SgmlModelSet.from_directory(model_dir)
    cyber_range = SgmlProcessor(model).compile()
    cyber_range.network.set_multicast_prune(multicast_prune)
    cyber_range.start()
    cyber_range.run_for(1.0)  # settle: associations, ARP, initial bursts
    before = cyber_range.data_plane_stats()
    mcast_before = sum(cyber_range.multicast_group_stats().values())
    cyber_range.run_for(seconds)
    window = cyber_range.data_plane_stats().diff(before)
    return {
        "sends": window["netem_sends"],
        "deliveries": window["netem_deliveries"],
        # Multicast frames×receivers on registered groups — the portion of
        # netem_deliveries that pruning attacks (the EPIC range's unicast
        # MMS/SCADA polling is identical in both modes and would bury the
        # drop in a total-deliveries comparison).
        "mcast_deliveries": (
            sum(cyber_range.multicast_group_stats().values()) - mcast_before
        ),
        "pruned_sends": window["netem_mcast_pruned_sends"],
        "flooded_sends": window["netem_mcast_flooded_sends"],
        "groups": int(window["netem_mcast_groups"]),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-drop", type=float, default=5.0,
                        help="required deliveries drop factor (default 5)")
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="measured window in simulated seconds")
    args = parser.parse_args(argv[1:])

    from repro.epic import generate_epic_model

    with tempfile.TemporaryDirectory() as tmp:
        model_dir = generate_epic_model(tmp)
        flood = measure(model_dir, multicast_prune=False,
                        seconds=args.seconds)
        pruned = measure(model_dir, multicast_prune=True,
                         seconds=args.seconds)

    print(f"{'':>16}  {'flood':>10}  {'pruned':>10}")
    for key in ("sends", "deliveries", "mcast_deliveries", "pruned_sends",
                "flooded_sends", "groups"):
        print(f"{key:>16}  {flood[key]:>10}  {pruned[key]:>10}")

    failures = []
    if pruned["sends"] != flood["sends"]:
        failures.append(
            f"send counts diverged: flood {flood['sends']} vs pruned "
            f"{pruned['sends']} (same model, same window)"
        )
    if pruned["deliveries"] <= 0 and flood["deliveries"] > 0:
        failures.append("pruned run delivered nothing — over-pruning")
    if flood["mcast_deliveries"] <= 0:
        failures.append("flood oracle saw no multicast traffic at all")
    drop = (
        flood["mcast_deliveries"] / pruned["mcast_deliveries"]
        if pruned["mcast_deliveries"]
        else float("inf")
    )
    print(
        f"\nmulticast deliveries drop: {drop:.1f}x "
        f"(required >= {args.min_drop}x)"
    )
    if drop < args.min_drop:
        failures.append(
            f"multicast deliveries only dropped {drop:.1f}x "
            f"(< {args.min_drop}x): pruning is not effective"
        )
    if pruned["deliveries"] >= flood["deliveries"]:
        failures.append(
            f"total deliveries did not shrink: flood {flood['deliveries']} "
            f"vs pruned {pruned['deliveries']}"
        )
    if pruned["flooded_sends"] > 0:
        failures.append(
            f"{pruned['flooded_sends']} multicast sends escaped the group "
            f"table in pruned mode"
        )
    if failures:
        print("\nflood-vs-pruned gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("flood-vs-pruned gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
