#!/usr/bin/env python3
"""Determinism differential between two campaign report JSONs.

The sharding contract (``docs/scenarios.md``): a pooled sweep
(``workers>1``) and an in-process sweep (``workers=1``) of the same
campaign produce **field-for-field identical** per-scenario results —
only wall-clock fields may differ.  CI enforces it end to end by running
``sgml campaign`` twice (``--workers 2`` and ``--workers 1``) and feeding
both ``--report`` files through this script:

    PYTHONPATH=src python scripts/campaign_differential.py \\
        serial-report.json sharded-report.json

Exit code 1 lists every diverging field (member sets, seeds, outcomes,
branch paths, data-plane counters...); exit 0 prints the matched member
count.  Comparison logic is :func:`repro.scenario.sharding.differential`
— the same function the test suite pins — so CI and the tests cannot
drift apart on what "identical" means.
"""

from __future__ import annotations

import json
import multiprocessing
import sys

from repro.scenario.sharding import differential

#: Distinct exit code (EX_TEMPFAIL) for "this environment cannot run the
#: check" — CI treats it as a legible skip, not a determinism failure.
EXIT_SKIP_NO_FORK = 75


def require_fork() -> int | None:
    """The sharded sweep this differential validates uses ``fork`` workers
    (the serial==sharded contract is only pinned on that path).  Without
    it, skip with one line and a distinct code instead of failing mid-run.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        print(
            "SKIP: environment lacks the 'fork' start method (non-Linux?); "
            "the sharded-campaign determinism differential is fork-only"
        )
        return EXIT_SKIP_NO_FORK
    return None


def main(argv: list[str]) -> int:
    skip = require_fork()
    if skip is not None:
        return skip
    if len(argv) != 3:
        print(__doc__)
        return 2
    reports = []
    for label, path in (("serial", argv[1]), ("sharded", argv[2])):
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        if "scenarios" not in report:
            print(f"{label} file {path}: not a campaign report "
                  f"(no 'scenarios' key)")
            return 2
        reports.append(report)
    serial, sharded = reports
    problems = differential(serial["scenarios"], sharded["scenarios"])
    if problems:
        print("campaign determinism differential FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    names = sorted(r["name"] for r in serial["scenarios"])
    print(
        f"campaign determinism differential passed: "
        f"{len(names)} scenarios identical "
        f"(serial workers={serial.get('workers', 1)} vs "
        f"sharded workers={sharded.get('workers', 1)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
