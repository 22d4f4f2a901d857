"""Shared pieces of the workloads: statistics, the run record, inputs.

Every workload returns a :class:`Run`: end-to-end values (untraced), or
per-layer values (traced), plus operations attempted/failed and the
correctness verdict.  ``run.py`` attaches units from ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Iterable, Optional

perf = time.perf_counter

#: Catalog sites per family; 21 specs over EPIC + the 5-substation model.
CATALOG_MAX_SITES = 4


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``q`` in [0, 1])."""
    data = sorted(values)
    if not data:
        return 0.0
    position = (len(data) - 1) * q
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        """Record a correctness problem (printed to stderr by run.py)."""
        self.problems.append(message)

    def op_failed(self, message: str) -> None:
        """Count one failed operation; a failure is also a problem."""
        self.failed += 1
        self.fail(message)

    def end_to_end(self, op_seconds: list[float], sim_seconds: float,
                   setup_seconds: list[float]) -> None:
        """The end-to-end metrics every workload reports.

        ``op_seconds`` are the wall times of the measured operations
        (back to back, so their sum is the measured wall time) and
        ``sim_seconds`` the virtual seconds those operations simulated.
        """
        busy = sum(op_seconds)
        self.metrics.update(
            {
                "sim_s_per_wall_s": ratio(sim_seconds, busy),
                "ops_per_min": ratio(60.0 * len(op_seconds), busy),
                "op_ms_p50": 1000.0 * quantile(op_seconds, 0.5),
                "op_ms_p75": 1000.0 * quantile(op_seconds, 0.75),
                "setup_s": median(setup_seconds),
                "peak_rss_mb": peak_rss_mb(),
            }
        )


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: Path) -> None:
        self.path = root / ".perfbench_work" / f"run-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def scaleout_dir(work: Path, substations: int, ieds: int) -> str:
    from repro.epic import generate_scaleout_model

    return generate_scaleout_model(
        str(work / f"scaleout-{substations}"), substations=substations,
        total_ieds=ieds,
    )


def epic_dir(work: Path) -> str:
    from repro.epic import generate_epic_model

    return generate_epic_model(str(work / "epic"))


def git_sha(root: Path) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (no subprocess); ``None``
    outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        return None
    return None
