"""Shared fixtures and report helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and prints a
paper-vs-measured report (captured with ``pytest benchmarks/
--benchmark-only -s`` or in the benchmark output file).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.epic import generate_epic_model, generate_scaleout_model
from repro.sgml import SgmlModelSet, SgmlProcessor

#: Scalability sweep results keyed by substation count (int) or named
#: sweep point (str, e.g. ``"5_event_storm"``); the sweep bench fills this
#: via :func:`record_scalability_result` and, under ``BENCH_RECORD=1``,
#: the session-finish hook persists it to track the perf trajectory.
SCALABILITY_RESULTS: dict = {}

_BENCH_JSON = Path(__file__).with_name("BENCH_scalability.json")


def record_scalability_result(point, result: dict) -> None:
    SCALABILITY_RESULTS[point] = result


def pytest_sessionfinish(session, exitstatus) -> None:
    # Only persist on request (BENCH_RECORD=1: a plain test run leaves the
    # committed file alone), only from a green session, and merged into the
    # existing file so a partial sweep (-k filter, interrupted run) never
    # clobbers the full trajectory recorded by an earlier complete run.
    if os.environ.get("BENCH_RECORD") != "1":
        return
    if not SCALABILITY_RESULTS or exitstatus != 0:
        return
    payload: dict[str, dict] = {}
    if _BENCH_JSON.exists():
        try:
            payload = json.loads(_BENCH_JSON.read_text())
        except (ValueError, OSError):
            payload = {}
    payload.update(
        {
            str(point): SCALABILITY_RESULTS[point]
            for point in sorted(SCALABILITY_RESULTS, key=str)
        }
    )
    _BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def epic_model_dir(tmp_path_factory) -> str:
    directory = tmp_path_factory.mktemp("epic-bench")
    return generate_epic_model(str(directory))


@pytest.fixture(scope="session")
def epic_model(epic_model_dir) -> SgmlModelSet:
    return SgmlModelSet.from_directory(epic_model_dir)


@pytest.fixture
def epic_range(epic_model_dir):
    model = SgmlModelSet.from_directory(epic_model_dir)
    return SgmlProcessor(model).compile()


#: IED count per scalability sweep point.  1..5 follows the paper's EPIC
#: scale-out (104 IEDs at 5 substations); 10 and 20 extrapolate the same
#: ~21-IEDs-per-substation density for the ROADMAP's scalability story.
SCALEOUT_IED_COUNTS = {1: 21, 2: 42, 3: 63, 4: 84, 5: 104, 10: 208, 20: 416}


class _LazyScaleoutDirs:
    """Dict-like: generates each sweep point's model on first access.

    Lazy so a smoke run (``BENCH_SMOKE``) or a ``-k``-filtered session
    never pays the generation cost of the big 10/20-substation models.
    """

    def __init__(self, tmp_path_factory) -> None:
        self._factory = tmp_path_factory
        self._dirs: dict[int, str] = {}

    def __getitem__(self, substations: int) -> str:
        directory = self._dirs.get(substations)
        if directory is None:
            tmp = self._factory.mktemp(f"scale-{substations}")
            directory = generate_scaleout_model(
                str(tmp),
                substations=substations,
                total_ieds=SCALEOUT_IED_COUNTS[substations],
            )
            self._dirs[substations] = directory
        return directory


@pytest.fixture(scope="session")
def scaleout_dirs(tmp_path_factory) -> _LazyScaleoutDirs:
    """Model dirs for the scalability sweep, generated on demand."""
    return _LazyScaleoutDirs(tmp_path_factory)


def print_report(title: str, rows: list[str]) -> None:
    width = max(len(title), *(len(row) for row in rows)) if rows else len(title)
    print()
    print("=" * (width + 4))
    print(f"| {title}")
    print("=" * (width + 4))
    for row in rows:
        print(f"| {row}")
    print("=" * (width + 4))
