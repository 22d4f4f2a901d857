"""Shared fixtures: simulators, small networks, and compiled EPIC ranges."""

from __future__ import annotations

import pytest

from repro.epic import generate_epic_model, generate_scaleout_model
from repro.kernel import Simulator
from repro.netem import VirtualNetwork
from repro.sgml import SgmlModelSet, SgmlProcessor


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def lan(sim):
    """One switch with three hosts: h1, h2, h3 (10.0.0.1-3)."""
    net = VirtualNetwork(sim, name="lan")
    net.add_switch("sw")
    for index in (1, 2, 3):
        net.add_host(f"h{index}", f"10.0.0.{index}")
        net.add_link(f"h{index}", "sw")
    return net


@pytest.fixture(scope="session")
def epic_model_dir(tmp_path_factory) -> str:
    """The generated EPIC model files (read-only, shared per session)."""
    directory = tmp_path_factory.mktemp("epic-model")
    return generate_epic_model(str(directory))


@pytest.fixture(scope="session")
def scaleout_model_dir(tmp_path_factory) -> str:
    """A small 3-substation / 12-IED scale-out model set."""
    directory = tmp_path_factory.mktemp("scale-model")
    return generate_scaleout_model(str(directory), substations=3, total_ieds=12)


@pytest.fixture
def epic_model(epic_model_dir) -> SgmlModelSet:
    return SgmlModelSet.from_directory(epic_model_dir)


@pytest.fixture
def epic_range(epic_model):
    """A freshly compiled (not yet started) EPIC cyber range."""
    return SgmlProcessor(epic_model).compile()


@pytest.fixture
def running_epic(epic_range):
    """EPIC range started and settled for 2 s of virtual time."""
    epic_range.start()
    epic_range.run_for(2.0)
    return epic_range


@pytest.fixture
def write_point():
    """String-keyed write for tests: ``write_point(registry, key, value)``."""
    return lambda registry, key, value: registry.write_now(
        registry.resolve(key), value
    )
