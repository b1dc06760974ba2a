"""Shared pytest fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, CostModel
from repro.sim import Simulator


@pytest.fixture
def sim():
    """A fresh simulator that is shut down (threads reclaimed) after the test."""
    simulator = Simulator(seed=1234)
    yield simulator
    simulator.shutdown()


@pytest.fixture
def small_config():
    """A 4-node cluster configuration used by integration tests."""
    return ClusterConfig(num_nodes=4, seed=7)


@pytest.fixture
def cost_model():
    return CostModel()
