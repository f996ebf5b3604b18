"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.sim.network import MeshNetwork  # noqa: E402
from repro.sim.topology import carrier_sense_pair, no_shadowing_propagation  # noqa: E402


@pytest.fixture
def cs_pair_network() -> MeshNetwork:
    """A small carrier-sense link-pair network at 11 Mb/s (deterministic)."""
    topo = carrier_sense_pair()
    return MeshNetwork(
        topo.positions, seed=7, propagation=no_shadowing_propagation(), data_rate_mbps=11
    )


@pytest.fixture
def chain_network() -> MeshNetwork:
    """A three-node chain at 11 Mb/s (deterministic propagation)."""
    from repro.sim.topology import chain_topology

    return MeshNetwork(
        chain_topology(3, spacing_m=55.0),
        seed=11,
        propagation=no_shadowing_propagation(),
        data_rate_mbps=11,
    )
