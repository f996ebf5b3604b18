"""Simulation substrate: event kernel, the MeshNetwork assembly object,
topology factories (link pairs, chains, grids, random disks, the
18-node testbed), the composable scenario generator tables
(:mod:`repro.sim.generators`), delivery-attempt tracing and the two-phase
measurement drivers of Section 4."""

from repro.sim.network import MeshNetwork
from repro.sim.topology import (
    carrier_sense_pair,
    chain_topology,
    grid_topology,
    information_asymmetry_pair,
    no_shadowing_propagation,
    random_link_pair,
    testbed_positions,
)
from repro.sim.measurement import measure_isolated

__all__ = [
    "MeshNetwork",
    "carrier_sense_pair",
    "chain_topology",
    "grid_topology",
    "information_asymmetry_pair",
    "no_shadowing_propagation",
    "random_link_pair",
    "testbed_positions",
    "measure_isolated",
]
