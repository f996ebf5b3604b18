"""Tests for topology factories and the pair classifier."""

import math

import pytest

from repro.sim.network import MeshNetwork
from repro.sim.topology import (
    carrier_sense_pair,
    chain_topology,
    classify_pair,
    grid_topology,
    independent_pair,
    information_asymmetry_pair,
    near_far_pair,
    no_shadowing_propagation,
    random_link_pair,
    testbed_positions as make_testbed_positions,
)
# Note: the testbed_* helpers are imported under aliases so pytest does
# not collect them as test functions (their names start with "test").
from repro.experiment.registry import build_scenario
from repro.experiment.specs import FlowSpec, ScenarioSpec, TopologySpec

import numpy as np


def _medium_for(topology):
    network = MeshNetwork(
        topology.positions, seed=1, propagation=no_shadowing_propagation(), data_rate_mbps=11
    )
    return network.medium


def _testbed_network():
    """The testbed network as ``random_multiflow`` builds it: seeded
    jitter, 6 dB shadowing."""
    return build_scenario(
        ScenarioSpec(
            scenario="generated", seed=0, topology=TopologySpec(kind="testbed"),
            shadowing_sigma_db=6.0, rate_mode="11", flows=(FlowSpec("udp", (0, 1)),),
        )
    ).network


class TestPairFactories:
    def test_carrier_sense_pair_classified_cs(self):
        topo = carrier_sense_pair()
        assert classify_pair(_medium_for(topo), topo.link1, topo.link2) == "CS"

    def test_information_asymmetry_pair_classified_ia(self):
        topo = information_asymmetry_pair()
        assert classify_pair(_medium_for(topo), topo.link1, topo.link2) == "IA"

    def test_near_far_pair_classified_nf(self):
        topo = near_far_pair()
        assert classify_pair(_medium_for(topo), topo.link1, topo.link2) == "NF"

    def test_independent_pair_classified_ind(self):
        topo = independent_pair()
        assert classify_pair(_medium_for(topo), topo.link1, topo.link2) == "IND"

    def test_links_attribute(self):
        topo = carrier_sense_pair()
        assert topo.links == [(0, 1), (2, 3)]

    def test_both_links_usable(self):
        """Every factory must place each receiver within decode range."""
        for factory in (carrier_sense_pair, information_asymmetry_pair, near_far_pair, independent_pair):
            topo = factory()
            medium = _medium_for(topo)
            for tx, rx in topo.links:
                snr = medium.rx_power_dbm(tx, rx) - medium.capture.noise_floor_dbm
                assert snr > 10.0, f"{factory.__name__} produced an unusable link {tx}->{rx}"

    def test_random_pairs_cover_multiple_classes(self):
        rng = np.random.default_rng(11)
        classes = set()
        for _ in range(40):
            topo = random_link_pair(rng)
            classes.add(classify_pair(_medium_for(topo), topo.link1, topo.link2))
        assert len(classes) >= 2


class TestMultiHopTopologies:
    def test_chain_positions(self):
        positions = chain_topology(4, spacing_m=50.0)
        assert len(positions) == 4
        assert positions[3] == (150.0, 0.0)

    def test_chain_needs_two_nodes(self):
        with pytest.raises(ValueError):
            chain_topology(1)

    def test_grid_positions(self):
        positions = grid_topology(2, 3, spacing_m=10.0)
        assert len(positions) == 6
        assert positions[5] == (20.0, 10.0)

    def test_grid_validates_dimensions(self):
        with pytest.raises(ValueError):
            grid_topology(0, 3)


class TestTestbed:
    def test_eighteen_nodes(self):
        assert len(make_testbed_positions()) == 18

    def test_jitter_is_seeded(self):
        assert make_testbed_positions(seed=1) == make_testbed_positions(seed=1)
        assert make_testbed_positions(seed=1) != make_testbed_positions(seed=2)

    def test_propagation_has_shadowing(self):
        assert _testbed_network().medium.propagation.shadowing_sigma_db > 0

    def test_testbed_has_both_good_and_marginal_links(self):
        """The synthetic testbed must offer a diversity of link qualities."""
        net = _testbed_network()
        snrs = []
        nodes = net.node_ids
        for i in nodes:
            for j in nodes:
                if i < j:
                    snrs.append(net.medium.rx_power_dbm(i, j) - net.medium.capture.noise_floor_dbm)
        snrs = np.array(snrs)
        assert (snrs > 25).sum() >= 10, "expected several strong links"
        assert ((snrs > 5) & (snrs < 25)).sum() >= 10, "expected several marginal links"
        assert (snrs < 0).sum() >= 15, "expected several non-links (multi-hop needed)"

    def test_testbed_is_multihop_connected(self):
        """Every node pair is reachable, but not in a single hop."""
        import networkx as nx

        net = _testbed_network()
        graph = nx.Graph()
        graph.add_nodes_from(net.node_ids)
        for i in net.node_ids:
            for j in net.node_ids:
                snr = net.medium.rx_power_dbm(i, j) - net.medium.capture.noise_floor_dbm
                if i < j and snr > 10.0:
                    graph.add_edge(i, j)
        assert nx.is_connected(graph)
        assert nx.diameter(graph) >= 2, "the testbed should require multi-hop routes"


class TestGeneratorTopologies:
    """The random-disk factory behind the topology generator registry."""

    def test_random_disk_is_seed_deterministic_and_in_bounds(self):
        from repro.sim.topology import random_disk_topology

        a = random_disk_topology(10, radius_m=120.0, seed=3)
        b = random_disk_topology(10, radius_m=120.0, seed=3)
        assert a == b
        for x, y in a.values():
            assert math.hypot(x - 120.0, y - 120.0) <= 120.0 + 1e-9

    def test_random_disk_relaxes_an_impossible_separation(self):
        from repro.sim.topology import random_disk_topology

        # 12 nodes at >= 400 m pairwise cannot fit a 100 m disk; the
        # factory must relax the separation instead of spinning forever.
        positions = random_disk_topology(
            12, radius_m=100.0, seed=1, min_separation_m=400.0, max_tries=50
        )
        assert len(positions) == 12

    def test_random_disk_separation_holds_for_many_nodes(self):
        """Successful placements must not count towards the relaxation
        trigger — only consecutive rejections do."""
        from repro.sim.topology import random_disk_topology

        positions = random_disk_topology(
            60, radius_m=1e4, seed=5, min_separation_m=10.0, max_tries=50
        )
        points = list(positions.values())
        for i, (x1, y1) in enumerate(points):
            for x2, y2 in points[i + 1 :]:
                assert (x1 - x2) ** 2 + (y1 - y2) ** 2 >= 10.0**2
