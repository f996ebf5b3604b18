"""Tests for the simulation profiler (repro.sim.profile)."""

from __future__ import annotations

from functools import partial

from repro.engine import Simulator
from repro.sim.network import MeshNetwork
from repro.sim.profile import SimProfiler, callback_site
from repro.sim.topology import chain_topology


class _Thing:
    def method(self) -> None:
        pass


def _free_function() -> None:
    pass


class TestCallbackSite:
    def test_free_function(self):
        assert callback_site(_free_function) == f"{__name__}._free_function"

    def test_bound_method_uses_qualname(self):
        assert callback_site(_Thing().method) == f"{__name__}._Thing.method"

    def test_partial_chains_unwrap_to_the_same_site(self):
        direct = callback_site(_free_function)
        assert callback_site(partial(_free_function)) == direct
        assert callback_site(partial(partial(_free_function, 1), 2)) == direct

    def test_per_node_partials_aggregate_into_one_site(self):
        a, b = _Thing(), _Thing()
        assert callback_site(partial(a.method)) == callback_site(partial(b.method))


class TestSimProfiler:
    def test_record_aggregates_per_site(self):
        prof = SimProfiler()
        prof.record(_free_function, 0.25)
        prof.record(partial(_free_function), 0.5)
        prof.record(_Thing().method, 1.0)
        site = f"{__name__}._free_function"
        assert prof.sites[site].events == 2
        assert prof.sites[site].wall_s == 0.75
        assert prof.total_events == 3
        assert prof.total_wall_s == 1.75

    def test_table_sorts_most_expensive_first(self):
        prof = SimProfiler()
        prof.record(_free_function, 0.1)
        prof.record(_Thing().method, 0.9)
        rows = prof.table()
        assert rows[0][0] == f"{__name__}._Thing.method"
        assert rows[1][0] == f"{__name__}._free_function"

    def test_render_is_a_markdown_table_with_total_row(self):
        prof = SimProfiler()
        prof.record(_free_function, 0.5)
        text = prof.render()
        assert text.startswith("| callback site |")
        assert "_free_function" in text
        assert "**total**" in text

    def test_context_manager_profiles_simulators_built_inside(self):
        with SimProfiler() as prof:
            sim = Simulator()
            sim.schedule(0.1, _free_function)
            sim.run_until(1.0)
        assert prof.total_events == 1
        # Outside the block the hook is uninstalled again.
        sim2 = Simulator()
        sim2.schedule(0.1, _free_function)
        sim2.run_until(1.0)
        assert prof.total_events == 1

    def test_profile_of_a_real_network_attributes_hot_sites(self):
        """End-to-end: a short chain run lands events in the expected
        medium/DCF callback sites and accounts for every dispatched event."""
        with SimProfiler() as prof:
            net = MeshNetwork(chain_topology(3), seed=1)
            net.add_udp_flow([0, 1, 2]).start()
            net.run(0.2)
        assert prof.total_events == net.sim.processed_events > 0
        sites = set(prof.sites)
        assert any("WirelessMedium._finish_transmission" in s for s in sites)
        assert prof.total_wall_s > 0.0
