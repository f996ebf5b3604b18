"""Tests for the Eq. (6) capacity representation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import paper
from repro.core.capacity import CapacityModel, combine_data_ack_losses, max_udp_throughputs_bps
from repro.mac.constants import DEFAULT_MAC_CONFIG, MacConfig
from repro.mac.nominal import nominal_throughput_bps
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS


class TestCapacityModel:
    def test_zero_loss_equals_nominal(self):
        for rate in (RATE_1MBPS, RATE_11MBPS):
            model = CapacityModel(payload_bytes=1470, rate=rate)
            assert model.max_udp_throughput_bps(0.0) == pytest.approx(
                nominal_throughput_bps(1470, rate)
            )

    def test_throughput_decreases_with_loss(self):
        model = CapacityModel(payload_bytes=1470, rate=RATE_11MBPS)
        previous = model.max_udp_throughput_bps(0.0)
        for loss in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
            current = model.max_udp_throughput_bps(loss)
            assert current < previous
            previous = current

    def test_total_loss_gives_zero(self):
        model = CapacityModel(payload_bytes=1470, rate=RATE_11MBPS)
        assert model.max_udp_throughput_bps(1.0) == 0.0

    def test_invalid_loss_rejected(self):
        model = CapacityModel()
        with pytest.raises(ValueError):
            model.max_udp_throughput_bps(-0.1)
        with pytest.raises(ValueError):
            model.max_udp_throughput_bps(1.2)

    def test_1mbps_capacity_lower_than_11mbps(self):
        slow = CapacityModel(payload_bytes=1470, rate=RATE_1MBPS)
        fast = CapacityModel(payload_bytes=1470, rate=RATE_11MBPS)
        for loss in (0.0, 0.2, 0.5):
            assert slow.max_udp_throughput_bps(loss) < fast.max_udp_throughput_bps(loss)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_throughput_always_positive_below_full_loss(self, loss):
        model = CapacityModel(payload_bytes=1470, rate=RATE_11MBPS)
        value = model.max_udp_throughput_bps(loss)
        assert 0.0 < value <= model.nominal_throughput_bps()

    @given(
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.95),
    )
    def test_monotone_property(self, p1, p2):
        model = CapacityModel(payload_bytes=1470, rate=RATE_1MBPS)
        if p1 <= p2:
            assert model.max_udp_throughput_bps(p1) >= model.max_udp_throughput_bps(p2) - 1e-9


def _loss_grid(mac):
    """0, 0.999999, a fine sweep, and every backoff-stage edge: the loss
    at which ETX reaches each whole number of attempts up to two past the
    saturating stage, with its floating-point neighbours."""
    edges = 1.0 - 1.0 / np.arange(1.0, mac.max_backoff_stage + 3)
    around = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
    grid = np.concatenate([[0.0, 0.999999, 0.5, 0.9, 0.99], np.linspace(0, 0.999, 334), around])
    return grid[(grid >= 0.0) & (grid < 1.0)]


class TestVectorEq6:
    @pytest.mark.parametrize(
        "mac",
        [DEFAULT_MAC_CONFIG, MacConfig(cw_min=15, cw_max=255), MacConfig(cw_min=63, cw_max=63)],
    )
    @pytest.mark.parametrize("payload", [64, 1460, 1470])
    def test_the_vector_pass_is_the_scalar_model_bit_for_bit(self, mac, payload):
        """Every link's Eq. (6) in one vector pass (integer backoff-slot
        sums) equals ``max_udp_throughput_bps`` one loss at a time, and
        the per-stage float loop of the reference, to the last bit."""
        grid = _loss_grid(mac)
        models = [CapacityModel(payload, rate, mac) for rate in (RATE_1MBPS, RATE_11MBPS)]
        rates = np.repeat([0, 1], grid.size)
        losses = np.tile(grid, 2)
        cycles = np.array([models[0].cycle_time_s(), models[1].cycle_time_s()])[rates]
        vector = max_udp_throughputs_bps(losses, cycles, payload, mac)
        assert vector.dtype == np.float64 and vector.shape == losses.shape
        pairs = list(zip(rates.tolist(), losses.tolist()))
        scalar = [models[r].max_udp_throughput_bps(p) for r, p in pairs]
        loop = [paper.max_udp_throughput_bps(models[r], p) for r, p in pairs]
        assert vector.tolist() == scalar == loop
        assert all(type(value) is float for value in scalar)


class TestCombineLosses:
    def test_no_loss(self):
        assert combine_data_ack_losses(0.0, 0.0) == 0.0

    def test_one_sided(self):
        assert combine_data_ack_losses(0.3, 0.0) == pytest.approx(0.3)
        assert combine_data_ack_losses(0.0, 0.3) == pytest.approx(0.3)

    def test_combination(self):
        assert combine_data_ack_losses(0.2, 0.1) == pytest.approx(1 - 0.8 * 0.9)

    def test_validation(self):
        with pytest.raises(ValueError):
            combine_data_ack_losses(1.4, 0.0)

    @given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    def test_bounds_and_dominance(self, p_data, p_ack):
        combined = combine_data_ack_losses(p_data, p_ack)
        assert 0.0 <= combined <= 1.0
        assert combined >= max(p_data, p_ack) - 1e-12
