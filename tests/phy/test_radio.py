"""Unit tests for PHY rates and frame airtime."""

import math

import pytest

from repro.phy.radio import (
    PHY_OVERHEAD_S,
    RATE_1MBPS,
    RATE_11MBPS,
    RATE_TABLE,
    RadioConfig,
    frame_airtime,
    rate_from_mbps,
)


class TestPhyRates:
    def test_rate_table_contains_paper_rates(self):
        assert 1 in RATE_TABLE and 11 in RATE_TABLE

    def test_rate_lookup(self):
        assert rate_from_mbps(1) is RATE_1MBPS
        assert rate_from_mbps(11) is RATE_11MBPS

    def test_rate_lookup_unknown(self):
        with pytest.raises(KeyError):
            rate_from_mbps(54)

    def test_higher_rates_need_more_sinr(self):
        assert RATE_11MBPS.min_sinr_db > RATE_1MBPS.min_sinr_db

    def test_higher_rates_have_worse_sensitivity(self):
        assert RATE_11MBPS.rx_sensitivity_dbm > RATE_1MBPS.rx_sensitivity_dbm


class TestFrameAirtime:
    def test_airtime_includes_phy_overhead(self):
        assert frame_airtime(0, RATE_11MBPS) == pytest.approx(PHY_OVERHEAD_S)

    def test_airtime_scales_with_size(self):
        small = frame_airtime(100, RATE_11MBPS)
        large = frame_airtime(200, RATE_11MBPS)
        assert large - small == pytest.approx(100 * 8 / RATE_11MBPS.bps)

    def test_airtime_slower_rate_is_longer(self):
        assert frame_airtime(1500, RATE_1MBPS) > frame_airtime(1500, RATE_11MBPS)

    def test_1500_bytes_at_1mbps_is_about_12ms(self):
        airtime = frame_airtime(1500, RATE_1MBPS)
        assert math.isclose(airtime, PHY_OVERHEAD_S + 0.012, rel_tol=1e-9)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            frame_airtime(-1, RATE_1MBPS)


class TestRadioConfig:
    def test_defaults_match_paper(self):
        config = RadioConfig()
        assert config.tx_power_dbm == pytest.approx(19.0)
        assert config.antenna_gain_dbi == pytest.approx(5.0)
