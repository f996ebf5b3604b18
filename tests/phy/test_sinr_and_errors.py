"""Tests for SINR computation, the capture model and error models."""

import pytest
from hypothesis import given, strategies as st

from repro.phy.error_models import (
    BerPacketErrorModel,
    FixedPacketErrorModel,
    SnrThresholdErrorModel,
)
from repro.phy.propagation import dbm_to_mw
from repro.phy.radio import RATE_1MBPS, RATE_11MBPS
from repro.phy.sinr import NOISE_FLOOR_DBM, CaptureModel, sinr_db, snr_db


class TestSinr:
    def test_no_interference_equals_snr(self):
        assert sinr_db(-70.0, 0.0) == pytest.approx(snr_db(-70.0))

    def test_interference_lowers_sinr(self):
        assert sinr_db(-70.0, dbm_to_mw(-80.0)) < sinr_db(-70.0, 0.0)

    def test_dominant_interference(self):
        # Interference much stronger than noise: SINR ~ SIR.
        value = sinr_db(-60.0, dbm_to_mw(-70.0))
        assert value == pytest.approx(10.0, abs=0.2)

    @given(st.floats(min_value=0.0, max_value=1e-3))
    def test_monotone_in_interference(self, extra_mw):
        base = sinr_db(-65.0, 1e-9)
        assert sinr_db(-65.0, 1e-9 + extra_mw) <= base + 1e-9


class TestCaptureModel:
    def test_strong_signal_captures(self):
        capture = CaptureModel()
        assert capture.decodable(-60.0, dbm_to_mw(-80.0), RATE_11MBPS)

    def test_weak_signal_does_not_capture(self):
        capture = CaptureModel()
        assert not capture.decodable(-80.0, dbm_to_mw(-75.0), RATE_11MBPS)

    def test_capture_easier_at_low_rate(self):
        """A marginal SINR that fails at 11 Mb/s can succeed at 1 Mb/s."""
        capture = CaptureModel()
        signal, interference = -70.0, dbm_to_mw(-76.0)
        assert capture.decodable(signal, interference, RATE_1MBPS)
        assert not capture.decodable(signal, interference, RATE_11MBPS)

    def test_below_sensitivity_never_decodes(self):
        capture = CaptureModel()
        assert not capture.decodable(RATE_1MBPS.rx_sensitivity_dbm - 1.0, 0.0, RATE_1MBPS)

    def test_margin_makes_capture_harder(self):
        strict = CaptureModel(sinr_margin_db=6.0)
        loose = CaptureModel(sinr_margin_db=0.0)
        signal, interference = -70.0, dbm_to_mw(-78.0)
        assert loose.decodable(signal, interference, RATE_1MBPS)
        assert not strict.decodable(signal, interference, RATE_1MBPS)


class TestErrorModels:
    def test_fixed_model_returns_constant(self):
        model = FixedPacketErrorModel(per=0.2)
        assert model.packet_error_probability(30.0, RATE_11MBPS, 1500) == pytest.approx(0.2)

    def test_fixed_model_validates_range(self):
        with pytest.raises(ValueError):
            FixedPacketErrorModel(per=1.5)

    def test_threshold_model(self):
        model = SnrThresholdErrorModel()
        assert model.packet_error_probability(30.0, RATE_11MBPS, 1500) == 0.0
        assert model.packet_error_probability(0.0, RATE_11MBPS, 1500) == 1.0

    def test_ber_model_monotone_in_snr(self):
        model = BerPacketErrorModel()
        high = model.packet_error_probability(35.0, RATE_11MBPS, 1500)
        low = model.packet_error_probability(12.0, RATE_11MBPS, 1500)
        assert high < low

    def test_ber_model_monotone_in_length(self):
        model = BerPacketErrorModel()
        short = model.packet_error_probability(16.0, RATE_11MBPS, 100)
        long = model.packet_error_probability(16.0, RATE_11MBPS, 1500)
        assert short <= long

    def test_ber_model_bounds(self):
        model = BerPacketErrorModel()
        for snr in (-10.0, 0.0, 10.0, 25.0, 60.0):
            per = model.packet_error_probability(snr, RATE_1MBPS, 1500)
            assert 0.0 <= per <= 1.0

    @given(st.floats(min_value=-20.0, max_value=60.0))
    def test_ber_model_per_always_valid(self, snr):
        model = BerPacketErrorModel()
        per = model.packet_error_probability(snr, RATE_11MBPS, 1500)
        assert 0.0 <= per <= 1.0

    @pytest.mark.parametrize("order", [(14.0001, 14.0004), (14.0004, 14.0001)])
    def test_ber_model_answers_each_snr_for_itself(self, order):
        """Two links whose SNRs agree to three decimals each get their
        own PER, whichever asked first (a memo keyed on the rounded SNR
        used to hand the second caller the first one's value)."""
        model = BerPacketErrorModel()
        pers = [model.packet_error_probability(snr, RATE_11MBPS, 1500) for snr in order]
        assert pers == [
            BerPacketErrorModel().packet_error_probability(snr, RATE_11MBPS, 1500)
            for snr in order
        ]
        assert pers[0] != pers[1]

    def test_noise_floor_constant_is_reasonable(self):
        assert -100.0 < NOISE_FLOOR_DBM < -85.0
