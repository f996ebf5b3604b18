"""Tests for the token-bucket shaper and packet representation."""

import pytest
from hypothesis import given, strategies as st

from repro.net.packet import Packet, PacketKind
from repro.net.shaper import TokenBucketShaper


class TestTokenBucket:
    def test_initial_burst_allowed(self):
        shaper = TokenBucketShaper(rate_bps=1e6)
        assert shaper.try_consume(0.0, 1500)

    def test_rate_limits_sustained_traffic(self):
        shaper = TokenBucketShaper(rate_bps=1e6, bucket_bits=1500 * 8)
        now = 0.0
        sent_bits = 0
        while now < 1.0:
            if shaper.try_consume(now, 1500):
                sent_bits += 1500 * 8
            now += 0.001
        assert sent_bits <= 1.1e6 + 1500 * 8

    def test_time_until_available(self):
        shaper = TokenBucketShaper(rate_bps=1e6, bucket_bits=1500 * 8)
        assert shaper.try_consume(0.0, 1500)
        wait = shaper.time_until_available(0.0, 1500)
        assert wait == pytest.approx(1500 * 8 / 1e6, rel=0.05)

    def test_infinite_rate_never_blocks(self):
        shaper = TokenBucketShaper(rate_bps=float("inf"))
        for step in range(100):
            assert shaper.try_consume(step * 1e-6, 1500)
            assert shaper.time_until_available(step * 1e-6, 1500) == 0.0

    def test_zero_rate_blocks_forever(self):
        shaper = TokenBucketShaper(rate_bps=0.0, bucket_bits=100)
        assert not shaper.try_consume(0.0, 1500)
        assert shaper.time_until_available(0.0, 1500) == float("inf")

    def test_set_rate(self):
        shaper = TokenBucketShaper(rate_bps=1e6, bucket_bits=8000)
        shaper.set_rate(2e6)
        assert shaper.rate_bps == 2e6

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenBucketShaper(rate_bps=-1.0)
        shaper = TokenBucketShaper(rate_bps=1e6)
        with pytest.raises(ValueError):
            shaper.set_rate(-5.0)

    @given(
        st.floats(min_value=1e4, max_value=1e7),
        st.integers(min_value=100, max_value=1500),
    )
    def test_long_run_rate_respected(self, rate, packet_bytes):
        """Over a long horizon the granted rate never exceeds the configured one."""
        shaper = TokenBucketShaper(rate_bps=rate, bucket_bits=2 * packet_bytes * 8)
        granted_bits = 0.0
        t = 0.0
        step = packet_bytes * 8 / rate / 3.0
        horizon = 2.0
        while t < horizon:
            if shaper.try_consume(t, packet_bytes):
                granted_bits += packet_bytes * 8
            t += step
        assert granted_bits <= rate * horizon + shaper.bucket_bits + packet_bytes * 8


class TestPacket:
    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Packet(PacketKind.UDP, 0, 1, 0, -5, 0.0)
