"""Physical-layer substrate for the 802.11 mesh simulator.

This subpackage models everything below the MAC: transmit rates and
preamble formats of 802.11b/g, radio propagation (log-distance path loss
with deterministic per-link shadowing), thermal noise, SINR computation,
the capture effect, and bit/packet error models.

The PHY abstraction is intentionally compact: the MAC and the online
optimization layers above only need per-link received powers, carrier
sense decisions, SINR-based capture outcomes, and per-link residual
channel error rates.  Those are exactly the quantities exposed here.
"""
