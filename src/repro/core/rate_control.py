"""Rate control (Section 6.1-6.2): the two adjustments between an
optimized output rate and what a source is programmed with.

* path-loss compensation — the optimizer produces target *output* rates
  ``y_s``; the source must inject ``x_s = y_s / (1 - p_s)`` where ``p_s``
  is the end-to-end loss probability of the path (computed by
  :func:`repro.core.controller.decide` as the decision's input rates);
* TCP ACK airtime — when the flow is TCP, the rate limit is scaled down
  by :func:`tcp_ack_airtime_factor` so the reverse ACK stream has airtime
  left (applied by the TCP source's ``set_rate``).
"""

from __future__ import annotations

from repro.mac.constants import IP_HEADER_BYTES, TCP_HEADER_BYTES


def tcp_ack_airtime_factor(
    ip_tcp_header_bytes: int = IP_HEADER_BYTES + TCP_HEADER_BYTES,
    tcp_ack_bytes: int = IP_HEADER_BYTES + TCP_HEADER_BYTES,
    tcp_payload_bytes: int = 1460,
) -> float:
    """``1 - (A + H) / (A + H + D)`` (A: IP/TCP header, H: TCP ACK size,
    D: TCP payload), the scale-down leaving airtime for TCP ACKs."""
    denominator = ip_tcp_header_bytes + tcp_ack_bytes + tcp_payload_bytes
    if denominator <= 0:
        raise ValueError("sizes must be positive")
    return 1.0 - (ip_tcp_header_bytes + tcp_ack_bytes) / denominator
