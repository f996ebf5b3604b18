"""802.11 DCF MAC substrate: frames, timing, the shared medium and the
per-station CSMA/CA state machine, plus the nominal-throughput calculator
used by the paper's capacity representation (Eq. 6)."""
