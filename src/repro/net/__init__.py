"""Network-layer substrate: packets, mesh nodes, ETT routing, broadcast
probing, token-bucket shaping and the Ad Hoc Probe baseline."""
