"""Transport substrate: backlogged/CBR UDP sources and sinks plus a
simplified TCP Reno implementation whose ACKs travel the reverse path as
real packets (required to reproduce the mesh starvation scenarios)."""
