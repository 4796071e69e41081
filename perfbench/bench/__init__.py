"""The benchmark's library: workloads, closed loop, span tracing, statistics."""
