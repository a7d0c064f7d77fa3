"""The repository benchmark: served sensor-network workloads (see README.md)."""
