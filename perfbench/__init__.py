"""The repository benchmark: three user workloads, host-time end-to-end
metrics, and a traced per-layer breakdown.  See perfbench/README.md."""
