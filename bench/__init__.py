"""The serving benchmark: workloads, load generators, the outside-in
per-layer trace and the result comparison. See ``bench/README.md``."""
