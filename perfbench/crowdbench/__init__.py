"""CrowdRTSE benchmark: workloads, tracing and metrics (see ../run.py)."""
