"""Serving layer: concurrent query serving on top of :class:`CrowdRTSE`.

``QueryService`` fronts the offline+online pipeline with the concerns a
long-running deployment needs and the core deliberately does not carry:

* **bounded admission** — a fixed-depth queue; beyond it, ``submit``
  raises :class:`~repro.errors.OverloadedError` (backpressure, not
  unbounded latency);
* **deadlines** — each request's remaining budget is enforced across
  the OCS → probe → GSP span and while queued;
* **coalescing** — same-slot requests admitted together are served from
  one pinned snapshot, and identical requests share a single execution;
* **graceful degradation** — when the deadline is near or the crowd
  budget is exhausted, a request falls back to the Per (periodic-mean)
  baseline and is flagged ``degraded=True`` instead of failing.

See ``docs/API.md`` ("Serving") for the contract and
:mod:`repro.serve.workload` for trace replay tooling.
"""

from repro.core.pipeline import Deadline
from repro.core.request import EstimationRequest
from repro.serve.service import (
    DEGRADED_BUDGET,
    DEGRADED_DEADLINE,
    QueryService,
    ServeConfig,
    ServedResult,
    ServeTicket,
    ShadowStats,
)
from repro.serve.workload import (
    ReplayReport,
    load_workload,
    replay,
    save_workload,
    synthesize_workload,
)

__all__ = [
    "DEGRADED_BUDGET",
    "DEGRADED_DEADLINE",
    "Deadline",
    "EstimationRequest",
    "QueryService",
    "ReplayReport",
    "ServeConfig",
    "ServeTicket",
    "ServedResult",
    "ShadowStats",
    "load_workload",
    "replay",
    "save_workload",
    "synthesize_workload",
]
