"""Workload traces for the serving layer: load, synthesize, replay.

A workload trace is JSON-lines, one
:class:`~repro.core.request.EstimationRequest` per line::

    {"slot": 93, "queried": [3, 7, 11], "budget": 20}
    {"slot": 94, "queried": [3, 7, 11], "budget": 20, "day": 1,
     "theta": 0.9, "selector": "hybrid", "deadline_s": 0.25,
     "precision": "float32", "warm_start": true}

``repro serve --requests trace.jsonl`` replays such a trace through a
:class:`~repro.serve.service.QueryService` and reports latency
percentiles; without ``--requests`` it synthesizes a mixed-slot workload
with a configurable duplication factor (many users asking about the
same roads in the same slot — exactly what coalescing exploits).

Values must carry their JSON type: a string where a number, list or
boolean belongs (``"queried": "37"``, ``"warm_start": "false"``) or a
fractional slot is rejected rather than coerced.
"""

from __future__ import annotations

import bisect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Type,
    TypeVar,
    Union,
)

import numpy as np

from repro.errors import DatasetError, ModelError, OverloadedError, ReproError
from repro.core.request import EstimationRequest
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, bucket_quantile
from repro.serve.service import QueryService

#: Keys a trace line may carry (anything else is rejected loudly).
_TRACE_KEYS = {
    "slot", "queried", "budget", "theta", "selector", "deadline_s",
    "day", "backend", "precision", "warm_start",
}


_T = TypeVar("_T")


def _typed(value: object, key: str, kind: Type[_T]) -> _T:
    """``value`` when it has JSON type ``kind`` (a bool is no int)."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise DatasetError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _number(value: object, key: str) -> float:
    """``value`` as a float when it is a JSON number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DatasetError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def _parse_request(record: Mapping[str, object]) -> EstimationRequest:
    """One trace line as a request, every value type-checked."""
    deadline_s = record.get("deadline_s")
    return EstimationRequest(
        queried=tuple(
            _typed(q, "queried", int) for q in _typed(record["queried"], "queried", list)
        ),
        slot=_typed(record["slot"], "slot", int),
        budget=_number(record["budget"], "budget"),
        theta=_number(record.get("theta", 0.92), "theta"),
        selector=_typed(record.get("selector", "hybrid"), "selector", str),
        deadline_s=None if deadline_s is None else _number(deadline_s, "deadline_s"),
        backend=_typed(record.get("backend", "rtf_gsp"), "backend", str),
        precision=_typed(record.get("precision", "float64"), "precision", str),
        warm_start=_typed(record.get("warm_start", True), "warm_start", bool),
        day=_typed(record.get("day", 0), "day", int),
    )


def load_workload(path: Union[str, Path]) -> List[EstimationRequest]:
    """Parse a JSON-lines workload trace.

    Raises:
        DatasetError: On unreadable files, malformed JSON, missing
            required keys, or unknown keys (typos should fail, not
            silently serve a default).
    """
    items: List[EstimationRequest] = []
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DatasetError(f"cannot read workload trace {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(
                f"{path}:{lineno}: invalid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise DatasetError(f"{path}:{lineno}: each line must be an object")
        unknown = set(record) - _TRACE_KEYS
        if unknown:
            raise DatasetError(
                f"{path}:{lineno}: unknown keys {sorted(unknown)} "
                f"(allowed: {sorted(_TRACE_KEYS)})"
            )
        try:
            items.append(_parse_request(record))
        except (KeyError, DatasetError, ModelError) as exc:
            raise DatasetError(
                f"{path}:{lineno}: malformed request: {exc}"
            ) from exc
    if not items:
        raise DatasetError(f"workload trace {path} contains no requests")
    return items


def save_workload(
    items: Sequence[EstimationRequest], path: Union[str, Path]
) -> None:
    """Write a trace back out as JSON-lines (inverse of :func:`load_workload`).

    The latency knobs ``backend``/``precision``/``warm_start`` are
    written only when they differ from the request defaults.
    """
    lines = []
    for item in items:
        record: Dict[str, object] = {
            "slot": item.slot,
            "queried": list(item.queried),
            "budget": item.budget,
            "theta": item.theta,
            "selector": item.selector,
            "day": item.day,
        }
        if item.deadline_s is not None:
            record["deadline_s"] = item.deadline_s
        if item.backend != "rtf_gsp":
            record["backend"] = item.backend
        if item.precision != "float64":
            record["precision"] = item.precision
        if not item.warm_start:
            record["warm_start"] = item.warm_start
        lines.append(json.dumps(record))
    Path(path).write_text("\n".join(lines) + "\n")


def synthesize_workload(
    slots: Sequence[int],
    road_pool: Sequence[int],
    n_requests: int,
    budget: float,
    queried_size: int = 8,
    duplication: int = 4,
    deadline_s: Optional[float] = None,
    seed: int = 0,
) -> List[EstimationRequest]:
    """A mixed-slot workload with realistic request duplication.

    ``duplication`` controls how many requests share each unique
    (slot, queried) pair — many users asking about the same roads at the
    same moment — which is the shape coalescing is built for.  Requests
    of different slots are interleaved so consecutive arrivals exercise
    the same-slot grouping rather than a pre-sorted best case.
    """
    if not slots:
        raise DatasetError("synthesize_workload needs at least one slot")
    if queried_size > len(road_pool):
        raise DatasetError(
            f"queried_size {queried_size} exceeds the road pool "
            f"({len(road_pool)} roads)"
        )
    duplication = max(1, int(duplication))
    rng = np.random.default_rng(seed)
    uniques: List[EstimationRequest] = []
    n_unique = max(1, (n_requests + duplication - 1) // duplication)
    for k in range(n_unique):
        queried = tuple(
            int(r)
            for r in rng.choice(len(road_pool), size=queried_size, replace=False)
        )
        uniques.append(
            EstimationRequest(
                queried=tuple(int(road_pool[i]) for i in queried),
                slot=int(slots[k % len(slots)]),
                budget=float(budget),
                deadline_s=deadline_s,
            )
        )
    items = [uniques[k % n_unique] for k in range(n_requests)]
    order = rng.permutation(n_requests)
    return [items[i] for i in order]


@dataclass
class ReplayReport:
    """Outcome of replaying one workload through a service.

    Latency percentiles are computed from per-request
    admission-to-completion times; rejected requests (backpressure) are
    counted but have no latency.
    """

    n_requests: int = 0
    n_ok: int = 0
    n_degraded: int = 0
    n_rejected: int = 0
    n_failed: int = 0
    n_coalesced: int = 0
    wall_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    degraded_reasons: Dict[str, int] = field(default_factory=dict)

    @property
    def n_served(self) -> int:
        """Requests that got an answer (full or degraded)."""
        return self.n_ok + self.n_degraded

    @property
    def throughput_qps(self) -> float:
        """Served requests per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_served / self.wall_seconds

    def percentile(self, q: float) -> float:
        """Latency percentile in seconds (0 when nothing was served).

        Uses the same fixed-bucket interpolation
        (:func:`repro.obs.metrics.bucket_quantile` over
        ``DEFAULT_TIME_BUCKETS``) as the SLO engine and ``repro top``,
        so offline replay numbers and live ``/healthz`` numbers are
        directly comparable.
        """
        if not self.latencies:
            return 0.0
        counts = [0.0] * (len(DEFAULT_TIME_BUCKETS) + 1)
        for latency in self.latencies:
            counts[bisect.bisect_left(DEFAULT_TIME_BUCKETS, latency)] += 1.0
        return bucket_quantile(DEFAULT_TIME_BUCKETS, counts, q / 100.0)

    def format(self) -> str:
        """Human-readable summary block (printed by ``repro serve``)."""
        lines = [
            f"requests: {self.n_requests} "
            f"(ok {self.n_ok}, degraded {self.n_degraded}, "
            f"rejected {self.n_rejected}, failed {self.n_failed})",
            f"coalesced: {self.n_coalesced} served from a shared execution",
            f"wall time: {self.wall_seconds:.3f}s "
            f"({self.throughput_qps:.1f} req/s)",
        ]
        if self.latencies:
            lines.append(
                "latency: "
                f"p50 {self.percentile(50) * 1e3:.1f}ms  "
                f"p90 {self.percentile(90) * 1e3:.1f}ms  "
                f"p99 {self.percentile(99) * 1e3:.1f}ms  "
                f"max {max(self.latencies) * 1e3:.1f}ms"
            )
        if self.degraded_reasons:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.degraded_reasons.items())
            )
            lines.append(f"degraded by reason: {reasons}")
        return "\n".join(lines)


def replay(
    service: QueryService,
    items: Sequence[EstimationRequest],
    bind: Optional[Callable[[EstimationRequest], EstimationRequest]] = None,
) -> ReplayReport:
    """Submit a whole trace and collect every outcome.

    Requests are submitted as fast as admission allows (a rejected
    request is counted, not retried — backpressure is part of the
    contract being measured) and the report aggregates latencies over
    the completed ones.

    Args:
        service: A started :class:`QueryService`.
        items: The trace.
        bind: Turns a trace entry into the request actually submitted
            (attach per-day markets/truth oracles).  Defaults to the
            entry itself, relying on the service-level market/truth.
    """
    if bind is None:
        def bind(item: EstimationRequest) -> EstimationRequest:
            return item

    report = ReplayReport(n_requests=len(items))
    start = time.perf_counter()
    tickets = []
    for item in items:
        try:
            tickets.append(service.submit(bind(item)))
        except OverloadedError:
            report.n_rejected += 1
    for ticket in tickets:
        try:
            result = ticket.result()
        except ReproError:
            report.n_failed += 1
            continue
        report.latencies.append(result.total_seconds)
        if result.degraded:
            report.n_degraded += 1
            reason = result.degraded_reason or "unknown"
            report.degraded_reasons[reason] = (
                report.degraded_reasons.get(reason, 0) + 1
            )
        else:
            report.n_ok += 1
        if result.coalesced:
            report.n_coalesced += 1
    report.wall_seconds = time.perf_counter() - start
    return report
