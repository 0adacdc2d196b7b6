"""Per-layer spans and metrics of the traced run.

:func:`instrument` wraps the public calls of each layer on the objects
one run uses; :func:`per_layer` turns the recorded spans and the layers'
own public counters into the per-layer metrics.  Layers are named after
the repository's modules:

==================  ====================================================
``serve.service``   ``QueryService.submit``; queue wait from the ticket
``core.pipeline``   the request's root span, minus its layer children
``core.ocs``        ``CrowdRTSE.build_ocs_instance`` and the OCS solver
``crowd.market``    ``CrowdMarket.probe``
``core.gsp``        ``GSPEngine.propagate`` / ``propagate_batch``
``core.store``      ``ModelSnapshot`` artifact and warm-seed calls,
                    ``ModelStore.refresh`` / ``publish``
``stream``          ``StreamRefresher.ingest``; ``ObservationLog`` counts
==================  ====================================================
"""

from __future__ import annotations

import statistics
import threading
from typing import Any, Dict, List, Optional, Sequence

import repro.core.pipeline as pipeline_module
from repro import CrowdMarket, ModelSnapshot

from crowdbench import stats
from crowdbench.trace import Recorder, Span, attach, children_by_parent, covered, self_time
from crowdbench.workloads import Feed, Run, answered
from crowdbench.world import World

SERVE = "serve.service"
PIPELINE = "core.pipeline"
OCS = "core.ocs"
CROWD = "crowd.market"
GSP = "core.gsp"
STORE = "core.store"
STREAM = "stream"

#: ``gsp.sweeps_per_call`` averages the first this-many propagations, so
#: on the closed-loop workload it is a count that repeats for a seed.
SWEEP_PREFIX = 16


def instrument(rec: Recorder, world: World, market: CrowdMarket, feed: Optional[Feed]) -> None:
    """Wrap every layer's public calls on the objects of one run."""
    system = world.system
    store = system.store
    engine = system.gsp_engine

    def note_selection(span: Span, result: Any, _: Any) -> None:
        span.attrs["applied"] = result is not None
        span.attrs["selected"] = len(result.selected) if result is not None else 0

    def note_probe(span: Span, result: Any, _: Any) -> None:
        span.attrs["spent"] = sum(receipt.paid for receipt in result[1])

    def note_gsp(span: Span, result: Any, _: Any) -> None:
        span.attrs["sweeps"] = result.sweeps
        span.attrs["warm"] = result.provenance.warm_start
        span.attrs["structure_hit"] = result.provenance.structure_cache_hit

    rec.wrap(system, "build_ocs_instance", "ocs.build_instance", OCS)
    # The solvers are looked up in the pipeline module's namespace at
    # call time, so their wrappers go there.
    rec.wrap(pipeline_module, "trivial_solution", "ocs.trivial_solution", OCS, note_selection)
    for name in list(pipeline_module.SELECTORS):
        rec.wrap(pipeline_module.SELECTORS, name, f"ocs.{name}", OCS, note_selection)
    rec.wrap(market, "probe", "crowd.probe", CROWD, note_probe)
    rec.wrap(engine, "propagate", "gsp.propagate", GSP, note_gsp)
    rec.wrap(engine, "propagate_batch", "gsp.propagate_batch", GSP)
    rec.wrap(store, "refresh", "store.refresh", STORE)
    rec.wrap(store, "publish", "store.publish", STORE)
    if feed is not None:
        rec.wrap(feed.refresher, "ingest", "stream.ingest", STREAM)

    def derivations() -> int:
        return store.stats.correlation_derivations

    def note_corr(span: Span, _: Any, before: int) -> None:
        span.attrs["derived"] = derivations() > before

    def note_warm(span: Span, result: Any, _: Any) -> None:
        span.attrs["outcome"] = result[1]

    wrapped: Dict[int, ModelSnapshot] = {}

    def wrap_snapshot(snapshot: ModelSnapshot) -> None:
        wrapped[id(snapshot)] = snapshot
        rec.wrap(snapshot, "correlation_matrix", "store.correlation_matrix", STORE,
                 note_corr, before=derivations)
        rec.wrap(snapshot, "propagation_arrays", "store.propagation_arrays", STORE)
        rec.wrap(snapshot, "warm_field", "store.warm_field", STORE, note_warm)
        rec.wrap(snapshot, "store_warm_field", "store.store_warm_field", STORE)

    # Every publish makes a new snapshot; wrap each as readers first get
    # it.  The feed and the worker both read it, hence the lock.
    current = store.current
    lock = threading.Lock()

    def current_wrapped() -> ModelSnapshot:
        snapshot = current()
        with lock:
            if id(snapshot) not in wrapped:
                wrap_snapshot(snapshot)
        return snapshot

    store.current = current_wrapped
    rec.on_undo(lambda: delattr(store, "current"))


def _p(values: Sequence[float], q: float) -> float:
    return stats.percentile(values, q) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    rec: Recorder, run: Run, world: World, publishes_before: int, wrapper_cost_s: float
) -> Dict[str, float]:
    """Per-layer metrics of one traced run (0 where a layer did no work).

    ``wrapper_cost_s`` is what one recording wrapper adds to a call
    (``trace.wrapper_cost_s``); the tracing overhead is that cost times
    the spans the worker recorded per answered request.
    """
    spans = rec.spans
    children = children_by_parent(spans)
    worker = [s for s in spans if s.thread != run.generator_thread]
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_ms(span: Span) -> float:
        return 1e3 * self_time(span, children.get(span.id, []))

    metrics: Dict[str, float] = {}

    # core.gsp
    gsp = sorted(by_name.get("gsp.propagate", []), key=lambda s: s.start)
    gsp_self = [self_ms(s) for s in gsp]
    metrics.update({
        "gsp.calls": len(gsp),
        "gsp.self_ms_p50": _p(gsp_self, 0.5),
        "gsp.self_ms_p90": _p(gsp_self, 0.9),
        "gsp.sweeps_per_call": _mean([s.attrs["sweeps"] for s in gsp[:SWEEP_PREFIX]]),
        "gsp.warm_seeded_ratio": _ratio(sum(s.attrs["warm"] for s in gsp), len(gsp)),
        "gsp.structure_hit_ratio": _ratio(sum(s.attrs["structure_hit"] for s in gsp), len(gsp)),
    })

    # core.ocs: one selection is an instance build plus the solvers run on it.
    selections: List[List[Span]] = []
    for span in sorted(worker, key=lambda s: s.start):
        if span.layer != OCS or span.parent is not None:
            continue
        if span.name == "ocs.build_instance" or not selections:
            selections.append([])
        selections[-1].append(span)
    solved = [[s for s in group if s.attrs.get("applied")] for group in selections]
    metrics.update({
        "ocs.calls": len(selections),
        "ocs.self_ms_p50": _p([sum(self_ms(s) for s in g) for g in selections], 0.5),
        "ocs.selected_per_call": _mean([g[-1].attrs["selected"] for g in solved if g]),
        "ocs.trivial_ratio": _ratio(
            sum(1 for g in solved if g and g[0].name == "ocs.trivial_solution"), len(selections)
        ),
    })

    # crowd.market
    probes = by_name.get("crowd.probe", [])
    metrics.update({
        "probe.calls": len(probes),
        "probe.self_ms_p50": _p([self_ms(s) for s in probes], 0.5),
        "probe.budget_spent_per_call": _mean([s.attrs["spent"] for s in probes]),
    })

    # core.store
    corr = by_name.get("store.correlation_matrix", [])
    derived = [1e3 * s.duration for s in corr if s.attrs["derived"]]
    warm = by_name.get("store.warm_field", [])
    metrics.update({
        "store.corr_derivations": len(derived),
        "store.corr_derive_ms_p50": _p(derived, 0.5),
        "store.corr_hit_ratio": _ratio(len(corr) - len(derived), len(corr)),
        "store.warm_mismatch_ratio": _ratio(
            sum(s.attrs["outcome"] == "mismatch" for s in warm), len(warm)
        ),
        "store.refresh_ms_p50": _p([1e3 * s.duration for s in by_name.get("store.refresh", [])], 0.5),
        "store.publishes": world.system.store.stats.publishes - publishes_before,
    })

    # serve.service, from the served results and the generator's samples.
    done = answered(run)
    queue_ms = [1e3 * a.served.queue_seconds for a in done]
    metrics.update({
        "serve.queue_ms_p50": _p(queue_ms, 0.5),
        "serve.queue_ms_p90": _p(queue_ms, 0.9),
        "serve.service_ms_p50": _p(
            [1e3 * (a.served.total_seconds - a.served.queue_seconds) for a in done], 0.5
        ),
        "serve.coalesced_ratio": _ratio(sum(a.served.coalesced for a in done), len(done)),
        "serve.degraded_ratio": _ratio(sum(a.served.degraded for a in done), len(done)),
        "serve.rejected": sum(a.outcome == "rejected" for a in run.attempts),
        "serve.queue_depth_max": max((a.depth for a in run.attempts), default=0),
        "serve.generator_late_ms_p90": _p([a.late_ms for a in run.attempts], 0.9),
    })

    # stream: the feed's own counters (all 0 on the query-only workloads).
    feed = run.feed
    ingest_ms = [1e3 * s.duration for s in by_name.get("stream.ingest", [])]
    lags = feed.lags_ms if feed is not None else []
    metrics.update({
        "stream.ingest_ms_p50": _p(ingest_ms, 0.5),
        "stream.ingest_ms_p90": _p(ingest_ms, 0.9),
        "stream.publish_lag_p50_ms": _p(lags, 0.5),
        "stream.publish_lag_p90_ms": _p(lags, 0.9),
        "stream.accepted": feed.refresher.log.accepted if feed else 0,
        "stream.duplicates": feed.refresher.log.duplicates if feed else 0,
        "stream.late": feed.refresher.log.late if feed else 0,
        "stream.dropped": feed.adapter.total_dropped if feed else 0,
        "stream.publishes": feed.refresher.stats.publishes if feed else 0,
    })

    # core.pipeline: each request's root minus what its layer spans cover.
    roots, windows, own = {}, {}, {}
    for attempt in done:
        ticket = attempt.ticket
        root = rec.add("request", PIPELINE, attempt.submitted, attempt.done)
        roots[root.id] = root
        own[root.id] = [
            rec.add("serve.submit", SERVE, attempt.submitted, attempt.admitted, root.id),
            rec.add("serve.queue", SERVE, ticket.enqueued_at, ticket.picked_up_at, root.id),
        ]
        windows[root.id] = (ticket.picked_up_at, attempt.done)
    attached = attach(windows, [s for s in worker if s.parent is None])
    unattributed = [
        1e3 * (root.duration - covered(
            [(s.start, s.end) for s in own[rid] + attached[rid]], root.start, root.end
        ))
        for rid, root in roots.items()
    ]
    root_ms_p50 = _p([1e3 * r.duration for r in roots.values()], 0.5)
    spans_per_request = _ratio(len(worker), len(done))
    overhead_ms = 1e3 * wrapper_cost_s * spans_per_request
    metrics.update({
        "pipeline.root_ms_p50": root_ms_p50,
        "pipeline.unattributed_ms_p50": _p(unattributed, 0.5),
        "trace.spans_per_request": spans_per_request,
        "trace.overhead_ms": overhead_ms,
        "trace.overhead_pct": 100.0 * _ratio(overhead_ms, root_ms_p50),
    })
    return metrics
