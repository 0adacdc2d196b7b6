"""The workloads: their inputs, load generators and output checks.

Every workload drives one ``QueryService`` with ``num_workers=1`` (its
``ServeConfig`` otherwise default) from the calling thread, so a run has
two threads.  Inputs come only from the seed: which roads are queried,
with which budget, on which slot and test day, when each request is
due and the crowd's measurement noise.  The probe feed is the same for
every seed, so the store's parameters, and with them the GSP work per
request, evolve alike in every run of ``stream_refresh``; with the feed
seeded per run, the mean sweeps per request over a run varied by ±8%
between seeds.  On ``stream_refresh`` the slot a request asks about is
the one the feed is replaying when the request is sent.

* ``cold_distinct`` — closed loop, one client; every request is a new
  (slot, queried set), so nothing coalesces and no warm seed matches.
* ``stream_refresh`` — closed loop, one client, replaying the test
  days' probe feed slot window by slot window: the same thread ingests a
  window's batches while the window's first request is served, then
  asks the rest of its ``QUERIES_PER_WINDOW`` requests about that slot.
  Every slot close publishes a new store version.  A run replays a
  fixed number of windows (one per ``WINDOW_SECONDS`` of the run), so
  its work, the store versions it publishes and the memory they hold do
  not depend on how fast the machine runs; it stops early if the time
  is up first.  It is the only workload with a feed.

Both start timing after ``WARMUP_REQUESTS`` requests that are checked
but not counted.  ``stream_refresh`` then ingests the first test day's
feed untimed, so that every slot the client asks about holds refreshed
parameters, and replays the other days.

The rate ladder offers the mix ``repro serve`` synthesizes by default
(``synthesize_workload``: every queried set asked four times) on
Poisson arrivals, so duplicates coalesce and selections repeat.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    CrowdMarket,
    EstimationRequest,
    FeedAdapter,
    ModelSnapshot,
    ModelStore,
    QueryService,
    RTFSlot,
    ServeConfig,
    ServedResult,
    ServeTicket,
    StreamConfig,
    StreamRefresher,
    default_slos,
    exact_conditional_mean,
    synthesize_day_feed,
    synthesize_workload,
    truth_oracle_for,
)
from repro.errors import OverloadedError, ReproError

from crowdbench import stats
from crowdbench.world import World

#: Largest |served - exact conditional mean| (km/h) accepted on an answer
#: GSP produced.  GSP stops once its largest per-road update falls below
#: ε = 1e-3 km/h; with the per-sweep contraction measured on this world
#: (ρ up to 0.955) up to ε/(1-ρ) ≈ 0.022 km/h of distance to the fixed
#: point can remain.  The largest gap seen over 150 cold queries was
#: 0.0203 km/h.
GAP_BOUND_KMH = 0.03

#: The latency limit of the ladder: the repository's own default SLO.
LATENCY_LIMIT_MS = 1e3 * next(
    slo.threshold for slo in default_slos() if slo.name == "serve.latency.p99"
)

#: How long outstanding answers are awaited once a schedule has ended.
RESULT_TIMEOUT_S = 60.0

#: Budget and queried-set size of the ladder's requests: the defaults
#: of ``repro serve``, whose synthesized mix the ladder offers.
LADDER_BUDGET = 15.0
LADDER_QUERIED = 8

#: Smallest queried set a generated request asks about.
MIN_QUERIED = 5

#: Delay before the first scheduled event, so it is not already late.
LEAD_S = 0.05

#: Requests answered before the timed region starts (checked, not counted).
WARMUP_REQUESTS = 2

#: Requests ``stream_refresh`` asks about each feed window's slot.  The
#: first one of a window is served while the window's batches are
#: ingested and re-derives the slot's Γ_R (refreshed the day before).
QUERIES_PER_WINDOW = 4

#: Seconds of the run per feed window ``stream_refresh`` replays.  A
#: window took 1.5-1.85 s on a 2-vCPU virtual machine, so a run finishes
#: its windows before its time is up; a 55 s run replays 24 windows, 96
#: requests, enough to support p90.
WINDOW_SECONDS = 2.25


@dataclass
class Attempt:
    """One request the generator tried to send, and what became of it."""

    request: EstimationRequest
    offset_s: float = 0.0
    due: float = math.nan
    submitted: float = math.nan
    admitted: float = math.nan
    done: float = math.nan
    late_ms: float = 0.0
    depth: int = 0
    ticket: Optional[ServeTicket] = None
    served: Optional[ServedResult] = None
    outcome: str = "pending"

    @property
    def latency_ms(self) -> float:
        """Due time (submit time in closed loop) to answer."""
        return 1e3 * (self.done - self.due)


@dataclass
class FeedBatch:
    """One feed snapshot as raw JSONL lines."""

    lines: List[str]


@dataclass
class Feed:
    """A probe feed and what ingesting it produced.

    ``windows[k]`` holds the batches of the ``k``-th (test day, feed
    slot), in replay order.  ``lags_ms`` is, for each batch that changed
    the store's version, the time from the start of its ingest to the
    new version.
    """

    windows: List[List[FeedBatch]]
    adapter: FeedAdapter
    refresher: StreamRefresher
    store: ModelStore
    offered: int = 0
    lags_ms: List[float] = field(default_factory=list)


@dataclass
class Run:
    """Everything one workload run produced, for metrics and checks."""

    name: str
    attempts: List[Attempt]
    elapsed_s: float
    feed: Optional[Feed]
    versions: Dict[int, ModelSnapshot]
    generator_thread: int
    warmup: List[Attempt] = field(default_factory=list)


# -- inputs -----------------------------------------------------------------


class Truths:
    """One truth oracle per (test day, slot), shared by every request on it.

    Sharing matters: the service only coalesces requests whose truth
    oracle is the same object.
    """

    def __init__(self, world: World) -> None:
        self._history = world.data.test_history
        self._oracles: Dict[Tuple[int, int], Callable[[int], float]] = {}

    def __call__(self, day: int, slot: int) -> Callable[[int], float]:
        key = (int(day), int(slot))
        if key not in self._oracles:
            self._oracles[key] = truth_oracle_for(self._history, *key)
        return self._oracles[key]


def random_request(
    world: World, rng: np.random.Generator, slot: int, truth: Callable[[int], float], day: int
) -> EstimationRequest:
    """A random queried subset of R^q with a random budget."""
    pool = np.asarray(world.data.queried)
    size = int(rng.integers(min(MIN_QUERIED, len(pool)), len(pool) + 1))
    queried = tuple(sorted(int(q) for q in rng.choice(pool, size, replace=False)))
    budget = float(rng.choice(world.data.budgets))
    return EstimationRequest(queried=queried, slot=slot, budget=budget, truth=truth, day=day)


def distinct_requests(world: World, rng: np.random.Generator) -> Iterator[EstimationRequest]:
    """Endless requests, no two on the same (slot, queried set)."""
    truths = Truths(world)
    n_days = world.data.test_history.n_days
    seen = set()
    while True:
        slot = int(rng.choice(world.serving_slots))
        day = int(rng.integers(n_days))
        request = random_request(world, rng, slot, truths(day, slot), day)
        if (slot, request.queried) in seen:
            continue
        seen.add((slot, request.queried))
        yield request


def poisson_offsets(rng: np.random.Generator, rate_qps: float, seconds: float) -> List[float]:
    """Arrival offsets of a Poisson process with ``rate * seconds`` arrivals.

    Given its count, a Poisson process's arrival times are independent
    uniforms, so fixing the count keeps the sample size of every run
    equal without changing the arrival pattern's shape.
    """
    count = max(1, round(rate_qps * seconds))
    return sorted(float(x) for x in rng.uniform(0.0, seconds, size=count))


def ladder_attempts(world: World, rng: np.random.Generator, rate_qps: float) -> List[Attempt]:
    """``stats.RUNG_REQUESTS`` requests of the ``repro serve`` mix on
    Poisson arrivals at ``rate_qps``.

    ``synthesize_workload`` asks about each queried set four times in a
    shuffled order; the copies of one set share one request object and
    one truth oracle, so they can coalesce.
    """
    requests = synthesize_workload(
        world.serving_slots, list(world.data.queried), stats.RUNG_REQUESTS,
        budget=LADDER_BUDGET, queried_size=min(LADDER_QUERIED, len(world.data.queried)),
        seed=int(rng.integers(2**31)),
    )
    truths = Truths(world)
    bound: Dict[int, EstimationRequest] = {}
    for request in requests:
        if id(request) not in bound:
            day = int(rng.integers(world.data.test_history.n_days))
            bound[id(request)] = replace(request, truth=truths(day, request.slot), day=day)
    offsets = poisson_offsets(rng, rate_qps, stats.RUNG_REQUESTS / rate_qps)
    return [Attempt(request=bound[id(r)], offset_s=t) for r, t in zip(requests, offsets)]


def build_feed(world: World) -> Feed:
    """Every test day's probe feed over the feed slots, cut into windows.

    A batch belongs to the (day, feed slot) of its latest reading; the
    windows keep the feed's arrival order.
    """
    history = world.data.test_history
    slots = list(world.feed_slots)
    windows: List[List[FeedBatch]] = [[] for _ in range(history.n_days * len(slots))]
    index = 0
    for day in range(history.n_days):
        for snapshot in synthesize_day_feed(
            history, day, slots=slots, seed=day
        ):
            last = max(snapshot, key=lambda m: m.ts)
            index = max(index, day * len(slots) + slots.index(last.slot))
            windows[index].append(FeedBatch([m.to_json() for m in snapshot]))
    return Feed(
        windows=windows,
        adapter=FeedAdapter(world.data.network),
        refresher=StreamRefresher(world.system, StreamConfig(async_publish=False)),
        store=world.system.store,
    )


def stream_requests(
    world: World, rng: np.random.Generator
) -> Callable[[int], EstimationRequest]:
    """Requests on the (day, slot) of a feed window, given its index."""
    truths = Truths(world)
    slots = world.feed_slots

    def next_request(window: int) -> EstimationRequest:
        day, index = divmod(window, len(slots))
        return random_request(world, rng, slots[index], truths(day, slots[index]), day)

    return next_request


# -- load generation --------------------------------------------------------


class Driver:
    """Sends requests and feed batches from the calling thread.

    Requests are timed from their due time (open loop) or their submit
    (closed loop) to the worker's answer.  Each feed batch is parsed by
    the feed adapter and ingested inline; when the store's version
    changes, the lag from the start of that ingest is recorded and the
    new snapshot kept for the output checks.
    """

    def __init__(
        self,
        service: QueryService,
        feed: Optional[Feed],
        versions: Dict[int, ModelSnapshot],
    ) -> None:
        self.service = service
        self.feed = feed
        self.versions = versions
        self.origin = time.perf_counter() + LEAD_S

    def due(self, offset_s: float) -> float:
        """Absolute due time of a scheduled offset."""
        return self.origin + offset_s

    def wait_until(self, due: float) -> float:
        """Sleep until ``due``; returns how late (ms) the caller is."""
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        return 1e3 * (time.perf_counter() - due)

    def ingest(self, batch: FeedBatch) -> None:
        feed = self.feed
        before = feed.store.current()
        self.versions[before.version] = before
        feed.offered += len(batch.lines)
        start = time.perf_counter()
        feed.refresher.ingest(feed.adapter.parse_snapshot(batch.lines))
        snapshot = feed.store.current()
        if snapshot.version != before.version:
            feed.lags_ms.append(1e3 * (time.perf_counter() - start))
            self.versions[snapshot.version] = snapshot

    def submit(self, attempt: Attempt) -> None:
        attempt.submitted = time.perf_counter()
        try:
            attempt.ticket = self.service.submit(attempt.request)
        except OverloadedError:
            attempt.outcome = "rejected"
        attempt.admitted = time.perf_counter()

    @staticmethod
    def collect(attempt: Attempt, timeout: float) -> None:
        """Wait for one answer; a request still unanswered counts as failed."""
        if attempt.ticket is None:
            return
        try:
            served = attempt.ticket.result(timeout)
        except ReproError:
            attempt.outcome = "failed"
            return
        attempt.served = served
        attempt.outcome = "degraded" if served.degraded else "ok"
        attempt.done = attempt.ticket.enqueued_at + served.total_seconds

    def open_loop(self, attempts: Sequence[Attempt]) -> None:
        """Send every request when due, never waiting for answers."""
        for attempt in attempts:
            attempt.due = self.due(attempt.offset_s)
            attempt.late_ms = self.wait_until(attempt.due)
            attempt.depth = self.service.queue_depth()
            self.submit(attempt)
        deadline = time.perf_counter() + RESULT_TIMEOUT_S
        for attempt in attempts:
            self.collect(attempt, max(0.0, deadline - time.perf_counter()))

    def ask(self, request: EstimationRequest, batches: Sequence[FeedBatch] = ()) -> Attempt:
        """Send one request, ingest ``batches`` while it is served, and
        wait for its answer (closed loop: timed from the submit)."""
        attempt = Attempt(request=request)
        self.submit(attempt)
        attempt.due = attempt.submitted
        for batch in batches:
            self.ingest(batch)
        self.collect(attempt, RESULT_TIMEOUT_S)
        return attempt

    def closed_loop(self, requests: Iterator[EstimationRequest], seconds: float) -> List[Attempt]:
        """One client that sends its next request once the last is
        answered, for ``seconds`` from now (the schedule's new origin)."""
        self.origin = time.perf_counter()
        end = self.origin + seconds
        attempts = []
        while time.perf_counter() < end:
            attempts.append(self.ask(next(requests)))
        return attempts

    def replay(
        self, next_request: Callable[[int], EstimationRequest], windows: range, seconds: float
    ) -> List[Attempt]:
        """One client replaying the feed's ``windows`` in order, stopping
        early when ``seconds`` from now have passed.

        Each window gets ``QUERIES_PER_WINDOW`` requests about its slot;
        its batches are ingested while the first of them is served.
        """
        self.origin = time.perf_counter()
        end = self.origin + seconds
        attempts = []
        for window in windows:
            batches = self.feed.windows[window]
            for k in range(QUERIES_PER_WINDOW):
                if time.perf_counter() >= end:
                    return attempts
                attempts.append(self.ask(next_request(window), batches if k == 0 else ()))
        return attempts


# -- workloads --------------------------------------------------------------


def run_workload(
    name: str,
    world: World,
    seed: int,
    seconds: float,
    hook: Optional[Callable[[CrowdMarket, Optional[Feed]], None]] = None,
) -> Run:
    """Run one workload for ``seconds`` after its warm-up.

    ``hook`` sees the run's market and feed (``None`` on the query-only
    workloads) before the first request; the traced run installs its
    wrappers there.
    """
    if name not in ("cold_distinct", "stream_refresh"):
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng(seed)
    store = world.system.store
    versions = {store.version: store.current()}
    feed = build_feed(world) if name == "stream_refresh" else None
    market = world.market(seed)
    if hook is not None:
        hook(market, feed)
    config = ServeConfig(num_workers=1)
    with QueryService(world.system, market=market, config=config) as service:
        driver = Driver(service, feed, versions)
        if name == "cold_distinct":
            requests = distinct_requests(world, rng)
            warmup = [driver.ask(next(requests)) for _ in range(WARMUP_REQUESTS)]
            attempts = driver.closed_loop(requests, seconds)
        else:
            next_request = stream_requests(world, rng)
            warmup = [driver.ask(next_request(0)) for _ in range(WARMUP_REQUESTS)]
            first_day = len(world.feed_slots)
            for batch in (b for window in feed.windows[:first_day] for b in window):
                driver.ingest(batch)
            last = min(len(feed.windows), first_day + max(1, round(seconds / WINDOW_SECONDS)))
            attempts = driver.replay(next_request, range(first_day, last), seconds)
        answered = [a.done for a in attempts if not math.isnan(a.done)]
        elapsed = (max(answered) if answered else time.perf_counter()) - driver.origin
    if feed is not None:
        feed.refresher.close()
    return Run(
        name=name,
        attempts=attempts,
        elapsed_s=elapsed,
        feed=feed,
        versions=versions,
        generator_thread=threading.get_ident(),
        warmup=warmup,
    )


def ladder_rung(world: World, seed: int, rate_qps: float) -> stats.Rung:
    """The ``repro serve`` mix offered at ``rate_qps`` for one ladder rung."""
    attempts = ladder_attempts(world, np.random.default_rng(seed), rate_qps)
    config = ServeConfig(num_workers=1)
    with QueryService(world.system, market=world.market(seed), config=config) as service:
        Driver(service, None, {}).open_loop(attempts)
    rung = stats.Rung(rate_qps)
    for attempt in attempts:
        if attempt.outcome in ("ok", "degraded"):
            rung.latencies_ms.append(attempt.latency_ms)
        else:
            rung.failed += 1
        rung.depths.append(attempt.depth)
        rung.late_ms.append(attempt.late_ms)
    return rung


# -- end-to-end metrics and output checks -------------------------------------


def answered(run: Run) -> List[Attempt]:
    """Attempts that got an answer (full or degraded)."""
    return [a for a in run.attempts if a.outcome in ("ok", "degraded")]


def mape_pct(run: Run) -> float:
    """MAPE (%) of every served estimate on its queried roads (§VII-C)."""
    estimates, truths = [], []
    for attempt in answered(run):
        request = attempt.request
        estimates.append(attempt.served.estimates_kmh)
        truths.append([request.truth(road) for road in request.queried])
    est = np.concatenate(estimates)
    tru = np.concatenate([np.asarray(t, dtype=float) for t in truths])
    return float(100.0 * np.mean(np.abs(est - tru) / tru))


def end_to_end(run: Run, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """Every end-to-end metric of one run."""
    done = answered(run)
    latency = stats.summarize([a.latency_ms for a in done])
    return {
        "setup_s": setup_s,
        "latency_p50_ms": latency.p50_ms,
        "latency_p90_ms": latency.p90_ms,
        "throughput_qps": len(done) / run.elapsed_s,
        "answered_ratio": len(done) / len(run.attempts),
        "mape_pct": mape_pct(run),
        "peak_rss_mb": peak_rss_mb,
    }


def _params_at(versions: Dict[int, ModelSnapshot], version: int, slot: int) -> Optional[RTFSlot]:
    """A slot's parameters in a store version, from the recorded snapshots.

    A version between two recorded ones is recovered when the slot has
    the same digest in both: publishes only replace the slots they
    refresh, so it was not touched in between.
    """
    if version in versions:
        return versions[version].slot(slot)
    before = [v for v in versions if v < version]
    after = [v for v in versions if v > version]
    if before and after:
        lo, hi = versions[max(before)], versions[min(after)]
        if lo.digest(slot) == hi.digest(slot):
            return hi.slot(slot)
    return None


def check(run: Run, world: World) -> List[str]:
    """The run's output checks, warm-up included; returns one line per
    problem found."""
    problems: List[str] = []
    counts = {k: 0 for k in ("ok", "degraded", "failed", "rejected")}
    for attempt in run.attempts:
        if attempt.outcome not in counts:
            problems.append(f"request left {attempt.outcome}")
            continue
        counts[attempt.outcome] += 1
    if sum(counts.values()) != len(run.attempts):
        problems.append(f"outcomes {counts} do not add up to {len(run.attempts)} attempted")
    problems += [
        f"warm-up request {a.outcome}" for a in run.warmup if a.outcome not in ("ok", "degraded")
    ]
    exact: Dict[int, float] = {}
    for attempt in run.warmup + run.attempts:
        served = attempt.served
        if served is None or served.degraded or id(served.result) in exact:
            continue
        params = _params_at(run.versions, served.model_version, attempt.request.slot)
        if params is None:
            problems.append(f"answer from unrecorded store version {served.model_version}")
            continue
        field_kmh = exact_conditional_mean(world.data.network, params, served.result.probes)
        exact[id(served.result)] = float(np.max(np.abs(field_kmh - served.full_field_kmh)))
    if exact and max(exact.values()) > GAP_BOUND_KMH:
        problems.append(
            f"served field is {max(exact.values()):.4f} km/h from the exact "
            f"conditional mean (bound {GAP_BOUND_KMH} km/h)"
        )
    feed = run.feed
    if feed is not None:
        log = feed.refresher.log
        ingested = log.accepted + log.duplicates + log.late + feed.adapter.total_dropped
        if ingested != feed.offered:
            problems.append(
                f"stream offered {feed.offered} messages but accounts for {ingested} "
                f"(accepted {log.accepted}, duplicates {log.duplicates}, late {log.late}, "
                f"dropped {feed.adapter.total_dropped})"
            )
    return problems
