"""Concurrency tests: QueryService under threaded clients + hot refresh.

Modeled on test_store_concurrency.py: client threads hammer the service
while a writer publishes model refreshes.  Because every batch pins one
snapshot, no request may ever observe a torn model (estimates from one
generation labeled with another's version), and the service must keep
resolving every ticket — no deadlocks, no lost requests.

Run in CI with faulthandler and a hard timeout so a deadlock shows a
stack dump instead of hanging the job.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from typing import Dict, List

import numpy as np
import pytest

import repro
from repro.serve import EstimationRequest, QueryService, ServeConfig


@pytest.fixture(scope="module")
def world(tiny_dataset):
    system = repro.CrowdRTSE.fit(
        tiny_dataset.network, tiny_dataset.train_history, slots=[tiny_dataset.slot]
    )
    return {
        "data": tiny_dataset,
        "system": system,
        "truth": repro.truth_oracle_for(
            tiny_dataset.test_history, 0, tiny_dataset.slot
        ),
        "local": tiny_dataset.test_history.local_slot(tiny_dataset.slot),
    }


def _request(world, seed):
    data = world["data"]
    return EstimationRequest(
        queried=tuple(data.queried[:6]),
        slot=data.slot,
        budget=12,
        market=repro.CrowdMarket(
            data.network, data.pool, data.cost_model,
            rng=np.random.default_rng(seed),
        ),
        truth=world["truth"],
        rng=np.random.default_rng(seed),
        warm_start=False,
    )


class TestServeUnderRefresh:
    def test_clients_race_hot_refresh_without_torn_results(self, world):
        """Every result is finite, version-stamped, and from a version
        that existed while the request was in flight."""
        data = world["data"]
        system = world["system"]
        config = ServeConfig(num_workers=3, max_queue_depth=256)
        service = QueryService(system, config=config)
        stop = threading.Event()
        errors_seen: List[str] = []
        served_versions: List[int] = []
        lock = threading.Lock()

        def writer():
            # Keep publishing until every client is done, so serving and
            # refreshing genuinely overlap regardless of relative speed.
            day = 0
            while not stop.is_set():
                system.refresh(
                    {data.slot: data.test_history.day(day)[world["local"]]},
                    learning_rate=0.2,
                )
                day = (day + 1) % data.test_history.n_days

        def client(seed: int):
            for k in range(5):
                floor = system.store.version
                try:
                    result = service.serve(_request(world, seed * 1000 + k))
                except repro.ReproError as exc:
                    errors_seen.append(f"client {seed}: {exc!r}")
                    return
                ceiling = system.store.version
                if result.degraded:
                    errors_seen.append("unexpected degradation")
                    return
                if not np.all(np.isfinite(result.estimates_kmh)):
                    errors_seen.append("non-finite estimates under refresh")
                    return
                if not (floor <= result.model_version <= ceiling):
                    errors_seen.append(
                        f"torn version: served v{result.model_version} "
                        f"outside [{floor}, {ceiling}]"
                    )
                    return
                with lock:
                    served_versions.append(result.model_version)

        clients = [
            threading.Thread(target=client, args=(s,)) for s in range(4)
        ]
        writer_thread = threading.Thread(target=writer)
        for thread in clients:
            thread.start()
        writer_thread.start()
        for thread in clients:
            thread.join(timeout=300)
        stop.set()
        writer_thread.join(timeout=300)
        service.close()
        assert not errors_seen, errors_seen
        assert served_versions, "clients never completed a request"
        # The stream of answers spans multiple model generations — the
        # refreshes really happened underneath live serving.
        assert len(set(served_versions)) > 1

    def test_concurrent_submitters_all_resolve(self, world):
        """Many threads submitting into a small queue: every ticket either
        resolves or fails with typed backpressure — none hang."""
        config = ServeConfig(num_workers=2, max_queue_depth=8)
        service = QueryService(world["system"], config=config)
        outcomes: List[str] = []
        lock = threading.Lock()

        def submitter(seed: int):
            for k in range(6):
                try:
                    result = service.serve(
                        _request(world, seed * 100 + k), timeout=120
                    )
                    label = "ok" if not result.degraded else "degraded"
                except repro.OverloadedError:
                    label = "rejected"
                with lock:
                    outcomes.append(label)

        threads = [
            threading.Thread(target=submitter, args=(s,)) for s in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        service.close()
        assert len(outcomes) == 30
        assert outcomes.count("ok") >= 1

    def test_close_during_load_resolves_every_ticket(self, world):
        """close(drain=True) after a burst: nothing is left hanging."""
        config = ServeConfig(num_workers=2, max_queue_depth=64)
        service = QueryService(world["system"], config=config)
        tickets = [service.submit(_request(world, 7000 + k)) for k in range(10)]
        service.close(drain=True)
        for ticket in tickets:
            result = ticket.result(timeout=60)
            assert np.all(np.isfinite(result.estimates_kmh))

    def test_refresh_never_blocks_on_serving(self, world):
        """A writer publishing during a long queue drain finishes promptly
        (snapshot pinning is lock-free for the writer)."""
        data = world["data"]
        system = world["system"]
        service = QueryService(system, config=ServeConfig(num_workers=2))
        tickets = [service.submit(_request(world, 9000 + k)) for k in range(8)]
        done = threading.Event()

        def writer():
            for day in range(data.test_history.n_days):
                system.refresh(
                    {data.slot: data.test_history.day(day)[world["local"]]},
                    learning_rate=0.2,
                )
            done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        thread.join(timeout=120)
        assert done.is_set(), "refresh writer stalled behind serving"
        for ticket in tickets:
            ticket.result(timeout=120)
        service.close()


class TestProbeLockScope:
    """With ``serialize_probes`` the probe lock covers OCS + probing only.

    The estimator must run with the lock free however the batch is
    shaped: a one-request batch once ran the whole pipeline under the
    lock while a multi-request batch released it before GSP.
    """

    @pytest.fixture(scope="class")
    def system(self, tiny_dataset):
        system = repro.CrowdRTSE.fit(
            tiny_dataset.network, tiny_dataset.train_history,
            slots=[tiny_dataset.slot],
        )
        system.attach_backend("gmrf", history=tiny_dataset.train_history)
        return system

    @pytest.mark.parametrize("n_buckets", [1, 3])
    @pytest.mark.parametrize("backend", ["rtf_gsp", "gmrf"])
    def test_estimator_runs_with_probe_lock_free(
        self, system, world, monkeypatch, n_buckets, backend
    ):
        service = QueryService(
            system, config=ServeConfig(num_workers=1), autostart=False
        )
        if backend == "rtf_gsp":
            target, method = system.gsp_engine, "propagate"
        else:
            target, method = system.store.backend_instance(backend), "estimate"
        original = getattr(target, method)
        lock_held: List[bool] = []

        def spy(*args, **kwargs):
            lock_held.append(service._probe_lock.locked())
            return original(*args, **kwargs)

        monkeypatch.setattr(target, method, spy)
        # Distinct markets make distinct buckets of one same-slot batch.
        tickets = [
            service.submit(
                dataclasses.replace(_request(world, seed=k), backend=backend)
            )
            for k in range(n_buckets)
        ]
        service.start()
        results = [ticket.result(timeout=60) for ticket in tickets]
        service.close()
        assert not any(result.degraded for result in results)
        assert lock_held == [False] * n_buckets


class TestBatchPartition:
    """A worker takes a slot's whole queued backlog, or none of it."""

    def test_queued_duplicates_execute_once_across_workers(self, world):
        """Four workers race for one slot's backlog of duplicates.

        Popping the leader and draining its followers under one lock
        keeps the backlog in one batch, so each distinct request probes
        its market once.  Were the lock released in between, a second
        worker could take part of the backlog and probe a shared market
        again.
        """
        n_unique, copies = 4, 4
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(15):
                probes: Dict[int, int] = {}
                requests = []
                for k in range(n_unique):
                    request = _request(world, seed=100 * round_ + k)
                    inner = request.market.probe

                    def probe(*args, _k=k, _inner=inner, **kwargs):
                        probes[_k] = probes.get(_k, 0) + 1
                        return _inner(*args, **kwargs)

                    request.market.probe = probe
                    requests.append(request)
                service = QueryService(
                    world["system"],
                    config=ServeConfig(
                        num_workers=4, max_coalesce=n_unique * copies
                    ),
                    autostart=False,
                )
                tickets = [
                    service.submit(request)
                    for _ in range(copies)
                    for request in requests
                ]
                service.start()
                for ticket in tickets:
                    ticket.result(timeout=60)
                service.close()
                assert probes == {k: 1 for k in range(n_unique)}, round_
        finally:
            sys.setswitchinterval(previous)
