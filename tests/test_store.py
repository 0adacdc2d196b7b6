"""Tests for repro.core.store: snapshots, COW publishes, lazy Γ_R."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.correlation import (
    CorrelationTable,
    PathWeightMode,
    road_road_correlation_matrix,
)
from repro.core.inference import empirical_slot_parameters
from repro.core.rtf import RTFModel, params_signature
from repro.core.store import ModelStore, SnapshotCorrelations
from repro.errors import ModelError, NotFittedError

SLOTS = (91, 92, 93)


@pytest.fixture(scope="module")
def multi_world(small_world):
    """A three-slot RTF model plus a day of refresh samples."""
    network = small_world["network"]
    history = small_world["history"]
    model = RTFModel(
        network,
        [
            empirical_slot_parameters(network, history.slot_samples(t), t)
            for t in SLOTS
        ],
    )
    day = history.day(0)
    samples = {t: day[history.local_slot(t)] for t in SLOTS}
    return {"network": network, "model": model, "samples": samples}


@pytest.fixture()
def store(multi_world):
    return ModelStore(multi_world["model"])


class TestSnapshot:
    def test_initial_version_and_slots(self, store):
        snapshot = store.current()
        assert snapshot.version == 1
        assert store.version == 1
        assert snapshot.slots == SLOTS
        assert 92 in snapshot
        assert 17 not in snapshot

    def test_unknown_slot_raises(self, store):
        snapshot = store.current()
        with pytest.raises(NotFittedError):
            snapshot.slot(17)
        with pytest.raises(NotFittedError):
            snapshot.digest(17)

    def test_digest_is_params_signature(self, store, multi_world):
        snapshot = store.current()
        for t in SLOTS:
            assert snapshot.digest(t) == params_signature(
                multi_world["model"].slot(t)
            )

    def test_model_view_roundtrip(self, store, multi_world):
        view = store.current().model
        for t in SLOTS:
            np.testing.assert_allclose(
                view.slot(t).mu, multi_world["model"].slot(t).mu
            )

    def test_empty_snapshot_rejected(self, multi_world):
        with pytest.raises(ModelError):
            ModelStore.from_slots(multi_world["network"], [])


class TestLazyDerivation:
    def test_matrix_matches_eager_computation(self, store, multi_world):
        snapshot = store.current()
        params = multi_world["model"].slot(92)
        expected = road_road_correlation_matrix(
            multi_world["network"], params.rho, PathWeightMode.LOG
        )
        np.testing.assert_allclose(snapshot.correlation_matrix(92), expected)

    def test_derived_once_then_hits(self, store):
        snapshot = store.current()
        assert store.stats.correlation_derivations == 0
        snapshot.correlation_matrix(92)
        snapshot.correlation_matrix(92)
        snapshot.correlation_matrix(92)
        assert store.stats.correlation_derivations == 1
        assert store.stats.correlation_hits == 2

    def test_propagation_arrays_cached(self, store, multi_world):
        snapshot = store.current()
        first = snapshot.propagation_arrays(93)
        again = snapshot.propagation_arrays(93)
        assert all(a is b for a, b in zip(first, again))
        assert store.stats.propagation_derivations == 1
        expected = multi_world["model"].slot(93).propagation_arrays(
            multi_world["network"]
        )
        np.testing.assert_allclose(first[0], expected[0])

    def test_lru_eviction_forces_rederivation(self, multi_world):
        store = ModelStore(multi_world["model"], max_artifacts=1)
        snapshot = store.current()
        snapshot.correlation_matrix(91)
        snapshot.correlation_matrix(92)  # evicts 91's matrix
        snapshot.correlation_matrix(91)
        assert store.stats.correlation_derivations == 3


class TestSnapshotCorrelations:
    def test_is_a_correlation_table(self, store):
        table = store.current().correlations
        assert isinstance(table, SnapshotCorrelations)
        assert isinstance(table, CorrelationTable)
        assert table.slots == SLOTS
        assert table.mode is PathWeightMode.LOG

    def test_eq11_13_match_eager_table(self, store, multi_world):
        lazy = store.current().correlations
        eager = CorrelationTable.precompute(multi_world["model"], slots=[92])
        n = multi_world["network"].n_roads
        queried, selected = [0, 3, 7], [5, 11]
        sigma = multi_world["model"].slot(92).sigma
        assert lazy.road_set(92, 3, selected) == pytest.approx(
            eager.road_set(92, 3, selected)
        )
        assert lazy.set_set(92, queried, selected) == pytest.approx(
            eager.set_set(92, queried, selected)
        )
        assert lazy.weighted_correlation(
            92, queried, selected, sigma
        ) == pytest.approx(eager.weighted_correlation(92, queried, selected, sigma))
        assert lazy.digest(92) == eager.digest(92)

    def test_missing_slot_raises(self, store):
        with pytest.raises(NotFittedError):
            store.current().correlations.matrix(17)


class TestPublish:
    def test_cow_shares_untouched_slots(self, store, multi_world):
        before = store.current()
        refreshed = store.refresh({92: multi_world["samples"][92]})
        assert refreshed.version == 2
        assert store.current() is refreshed
        # Untouched slots share the very same parameter objects...
        for t in (91, 93):
            assert refreshed.slot(t) is before.slot(t)
            assert refreshed.digest(t) == before.digest(t)
        # ...while the touched slot has a new object and digest.
        assert refreshed.slot(92) is not before.slot(92)
        assert refreshed.digest(92) != before.digest(92)

    def test_reader_keeps_pinned_snapshot(self, store, multi_world):
        pinned = store.current()
        mu_before = pinned.slot(92).mu.copy()
        store.refresh({92: multi_world["samples"][92]})
        np.testing.assert_array_equal(pinned.slot(92).mu, mu_before)
        assert pinned.version == 1

    def test_exactly_k_rederivations_after_refresh(self, store, multi_world):
        v1 = store.current()
        for t in SLOTS:
            v1.correlation_matrix(t)
        assert store.stats.correlation_derivations == len(SLOTS)
        v2 = store.refresh({92: multi_world["samples"][92]})
        for t in SLOTS:
            v2.correlation_matrix(t)
        # Exactly one new derivation (the refreshed slot); the two
        # untouched slots hit the digest-shared artifacts.
        assert store.stats.correlation_derivations == len(SLOTS) + 1
        assert store.stats.correlation_hits == 2

    def test_gsp_structure_cache_warm_for_untouched_slots(
        self, store, multi_world
    ):
        """A refresh invalidates only the touched slot's GSP compilation."""
        from repro.core.gsp import GSPConfig, GSPEngine, GSPSchedule

        engine = GSPEngine(multi_world["network"])
        # Structure caching engages on the vectorized (parallel) path.
        config = GSPConfig(schedule=GSPSchedule.BFS_PARALLEL)
        v1 = store.current()
        probes = {0: 50.0}
        for t in SLOTS:
            engine.propagate(v1.slot(t), probes, config)
        assert engine.stats.structure_misses == len(SLOTS)
        v2 = store.refresh({92: multi_world["samples"][92]})
        for t in SLOTS:
            engine.propagate(v2.slot(t), probes, config)
        # Untouched slots keep their digest, so only the refreshed slot
        # recompiles its propagation structure.
        assert engine.stats.structure_misses == len(SLOTS) + 1
        assert engine.stats.structure_hits >= len(SLOTS) - 1

    def test_publish_adds_new_slot(self, store, multi_world):
        network = multi_world["network"]
        history_params = store.current().slot(91)
        extra = repro.RTFSlot(
            slot=101,
            mu=history_params.mu.copy(),
            sigma=history_params.sigma.copy(),
            rho=history_params.rho.copy(),
        )
        snapshot = store.publish([extra])
        assert 101 in snapshot
        assert snapshot.slots == (91, 92, 93, 101)

    def test_publish_validation(self, store):
        params = store.current().slot(92)
        with pytest.raises(ModelError, match="at least one"):
            store.publish([])
        with pytest.raises(ModelError, match="duplicate"):
            store.publish([params, params])

    def test_publish_counters(self, store, multi_world):
        assert store.stats.publishes == 1
        assert store.stats.published_slots == len(SLOTS)
        store.refresh({92: multi_world["samples"][92]})
        assert store.stats.publishes == 2
        assert store.stats.published_slots == len(SLOTS) + 1
        assert "publishes" in store.stats.as_dict()


class TestRefresh:
    def test_unknown_slot_rejected(self, store, multi_world):
        with pytest.raises(NotFittedError):
            store.refresh({17: multi_world["samples"][92]})

    def test_empty_mapping_rejected(self, store):
        with pytest.raises(ModelError):
            store.refresh({})

    def test_moments_move_toward_sample(self, store, multi_world):
        sample = multi_world["samples"][92]
        before = store.current().slot(92)
        after = store.refresh({92: sample}, learning_rate=0.5).slot(92)
        np.testing.assert_allclose(
            after.mu, before.mu + 0.5 * (sample - before.mu)
        )

    def test_bad_learning_rate_rejected(self, store, multi_world):
        with pytest.raises(ModelError):
            store.refresh({92: multi_world["samples"][92]}, learning_rate=1.5)


class TestStoreMetrics:
    def test_store_series_emitted(self, store, multi_world):
        obs.configure(metrics=True, tracing=True)
        obs.get_metrics().clear()
        obs.get_tracer().reset()
        try:
            snapshot = store.refresh({92: multi_world["samples"][92]})
            snapshot.correlation_matrix(92)
            snapshot.correlation_matrix(92)
            snap = obs.get_metrics().snapshot()
            counters = {
                (e["name"], tuple(sorted(e["labels"].items()))): e["value"]
                for e in snap["counters"]
            }
            assert counters[("store.publishes", ())] == 1
            assert counters[("store.refreshes", ())] == 1
            assert counters[("store.refreshed_slots", ())] == 1
            assert (
                counters[
                    (
                        "store.artifacts.derivations",
                        (("kind", "correlation"),),
                    )
                ]
                == 1
            )
            gauges = {e["name"]: e["value"] for e in snap["gauges"]}
            assert gauges["store.version"] == 2
            span_names = {r.name for r in obs.get_tracer().records()}
            assert {"store.publish", "store.refresh"} <= span_names
        finally:
            obs.disable_all()
            obs.get_metrics().clear()
            obs.get_tracer().reset()
