"""Warm-started GSP: seeding, outcomes, and refresh invalidation.

A converged propagation's field is cached per ``(parameter digest,
R^c)`` and reused as the next same-shaped query's starting iterate.
These tests pin the semantics:

* the ``gsp.warm_start`` outcome counter distinguishes ``used`` /
  ``miss`` / ``mismatch`` / ``disabled``;
* a warm-started answer converges to the same fixed point as a cold
  start within the solver's ε (never asserted bit-identical — that is
  exactly why legacy spellings default the feature off);
* a hot refresh drops the touched slot's seed inside the same atomic
  publish, so a post-refresh query can never be seeded from pre-refresh
  parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.request import EstimationRequest
from repro.core.store import WARM_SEEDS_PER_SLOT


@pytest.fixture()
def system(tiny_dataset):
    """A fresh fitted system per test — these tests refresh the store."""
    return repro.CrowdRTSE.fit(
        tiny_dataset.network, tiny_dataset.train_history, slots=[tiny_dataset.slot]
    )


@pytest.fixture()
def metrics():
    obs.configure(metrics=True, tracing=False)
    obs.get_metrics().clear()
    yield obs.get_metrics()
    obs.get_metrics().clear()
    obs.configure(metrics=False, tracing=False)


def _outcomes(registry):
    return {
        e["labels"]["outcome"]: e["value"]
        for e in registry.snapshot()["counters"]
        if e["name"] == "gsp.warm_start"
    }


def _answer(system, data, *, warm_start=True, budget=15, seed=3):
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(seed),
    )
    truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
    return system.answer_query(
        EstimationRequest(
            queried=data.queried,
            slot=data.slot,
            budget=budget,
            warm_start=warm_start,
        ),
        market=market,
        truth=truth,
    )


class TestOutcomes:
    def test_first_query_misses_second_uses(self, system, tiny_dataset, metrics):
        _answer(system, tiny_dataset)
        assert _outcomes(metrics) == {"miss": 1}
        _answer(system, tiny_dataset)
        assert _outcomes(metrics) == {"miss": 1, "used": 1}

    def test_different_selection_mismatches(self, system, tiny_dataset, metrics):
        _answer(system, tiny_dataset, budget=15)
        # A different budget buys a different R^c under the same digest.
        _answer(system, tiny_dataset, budget=25)
        outcomes = _outcomes(metrics)
        assert outcomes.get("mismatch", 0) == 1

    def test_opted_out_request_is_disabled(self, system, tiny_dataset, metrics):
        _answer(system, tiny_dataset, warm_start=False)
        assert _outcomes(metrics) == {"disabled": 1}

    def test_disabled_request_stores_no_seed(self, system, tiny_dataset, metrics):
        _answer(system, tiny_dataset, warm_start=False)
        _answer(system, tiny_dataset, warm_start=True)
        outcomes = _outcomes(metrics)
        assert outcomes == {"disabled": 1, "miss": 1}


class TestSeedsPerSelection:
    def test_each_selection_keeps_its_own_seed(self, system, tiny_dataset, metrics):
        # Two selections in one slot alternate: each finds its own seed
        # on the second round instead of evicting the other's.
        for _ in range(2):
            _answer(system, tiny_dataset, budget=15)
            _answer(system, tiny_dataset, budget=25)
        assert _outcomes(metrics) == {"miss": 1, "mismatch": 1, "used": 2}

    def test_seeds_per_slot_are_bounded(self, system, tiny_dataset):
        snapshot = system.store.current()
        slot = tiny_dataset.slot
        field = np.zeros(tiny_dataset.network.n_roads)
        keys = [frozenset({i}) for i in range(WARM_SEEDS_PER_SLOT + 1)]
        for key in keys:
            snapshot.store_warm_field(slot, key, field)
        # The least recently stored seed went; the others all still hit.
        assert snapshot.warm_field(slot, keys[0]) == (None, "mismatch")
        for key in keys[1:]:
            assert snapshot.warm_field(slot, key)[1] == "hit"
        # Re-storing a selection replaces its seed instead of adding one.
        snapshot.store_warm_field(slot, keys[1], field + 1.0)
        seed, outcome = snapshot.warm_field(slot, keys[1])
        assert outcome == "hit" and seed[0] == 1.0
        assert snapshot.warm_field(slot, keys[2])[1] == "hit"


class TestEquivalence:
    def test_warm_answer_matches_cold_within_epsilon(self, system, tiny_dataset):
        cold = _answer(system, tiny_dataset, warm_start=False)
        _answer(system, tiny_dataset)  # populate the seed
        warm = _answer(system, tiny_dataset)
        assert warm.probes == cold.probes
        # Same fixed point within the solver's tolerance — the contract
        # is ε-equivalence, not bit-identity.
        np.testing.assert_allclose(
            warm.full_field_kmh, cold.full_field_kmh, rtol=0, atol=1e-2
        )


class TestRefreshInvalidation:
    def test_refresh_drops_touched_slot_seed(self, system, tiny_dataset, metrics):
        data = tiny_dataset
        _answer(system, data)
        _answer(system, data)
        assert _outcomes(metrics)["used"] == 1
        local = data.test_history.local_slot(data.slot)
        system.refresh({data.slot: data.test_history.day(0)[local]})
        _answer(system, data)
        # Post-refresh digest is new: the old seed is unreachable and
        # was dropped in the same publish, so this is a miss, not a hit
        # off stale parameters.
        assert _outcomes(metrics) == {"miss": 2, "used": 1}

    def test_snapshot_warm_field_misses_after_refresh(self, system, tiny_dataset):
        data = tiny_dataset
        result = _answer(system, data)
        observed_key = frozenset(result.probes)
        snapshot = system.store.current()
        field, outcome = snapshot.warm_field(data.slot, observed_key)
        assert outcome == "hit" and field is not None
        local = data.test_history.local_slot(data.slot)
        system.refresh({data.slot: data.test_history.day(1)[local]})
        refreshed = system.store.current()
        field, outcome = refreshed.warm_field(data.slot, observed_key)
        assert outcome == "miss" and field is None
