"""Property-based invariants of the vectorized GSP kernel.

Hypothesis drives randomized worlds through the fast path and checks the
invariants that no example may break:

* clamping — observed roads are returned bit-identical to their probes;
* fixed point — at convergence every free road satisfies the Eq. 18
  update to within the convergence threshold;
* cache transparency — a warm (cache-hit) run returns arrays equal to a
  cold run, and stale caches are impossible because structure keys are
  content digests of the slot parameters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.gsp import (
    GSPConfig,
    GSPEngine,
    GSPKernel,
    GSPSchedule,
    build_propagation_structure,
    engine_for,
    params_signature,
)
from repro.core.rtf import RTFSlot

SETTINGS = settings(max_examples=25, deadline=None)

world_seeds = st.integers(min_value=0, max_value=10_000)
observed_fractions = st.floats(min_value=0.0, max_value=1.0)
schedules = st.sampled_from([GSPSchedule.BFS_PARALLEL, GSPSchedule.BFS_COLORED])


def make_world(seed: int, fraction: float):
    """A seeded random (network, params, observed) triple."""
    rng = np.random.default_rng(seed)
    topology = seed % 3
    if topology == 0:
        network = repro.grid_network(5 + seed % 4, 5 + seed % 3)
    elif topology == 1:
        network = repro.ring_radial_network(
            40 + 4 * (seed % 4), n_rings=2, n_radials=5 + seed % 3, seed=seed
        )
    else:
        network = repro.scale_free_network(40 + seed % 25, attach=2, seed=seed)
    n = network.n_roads
    params = RTFSlot(
        slot=seed % 288,
        mu=rng.uniform(15.0, 95.0, n),
        sigma=rng.uniform(0.4, 7.0, n),
        rho=rng.uniform(0.0, 0.98, network.n_edges),
    )
    n_observed = int(round(fraction * n))
    roads = rng.choice(n, size=n_observed, replace=False) if n_observed else []
    observed = {
        int(r): float(max(1.0, params.mu[r] * rng.uniform(0.5, 1.4))) for r in roads
    }
    return network, params, observed


class TestKernelInvariants:
    @SETTINGS
    @given(seed=world_seeds, fraction=observed_fractions, schedule=schedules)
    def test_observed_roads_never_overwritten(self, seed, fraction, schedule):
        network, params, observed = make_world(seed, fraction)
        result = GSPEngine(network).propagate(
            params, observed, GSPConfig(schedule=schedule, kernel=GSPKernel.VECTORIZED)
        )
        for road, value in observed.items():
            assert result.speeds[road] == value

    @SETTINGS
    @given(seed=world_seeds, fraction=st.floats(min_value=0.05, max_value=0.6),
           schedule=schedules)
    def test_fixed_point_satisfies_eq18(self, seed, fraction, schedule):
        network, params, observed = make_world(seed, fraction)
        epsilon = 1e-9
        result = GSPEngine(network).propagate(
            params,
            observed,
            GSPConfig(
                epsilon=epsilon,
                max_sweeps=6000,
                schedule=schedule,
                kernel=GSPKernel.VECTORIZED,
            ),
        )
        assert result.converged
        speeds = result.speeds
        for i in range(network.n_roads):
            if i in observed:
                continue
            num = params.mu[i] / params.sigma[i] ** 2
            den = 1.0 / params.sigma[i] ** 2
            for j in network.neighbors(i):
                var = params.pairwise_sigma(network, i, j) ** 2
                num += (speeds[j] + params.mu[i] - params.mu[j]) / var
                den += 1.0 / var
            # Eq. 18 residual: the converged value is its own update.
            assert abs(speeds[i] - num / den) < 10 * epsilon

    @SETTINGS
    @given(seed=world_seeds, fraction=observed_fractions, schedule=schedules)
    def test_cache_hit_equals_cold_run(self, seed, fraction, schedule):
        network, params, observed = make_world(seed, fraction)
        config = GSPConfig(schedule=schedule, kernel=GSPKernel.VECTORIZED)
        warm_engine = GSPEngine(network)
        cold = warm_engine.propagate(params, observed, config)
        warm = warm_engine.propagate(params, observed, config)
        fresh = GSPEngine(network).propagate(params, observed, config)
        if observed and len(observed) < network.n_roads:
            assert warm.provenance.structure_cache_hit and warm.provenance.schedule_cache_hit
        assert np.array_equal(warm.speeds, cold.speeds)
        assert np.array_equal(warm.speeds, fresh.speeds)
        assert warm.sweeps == cold.sweeps


class TestCacheInvalidation:
    """Acceptance criterion: caches invalidate on network/parameter change."""

    def world(self):
        return make_world(seed=42, fraction=0.2)

    def test_changed_slot_parameters_recompile_structure(self):
        network, params, observed = self.world()
        engine = GSPEngine(network)
        config = GSPConfig(
            schedule=GSPSchedule.BFS_PARALLEL, kernel=GSPKernel.VECTORIZED
        )
        engine.propagate(params, observed, config)
        shifted = RTFSlot(
            slot=params.slot,
            mu=params.mu + 5.0,
            sigma=params.sigma,
            rho=params.rho,
        )
        assert params_signature(shifted) != params_signature(params)
        result = engine.propagate(shifted, observed, config)
        # New parameters miss the structure cache but reuse the schedule
        # (layers depend on topology + R^c only).
        assert not result.provenance.structure_cache_hit
        assert result.provenance.schedule_cache_hit
        fresh = GSPEngine(network).propagate(shifted, observed, config)
        assert np.array_equal(result.speeds, fresh.speeds)
        assert engine.stats.structure_misses == 2
        assert engine.stats.schedule_misses == 1

    def test_changed_observed_set_recompiles_schedule(self):
        network, params, observed = self.world()
        engine = GSPEngine(network)
        config = GSPConfig(
            schedule=GSPSchedule.BFS_COLORED, kernel=GSPKernel.VECTORIZED
        )
        engine.propagate(params, observed, config)
        smaller = dict(list(observed.items())[:-1])
        result = engine.propagate(params, smaller, config)
        assert result.provenance.structure_cache_hit
        assert not result.provenance.schedule_cache_hit
        fresh = GSPEngine(network).propagate(params, smaller, config)
        assert np.array_equal(result.speeds, fresh.speeds)

    def test_changed_network_uses_distinct_engine(self):
        network, params, observed = self.world()
        first = engine_for(network)
        assert engine_for(network) is first
        other_network = repro.grid_network(4, 4)
        assert engine_for(other_network) is not first

    def test_mismatched_parameters_rejected(self):
        network, params, observed = self.world()
        other_network = repro.grid_network(3, 3)
        engine = GSPEngine(other_network)
        with pytest.raises(repro.ModelError):
            engine.propagate(params, observed)

    def test_structure_lru_evicts_oldest(self):
        network, params, observed = self.world()
        engine = GSPEngine(network, max_structures=2)
        config = GSPConfig(
            schedule=GSPSchedule.BFS_PARALLEL, kernel=GSPKernel.VECTORIZED
        )
        variants = [
            RTFSlot(params.slot, params.mu + k, params.sigma, params.rho)
            for k in range(3)
        ]
        for variant in variants:
            engine.propagate(variant, observed, config)
        # The first variant was evicted: running it again is a miss.
        result = engine.propagate(variants[0], observed, config)
        assert not result.provenance.structure_cache_hit
        assert engine.stats.structure_misses == 4

    def test_structure_matches_slot_export(self):
        network, params, _ = self.world()
        structure = build_propagation_structure(network, params)
        prior_precision, prior_pull, edge_precision, edge_mu = (
            params.propagation_arrays(network)
        )
        n = network.n_roads
        assert structure.indptr.shape == (n + 1,)
        assert structure.indices.shape == (2 * network.n_edges,)
        # Row i's slots hold exactly its neighbours, with the precision
        # and folded pull of the matching edges.
        for i in range(n):
            lo, hi = structure.indptr[i], structure.indptr[i + 1]
            assert sorted(structure.indices[lo:hi]) == sorted(network.neighbors(i))
            expected_denom = prior_precision[i]
            expected_pull = prior_pull[i]
            for j in network.neighbors(i):
                w = edge_precision[network.edge_id(i, int(j))]
                expected_denom += w
                expected_pull += w * (params.mu[i] - params.mu[j])
            assert structure.denom[i] == pytest.approx(expected_denom, rel=1e-12)
            assert structure.const_pull[i] == pytest.approx(expected_pull, rel=1e-12)
