"""Differential tests: vectorized GSP kernel vs the per-node reference.

The fast path is only trustworthy because this suite pins it to the
Alg. 5 oracle: on a pool of seeded random worlds spanning three
topologies (grid, ring-radial, scale-free) and R^c sizes from empty to
all-observed, the fused ``BFS_PARALLEL`` / ``BFS_COLORED`` updates must
reproduce the reference result to 1e-8 and never need extra sweeps.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.gsp import (
    GSPConfig,
    GSPEngine,
    GSPKernel,
    GSPSchedule,
)
from repro.core.rtf import RTFSlot

PARALLEL_SCHEDULES = (GSPSchedule.BFS_PARALLEL, GSPSchedule.BFS_COLORED)

#: (case id, topology, network size knob, observed fraction).  24 cases:
#: three topologies × eight R^c regimes including the degenerate ends.
CASES = [
    (case_id, topology, fraction)
    for topology in ("grid", "ring-radial", "scale-free")
    for case_id, fraction in enumerate((0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 0.9, 1.0))
]


def make_network(topology: str, seed: int):
    if topology == "grid":
        return repro.grid_network(7 + seed % 3, 6 + seed % 4)
    if topology == "ring-radial":
        return repro.ring_radial_network(
            48 + 4 * (seed % 3), n_rings=2 + seed % 2, n_radials=5 + seed % 3,
            seed=seed,
        )
    return repro.scale_free_network(50 + 5 * (seed % 4), attach=2, seed=seed)


def make_world(topology: str, fraction: float, seed: int):
    """A random (network, params, observed) triple."""
    network = make_network(topology, seed)
    rng = np.random.default_rng(1000 * seed + 17)
    n = network.n_roads
    params = RTFSlot(
        slot=seed % 288,
        mu=rng.uniform(20.0, 90.0, n),
        sigma=rng.uniform(0.5, 6.0, n),
        rho=rng.uniform(0.0, 0.97, network.n_edges),
    )
    n_observed = int(round(fraction * n))
    roads = rng.choice(n, size=n_observed, replace=False) if n_observed else []
    observed = {
        int(r): float(max(1.0, params.mu[r] * rng.uniform(0.6, 1.3))) for r in roads
    }
    return network, params, observed


class TestDifferential:
    @pytest.mark.parametrize("schedule", PARALLEL_SCHEDULES)
    @pytest.mark.parametrize("case_id,topology,fraction", CASES)
    def test_vectorized_matches_reference(self, schedule, case_id, topology, fraction):
        network, params, observed = make_world(topology, fraction, seed=case_id)
        engine = GSPEngine(network)
        kwargs = dict(epsilon=1e-10, max_sweeps=4000, schedule=schedule)
        reference = engine.propagate(
            params, observed, GSPConfig(kernel=GSPKernel.REFERENCE, **kwargs)
        )
        vectorized = engine.propagate(
            params, observed, GSPConfig(kernel=GSPKernel.VECTORIZED, **kwargs)
        )
        assert vectorized.kernel is GSPKernel.VECTORIZED
        assert reference.kernel is GSPKernel.REFERENCE
        assert np.max(np.abs(vectorized.speeds - reference.speeds)) <= 1e-8
        assert vectorized.converged == reference.converged
        assert vectorized.sweeps <= reference.sweeps

    @pytest.mark.parametrize("schedule", PARALLEL_SCHEDULES)
    def test_auto_kernel_resolves_to_vectorized(self, schedule):
        network, params, observed = make_world("grid", 0.1, seed=3)
        result = repro.propagate(
            network, params, observed, GSPConfig(schedule=schedule)
        )
        assert result.kernel is GSPKernel.VECTORIZED
        assert result.schedule is schedule

    def test_auto_kernel_keeps_reference_for_sequential_schedules(self):
        network, params, observed = make_world("grid", 0.1, seed=4)
        for schedule in (GSPSchedule.BFS, GSPSchedule.RANDOM, GSPSchedule.INDEX):
            result = repro.propagate(
                network, params, observed, GSPConfig(schedule=schedule, seed=1)
            )
            assert result.kernel is GSPKernel.REFERENCE

    def test_vectorized_kernel_rejects_sequential_schedule(self):
        network, params, observed = make_world("grid", 0.1, seed=5)
        config = GSPConfig(schedule=GSPSchedule.BFS, kernel=GSPKernel.VECTORIZED)
        with pytest.raises(repro.ModelError):
            repro.propagate(network, params, observed, config)

    def test_all_observed_short_circuits_both_kernels(self):
        network, params, observed = make_world("ring-radial", 1.0, seed=6)
        engine = GSPEngine(network)
        for kernel in (GSPKernel.REFERENCE, GSPKernel.VECTORIZED):
            result = engine.propagate(
                params,
                observed,
                GSPConfig(schedule=GSPSchedule.BFS_PARALLEL, kernel=kernel),
            )
            assert result.sweeps == 0
            assert result.converged
            expected = np.array([observed[i] for i in range(network.n_roads)])
            assert np.allclose(result.speeds, expected)


class TestBatch:
    def test_propagate_batch_matches_individual_calls(self):
        network, params_a, observed = make_world("grid", 0.15, seed=7)
        rng = np.random.default_rng(99)
        params_b = RTFSlot(
            slot=params_a.slot + 1,
            mu=params_a.mu * rng.uniform(0.9, 1.1, network.n_roads),
            sigma=params_a.sigma,
            rho=params_a.rho,
        )
        config = GSPConfig(schedule=GSPSchedule.BFS_COLORED, epsilon=1e-9, max_sweeps=3000)
        engine = GSPEngine(network)
        batch = engine.propagate_batch(
            [(params_a, observed), (params_b, observed)], config
        )
        solo_a = GSPEngine(network).propagate(params_a, observed, config)
        solo_b = GSPEngine(network).propagate(params_b, observed, config)
        assert np.allclose(batch[0].speeds, solo_a.speeds, atol=1e-12)
        assert np.allclose(batch[1].speeds, solo_b.speeds, atol=1e-12)
        # Same observed set → the second item reuses the compiled schedule.
        assert batch[1].provenance.schedule_cache_hit

    def test_module_level_batch_facade(self):
        network, params, observed = make_world("scale-free", 0.2, seed=8)
        config = GSPConfig(schedule=GSPSchedule.BFS_PARALLEL)
        results = repro.propagate_batch(network, [(params, observed)] * 2, config)
        assert len(results) == 2
        assert np.allclose(results[0].speeds, results[1].speeds)
