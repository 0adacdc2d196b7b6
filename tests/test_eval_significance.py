"""Unit tests for the paired bootstrap significance test."""

import numpy as np
import pytest

import repro
from repro.errors import ExperimentError
from repro.eval.significance import paired_bootstrap


class TestPairedBootstrap:
    def test_clear_winner_significant(self, rng):
        truths = rng.uniform(40, 80, 300)
        good = truths * (1 + rng.normal(0, 0.02, 300))
        bad = truths * (1 + rng.normal(0, 0.3, 300))
        result = paired_bootstrap(good, bad, truths, seed=1)
        assert result.mean_difference < 0
        assert result.significant
        assert result.p_value < 0.05

    def test_identical_estimators_not_significant(self, rng):
        truths = rng.uniform(40, 80, 200)
        estimates = truths * (1 + rng.normal(0, 0.1, 200))
        result = paired_bootstrap(estimates, estimates.copy(), truths, seed=2)
        assert result.mean_difference == pytest.approx(0.0)
        assert not result.significant

    def test_ci_contains_mean(self, rng):
        truths = rng.uniform(40, 80, 150)
        a = truths * (1 + rng.normal(0, 0.05, 150))
        b = truths * (1 + rng.normal(0, 0.08, 150))
        result = paired_bootstrap(a, b, truths, seed=3)
        assert result.ci_low <= result.mean_difference <= result.ci_high

    def test_counts_recorded(self, rng):
        truths = rng.uniform(40, 80, 50)
        result = paired_bootstrap(truths, truths, truths, n_resamples=100, seed=4)
        assert result.n_cases == 50
        assert result.n_resamples == 100

    def test_validation(self, rng):
        truths = rng.uniform(40, 80, 20)
        with pytest.raises(ExperimentError):
            paired_bootstrap(truths, truths, truths, n_resamples=5)
        with pytest.raises(ExperimentError):
            paired_bootstrap(truths, truths, truths, confidence=1.5)

    def test_gsp_vs_per_on_real_pipeline(self, tiny_dataset, tiny_system):
        """Integration: quantify GSP vs Per over the test days."""
        gsp_all, per_all, truth_all = [], [], []
        params = tiny_system.model.slot(tiny_dataset.slot)
        for day in range(tiny_dataset.test_history.n_days):
            market = repro.CrowdMarket(
                tiny_dataset.network, tiny_dataset.pool, tiny_dataset.cost_model,
                rng=np.random.default_rng(day),
            )
            truth = repro.truth_oracle_for(
                tiny_dataset.test_history, day, tiny_dataset.slot
            )
            result = tiny_system.answer_query(
                repro.EstimationRequest(
                    queried=tiny_dataset.queried,
                    slot=tiny_dataset.slot,
                    budget=30,
                    warm_start=False,
                ),
                market=market,
                truth=truth,
            )
            gsp_all.append(result.estimates_kmh)
            per_all.append(params.mu[list(tiny_dataset.queried)])
            truth_all.append(np.array([truth(q) for q in tiny_dataset.queried]))
        result = paired_bootstrap(
            np.concatenate(gsp_all),
            np.concatenate(per_all),
            np.concatenate(truth_all),
            seed=5,
        )
        # GSP's mean error is lower (may or may not be significant on
        # this tiny instance, but the direction must hold).
        assert result.mean_difference < 0.01
