"""Percentile rule, ladder stop rule and backlog-growth detector."""

import numpy as np
import pytest

from crowdbench import stats


def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(0)
    samples = list(rng.exponential(100.0, size=137))
    for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
        assert stats.percentile(samples, q) == pytest.approx(np.percentile(samples, 100 * q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_p90_needs_ten_samples_beyond():
    # p90 of n samples sits at position 0.9 * (n - 1) of the sorted list.
    assert stats.beyond(100, 0.9) == 10
    assert stats.beyond(92, 0.9) == 10
    assert stats.supported(92, 0.9)
    assert stats.beyond(91, 0.9) == 9
    assert not stats.supported(91, 0.9)
    assert stats.supported(200, 0.95)
    assert not stats.supported(10, 0.0)


def test_highest_supported_quantile():
    assert stats.highest_supported(10) is None
    assert stats.highest_supported(40) == pytest.approx(29 / 39)
    assert stats.supported(40, stats.highest_supported(40))
    assert stats.highest_supported(1000) == pytest.approx(0.9)


def test_growing_detects_a_climbing_queue_only():
    assert not stats.growing([0, 1, 0, 2, 1, 0, 1, 0, 1], tolerance=2)
    assert stats.growing([0, 0, 1, 2, 3, 4, 5, 6, 7], tolerance=2)
    assert not stats.growing([0, 5, 9], tolerance=2)  # too short to tell


def _rung(rate, latencies, failed=0, depths=None, late=None):
    n = len(latencies)
    return stats.Rung(
        rate, list(latencies), failed,
        list(depths) if depths is not None else [0] * n,
        list(late) if late is not None else [0.0] * n,
    )


def test_rung_verdict():
    limit = 250.0
    fast = [100.0] * 40
    assert _rung(2, fast).verdict(limit)[0]
    assert not _rung(2, fast, failed=1).verdict(limit)[0]
    assert not _rung(2, fast[:10]).verdict(limit)[0]
    # p74 of 40 samples (position 29) is what the limit applies to: 9
    # slow samples pass, 11 do not.
    assert _rung(2, [100.0] * 31 + [900.0] * 9).verdict(limit)[0]
    assert not _rung(2, [100.0] * 29 + [900.0] * 11).verdict(limit)[0]
    climbing = [k // 4 for k in range(40)]
    assert not _rung(2, fast, depths=climbing).verdict(limit)[0]
    assert not _rung(2, fast, late=[10.0 * k for k in range(40)]).verdict(limit)[0]


def test_climb_stops_at_the_first_failing_rung():
    ran = []

    def run_rung(rate):
        ran.append(rate)
        return _rung(rate, [50.0 * rate] * 40)

    best, log = stats.climb((1, 2, 4, 8, 16), run_rung, limit_ms=250.0)
    assert best == 4
    assert ran == [1, 2, 4, 8]
    assert [entry["ok"] for entry in log] == [True, True, True, False]


def test_climb_reports_zero_when_the_first_rung_fails():
    best, log = stats.climb((2, 4), lambda rate: _rung(rate, [400.0] * 40), 250.0)
    assert best == 0.0
    assert len(log) == 1


def test_climb_reaches_the_top_when_every_rung_passes():
    best, _ = stats.climb((2, 4), lambda rate: _rung(rate, [1.0] * 40), 250.0)
    assert best == 4
