"""The deprecated ``precision="float32"`` spelling (PrecisionPolicy).

GSP has one numeric path: every sweep runs in float64.  ``float64`` is
the default and changes nothing — ``resolve_gsp_config`` returns the
caller's config (including ``None``) untouched.  ``float32`` is
deprecated: wherever it enters (request, ``GSPConfig``,
``with_precision``, ``resolve_gsp_config``, the CLI flag, a trace line)
it emits one ``DeprecationWarning`` per process, and its one remaining
effect is the schedule it selects — an ``AUTO``-kernel config on a
non-vectorizable schedule runs ``BFS_PARALLEL``; any other config runs
as given.  A float32 answer is therefore bit-identical to the float64
answer under ``GSPConfig(schedule=GSPSchedule.BFS_PARALLEL)``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.cli import EXIT_OK, main
from repro.core.gsp import (
    GSPConfig,
    GSPKernel,
    GSPSchedule,
    PrecisionPolicy,
    propagate,
)
from repro.core.pipeline import CrowdRTSE
from repro.core.request import EstimationRequest
from repro.errors import ModelError, reset_deprecation_warnings
from repro.serve import load_workload

WARN_KEY = "precision.float32"


@pytest.fixture(scope="module")
def observed(small_world):
    params = small_world["params"]
    roads = [0, 7, 19, 33, 48]
    return {r: float(params.mu[r] * 0.8) for r in roads}


def _deprecations(caught):
    return [
        w for w in caught
        if issubclass(w.category, DeprecationWarning)
        and 'precision="float32"' in str(w.message)
    ]


class TestWithPrecision:
    def test_float64_is_identity_on_precision(self):
        config = GSPConfig(schedule=GSPSchedule.BFS)
        adjusted = config.with_precision("float64")
        assert adjusted.precision is PrecisionPolicy.FLOAT64
        assert adjusted.schedule is GSPSchedule.BFS

    def test_auto_kernel_upgrades_schedule_for_float32(self):
        adjusted = GSPConfig(schedule=GSPSchedule.BFS).with_precision("float32")
        assert adjusted.precision is PrecisionPolicy.FLOAT32
        assert adjusted.schedule is GSPSchedule.BFS_PARALLEL

    def test_vectorizable_schedule_kept(self):
        adjusted = GSPConfig(schedule=GSPSchedule.BFS_COLORED).with_precision(
            "float32"
        )
        assert adjusted.schedule is GSPSchedule.BFS_COLORED

    def test_reference_kernel_runs_as_given(self, small_world, observed):
        """An explicit kernel keeps its schedule and propagates in float64."""
        config = GSPConfig(schedule=GSPSchedule.BFS, kernel=GSPKernel.REFERENCE)
        adjusted = config.with_precision("float32")
        assert adjusted.schedule is GSPSchedule.BFS
        assert adjusted.kernel is GSPKernel.REFERENCE
        network, params = small_world["network"], small_world["params"]
        ref = propagate(network, params, observed, config)
        fast = propagate(network, params, observed, adjusted)
        assert np.array_equal(fast.speeds, ref.speeds)

    def test_unknown_precision_rejected(self):
        with pytest.raises(ModelError, match="precision"):
            GSPConfig().with_precision("float16")


class TestResolveGSPConfig:
    def test_float64_returns_config_untouched(self):
        config = GSPConfig(epsilon=1e-5)
        assert CrowdRTSE.resolve_gsp_config(config, "float64") is config
        assert CrowdRTSE.resolve_gsp_config(None, "float64") is None

    def test_float32_builds_default_config_when_none(self):
        resolved = CrowdRTSE.resolve_gsp_config(None, "float32")
        assert resolved is not None
        assert resolved.precision is PrecisionPolicy.FLOAT32
        assert resolved.schedule is GSPSchedule.BFS_PARALLEL


class TestFieldTolerance:
    """The tolerance is zero: float32 runs the float64 sweep."""

    def test_float32_field_within_contract(self, small_world, observed):
        network = small_world["network"]
        params = small_world["params"]
        base = GSPConfig(schedule=GSPSchedule.BFS_PARALLEL, epsilon=1e-4)
        ref = propagate(network, params, observed, base)
        fast = propagate(network, params, observed, base.with_precision("float32"))
        assert ref.converged and fast.converged
        assert np.array_equal(fast.speeds, ref.speeds)
        assert fast.sweeps == ref.sweeps

    def test_observed_roads_clamped_exactly(self, small_world, observed):
        network = small_world["network"]
        params = small_world["params"]
        fast = propagate(
            network,
            params,
            observed,
            GSPConfig(schedule=GSPSchedule.BFS_PARALLEL).with_precision("float32"),
        )
        for road, speed in observed.items():
            assert fast.speeds[road] == speed

    def test_float32_field_is_float64_dtype_on_return(self, small_world, observed):
        """The public field is always float64."""
        fast = propagate(
            small_world["network"],
            small_world["params"],
            observed,
            GSPConfig(schedule=GSPSchedule.BFS_PARALLEL).with_precision("float32"),
        )
        assert fast.speeds.dtype == np.float64


def _answer(system, data, precision, gsp_config=None):
    market = repro.CrowdMarket(
        data.network, data.pool, data.cost_model,
        rng=np.random.default_rng(3),
    )
    truth = repro.truth_oracle_for(data.test_history, 0, data.slot)
    return system.answer_query(
        EstimationRequest(
            queried=data.queried,
            slot=data.slot,
            budget=15,
            precision=precision,
            warm_start=False,
        ),
        market=market,
        truth=truth,
        gsp_config=gsp_config,
    )


class TestEndToEndPrecision:
    def _parallel(self, system, data):
        return _answer(
            system, data, "float64", GSPConfig(schedule=GSPSchedule.BFS_PARALLEL)
        )

    def test_selection_is_precision_independent(self, tiny_system, tiny_dataset):
        ref = self._parallel(tiny_system, tiny_dataset)
        fast = _answer(tiny_system, tiny_dataset, "float32")
        assert ref.selection.selected == fast.selection.selected
        assert ref.probes == fast.probes

    def test_answers_within_contract(self, tiny_system, tiny_dataset):
        ref = self._parallel(tiny_system, tiny_dataset)
        fast = _answer(tiny_system, tiny_dataset, "float32")
        assert fast.gsp.schedule is GSPSchedule.BFS_PARALLEL
        assert np.array_equal(fast.full_field_kmh, ref.full_field_kmh)

    def test_float64_requests_are_reproducible(self, tiny_system, tiny_dataset):
        first = _answer(tiny_system, tiny_dataset, "float64")
        second = _answer(tiny_system, tiny_dataset, "float64")
        assert np.array_equal(first.full_field_kmh, second.full_field_kmh)


def _via_request():
    EstimationRequest(queried=(1,), slot=0, budget=5, precision="float32")


def _via_config():
    GSPConfig(precision="float32")


def _via_with_precision():
    GSPConfig().with_precision("float32")


def _via_resolve():
    CrowdRTSE.resolve_gsp_config(None, "float32")


def _via_cli_flag():
    code = main([
        "query", "--roads", "40", "--queried", "6", "--train-days", "4",
        "--test-days", "1", "--slots", "2", "--budget", "8",
        "--precision", "float32",
    ])
    assert code == EXIT_OK


class TestDeprecation:
    @pytest.fixture()
    def trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"slot": 1, "queried": [1], "budget": 5, "precision": "float32"}\n'
        )
        return path

    @pytest.mark.parametrize(
        "spell",
        [_via_request, _via_config, _via_with_precision, _via_resolve, _via_cli_flag],
        ids=["request", "gsp_config", "with_precision", "resolve", "cli_flag"],
    )
    def test_float32_warns_once_per_process(self, spell):
        reset_deprecation_warnings(WARN_KEY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spell()
            spell()
        (warning,) = _deprecations(caught)
        assert "v3.0" in str(warning.message)
        assert "BFS_PARALLEL" in str(warning.message)
        # Re-armed by the reset hook.
        reset_deprecation_warnings(WARN_KEY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spell()
        assert len(_deprecations(caught)) == 1

    def test_trace_line_warns_once(self, trace):
        reset_deprecation_warnings(WARN_KEY)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (item,) = load_workload(trace)
            load_workload(trace)
        assert item.precision == "float32"
        assert len(_deprecations(caught)) == 1

    def test_default_request_does_not_warn(self, tiny_system, tiny_dataset):
        reset_deprecation_warnings()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            _answer(tiny_system, tiny_dataset, "float64")
            GSPConfig().with_precision("float64")
            CrowdRTSE.resolve_gsp_config(None, "float64")
