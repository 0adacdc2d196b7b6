"""Tiny end-to-end runs of every workload, timed and traced."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from crowdbench import bench, stats, workloads
from crowdbench.world import TINY, build_world

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload, tmp_path):
    report = bench.run(workload, seed=3, seconds=2.0, trace=False, workdir=tmp_path, config=TINY)
    assert report.correct, report.notes
    assert report.attempted >= 1 and report.failed == 0
    assert set(report.metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in report.metrics.values()), report.metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "LADDER_QPS", ())
    report = bench.run(workload, seed=3, seconds=3.0, trace=True, workdir=tmp_path, config=TINY)
    assert report.correct, report.notes
    assert set(report.metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert 0 < report.metrics["trace.overhead_ms"] < report.metrics["pipeline.root_ms_p50"]
    assert report.metrics["gsp.calls"] > 0 and report.metrics["ocs.calls"] > 0
    if workload == "stream_refresh":
        assert report.metrics["stream.publishes"] > 0
        assert report.metrics["stream.publish_lag_p50_ms"] > 0
        assert report.metrics["store.publishes"] == report.metrics["stream.publishes"]
    else:
        assert report.metrics["stream.publishes"] == 0


def test_sweeps_per_call_repeats_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(stats, "LADDER_QPS", ())
    sweeps = []
    for k in range(2):
        workdir = tmp_path / str(k)
        workdir.mkdir()
        report = bench.run("cold_distinct", 5, 3.0, True, workdir, config=TINY)
        sweeps.append(report.metrics["gsp.sweeps_per_call"])
    assert sweeps[0] == sweeps[1] > 0


def test_ladder_rung_on_the_serve_mix(tmp_path):
    world = build_world(TINY, tmp_path)
    attempts = workloads.ladder_attempts(world, np.random.default_rng(1), rate_qps=64.0)
    # Every queried set is asked four times, by one shared request object.
    assert len(attempts) == stats.RUNG_REQUESTS
    assert {sum(b.request is a.request for b in attempts) for a in attempts} == {4}
    rung = workloads.ladder_rung(world, seed=1, rate_qps=64.0)
    assert len(rung.latencies_ms) + rung.failed == len(rung.depths) == stats.RUNG_REQUESTS


def test_peak_rss_window_starts_at_the_reset():
    bench.reset_peak_rss()
    before = bench.peak_rss_mb()
    block = np.ones(64 * 2**20 // 8)
    grown = bench.peak_rss_mb()
    del block
    bench.reset_peak_rss()
    assert grown - before > 48
    assert bench.peak_rss_mb() < grown - 48


def test_benchmark_json_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["end_to_end"][0]["name"] == "setup_s"
    assert max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert SPEC["run_seconds"] * (4 + 22 * len(SPEC["workloads"])) < 3420
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_stream_replay_work_is_fixed_by_seconds(tmp_path):
    world = build_world(TINY, tmp_path)
    run = workloads.run_workload("stream_refresh", world, 3, 2 * workloads.WINDOW_SECONDS)
    assert len(run.warmup) == workloads.WARMUP_REQUESTS
    assert len(run.attempts) == 2 * workloads.QUERIES_PER_WINDOW
    slots = [a.request.slot for a in run.attempts]
    assert slots == sorted(slots) and len(set(slots)) == 2
    assert run.feed.refresher.stats.publishes > 0
    assert workloads.check(run, world) == []
