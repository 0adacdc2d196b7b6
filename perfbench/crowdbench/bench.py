"""One benchmark invocation: set up, run, check, report."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro import SemiSynConfig

from crowdbench import layers, stats, workloads
from crowdbench.trace import Recorder, wrapper_cost_s
from crowdbench.world import PAPER, World, boot_matches_fit, build_world, set_up


@dataclass
class Report:
    """What the command prints."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    notes: List[str] = field(default_factory=list)


def _outcome_notes(run: workloads.Run) -> List[str]:
    latency = stats.summarize([a.latency_ms for a in workloads.answered(run)])
    counts = {k: sum(a.outcome == k for a in run.attempts) for k in ("ok", "degraded", "failed", "rejected")}
    notes = [
        f"# {run.name}: {len(run.attempts)} attempted {counts}",
        f"# latency samples {latency.n}, beyond p90 {latency.beyond_p90}"
        f" (p90 trusted from {stats.MIN_BEYOND})",
    ]
    if run.feed is not None:
        lag = stats.summarize(run.feed.lags_ms)
        notes.append(f"# publish-lag samples {lag.n}, beyond p90 {lag.beyond_p90}")
    return notes


def reset_peak_rss() -> None:
    """Start a new peak-RSS window: the kernel resets this process's
    high-water mark (VmHWM) to its current resident set."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """This process's peak resident set (MiB) since :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    config: SemiSynConfig = PAPER,
) -> Report:
    """Run ``workload`` once and report its end-to-end (``trace=False``)
    or per-layer (``trace=True``) metrics.

    The traced run of ``cold_distinct`` also climbs the rate ladder.
    """
    world, setup_ms = set_up(config, workdir)
    problems = [] if boot_matches_fit(world) else ["booted store answers differ from the fitted one"]
    if not trace:
        reset_peak_rss()
        result = workloads.run_workload(workload, world, seed, seconds)
        metrics = workloads.end_to_end(result, setup_ms["total"] / 1e3, peak_rss_mb())
        problems += workloads.check(result, world)
        notes = _outcome_notes(result)
    else:
        result, metrics, notes = _traced(workload, seed, seconds, workdir, config, world, setup_ms)
        problems += workloads.check(result, world)
    notes += [f"# check failed: {p}" for p in problems]
    failed = sum(a.outcome in ("failed", "rejected") for a in result.attempts)
    return Report(not problems, len(result.attempts), failed, metrics, notes)


def _traced(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    config: SemiSynConfig,
    world: World,
    setup_ms: Dict[str, float],
) -> Tuple[workloads.Run, Dict[str, float], List[str]]:
    rec = Recorder()
    publishes_before = world.system.store.stats.publishes
    try:
        result = workloads.run_workload(
            workload, world, seed, seconds,
            hook=lambda market, feed: layers.instrument(rec, world, market, feed),
        )
    finally:
        rec.restore()
    metrics = layers.per_layer(rec, result, world, publishes_before, wrapper_cost_s())
    metrics.update({
        "setup.fit_ms": setup_ms["fit"],
        "setup.snapshot_write_ms": setup_ms["snapshot_write"],
        "setup.load_store_ms": setup_ms["load_store"],
        "setup.corr_warm_ms": setup_ms["corr_warm"],
    })
    notes = _outcome_notes(result)
    notes.append(
        f"# tracing overhead {metrics['trace.overhead_ms']:.3f} ms per request "
        f"({metrics['trace.spans_per_request']:.1f} spans at the calibrated wrapper cost)"
    )
    root = metrics["pipeline.root_ms_p50"]
    if root:
        notes.append(
            f"# unattributed p50 {metrics['pipeline.unattributed_ms_p50']:.2f} ms = "
            f"{100 * metrics['pipeline.unattributed_ms_p50'] / root:.2f}% of the root p50"
        )
    max_rate = 0.0
    if workload == "cold_distinct":
        ladder_dir = workdir / "ladder"
        ladder_dir.mkdir()
        ladder_world = build_world(config, ladder_dir)
        max_rate, log = stats.climb(
            stats.LADDER_QPS,
            lambda rate: workloads.ladder_rung(ladder_world, seed, rate),
            workloads.LATENCY_LIMIT_MS,
        )
        notes += [f"# ladder {entry}" for entry in log]
    metrics["max_rate_qps"] = max_rate
    return result, metrics, notes
