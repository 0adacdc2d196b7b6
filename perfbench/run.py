"""CrowdRTSE benchmark: one workload against the PAPER-scale world.

Run from the repository root:

    python3 perfbench/run.py --workload cold_distinct --seed 1 --seconds 55 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs the workload with wrappers around the
layers' public calls and reports the per-layer metrics.  Each metric is
printed on its own line with its unit; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every output check passed.

The workloads, the metrics and their units are those ``BENCHMARK.json``
at the repository root lists.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"refusing to measure repro imported from {repro.__file__}", file=sys.stderr)
        return 2

    from crowdbench import bench

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
    for line in report.notes:
        print(line)
    for name, value in report.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
