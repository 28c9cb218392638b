"""Smoke test of the benchmark itself: every workload at a tiny size, untraced
and traced, must pass its correctness gate and produce every metric that
BENCHMARK.json names, with the declared unit and a finite value.

    python3 perfbench/smoke.py

Takes a few seconds; exits non-zero on the first problem.
"""

from __future__ import annotations

import math
import sys

import run


def check_collect_matches_experiments() -> None:
    """The benchmark's timed demo loop yields collect_demos' demos."""
    from demosched.demonstrator import demonstration_to_dict
    from demosched.experiments import collect_demos

    import harness
    import workloads

    kinds, stream = ["travel", "temporal"], 12345
    ours = workloads.collect(harness.Recorder(trace=False), harness.Gate(),
                             kinds, 4, stream, num_tasks=5)
    theirs = collect_demos(kinds, 4, 0.0, stream, num_tasks=5)
    assert [demonstration_to_dict(d) for d in ours] == \
        [demonstration_to_dict(d) for d in theirs], "collect differs"


def main() -> int:
    run.import_package()
    import workloads

    check_collect_matches_experiments()
    e2e_units, layer_units = run.declared_metrics()
    for name in workloads.WORKLOADS:
        for trace, units in ((False, e2e_units), (True, layer_units)):
            result, report = run.run(name, seed=7, seconds=0, trace=trace,
                                     sizes=workloads.TINY)
            label = f"{name} trace={int(trace)}"
            assert result["correct"] and result["failed"] == 0, \
                f"{label}: {report['problems']}"
            assert result["attempted"] >= 1, label
            metrics = result["metrics"]
            assert set(metrics) == set(units), f"{label}: metric names differ"
            for metric, unit in units.items():
                got = metrics[metric]
                assert got["unit"] == unit, f"{label}: {metric} unit"
                assert math.isfinite(got["value"]), f"{label}: {metric}"
            if trace:
                assert report["trace_file"], label
            print(f"ok {label}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
