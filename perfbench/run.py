"""Benchmark entry point.

    python3 perfbench/run.py --workload learn-20 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, and the run fails if that directory is missing. One
process, one thread. After a repeated set-up, rounds of the workload run
until the next one would end past `--seconds` (at least one round).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The line before it is a JSON report with machine facts and every figure
the run computed, by name and unit. Every time is scaled to a reference
pace, measured in the same process while the timed work ran (see
harness.py); the report gives the whole run's pace. A traced run runs each
round twice, untraced and traced, reports the difference as tracing
overhead, and writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

# numpy reads these when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


def import_package() -> None:
    """Import demosched from this checkout's src/, never from elsewhere."""
    if not (SRC / "demosched" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import demosched

    if Path(demosched.__file__).resolve().parent != SRC / "demosched":
        raise SystemExit(f"benchmark: demosched imported from "
                         f"{demosched.__file__}, not from {SRC}")


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        sizes=None) -> tuple[dict, dict]:
    """Run one workload; return (final result, report)."""
    import harness
    import workloads

    facts = harness.machine_facts()
    sizes = sizes or workloads.FULL
    workload = workloads.make(workload_name, sizes)
    gate = harness.Gate()

    setup_recs, setup_s, state = [], [], {}
    for k in range(sizes.setups):
        # the last set-up is traced, so set-up-only layers have spans
        rec = harness.Recorder(trace=trace and k == sizes.setups - 1)
        took, state = rec.timed(workload.setup, rec, gate, seed)
        setup_s.append(took)
        setup_recs.append(rec)

    main = harness.Recorder(trace=trace)
    plain = harness.Recorder(trace=False)
    walls, overheads, rounds = [], [], []
    start = time.perf_counter()
    while True:
        index = len(walls)

        def timed(rec):
            return rec.timed(workload.round, rec, gate, seed, index, state)

        if trace:
            # alternate which twin goes first so neither owns a warm cache
            if index % 2:
                wall, out = timed(main)
                untraced, _ = timed(plain)
            else:
                untraced, _ = timed(plain)
                wall, out = timed(main)
            overheads.append(wall - untraced)
        else:
            wall, out = timed(main)
        walls.append(wall)
        rounds.append(out)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            break

    n = len(walls)
    # every set-up repeats the same work, so one is counted
    counted = [setup_recs[-1], main]
    workloads.check_rejections(gate, counted)
    failed_frac = gate.failed / max(gate.attempted, 1)
    e2e = workloads.end_to_end(main, setup_recs, setup_s, state, walls,
                               rounds, harness.peak_rss_mb(), failed_frac)
    layers = workloads.per_layer(main, setup_recs[-1], n)
    if trace:
        overhead = statistics.median(overheads)
        layers["bench.trace_overhead_s"] = overhead
        layers["bench.trace_overhead_frac"] = overhead / (
            statistics.median(walls) - overhead)
    e2e_units, layer_units = declared_metrics()
    report = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "rounds": n,
        "machine": facts,
        # yardstick time over the reference: 1.2 means 20 % slower
        "pace": {"setup": [r.pace() for r in setup_recs],
                 "rounds": main.pace(), "samples": len(main.yard)},
        "problems": gate.problems,
        # heuristic schedules rejected as warm starts, of those made
        "rejected": {
            layer: [sum(r.counts[layer + ".rejected"] for r in counted),
                    sum(r.calls[layer] for r in counted)]
            for layer in (workloads.DEMO, workloads.CONSTRUCT)},
        # traced runs time their rounds with tracing on
        "end_to_end": {k: [v, {**workloads.REPORT_UNITS, **e2e_units}[k]]
                       for k, v in e2e.items()},
    }
    if trace:
        report["per_layer"] = {k: [v, layer_units.get(k)]
                               for k, v in layers.items()}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{workload_name}-seed{seed}-trace.json"
        path.write_text(json.dumps({
            "workload": workload_name,
            "seed": seed,
            "setup_spans": setup_recs[-1].spans,
            "round_spans": main.spans,
            "self_s": {"setup": setup_recs[-1].self_times(),
                       "rounds": main.self_times()},
            "round_walls_s": walls,
            "trace_overhead_s": overheads,
        }))
        report["trace_file"] = str(path.relative_to(ROOT))
    chosen, units = (layers, layer_units) if trace else (e2e, e2e_units)
    missing = set(units) - set(chosen)
    if missing:
        raise SystemExit(f"benchmark: no value for {sorted(missing)}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(chosen[k]), "unit": units[k]}
                    for k in units},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
