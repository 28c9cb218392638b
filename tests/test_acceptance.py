"""End-to-end acceptance runs at the tolerances stated in the project goals.

Each test prints one CRITERION line (also echoed in the terminal summary).
These run full experiment volumes and take a few minutes in total.
"""

import numpy as np

from conftest import record_criterion
from demosched.experiments import (
    run_accuracy_sweep,
    run_baseline_comparison,
    run_covas_benchmark,
    run_sensitivity_grid,
)
from demosched.generator import generate_instance, make_config
from demosched.optimizer import branch_and_bound, brute_force_optimal


def metric_values(rows, metric, cond=""):
    return [r.value for r in rows if r.metric == metric and cond in r.condition]


def per_replicate(rows):
    out = {}
    for r in rows:
        out.setdefault(r.replicate, {})[r.metric] = r.value
    return out


def test_criterion_1_learning_accuracy():
    """150 clean demos, 2 homogeneous agents, 20 tasks, 85/15 split: mean
    sensitivity and specificity of 0.85 or better over 5 seeds."""
    rows = run_accuracy_sweep(num_demos=150, epsilon=0.0, num_seeds=5,
                              num_agents=2, num_tasks=20, min_leaf=10,
                              master_seed=0)
    sens = float(np.mean(metric_values(rows, "sensitivity")))
    spec = float(np.mean(metric_values(rows, "specificity")))
    ok = sens >= 0.85 and spec >= 0.85
    record_criterion(1, ok, f"sensitivity {sens:.3f}, specificity {spec:.3f} "
                            "(threshold 0.85 each)")
    assert ok


def test_criterion_2_method_ordering():
    """Pairwise beats pointwise beats fixed-width, each gap above 0.02."""
    rows = run_baseline_comparison(num_demos=50, epsilon=0.0, num_seeds=5,
                                   master_seed=0)
    means = {
        name: float(np.mean(metric_values(rows, "sensitivity",
                                          f"model={name}")))
        for name in ("pairwise", "pointwise", "naive")
    }
    gap1 = means["pairwise"] - means["pointwise"]
    gap2 = means["pointwise"] - means["naive"]
    ok = gap1 > 0.02 and gap2 > 0.02
    record_criterion(
        2, ok,
        f"pairwise {means['pairwise']:.3f} > pointwise "
        f"{means['pointwise']:.3f} > naive {means['naive']:.3f} "
        f"(gaps {gap1:.3f}, {gap2:.3f} > 0.02)")
    assert ok


def test_criterion_3_noise_robustness():
    """15 demos recorded with 20% decision noise, leaf size tuned by cross
    validation: both accuracy metrics at 0.80 or better over 10 seeds.

    Uses the dense problem kind, where noisy decisions draw from large
    candidate pools and genuinely corrupt the training labels."""
    rows = run_accuracy_sweep(num_demos=15, epsilon=0.2, num_seeds=10,
                              kinds=("dense",), min_leaf=None, master_seed=0)
    sens = float(np.mean(metric_values(rows, "sensitivity")))
    spec = float(np.mean(metric_values(rows, "specificity")))
    ok = sens >= 0.80 and spec >= 0.80
    record_criterion(3, ok, f"sensitivity {sens:.3f}, specificity {spec:.3f} "
                            "at epsilon=0.2 (threshold 0.80 each)")
    assert ok


def test_criterion_4_tuning_benefit():
    """Cross-validated leaf size beats min_leaf=1 by at least +0.05 mean
    sensitivity on 5 noisy demos, paired on identical demonstrations."""
    kw = dict(num_demos=5, epsilon=0.2, num_seeds=10, kinds=("dense",),
              master_seed=0)
    tuned = run_accuracy_sweep(min_leaf=None, **kw)
    untuned = run_accuracy_sweep(min_leaf=1, **kw)
    gain = (float(np.mean(metric_values(tuned, "sensitivity")))
            - float(np.mean(metric_values(untuned, "sensitivity"))))
    ok = gain >= 0.05
    record_criterion(4, ok, f"tuned-vs-untuned sensitivity gain {gain:+.3f} "
                            "(threshold +0.05)")
    assert ok


def test_criterion_5_exactness():
    """Branch and bound matches exhaustive enumeration on 50 instances with
    at most 4 tasks and 2 agents."""
    kinds = ("temporal", "travel", "contention")
    matches = 0
    for i in range(50):
        kind = kinds[i % 3]
        problem = generate_instance(make_config(
            kind, num_tasks=3 + (i % 2), num_agents=2, rng_seed=5000 + i))
        exact = branch_and_bound(problem, gap_threshold=0.0)
        oracle = brute_force_optimal(problem)
        if oracle is not None and exact.objective == oracle.objective:
            matches += 1
    ok = matches == 50
    record_criterion(5, ok, f"objective equality with brute force on "
                            f"{matches}/50 instances")
    assert ok


def test_criterion_6_warm_start_dominance():
    """On 20 nine-task instances: the seeded search never explores more
    nodes than the cold one, the median node reduction is at least 1.3x
    among runs whose seed is within 20% of the optimum, and every search
    closes the 1e-3 optimality gap."""
    rows = run_covas_benchmark(num_instances=20, num_tasks=9, master_seed=0)
    per = per_replicate(rows)
    nc = np.array([per[i]["nodes_cold"] for i in sorted(per)])
    ns = np.array([per[i]["nodes_seeded"] for i in sorted(per)])
    ratio = np.array([per[i].get("seed_ratio", np.nan) for i in sorted(per)])
    dominance = int((ns <= nc).sum())
    mask = ratio <= 1.2
    median_red = float(np.median(nc[mask] / np.maximum(ns[mask], 1)))
    gap_max = max(max(p["gap_cold"], p["gap_seeded"]) for p in per.values())
    ok = dominance == 20 and median_red >= 1.3 and gap_max <= 1e-3
    record_criterion(
        6, ok,
        f"seeded<=cold on {dominance}/20, median node reduction "
        f"{median_red:.2f}x over {int(mask.sum())} runs with seed ratio "
        f"<=1.2 (threshold 1.3x), max gap {gap_max:.1e}")
    assert ok


def test_criterion_7_transfer():
    """A policy trained on 10-task instances seeds search on 20-task
    instances: at least 18/20 feasible seeds, and the seeded run closes the
    gap within the node limit whenever the cold run does."""
    rows = run_covas_benchmark(num_instances=20, num_tasks=20,
                               train_num_tasks=10, node_limit=10000,
                               master_seed=0)
    per = per_replicate(rows)
    feasible = int(sum(p["seed_feasible"] for p in per.values()))
    violations = sum(
        1 for p in per.values()
        if p["gap_cold"] <= 1e-3 and p["gap_seeded"] > 1e-3)
    cold_solved = sum(1 for p in per.values() if p["gap_cold"] <= 1e-3)
    ok = feasible >= 18 and violations == 0
    record_criterion(
        7, ok,
        f"{feasible}/20 feasible seeds (threshold 18), {violations} "
        f"instances where cold closed the gap but seeded did not "
        f"(cold closed {cold_solved})")
    assert ok


def test_criterion_8_sensitivity_grid_structure():
    """The perturbation grid spans exactly 27 cells, the paper-scale volume
    is 2,025 data points, and count=0 controls score ratio 1.0 exactly."""
    rows = run_sensitivity_grid(master_seed=0)
    cells = {r.condition for r in rows
             if r.metric == "objective_ratio" and "count=0" not in r.condition}
    controls = [r.value for r in rows
                if r.metric == "objective_ratio" and "count=0" in r.condition]
    big = run_sensitivity_grid(paper_scale=True, master_seed=0)
    points = sum(1 for r in big
                 if r.metric in ("objective_ratio", "perturbation_failed")
                 and "count=0" not in r.condition)
    ok = (len(cells) == 27 and points == 2025
          and all(v == 1.0 for v in controls) and len(controls) > 0)
    record_criterion(
        8, ok,
        f"{len(cells)} grid cells (expected 27), {points} paper-scale data "
        f"points (expected 2025), all {len(controls)} count=0 controls at "
        "ratio 1.0")
    assert ok
