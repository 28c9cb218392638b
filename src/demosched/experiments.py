"""Reproducible experiment harness.

Every experiment emits long-format result rows (one metric value per row)
with a deterministic seed derived from the master seed and the condition,
so reruns reproduce results exactly and conditions never share RNG streams.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .core import validate_schedule
from .datasets import build_pairwise_dataset
from .demonstrator import Demonstration, demonstrate
from .generator import GenConfig, generate_demonstrated, generate_instance, preset
from .optimizer import (
    PERTURBATION_KINDS,
    PerturbationError,
    branch_and_bound,
    objective_ratio,
    perturb,
)
from .policy import (
    cross_validate_min_leaf,
    evaluate,
    split_demos,
    train_naive,
    train_pointwise,
    train_policy,
)
from .scheduler import SchedulerConfig, construct_schedule

CSV_FIELDS = ("experiment", "condition", "metric", "value", "replicate", "seed")

PROBLEM_KINDS = ("travel", "contention", "temporal")

# keep travel instances small: slow agents on a big grid spend most of the
# run in transit, which bloats demonstrations without adding signal.
# "dense" is the noise benchmark: fast agents in a compact workspace make
# nearly every alive task a candidate, so epsilon mistakes pick from many
# tasks and actually corrupt the training signal
KIND_PRESETS: dict[str, str] = {
    "travel": "travel",
    "contention": "contention",
    "temporal": "temporal",
    "dense": "temporal",
}
KIND_OVERRIDES: dict[str, dict] = {
    "travel": {"grid": (10, 10), "speed_range": (0.6, 1.0)},
    "contention": {},
    "temporal": {},
    "dense": {"grid": (6, 6), "speed_range": (9.0, 12.0)},
}


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    condition: str
    metric: str
    value: float
    replicate: int
    seed: int


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit stream id from the master seed and condition labels."""
    text = "|".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def condition_label(**kv) -> str:
    return ",".join(f"{k}={kv[k]}" for k in sorted(kv))


def write_rows_csv(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for r in rows:
            writer.writerow(
                [r.experiment, r.condition, r.metric, repr(float(r.value)),
                 r.replicate, r.seed]
            )


def read_rows_csv(path: str) -> list[ResultRow]:
    out = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            out.append(ResultRow(
                experiment=rec["experiment"],
                condition=rec["condition"],
                metric=rec["metric"],
                value=float(rec["value"]),
                replicate=int(rec["replicate"]),
                seed=int(rec["seed"]),
            ))
    return out


def summarize(rows: list[ResultRow]) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    """(experiment, condition, metric) -> (mean, stddev, count)."""
    groups: dict[tuple[str, str, str], list[float]] = {}
    for r in rows:
        groups.setdefault((r.experiment, r.condition, r.metric), []).append(r.value)
    return {
        key: (float(np.mean(vals)), float(np.std(vals)), len(vals))
        for key, vals in groups.items()
    }


def format_summary(rows: list[ResultRow]) -> str:
    lines = []
    for (exp, cond, metric), (mean, std, n) in sorted(summarize(rows).items()):
        lines.append(f"{exp} | {cond} | {metric}: {mean:.4f} +/- {std:.4f} (n={n})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Demonstration corpora
# ---------------------------------------------------------------------------

def make_config(kind: str, **overrides) -> GenConfig:
    merged = dict(KIND_OVERRIDES[kind])
    merged.update(overrides)
    return preset(KIND_PRESETS[kind], **merged)


def collect_demos(
    kinds,
    num_demos: int,
    epsilon: float,
    stream_seed: int,
    num_agents: int = 2,
    num_tasks: int = 20,
    homogeneous: bool = True,
    **config_overrides,
) -> list[Demonstration]:
    """One demonstration per freshly generated problem, cycling through the
    requested problem kinds."""
    kinds = list(kinds)
    demos = []
    for i in range(num_demos):
        kind = kinds[i % len(kinds)]
        cfg = make_config(
            kind,
            num_agents=num_agents,
            num_tasks=num_tasks,
            homogeneous=homogeneous,
            rng_seed=derive_seed(stream_seed, "gen", kind, i),
            **config_overrides,
        )
        rng_seed = derive_seed(stream_seed, "demo", kind, i)
        if epsilon == 0.0:
            # a noise-free expert never draws, so the generator's verifying
            # run is this demonstration but for its recorded seed
            demos.append(replace(generate_demonstrated(cfg), epsilon=epsilon,
                                 rng_seed=rng_seed))
            continue
        demos.append(demonstrate(
            generate_instance(cfg),
            epsilon=epsilon,
            rng_seed=rng_seed,
            contention_threshold=cfg.contention_threshold,
        ))
    return demos


def _train_all(train: list[Demonstration], min_leaf: int):
    """Train all three priority models with a shared act classifier so the
    comparison isolates the priority representation."""
    pairwise = train_policy(train, min_leaf)
    pointwise = train_pointwise(train, min_leaf, act_tree=pairwise.act_tree)
    naive = train_naive(train, min_leaf, act_tree=pairwise.act_tree)
    return pairwise, pointwise, naive


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_accuracy_sweep(
    num_demos: int = 150,
    epsilon: float = 0.0,
    num_seeds: int = 5,
    num_agents: int = 2,
    num_tasks: int = 20,
    kinds=PROBLEM_KINDS,
    min_leaf: int | None = 10,
    master_seed: int = 0,
    experiment: str = "accuracy",
) -> list[ResultRow]:
    """Held-out decision accuracy of the pairwise policy.

    min_leaf=None selects the leaf size by cross-validation on the training
    split of each replicate.
    """
    rows: list[ResultRow] = []
    # the data stream ignores min_leaf so tuned and untuned runs are paired
    # on identical demonstrations
    data_condition = condition_label(
        demos=num_demos, epsilon=epsilon, agents=num_agents, tasks=num_tasks,
        kinds="+".join(kinds),
    )
    condition = data_condition + ",min_leaf=" + (
        "cv" if min_leaf is None else str(min_leaf))
    for rep in range(num_seeds):
        stream = derive_seed(master_seed, experiment, data_condition, rep)
        demos = collect_demos(kinds, num_demos, epsilon, stream,
                              num_agents=num_agents, num_tasks=num_tasks)
        train, test = split_demos(demos, 0.85, rng_seed=stream % 2**32)
        leaf = min_leaf
        if leaf is None:
            leaf = cross_validate_min_leaf(build_pairwise_dataset(train))
            rows.append(ResultRow(experiment, condition, "min_leaf_selected",
                                  float(leaf), rep, stream))
        metrics = evaluate(train_policy(train, leaf), test)
        if metrics.sensitivity is not None:
            rows.append(ResultRow(experiment, condition, "sensitivity",
                                  metrics.sensitivity, rep, stream))
        if metrics.specificity is not None:
            rows.append(ResultRow(experiment, condition, "specificity",
                                  metrics.specificity, rep, stream))
    return rows


def run_baseline_comparison(
    num_demos: int = 50,
    epsilon: float = 0.0,
    num_seeds: int = 5,
    num_agents: int = 2,
    num_tasks: int = 20,
    kinds=PROBLEM_KINDS,
    min_leaf: int = 10,
    master_seed: int = 0,
    experiment: str = "baselines",
) -> list[ResultRow]:
    """Pairwise vs pointwise vs fixed-width priority models, paired on the
    same demonstrations, splits and act classifier."""
    rows: list[ResultRow] = []
    base_condition = condition_label(demos=num_demos, epsilon=epsilon,
                                     agents=num_agents, tasks=num_tasks)
    for rep in range(num_seeds):
        stream = derive_seed(master_seed, experiment, base_condition, rep)
        demos = collect_demos(kinds, num_demos, epsilon, stream,
                              num_agents=num_agents, num_tasks=num_tasks)
        train, test = split_demos(demos, 0.85, rng_seed=stream % 2**32)
        models = dict(zip(("pairwise", "pointwise", "naive"),
                          _train_all(train, min_leaf)))
        for name, model in models.items():
            metrics = evaluate(model, test)
            condition = base_condition + f",model={name}"
            if metrics.sensitivity is not None:
                rows.append(ResultRow(experiment, condition, "sensitivity",
                                      metrics.sensitivity, rep, stream))
            if metrics.specificity is not None:
                rows.append(ResultRow(experiment, condition, "specificity",
                                      metrics.specificity, rep, stream))
    return rows


def run_covas_benchmark(
    num_instances: int = 20,
    num_tasks: int = 9,
    num_agents: int = 2,
    train_num_tasks: int | None = None,
    train_demos: int = 30,
    kind: str = "temporal",
    min_leaf: int = 10,
    gap_threshold: float = 1e-3,
    node_limit: int | None = None,
    time_limit: float | None = None,
    master_seed: int = 0,
    experiment: str = "covas",
    homogeneous: bool = True,
    **config_overrides,
) -> list[ResultRow]:
    """Cold vs policy-seeded exact search on fresh instances.

    train_num_tasks lets the policy train on a different instance size than
    it seeds, exercising transfer.
    """
    rows: list[ResultRow] = []
    train_n = train_num_tasks if train_num_tasks is not None else num_tasks
    condition = condition_label(tasks=num_tasks, agents=num_agents,
                                train_tasks=train_n, kind=kind,
                                homogeneous=homogeneous)
    train_stream = derive_seed(master_seed, experiment, condition, "train")
    demos = collect_demos([kind], train_demos, 0.0, train_stream,
                          num_agents=num_agents, num_tasks=train_n,
                          homogeneous=homogeneous, **config_overrides)
    policy = train_policy(demos, min_leaf)
    for i in range(num_instances):
        stream = derive_seed(master_seed, experiment, condition, "inst", i)
        cfg = make_config(kind, num_agents=num_agents, num_tasks=num_tasks,
                          rng_seed=stream, homogeneous=homogeneous,
                          **config_overrides)
        problem = generate_instance(cfg)
        seed_schedule = construct_schedule(problem, policy, SchedulerConfig())
        seed_ok = seed_schedule.complete and validate_schedule(
            problem, seed_schedule).feasible
        cold = branch_and_bound(problem, gap_threshold=gap_threshold,
                                node_limit=node_limit, time_limit=time_limit)
        warm = branch_and_bound(problem,
                                seed=seed_schedule if seed_ok else None,
                                gap_threshold=gap_threshold,
                                node_limit=node_limit, time_limit=time_limit)

        def put(metric, value):
            rows.append(ResultRow(experiment, condition, metric,
                                  float(value), i, stream))

        put("seed_feasible", 1.0 if seed_ok else 0.0)
        put("nodes_cold", cold.nodes_explored)
        put("nodes_seeded", warm.nodes_explored)
        put("wall_cold", cold.wall_time)
        put("wall_seeded", warm.wall_time)
        put("gap_cold", cold.gap)
        put("gap_seeded", warm.gap)
        if cold.objective is not None:
            put("objective", cold.objective)
            if seed_ok:
                put("seed_ratio", seed_schedule.objective / cold.objective)
        if seed_ok:
            beat = next((n for n, obj in warm.incumbent_trace
                         if obj < seed_schedule.objective), None)
            if beat is not None:
                put("nodes_to_beat_seed", beat)
    return rows


def run_sensitivity_grid(
    num_problems: int = 5,
    num_replicates: int = 2,
    num_tasks: int = 5,
    num_agents: int = 2,
    presets=PROBLEM_KINDS,
    kinds=PERTURBATION_KINDS,
    counts=(1, 2, 3),
    paper_scale: bool = False,
    master_seed: int = 0,
    experiment: str = "sensitivity",
) -> list[ResultRow]:
    """Objective degradation of the exact optimum under structured edits.

    Grid cells are (problem preset, edit kind, edit count); each cell holds
    num_problems * num_replicates ratios, plus count=0 control rows that are
    identically 1.0. paper_scale raises the volume to 15 problems and 5
    replicates (2025 grid points).
    """
    if paper_scale:
        num_problems, num_replicates = 15, 5
    rows: list[ResultRow] = []
    for pk in presets:
        for p in range(num_problems):
            stream = derive_seed(master_seed, experiment, pk, "problem", p)
            # deadline-free instances keep every edit re-timeable
            cfg = make_config(pk, num_agents=num_agents, num_tasks=num_tasks,
                              fraction_with_deadlines=0.0, rng_seed=stream)
            problem = generate_instance(cfg)
            optimal = branch_and_bound(problem, gap_threshold=0.0).schedule
            assert optimal is not None  # expert-feasible instances always solve
            for kind in kinds:
                for count in (0,) + tuple(counts):
                    for r in range(num_replicates):
                        pseed = derive_seed(stream, kind, count, r)
                        condition = condition_label(preset=pk, kind=kind,
                                                    count=count)
                        try:
                            edited = perturb(problem, optimal, kind, count,
                                             rng_seed=pseed)
                        except PerturbationError:
                            rows.append(ResultRow(
                                experiment, condition, "perturbation_failed",
                                1.0, p * num_replicates + r, pseed))
                            continue
                        rows.append(ResultRow(
                            experiment, condition, "objective_ratio",
                            objective_ratio(edited, optimal),
                            p * num_replicates + r, pseed))
    return rows
