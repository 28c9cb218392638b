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
from .demonstrator import Demonstration, IncompleteDemonstrationError, demonstrate
from .generator import MAX_RETRIES, generate_demonstrated, generate_instance, make_config
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
from .scheduler import construct_schedule

CSV_FIELDS = ("experiment", "condition", "metric", "value", "replicate", "seed")

PROBLEM_KINDS = ("travel", "contention", "temporal")

MIN_LEAF = 10  # the leaf size every fixed-leaf model trains with


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
        writer.writerows([r.experiment, r.condition, r.metric, repr(float(r.value)),
                          r.replicate, r.seed] for r in rows)


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
    return "\n".join(
        f"{exp} | {cond} | {metric}: {mean:.4f} +/- {std:.4f} (n={n})"
        for (exp, cond, metric), (mean, std, n) in sorted(summarize(rows).items()))


# ---------------------------------------------------------------------------
# Demonstration corpora
# ---------------------------------------------------------------------------

def collect_demos(
    kinds,
    num_demos: int,
    epsilon: float,
    stream_seed: int,
    num_agents: int = 2,
    num_tasks: int = 20,
) -> list[Demonstration]:
    """One demonstration per freshly generated problem, cycling through the
    requested problem kinds.

    A noisy expert can run past the horizon that the noise-free one met.
    Such a run is retried on the same problem with the seed
    `derive_seed(stream_seed, "demo", kind, i, attempt)` for attempt 1, 2,
    ..., within `MAX_RETRIES` runs in all, and the demonstration records
    the seed that completed; when every run falls short, the last error is
    raised.
    """
    demos = []
    for i in range(num_demos):
        kind = kinds[i % len(kinds)]
        cfg = make_config(kind, num_agents=num_agents, num_tasks=num_tasks,
                          rng_seed=derive_seed(stream_seed, "gen", kind, i))
        demo = generate_demonstrated(cfg)
        rng_seed = derive_seed(stream_seed, "demo", kind, i)
        if epsilon == 0.0:
            # a noise-free expert never draws, so the generator's verifying
            # run is this demonstration but for its recorded seed
            demos.append(replace(demo, epsilon=epsilon, rng_seed=rng_seed))
            continue
        for attempt in range(MAX_RETRIES):
            seed = rng_seed if attempt == 0 else derive_seed(
                stream_seed, "demo", kind, i, attempt)
            try:
                demos.append(demonstrate(demo.problem, epsilon, seed,
                                         cfg.contention_threshold))
                break
            except IncompleteDemonstrationError:
                if attempt == MAX_RETRIES - 1:
                    raise
    return demos


def _replicates(experiment, condition, num_seeds, master_seed, kinds,
                num_demos, epsilon, **sizes):
    """(replicate, stream, train, test) per seed: a fresh demonstration
    stream, split 85/15."""
    for rep in range(num_seeds):
        stream = derive_seed(master_seed, experiment, condition, rep)
        demos = collect_demos(kinds, num_demos, epsilon, stream, **sizes)
        yield rep, stream, *split_demos(demos, 0.85, rng_seed=stream % 2**32)


def _accuracy_rows(experiment, condition, metrics, rep, stream) -> list[ResultRow]:
    return [ResultRow(experiment, condition, name, value, rep, stream)
            for name, value in (("sensitivity", metrics.sensitivity),
                                ("specificity", metrics.specificity))
            if value is not None]


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
    min_leaf: int | None = MIN_LEAF,
    master_seed: int = 0,
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
    for rep, stream, train, test in _replicates(
            "accuracy", data_condition, num_seeds, master_seed, kinds,
            num_demos, epsilon, num_agents=num_agents, num_tasks=num_tasks):
        leaf = min_leaf
        if leaf is None:
            leaf = cross_validate_min_leaf(build_pairwise_dataset(train))
            rows.append(ResultRow("accuracy", condition, "min_leaf_selected",
                                  float(leaf), rep, stream))
        rows += _accuracy_rows("accuracy", condition,
                               evaluate(train_policy(train, leaf), test),
                               rep, stream)
    return rows


def run_baseline_comparison(
    num_demos: int = 50,
    epsilon: float = 0.0,
    num_seeds: int = 5,
    num_tasks: int = 20,
    kinds=PROBLEM_KINDS,
    master_seed: int = 0,
) -> list[ResultRow]:
    """Pairwise vs pointwise vs fixed-width priority models on 2 agents,
    paired on the same demonstrations and splits. All three share the
    pairwise model's act classifier, so the comparison isolates the priority
    representation."""
    rows: list[ResultRow] = []
    base_condition = condition_label(demos=num_demos, epsilon=epsilon,
                                     agents=2, tasks=num_tasks)
    for rep, stream, train, test in _replicates(
            "baselines", base_condition, num_seeds, master_seed, kinds,
            num_demos, epsilon, num_tasks=num_tasks):
        pairwise = train_policy(train, MIN_LEAF)
        act = pairwise.act_tree
        for name, model in (
                ("pairwise", pairwise),
                ("pointwise", train_pointwise(train, MIN_LEAF, act_tree=act)),
                ("naive", train_naive(train, MIN_LEAF, act_tree=act))):
            rows += _accuracy_rows("baselines", base_condition + f",model={name}",
                                   evaluate(model, test), rep, stream)
    return rows


def run_covas_benchmark(
    num_instances: int = 20,
    num_tasks: int = 9,
    train_num_tasks: int | None = None,
    train_demos: int = 30,
    node_limit: int | None = None,
    time_limit: float | None = None,
    master_seed: int = 0,
) -> list[ResultRow]:
    """Cold vs policy-seeded exact search on fresh temporal instances with 2
    homogeneous agents, to the default 1e-3 gap.

    train_num_tasks lets the policy train on a different instance size than
    it seeds, exercising transfer.
    """
    rows: list[ResultRow] = []
    train_n = train_num_tasks if train_num_tasks is not None else num_tasks
    condition = condition_label(tasks=num_tasks, agents=2, train_tasks=train_n,
                                kind="temporal", homogeneous=True)
    train_stream = derive_seed(master_seed, "covas", condition, "train")
    demos = collect_demos(["temporal"], train_demos, 0.0, train_stream,
                          num_tasks=train_n)
    policy = train_policy(demos, MIN_LEAF)
    for i in range(num_instances):
        stream = derive_seed(master_seed, "covas", condition, "inst", i)
        problem = generate_instance(make_config(
            "temporal", num_tasks=num_tasks, rng_seed=stream))
        seed_schedule = construct_schedule(problem, policy)
        seed_ok = seed_schedule.complete and validate_schedule(
            problem, seed_schedule).feasible
        cold = branch_and_bound(problem, node_limit=node_limit,
                                time_limit=time_limit)
        warm = branch_and_bound(problem,
                                seed=seed_schedule if seed_ok else None,
                                node_limit=node_limit, time_limit=time_limit)

        def put(metric, value):
            rows.append(ResultRow("covas", condition, metric,
                                  float(value), i, stream))

        put("seed_feasible", seed_ok)
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
    paper_scale: bool = False,
    master_seed: int = 0,
) -> list[ResultRow]:
    """Objective degradation of the exact optimum under structured edits.

    Grid cells are (problem preset, edit kind, edit count 1-3) on 5-task,
    2-agent instances; each cell holds 5 problems x 2 replicates of ratios,
    plus count=0 control rows that are identically 1.0. paper_scale raises
    the volume to 15 problems and 5 replicates (2025 grid points).
    """
    num_problems, num_replicates = (15, 5) if paper_scale else (5, 2)
    rows: list[ResultRow] = []
    for pk in PROBLEM_KINDS:
        for p in range(num_problems):
            stream = derive_seed(master_seed, "sensitivity", pk, "problem", p)
            # deadline-free instances keep every edit re-timeable
            problem = generate_instance(make_config(
                pk, num_agents=2, num_tasks=5, fraction_with_deadlines=0.0,
                rng_seed=stream))
            optimal = branch_and_bound(problem, gap_threshold=0.0).schedule
            assert optimal is not None  # expert-feasible instances always solve
            for kind in PERTURBATION_KINDS:
                for count in range(4):
                    for r in range(num_replicates):
                        pseed = derive_seed(stream, kind, count, r)
                        condition = condition_label(preset=pk, kind=kind,
                                                    count=count)
                        try:
                            metric, value = "objective_ratio", objective_ratio(
                                perturb(problem, optimal, kind, count,
                                        rng_seed=pseed), optimal)
                        except PerturbationError:
                            metric, value = "perturbation_failed", 1.0
                        rows.append(ResultRow("sensitivity", condition, metric,
                                              value, p * num_replicates + r,
                                              pseed))
    return rows
