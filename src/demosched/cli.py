"""Command line front end.

Every subcommand reads and writes the stable v1 JSON/CSV formats so runs
can be scripted and artifacts inspected or diffed.
"""

from __future__ import annotations

import json
import sys

import click

from .core import (
    StructuralError,
    load_json,
    problem_from_dict,
    problem_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    validate_schedule,
)
from .datasets import build_pairwise_dataset
from .demonstrator import demonstrate as run_demonstrate
from .demonstrator import demonstration_from_dict, demonstration_to_dict
from .experiments import (
    format_summary,
    make_config,
    run_accuracy_sweep,
    run_baseline_comparison,
    run_covas_benchmark,
    run_sensitivity_grid,
    write_rows_csv,
)
from .generator import generate_instance
from .optimizer import branch_and_bound
from .policy import PolicyModel, cross_validate_min_leaf, evaluate as run_evaluate, train_policy
from .scheduler import SchedulerConfig, construct_schedule


@click.group()
def main():
    """Learn scheduling policies from demonstrations and warm-start exact
    optimization with them."""


COUNT = click.IntRange(min=1)
# the 85/15 train/test split needs at least one held-out demonstration
DEMOS = click.IntRange(min=2)
PROBABILITY = click.FloatRange(0.0, 1.0)
SECONDS = click.FloatRange(min=0.0)


def _load(path, parse):
    """`parse` of the JSON at `path`; a malformed file is an error, not a traceback."""
    try:
        return parse(load_json(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise click.ClickException(f"{path}: {exc}") from exc


@main.command()
@click.option("--kind", type=click.Choice(["travel", "contention", "temporal"]),
              default="temporal", show_default=True)
@click.option("--agents", type=COUNT, default=2, show_default=True)
@click.option("--tasks", type=COUNT, default=20, show_default=True)
@click.option("--heterogeneous", is_flag=True,
              help="Vary task durations per agent and drop some capabilities.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def generate(kind, agents, tasks, heterogeneous, seed, out):
    """Generate a random problem the rule-based expert can complete."""
    cfg = make_config(kind, num_agents=agents, num_tasks=tasks,
                      homogeneous=not heterogeneous, rng_seed=seed)
    problem = generate_instance(cfg)
    save_json(problem_to_dict(problem), out)
    click.echo(f"wrote {out} ({tasks} tasks, {agents} agents, kind={kind})")


@main.command(name="demonstrate")
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=PROBABILITY, default=0.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def demonstrate_cmd(problem_path, epsilon, seed, out):
    """Record one expert playthrough of a problem."""
    problem = _load(problem_path, problem_from_dict)
    demo = run_demonstrate(problem, epsilon=epsilon, rng_seed=seed)
    save_json(demonstration_to_dict(demo), out)
    click.echo(f"wrote {out} (rule={demo.rule_used.value}, "
               f"{len(demo.observations)} observations)")


def _min_leaf(ctx, param, value: str) -> int | None:
    """`--min-leaf`: an integer leaf size >= 1, or None for 'cv'."""
    if value == "cv":
        return None
    try:
        leaf = int(value)
    except ValueError:
        leaf = 0
    if leaf < 1:
        raise click.BadParameter(f"expected 'cv' or an integer >= 1, got {value!r}")
    return leaf


@main.command()
@click.option("--demos", "demo_paths", type=click.Path(exists=True),
              multiple=True, required=True)
@click.option("--min-leaf", default="cv", show_default=True, callback=_min_leaf,
              help="Integer leaf size, or 'cv' to cross-validate.")
@click.option("--out", type=click.Path(), required=True)
def train(demo_paths, min_leaf, out):
    """Train the pairwise priority and act models from demonstrations."""
    demos = [_load(path, demonstration_from_dict) for path in demo_paths]
    if min_leaf is None:
        min_leaf = cross_validate_min_leaf(build_pairwise_dataset(demos))
        click.echo(f"cross-validated min_leaf: {min_leaf}")
    model = train_policy(demos, min_leaf=min_leaf)
    save_json(model.to_dict(), out)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--demos", "demo_paths", type=click.Path(exists=True),
              multiple=True, required=True)
def evaluate(model_path, demo_paths):
    """Report decision accuracy of a model against held-out demonstrations."""
    model = _load(model_path, PolicyModel.from_dict)
    demos = [_load(path, demonstration_from_dict) for path in demo_paths]
    metrics = run_evaluate(model, demos)
    click.echo(json.dumps({
        "sensitivity": metrics.sensitivity,
        "specificity": metrics.specificity,
        "num_scheduling_obs": metrics.num_scheduling_obs,
        "num_idle_obs": metrics.num_idle_obs,
    }, indent=2))


@main.command()
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--no-schedulability-test", is_flag=True)
@click.option("--fallback-depth", type=COUNT, default=3, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def schedule(problem_path, model_path, no_schedulability_test, fallback_depth, out):
    """Build a schedule by replaying a trained policy."""
    problem = _load(problem_path, problem_from_dict)
    model = _load(model_path, PolicyModel.from_dict)
    config = SchedulerConfig(
        use_schedulability_test=not no_schedulability_test,
        fallback_depth=fallback_depth,
    )
    result = construct_schedule(problem, model, config)
    save_json(schedule_to_dict(result), out)
    report = validate_schedule(problem, result)
    click.echo(f"wrote {out} (objective={result.objective}, "
               f"complete={result.complete}, feasible={report.feasible})")
    if not (result.complete and report.feasible):
        sys.exit(1)


@main.command()
@click.option("--problem", "problem_path", type=click.Path(exists=True), required=True)
@click.option("--seed-schedule", "seed_path", type=click.Path(exists=True))
@click.option("--gap", type=click.FloatRange(min=0.0), default=1e-3, show_default=True)
@click.option("--node-limit", type=click.IntRange(min=0))
@click.option("--time-limit", type=SECONDS, help="Seconds.")
@click.option("--out", type=click.Path(), required=True)
def optimize(problem_path, seed_path, gap, node_limit, time_limit, out):
    """Minimize makespan exactly, optionally warm-started from a schedule."""
    problem = _load(problem_path, problem_from_dict)
    seed = _load(seed_path, schedule_from_dict) if seed_path else None
    try:
        result = branch_and_bound(problem, seed=seed, gap_threshold=gap,
                                  node_limit=node_limit, time_limit=time_limit)
    except StructuralError as exc:  # the seed names a task or agent not in the problem
        raise click.ClickException(f"{seed_path}: {exc}") from exc
    if result.schedule is None:
        raise click.ClickException(f"no feasible schedule found ({result.status})")
    save_json(schedule_to_dict(result.schedule), out)
    click.echo(json.dumps({
        "objective": result.objective,
        "lower_bound": result.lower_bound,
        "gap": result.gap,
        "nodes_explored": result.nodes_explored,
        "wall_time": round(result.wall_time, 3),
        "seeded": result.seeded,
        "status": result.status,
        "stats": result.stats,
    }, indent=2))


@main.group()
def experiment():
    """Batch experiments; results land in long-format CSV."""


def _finish(rows, out):
    if out:
        write_rows_csv(rows, out)
        click.echo(f"wrote {out} ({len(rows)} rows)")
    click.echo(format_summary(rows))


@experiment.command()
@click.option("--demos", type=DEMOS, default=150, show_default=True)
@click.option("--epsilon", type=PROBABILITY, default=0.0, show_default=True)
@click.option("--num-seeds", type=COUNT, default=5, show_default=True)
@click.option("--min-leaf", default="10", show_default=True, callback=_min_leaf,
              help="Integer leaf size, or 'cv'.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def accuracy(demos, epsilon, num_seeds, min_leaf, seed, out):
    """Held-out sensitivity and specificity of the pairwise policy."""
    rows = run_accuracy_sweep(num_demos=demos, epsilon=epsilon,
                              num_seeds=num_seeds, min_leaf=min_leaf,
                              master_seed=seed)
    _finish(rows, out)


@experiment.command()
@click.option("--demos", type=DEMOS, default=50, show_default=True)
@click.option("--epsilon", type=PROBABILITY, default=0.0, show_default=True)
@click.option("--num-seeds", type=COUNT, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def baselines(demos, epsilon, num_seeds, seed, out):
    """Pairwise vs pointwise vs fixed-width priority models."""
    rows = run_baseline_comparison(num_demos=demos, epsilon=epsilon,
                                   num_seeds=num_seeds, master_seed=seed)
    _finish(rows, out)


@experiment.command()
@click.option("--instances", type=COUNT, default=20, show_default=True)
@click.option("--tasks", type=COUNT, default=9, show_default=True)
@click.option("--train-tasks", type=COUNT, help="Train the policy at a different size.")
@click.option("--time-limit", type=SECONDS, help="Per search, seconds.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def covas(instances, tasks, train_tasks, time_limit, seed, out):
    """Cold vs policy-seeded exact optimization."""
    rows = run_covas_benchmark(num_instances=instances, num_tasks=tasks,
                               train_num_tasks=train_tasks,
                               time_limit=time_limit, master_seed=seed)
    _finish(rows, out)


@experiment.command()
@click.option("--paper-scale", is_flag=True,
              help="15 problems x 5 replicates per grid cell (2025 points).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path())
def sensitivity(paper_scale, seed, out):
    """Objective degradation of the optimum under structured edits."""
    rows = run_sensitivity_grid(paper_scale=paper_scale, master_seed=seed)
    _finish(rows, out)


if __name__ == "__main__":
    main()
