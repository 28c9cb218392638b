"""Random instance generation with expert-verified feasibility.

`make_config` gives each problem kind's configuration. "travel",
"contention" and "temporal" each trigger one branch of the expert's rule
cascade:
- "travel": slow agents. The grid stays small: on a big one agents spend
  most of the run in transit, which bloats demonstrations without adding
  signal.
- "contention": two shared resources, under a contention threshold scaled
  to the task count.
- "temporal": a distinct resource and a deadline for every task.
"dense" is the noise benchmark: temporal tasks, with fast agents in a
compact workspace, make nearly every alive task a candidate, so epsilon
mistakes pick from many tasks and actually corrupt the training signal.

Every generated instance is played once by the noise-free mock expert; if
the expert cannot finish all tasks inside the horizon the instance is
discarded and redrawn, at most `MAX_RETRIES` draws in all.
`generate_instance` verifies with a run that records nothing
(`verify_expert`). `generate_demonstrated` records that run and hands the
demonstration back, so a caller that wants the noise-free demonstration
does not run the expert twice. Both draw the same stream and accept the
same instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AgentSpec, ProblemInstance, TaskSpec, travel_ticks
from .demonstrator import (
    Demonstration,
    IncompleteDemonstrationError,
    demonstrate,
    verify_expert,
)
from .heuristics import CONTENTION_THRESHOLD


FRACTION_WITH_WAITS = 0.25
DURATION_RANGE = (2, 8)
DEADLINE_SLACK = (0.6, 1.4)  # multiplies serial load
MAX_RETRIES = 25


class GenerationError(RuntimeError):
    """Retry budget exhausted without a demonstrably feasible instance."""


@dataclass(frozen=True)
class GenConfig:
    num_agents: int = 2
    num_tasks: int = 20
    grid: tuple[int, int] = (20, 20)
    homogeneous: bool = True
    fraction_with_deadlines: float = 0.6
    num_resources: int = 10
    speed_range: tuple[float, float] = (1.5, 3.0)
    rng_seed: int = 0
    contention_threshold: int = CONTENTION_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.fraction_with_deadlines <= 1.0:
            raise ValueError("fraction_with_deadlines must be in [0, 1]")
        if self.speed_range[0] > self.speed_range[1] or self.speed_range[0] <= 0:
            raise ValueError("bad speed range")
        if min(self.num_agents, self.num_tasks, self.num_resources) < 1:
            raise ValueError("counts must be positive")


# kind -> the GenConfig fields it sets, given the task count
KIND_FIELDS = {
    "travel": lambda n: dict(grid=(10, 10), speed_range=(0.6, 1.0),
                             fraction_with_deadlines=0.3),
    "contention": lambda n: dict(num_resources=2,
                                 contention_threshold=max(2, n * n // 4)),
    "temporal": lambda n: dict(num_resources=n, fraction_with_deadlines=1.0),
    "dense": lambda n: dict(num_resources=n, fraction_with_deadlines=1.0,
                            grid=(6, 6), speed_range=(9.0, 12.0)),
}


def make_config(kind: str, **overrides) -> GenConfig:
    """The configuration of problem kind `kind`, with `overrides` applied last."""
    num_tasks = int(overrides.get("num_tasks", GenConfig.num_tasks))
    return GenConfig(**{**KIND_FIELDS[kind](num_tasks), **overrides})


def _task_id(i: int, n: int) -> str:
    width = max(2, len(str(n - 1)))
    return f"t{i:0{width}d}"


def _sample_instance(config: GenConfig, rng: np.random.Generator) -> ProblemInstance:
    width, height = config.grid
    resources = tuple(f"r{i}" for i in range(config.num_resources))
    agents = tuple(
        AgentSpec(
            id=f"a{i}",
            start_location=(float(rng.integers(0, width + 1)),
                            float(rng.integers(0, height + 1))),
            speed=float(np.round(rng.uniform(*config.speed_range), 3)),
        )
        for i in range(config.num_agents)
    )
    lo, hi = DURATION_RANGE
    min_speed = min(a.speed for a in agents)
    diag = math.hypot(width, height)
    max_travel = travel_ticks(diag, min_speed)

    locations = [
        (float(rng.integers(0, width + 1)), float(rng.integers(0, height + 1)))
        for _ in range(config.num_tasks)
    ]
    base_durations = rng.integers(lo, hi + 1, size=config.num_tasks)
    durations: list[dict[str, int]] = []
    for i in range(config.num_tasks):
        if config.homogeneous:
            durations.append({a.id: int(base_durations[i]) for a in agents})
        else:
            per = {a.id: int(rng.integers(lo, hi + 1)) for a in agents}
            # occasionally drop an agent's capability, keeping at least one
            for a in agents:
                if len(per) > 1 and rng.random() < 0.1:
                    del per[a.id]
            durations.append(per)

    task_resources = [resources[int(rng.integers(len(resources)))]
                      for _ in range(config.num_tasks)]
    waits: list[tuple[tuple[str, int], ...]] = []
    for i in range(config.num_tasks):
        if i > 0 and rng.random() < FRACTION_WITH_WAITS:
            pred = int(rng.integers(i))  # earlier index keeps the graph acyclic
            waits.append(((_task_id(pred, config.num_tasks), int(rng.integers(0, 5))),))
        else:
            waits.append(())

    sum_max_dur = int(sum(max(d.values()) for d in durations))
    horizon = sum_max_dur + (config.num_tasks + config.num_agents) * max_travel
    # rough serial load per agent, used to scale deadlines
    load = sum_max_dur / config.num_agents + max_travel * (
        config.num_tasks / config.num_agents * 0.5 + 1
    )
    deadlines: list[int | None] = []
    for i in range(config.num_tasks):
        if rng.random() < config.fraction_with_deadlines:
            floor = int(max(d for d in durations[i].values())) + max_travel + 2
            slack = rng.uniform(*DEADLINE_SLACK)
            deadlines.append(max(floor, int(round(slack * load))))
        else:
            deadlines.append(None)

    tasks = tuple(
        TaskSpec(
            id=_task_id(i, config.num_tasks),
            location=locations[i],
            durations=durations[i],
            resource=task_resources[i],
            abs_deadline=deadlines[i],
            waits=waits[i],
        )
        for i in range(config.num_tasks)
    )
    return ProblemInstance(
        grid_size=(float(width), float(height)),
        agents=agents,
        tasks=tasks,
        resources=resources,
        horizon=horizon,
    )


def generate_instance(config: GenConfig) -> ProblemInstance:
    """Draw instances until the noise-free expert completes one, verified by
    an expert run that records nothing."""
    return _first_completed(config, lambda problem: verify_expert(
        problem, contention_threshold=config.contention_threshold))[0]


def generate_demonstrated(config: GenConfig) -> Demonstration:
    """The Demonstration, noise-free with rng_seed 0, of the instance
    `generate_instance` returns for `config`: the verifying run, recorded."""
    return _first_completed(config, lambda problem: demonstrate(
        problem, epsilon=0.0, rng_seed=0,
        contention_threshold=config.contention_threshold))[1]


def _first_completed(config: GenConfig, play) -> tuple[ProblemInstance, object]:
    """The first draw of `config`'s stream on which `play` does not raise
    IncompleteDemonstrationError, and what `play` returned for it."""
    rng = np.random.default_rng(config.rng_seed)
    # the message, not the error: its traceback would tie this frame, and
    # so the draw it returns, into a cycle only the garbage collector frees
    reason = ""
    for _ in range(MAX_RETRIES):
        problem = _sample_instance(config, rng)
        try:
            return problem, play(problem)
        except IncompleteDemonstrationError as exc:
            reason = str(exc)
    raise GenerationError(f"no feasible instance after {MAX_RETRIES} draws: {reason}")
