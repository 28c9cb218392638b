"""Random instance generation with expert-verified feasibility.

Every generated instance is replayed once by the noise-free mock expert; if
the expert cannot finish all tasks inside the horizon the instance is
discarded and redrawn, at most `MAX_RETRIES` draws in all.
`generate_demonstrated` hands that verifying demonstration back, so a caller
that wants the noise-free demonstration does not run the expert twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AgentSpec,
    InfeasibleActionError,
    ProblemInstance,
    TaskSpec,
    travel_ticks,
)
from .demonstrator import Demonstration, IncompleteDemonstrationError, demonstrate
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


def preset(kind: str, **overrides) -> GenConfig:
    """Configurations that trigger each branch of the rule cascade.

    "travel": slow agents; "contention": few shared resources and a
    threshold scaled to the task count; "temporal": distinct resources and
    deadlines on every task.
    """
    if kind == "travel":
        base = GenConfig(speed_range=(0.4, 0.9), fraction_with_deadlines=0.3)
    elif kind == "contention":
        num_tasks = int(overrides.get("num_tasks", GenConfig.num_tasks))
        base = GenConfig(
            num_resources=2,
            contention_threshold=max(2, num_tasks * num_tasks // 4),
        )
    elif kind == "temporal":
        num_tasks = int(overrides.get("num_tasks", GenConfig.num_tasks))
        base = GenConfig(num_resources=num_tasks, fraction_with_deadlines=1.0)
    else:
        raise ValueError(f"unknown preset {kind!r}")
    return replace(base, **overrides)


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
    """Draw instances until the noise-free expert completes one."""
    return generate_demonstrated(config).problem


def generate_demonstrated(config: GenConfig) -> Demonstration:
    """The Demonstration, noise-free with rng_seed 0, that verified the
    instance `generate_instance` returns for `config`."""
    rng = np.random.default_rng(config.rng_seed)
    last_error: Exception | None = None
    for _ in range(MAX_RETRIES):
        problem = _sample_instance(config, rng)
        try:
            return demonstrate(problem, epsilon=0.0, rng_seed=0,
                               contention_threshold=config.contention_threshold)
        except (IncompleteDemonstrationError, InfeasibleActionError) as exc:
            last_error = exc
    raise GenerationError(
        f"no feasible instance after {MAX_RETRIES} draws: {last_error}"
    )
