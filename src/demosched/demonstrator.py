"""Mock expert: plays a problem tick by tick with the selected rule and
records one observation per (tick, idle agent), optionally corrupted by
epsilon-greedy noise. `verify_expert` plays the same noise-free run and
records nothing, to learn only whether the expert finishes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SCHEMA_VERSION, ProblemInstance, Schedule, StructuralError, _number
from .core import problem_from_dict, problem_to_dict, schedule_from_dict, schedule_to_dict
from .features import (
    Observation,
    context_features,
    extract_features,
    observation_from_dict,
    observation_to_dict,
)
from .heuristics import CONTENTION_THRESHOLD, RuleKind, expert_choice, select_rule
from .simulate import run_simulation


class IncompleteDemonstrationError(RuntimeError):
    """The expert hit the horizon with unfinished tasks."""


@dataclass(frozen=True)
class Demonstration:
    problem: ProblemInstance
    observations: tuple[Observation, ...]
    rule_used: RuleKind
    epsilon: float
    rng_seed: int
    schedule: Schedule


def demonstrate(
    problem: ProblemInstance,
    epsilon: float = 0.0,
    rng_seed: int = 0,
    contention_threshold: int = CONTENTION_THRESHOLD,
) -> Demonstration:
    """Run the rule-based expert once and record its playthrough.

    With probability epsilon a decision is replaced by a uniform draw over
    the currently feasible candidates, so even noisy runs stay executable.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    rule = select_rule(problem, contention_threshold)
    observations: list[Observation] = []
    schedule = _play(problem, rule, epsilon, rng_seed, observations)
    return Demonstration(
        problem=problem,
        observations=tuple(observations),
        rule_used=rule,
        epsilon=epsilon,
        rng_seed=rng_seed,
        schedule=schedule,
    )


def verify_expert(problem: ProblemInstance,
                  contention_threshold: int = CONTENTION_THRESHOLD) -> None:
    """Play the noise-free expert through `problem` once, recording nothing.

    Raises IncompleteDemonstrationError exactly when `demonstrate(problem,
    0.0, contention_threshold=contention_threshold)` would: the decisions
    are the same, since each task's features do not depend on which other
    tasks are featurized and the rule reads only the candidates'.
    """
    _play(problem, select_rule(problem, contention_threshold), 0.0, 0, None)


def _play(problem: ProblemInstance, rule: RuleKind, epsilon: float,
          rng_seed: int, observations: list[Observation] | None) -> Schedule:
    """The expert's playthrough, behind `demonstrate` and `verify_expert`.

    With a list, one observation per (tick, idle agent) is appended to it,
    featurizing every unfinished task; with None, only the candidates of a
    decision that has any are featurized.
    """
    rng = np.random.default_rng(rng_seed)
    if observations is not None:
        contexts = [context_features(problem, agent) for agent in problem.agents]

    def decide(state, a, candidates):
        if observations is None and not candidates:
            return None
        cp = state.compiled
        features = extract_features(
            state, a, candidates if observations is None else state.unfinished())
        ids = tuple(sorted(cp.task_ids[t] for t in candidates))
        chosen = None
        if ids:
            if epsilon > 0.0 and rng.random() < epsilon:
                chosen = ids[int(rng.integers(len(ids)))]
            else:
                chosen = expert_choice(rule, features, ids)
        if observations is not None:
            observations.append(
                Observation(
                    tick=state.time,
                    context=contexts[a],
                    task_features=features,
                    candidates=ids,
                    scheduled=(chosen, cp.agent_ids[a]) if chosen is not None else None,
                )
            )
        return None if chosen is None else cp.task_index[chosen]

    state, schedule = run_simulation(problem, decide)
    unfinished = sum(f is None or f > state.time for f in state.finish)
    if unfinished:
        raise IncompleteDemonstrationError(
            f"horizon {problem.horizon} reached with {unfinished} unfinished tasks"
        )
    return schedule


def demonstration_to_dict(demo: Demonstration) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": problem_to_dict(demo.problem),
        "observations": [observation_to_dict(o) for o in demo.observations],
        "rule_used": demo.rule_used.value,
        "epsilon": demo.epsilon,
        "rng_seed": demo.rng_seed,
        "schedule": schedule_to_dict(demo.schedule),
    }


def demonstration_from_dict(data: dict) -> Demonstration:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise StructuralError(f"unsupported schema version {data.get('schema_version')!r}")
    epsilon = _number(data["epsilon"], "demonstration epsilon")
    if not 0.0 <= epsilon <= 1.0:
        raise StructuralError(f"demonstration epsilon must be in [0, 1], got {epsilon!r}")
    problem = problem_from_dict(data["problem"])
    observations = []
    for i, obs in enumerate(data["observations"]):
        try:
            observations.append(observation_from_dict(obs))
        except (StructuralError, AttributeError) as exc:
            raise StructuralError(f"observation {i}: {exc}") from None
    return Demonstration(
        problem=problem,
        observations=tuple(observations),
        rule_used=RuleKind(data["rule_used"]),
        epsilon=float(epsilon),
        rng_seed=_number(data["rng_seed"], "demonstration rng_seed", (int,)),
        schedule=schedule_from_dict(data["schedule"]),
    )
