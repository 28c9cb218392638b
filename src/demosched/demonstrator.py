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


@dataclass(frozen=True, eq=False)  # compare through demonstration_to_dict
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
    records: list[tuple] = []
    schedule = _play(problem, rule, epsilon, rng_seed, records)
    return Demonstration(
        problem=problem,
        observations=_pack(records),
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
          rng_seed: int, records: list[tuple] | None) -> Schedule:
    """The expert's playthrough, behind `demonstrate` and `verify_expert`.

    With a list, one observation's fields per (tick, idle agent) are
    appended to it, featurizing every unfinished task; with None, only the
    candidates of a decision that has any are featurized.
    """
    rng = np.random.default_rng(rng_seed)
    if records is not None:
        contexts = [context_features(problem, agent) for agent in problem.agents]

    def decide(state, a, candidates):
        if records is None and not candidates:
            return None
        cp, feasible = state.compiled, set(candidates)
        tasks = candidates if records is None else state.unfinished()
        pool = [p for p, t in enumerate(tasks) if t in feasible]  # ascends: both are in id order
        rows = extract_features(state, a, tasks)
        chosen = None
        if pool:
            if epsilon > 0.0 and rng.random() < epsilon:
                chosen = pool[int(rng.integers(len(pool)))]
            else:
                chosen = expert_choice(rule, rows, pool)
        if records is not None:
            task_ids = tuple(cp.task_ids[t] for t in tasks)
            records.append((state.time, contexts[a], task_ids, rows,
                            tuple(task_ids[p] for p in pool),
                            None if chosen is None else (task_ids[chosen], cp.agent_ids[a])))
        return None if chosen is None else tasks[chosen]

    state, schedule = run_simulation(problem, decide)
    unfinished = sum(f is None or f > state.time for f in state.finish)
    if unfinished:
        raise IncompleteDemonstrationError(
            f"horizon {problem.horizon} reached with {unfinished} unfinished tasks"
        )
    return schedule


def _pack(records: list[tuple]) -> tuple[Observation, ...]:
    """The observations whose fields `records` holds, their rows views of one
    read-only buffer: one allocation per demonstration, not per observation."""
    if not records:
        return ()
    buffer = np.concatenate([rows for _, _, _, rows, _, _ in records])
    buffer.flags.writeable = False
    observations, end = [], 0
    for tick, context, task_ids, _, candidates, scheduled in records:
        start, end = end, end + len(task_ids)
        observations.append(Observation(tick, context, task_ids, buffer[start:end],
                                        candidates, scheduled))
    return tuple(observations)


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
    tasks = {t.id for t in problem.tasks}
    agents = [a.id for a in problem.agents]
    records = []
    for i, obs in enumerate(data["observations"]):
        try:
            observation = observation_from_dict(obs)
            unknown = [tid for tid in observation.task_ids if tid not in tasks]
            if unknown:
                raise StructuralError(f"tasks {unknown!r} are not in the problem")
            if observation.scheduled is not None and observation.scheduled[1] not in agents:
                raise StructuralError(f"scheduled agent {observation.scheduled[1]!r} "
                                      f"is not in the problem")
        except (StructuralError, AttributeError) as exc:
            raise StructuralError(f"observation {i}: {exc}") from None
        records.append((observation.tick, observation.context, observation.task_ids,
                        observation.rows, observation.candidates, observation.scheduled))
    return Demonstration(
        problem=problem,
        observations=_pack(records),
        rule_used=RuleKind(data["rule_used"]),
        epsilon=float(epsilon),
        rng_seed=_number(data["rng_seed"], "demonstration rng_seed", (int,)),
        schedule=schedule_from_dict(data["schedule"]),
    )
