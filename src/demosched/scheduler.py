"""Schedule construction by replaying a learned policy tick by tick.

The policy ranks the feasible candidates, the act model decides whether to
schedule at all, and, unless `fallback_depth` is 1, a schedulability test
can veto the top pick in favour of the next-ranked candidate. Each decision
asks the policy's batch methods, `select_tasks` and `predict_acts`, with one
query, the same interface `policy.evaluate` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemInstance, Schedule, SimState, apply_action
from .features import context_features, extract_features
from .simulate import run_simulation


@dataclass(frozen=True)
class SchedulerConfig:
    fallback_depth: int = 3  # ranked candidates the test may try; 1 runs no test

    def __post_init__(self):
        if self.fallback_depth < 1:
            raise ValueError("fallback_depth must be >= 1")


def schedulability_test(state: SimState) -> bool:
    """Optimistic check that no task is already doomed to miss its deadline.

    Uses lower bounds (ignores resource contention, unstarted predecessors
    and future congestion), so a False answer is a certain miss while True
    is only a maybe. Every task is checked against its effective deadline
    (`Compiled.deadline`): a running task by its finish, an unstarted one by
    its earliest finish on any capable agent.
    """
    cp, now, finish = state.compiled, state.time, state.finish
    for t, f in enumerate(finish):
        if f is not None:
            if now < f > cp.deadline[t]:
                return False
            continue
        enable = now
        for p, gap in cp.waits[t]:
            if finish[p] is not None:
                enable = max(enable, finish[p] + gap)
        if not any(
            max(enable, state.agent_free[a] + cp.travel[a][state.agent_loc[a]][t])
            + cp.duration[t][a] <= cp.deadline[t]
            for a in cp.capable[t]
        ):
            return False
    return True


def construct_schedule(
    problem: ProblemInstance,
    policy,
    config: SchedulerConfig = SchedulerConfig(),
) -> Schedule:
    """Play the policy through the simulation loop and return the result.

    The returned schedule may be incomplete if the policy stalls past the
    horizon; callers check `schedule.complete`.
    """

    contexts = [context_features(problem, agent) for agent in problem.agents]

    def decide(state, a, candidates):
        if not candidates:
            return None
        context, ids = contexts[a], tuple(state.compiled.task_ids[t] for t in candidates)
        rows = extract_features(state, a, candidates)
        pool = range(len(candidates))
        top = policy.select_tasks([(context, ids, rows, pool)])[0]
        if not policy.predict_acts([(context, rows[top])])[0]:
            return None
        if config.fallback_depth == 1 or len(pool) == 1:
            return candidates[top]  # no test, or nothing it could fall back to
        # rank lazily: the next pick is asked for only once this one fails
        pick, remaining, tries = top, pool, config.fallback_depth
        while True:
            if schedulability_test(apply_action(state, candidates[pick], a)):
                return candidates[pick]
            remaining = [p for p in remaining if p != pick]
            tries -= 1
            if not tries or not remaining:
                return candidates[top]  # every fallback looked doomed; commit to the favourite
            pick = policy.select_tasks([(context, ids, rows, remaining)])[0]

    _, schedule = run_simulation(problem, decide)
    return schedule
