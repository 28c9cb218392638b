"""Schedule construction by replaying a learned policy tick by tick.

The policy ranks the feasible candidates, the act model decides whether to
schedule at all, and an optional schedulability test can veto the top pick
in favour of the next-ranked candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ProblemInstance, Schedule, SimState, apply_action
from .features import context_features, extract_features
from .simulate import run_simulation


@dataclass(frozen=True)
class SchedulerConfig:
    use_schedulability_test: bool = True
    fallback_depth: int = 3  # how many ranked candidates the test may try


def schedulability_test(state: SimState, problem: ProblemInstance) -> bool:
    """Optimistic check that no task is already doomed to miss its deadline.

    Uses lower bounds (ignores resource contention, unstarted predecessors
    and future congestion), so a False answer is a certain miss while True
    is only a maybe. A task still running is checked against its absolute
    deadline, an unstarted one against its effective deadline.
    """
    cp, now, finish = state.compiled, state.time, state.finish
    for t, f in enumerate(finish):
        if f is not None:
            deadline = problem.tasks[t].abs_deadline
            if f > now and deadline is not None and f > deadline:
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


def _ranked(policy, context, task_features, pool: list[str], limit: int) -> list[str]:
    """Top `limit` candidates in the policy's preference order."""
    remaining = list(pool)
    out = []
    while remaining and len(out) < limit:
        pick = policy.select_task(context, task_features, remaining)
        out.append(pick)
        remaining.remove(pick)
    return out


def construct_schedule(
    problem: ProblemInstance,
    policy,
    config: SchedulerConfig = SchedulerConfig(),
) -> Schedule:
    """Play the policy through the simulation loop and return the result.

    The returned schedule may be incomplete if the policy stalls past the
    horizon; callers check `schedule.complete`.
    """

    def decide(state, agent_id, candidates):
        if not candidates:
            return None
        agent = problem.agent(agent_id)
        context = context_features(problem, agent)
        feats = extract_features(state, agent, problem, candidates)
        pool = sorted(feats)
        top = policy.select_task(context, feats, pool)
        if not policy.predict_act(context, feats[top]):
            return None
        if not config.use_schedulability_test:
            return top
        depth = max(1, config.fallback_depth)
        for pick in _ranked(policy, context, feats, pool, depth):
            hypothetical = apply_action(state, pick, agent_id)
            if schedulability_test(hypothetical, problem):
                return pick
        return top  # every fallback looked doomed; commit to the favourite

    _, schedule = run_simulation(problem, decide)
    return schedule
