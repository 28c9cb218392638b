"""Shared tick-by-tick simulation driver.

Both the mock expert and the learned-policy scheduler run through this loop,
so a policy that wraps the expert's rule reproduces the expert's schedule
entry for entry. The state is the compiled problem's (`core.SimState`),
built once per playthrough; candidates and placements follow the
earliest-start rule that branch and bound uses.
"""

from __future__ import annotations

from typing import Callable

from .core import ProblemInstance, Schedule, SimState, apply_action

# decide(state, agent_id, candidates) -> task id to start now, or None
DecideFn = Callable[[SimState, str, list], str | None]


def run_simulation(problem: ProblemInstance, decide: DecideFn) -> tuple[SimState, Schedule]:
    """Advance one tick at a time, letting each idle agent (ascending id)
    pick at most one task per tick. Stops when every task has finished or the
    horizon is reached."""
    state = SimState.initial(problem)
    agents = sorted((agent_id, a) for a, agent_id in enumerate(state.compiled.agent_ids))
    for t in range(problem.horizon + 1):
        state = state.advanced_to(t)
        if state.all_finished():
            break
        for agent_id, a in agents:
            if state.agent_free[a] > t:
                continue
            chosen = decide(state, agent_id, state.candidates(agent_id))
            if chosen is not None:
                state = apply_action(state, chosen, agent_id)
    return state, state.compiled.schedule(state.placements)
