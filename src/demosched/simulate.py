"""Shared tick-by-tick simulation driver.

Both the mock expert and the learned-policy scheduler run through this loop,
so a policy that wraps the expert's rule reproduces the expert's schedule
entry for entry. The state is the compiled problem's (`core.SimState`), over
task and agent indices, built once per playthrough. An agent's candidates
are the tasks `apply_action` would accept now: those that `core.release`,
the wait rule branch and bound places by, would start this tick. They
come in id order, the order of a task-feature block's rows.
"""

from __future__ import annotations

from typing import Callable

from .core import ProblemInstance, Schedule, SimState, apply_action

# decide(state, agent index, candidate task indices in id order)
# -> task index to start now, or None
DecideFn = Callable[[SimState, int, list[int]], int | None]


def run_simulation(problem: ProblemInstance, decide: DecideFn) -> tuple[SimState, Schedule]:
    """Advance one tick at a time, letting each idle agent (ascending id)
    pick at most one task per tick. Stops when every task has finished or the
    horizon is reached."""
    state = SimState.initial(problem)
    cp = state.compiled
    for tick in range(problem.horizon + 1):
        state = state.advanced_to(tick)
        if state.all_finished():
            break
        for a in cp.agent_order:
            if state.agent_free[a] > tick:
                continue
            chosen = decide(state, a, state.candidates(a))
            if chosen is not None:
                state = apply_action(state, chosen, a)
    return state, cp.schedule(state.placements)
