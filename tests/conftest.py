import pytest

from demosched.core import AgentSpec, Compiled, ProblemInstance, TaskSpec

# acceptance tests register one line per criterion; the summary hook prints
# them after the run so they are visible even when every test passes
CRITERION_LINES: dict[int, str] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    CRITERION_LINES[number] = line
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    property_outcome = None
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_properties" in nodeid:
                if status != "passed":
                    property_outcome = False
                elif property_outcome is None:
                    property_outcome = True
    if property_outcome is not None:
        CRITERION_LINES[9] = (
            f"CRITERION 9: {'PASS' if property_outcome else 'FAIL'} - "
            "property suites (symmetry, invariance, oracles, perturbation, "
            "determinism)"
        )
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for number in sorted(CRITERION_LINES):
            terminalreporter.write_line(CRITERION_LINES[number])
from demosched.demonstrator import demonstrate
from demosched.generator import generate_instance, make_config
from demosched.features import TASK_FEATURE_NAMES
from demosched.heuristics import RuleKind, expert_choice
from demosched.optimizer import _place


def timed_schedule(problem, order):
    """Earliest-start timing of (task id, agent id) pairs in the given order,
    or None where an agent cannot do its task or the order breaks a wait or
    a deadline."""
    cp = Compiled(problem)
    placements = _place(cp, [(cp.task_index[t], cp.agent_index[a]) for t, a in order])
    return None if placements is None else cp.schedule(placements)


_PRECEDENCE, _AVAILABLE, _REMAINING = map(TASK_FEATURE_NAMES.index, (
    "precedence_satisfied", "resource_available", "travel_time_remaining"))


def positions(task_ids, ids) -> list[int]:
    """The row positions of `ids` among an observation's ascending `task_ids`."""
    return [task_ids.index(tid) for tid in ids]


def tied_problem() -> ProblemInstance:
    """One agent and three tasks that every expert rule ties on: each at the
    agent's start, of one duration, without a deadline, on a resource of its
    own. The ids are unpadded and listed out of id order, so the lowest id,
    "t10", is neither the first listed nor the lowest by number."""
    return ProblemInstance(
        grid_size=(10.0, 10.0),
        agents=(AgentSpec("a0", (0.0, 0.0), 2.0),),
        tasks=tuple(TaskSpec(tid, (0.0, 0.0), {"a0": 2}, "r" + tid[1:])
                    for tid in ("t2", "t10", "t3")),
        resources=("r2", "r10", "r3"),
        horizon=20,
    )


class HeuristicPolicy:
    """The mock expert's rule wrapped behind the policy interface, used as a
    self-consistency oracle and as a drop-in scheduler policy."""

    def __init__(self, rule: RuleKind):
        self.rule = rule

    def select_tasks(self, queries):
        return [expert_choice(self.rule, rows, pool) for _, _, rows, pool in queries]

    def predict_acts(self, asks):
        return [bool(row[_PRECEDENCE] >= 1.0 and row[_AVAILABLE] >= 1.0
                     and row[_REMAINING] <= 0.0)
                for _, row in asks]


@pytest.fixture
def tiny_problem() -> ProblemInstance:
    """Hand-built 2-agent, 3-task instance with easily checked geometry.

    Agent a0 starts at the origin, a1 at (10, 0); both move 2 units per
    tick. tB waits one tick after tA, tC carries a deadline.
    """
    return ProblemInstance(
        grid_size=(10.0, 10.0),
        agents=(
            AgentSpec(id="a0", start_location=(0.0, 0.0), speed=2.0),
            AgentSpec(id="a1", start_location=(10.0, 0.0), speed=2.0),
        ),
        tasks=(
            TaskSpec(id="tA", location=(0.0, 0.0),
                     durations={"a0": 2, "a1": 2}, resource="r0"),
            TaskSpec(id="tB", location=(4.0, 0.0),
                     durations={"a0": 3, "a1": 3}, resource="r1",
                     waits=(("tA", 1),)),
            TaskSpec(id="tC", location=(10.0, 0.0),
                     durations={"a0": 2, "a1": 2}, resource="r0",
                     abs_deadline=15),
        ),
        resources=("r0", "r1"),
        horizon=40,
    )


@pytest.fixture(scope="session")
def temporal_problem() -> ProblemInstance:
    return generate_instance(make_config("temporal", num_tasks=6, num_agents=2,
                                         rng_seed=42))


@pytest.fixture(scope="session")
def temporal_demo(temporal_problem):
    return demonstrate(temporal_problem, epsilon=0.0, rng_seed=0)


@pytest.fixture(scope="session")
def small_demos():
    """Five clean demonstrations on distinct small temporal instances."""
    out = []
    for s in range(5):
        problem = generate_instance(make_config("temporal", num_tasks=6,
                                                num_agents=2, rng_seed=100 + s))
        out.append(demonstrate(problem, epsilon=0.0, rng_seed=s))
    return out
