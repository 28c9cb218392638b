import math
import re

import pytest

from demosched.core import (
    AgentSpec,
    InfeasibleActionError,
    ProblemInstance,
    Schedule,
    ScheduleEntry,
    SimState,
    StructuralError,
    TaskSpec,
    apply_action,
    euclidean,
    load_json,
    problem_from_dict,
    problem_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    travel_ticks,
    validate_schedule,
)


def test_euclidean():
    assert euclidean((0.0, 0.0), (3.0, 4.0)) == 5.0


def test_travel_ticks_rounds_up():
    assert travel_ticks(0.0, 1.0) == 0
    assert travel_ticks(-1.0, 1.0) == 0
    assert travel_ticks(4.0, 2.0) == 2
    assert travel_ticks(4.1, 2.0) == 3
    # float fuzz just above a whole number must not add a tick
    assert travel_ticks(3.0000000004, 1.0) == 3


class TestProblemValidation:
    def _base(self, **kw):
        spec = dict(
            grid_size=(5.0, 5.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(TaskSpec("t0", (1.0, 0.0), {"a0": 2}, "r0"),),
            resources=("r0",),
            horizon=10,
        )
        spec.update(kw)
        return ProblemInstance(**spec)

    def test_valid(self):
        self._base()

    def test_duplicate_agent_ids(self):
        with pytest.raises(StructuralError, match="duplicate agent"):
            self._base(agents=(AgentSpec("a0", (0.0, 0.0), 1.0),
                               AgentSpec("a0", (1.0, 0.0), 1.0)))

    def test_duplicate_task_ids(self):
        with pytest.raises(StructuralError, match="duplicate task"):
            self._base(tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0"),
                              TaskSpec("t0", (1.0, 0.0), {"a0": 1}, "r0")),
                       horizon=10)

    def test_unknown_resource(self):
        with pytest.raises(StructuralError, match="unknown resource"):
            self._base(tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "rX"),))

    def test_unknown_agent_in_durations(self):
        with pytest.raises(StructuralError, match="unknown agent"):
            self._base(tasks=(TaskSpec("t0", (0.0, 0.0), {"aX": 1}, "r0"),))

    def test_no_capable_agent(self):
        with pytest.raises(StructuralError, match="no capable agent"):
            self._base(tasks=(TaskSpec("t0", (0.0, 0.0), {}, "r0"),))

    def test_non_positive_duration(self):
        with pytest.raises(StructuralError, match="non-positive duration"):
            self._base(tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 0}, "r0"),))

    def test_non_positive_speed(self):
        with pytest.raises(StructuralError, match="non-positive speed"):
            self._base(agents=(AgentSpec("a0", (0.0, 0.0), 0.0),))

    def test_wait_cycle(self):
        with pytest.raises(StructuralError, match="cycle"):
            self._base(
                tasks=(
                    TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0", waits=(("t1", 0),)),
                    TaskSpec("t1", (1.0, 0.0), {"a0": 1}, "r0", waits=(("t0", 0),)),
                ),
                horizon=10,
            )

    def test_wait_order_puts_predecessors_first(self):
        problem = self._base(
            tasks=(
                TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0", waits=(("t2", 0),)),
                TaskSpec("t1", (1.0, 0.0), {"a0": 1}, "r0"),
                TaskSpec("t2", (1.0, 0.0), {"a0": 1}, "r0",
                         waits=(("t3", 0), ("t1", 0))),
                TaskSpec("t3", (1.0, 0.0), {"a0": 1}, "r0"),
            ),
            horizon=10,
        )
        # post-order in problem order, predecessors in listed order
        assert problem.wait_order() == ["t3", "t1", "t2", "t0"]

    def test_long_wait_chain_loads_and_orders(self):
        # each task waits on the next one listed, so the search from the
        # first task runs 1,200 predecessors deep
        ids = [f"t{i:04d}" for i in range(1200)]
        problem = self._base(
            tasks=tuple(TaskSpec(tid, (0.0, 0.0), {"a0": 1}, "r0", waits=tuple(
                (nxt, 0) for nxt in ids[i + 1 : i + 2])) for i, tid in enumerate(ids)),
            horizon=1200,
        )
        assert problem.wait_order() == ids[::-1]
        assert problem_from_dict(problem_to_dict(problem)) == problem

    def test_unknown_wait_target(self):
        with pytest.raises(StructuralError, match="unknown task"):
            self._base(tasks=(TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0",
                                       waits=(("tX", 0),)),))

    def test_horizon_too_small(self):
        with pytest.raises(StructuralError, match="horizon"):
            self._base(horizon=1)

    def test_negative_wait_gap(self):
        # a negative gap would let a task start before its predecessor
        # finishes, which the simulator and the search disagree on
        with pytest.raises(StructuralError, match="negative wait gap"):
            self._base(
                tasks=(
                    TaskSpec("t0", (0.0, 0.0), {"a0": 1}, "r0"),
                    TaskSpec("t1", (1.0, 0.0), {"a0": 1}, "r0", waits=(("t0", -4),)),
                ),
            )


def test_effective_deadline(tiny_problem):
    assert tiny_problem.effective_deadline(tiny_problem.task("tC")) == 15
    assert tiny_problem.effective_deadline(tiny_problem.task("tA")) == 40


def test_contention_degree(tiny_problem):
    # r0 carries two tasks, r1 one: 2^2 + 1^2
    assert tiny_problem.contention_degree() == 5


def test_task_lookup_errors(tiny_problem):
    with pytest.raises(StructuralError):
        tiny_problem.task("nope")
    with pytest.raises(StructuralError):
        tiny_problem.agent("nope")
    with pytest.raises(StructuralError):
        tiny_problem.task("tA").duration_for("aX")


def start(state, task_id, agent_id):
    """`apply_action` on the task and agent with the given ids."""
    cp = state.compiled
    return apply_action(state, cp.task_index[task_id], cp.agent_index[agent_id])


def started(state):
    """task id -> (agent id, start) of every placement."""
    cp = state.compiled
    return {cp.task_ids[t]: (cp.agent_ids[a], start)
            for t, a, start, _ in state.placements}


def finished(state):
    """task id -> finish of every started task whose finish has passed."""
    return {tid: f for tid, f in zip(state.compiled.task_ids, state.finish)
            if f is not None and f <= state.time}


def pending(state):
    """task id -> finish of every started task still running."""
    return {tid: f for tid, f in zip(state.compiled.task_ids, state.finish)
            if f is not None and f > state.time}


class TestSimState:
    def test_initial(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        cp = state.compiled
        assert state.time == 0
        assert state.agent_free[cp.agent_index["a0"]] <= state.time
        assert state.res_free[tiny_problem.resources.index("r0")] <= state.time
        assert len(state.unfinished()) == 3

    def test_advance_completes_pending(self, tiny_problem):
        state = SimState.initial(tiny_problem)
        state = start(state, "tA", "a0")
        assert "tA" in pending(state)
        later = state.advanced_to(2)
        assert finished(later) == {"tA": 2}
        assert not pending(later)
        # the original state object is untouched
        assert finished(state) == {}

    def test_advance_backwards_raises(self, tiny_problem):
        state = SimState.initial(tiny_problem).advanced_to(3)
        with pytest.raises(ValueError):
            state.advanced_to(2)

    def test_pending_task_not_unfinished(self, tiny_problem):
        state = start(SimState.initial(tiny_problem), "tA", "a0")
        cp = state.compiled
        assert {cp.task_ids[t] for t in state.unfinished()} == {"tB", "tC"}


class TestApplyAction:
    def test_updates_everything(self, tiny_problem):
        state = start(SimState.initial(tiny_problem), "tA", "a0")
        cp = state.compiled
        a0 = cp.agent_index["a0"]
        assert started(state)["tA"] == ("a0", 0)
        assert pending(state)["tA"] == 2
        assert state.agent_free[a0] == 2
        assert state.res_free[tiny_problem.resources.index("r0")] == 2
        assert cp.location[state.agent_loc[a0]] == (0.0, 0.0)

    def test_busy_agent(self, tiny_problem):
        state = start(SimState.initial(tiny_problem), "tA", "a0")
        with pytest.raises(InfeasibleActionError, match="busy"):
            start(state, "tB", "a0")

    def test_busy_resource(self, tiny_problem):
        state = start(SimState.initial(tiny_problem), "tA", "a0")
        with pytest.raises(InfeasibleActionError, match="resource"):
            start(state, "tC", "a1")

    def test_unreachable(self, tiny_problem):
        # a1 stands at (10, 0); tA is 10 units away, 5 ticks at speed 2
        with pytest.raises(InfeasibleActionError, match="reach"):
            start(SimState.initial(tiny_problem), "tA", "a1")

    def test_wait_not_satisfied(self, tiny_problem):
        state = SimState.initial(tiny_problem).advanced_to(5)
        with pytest.raises(InfeasibleActionError, match="alive"):
            start(state, "tB", "a0")

    def test_already_started(self, tiny_problem):
        state = start(SimState.initial(tiny_problem), "tA", "a0").advanced_to(3)
        with pytest.raises(InfeasibleActionError, match="already started"):
            start(state, "tA", "a0")

    @pytest.mark.parametrize("task,agent", [(-1, 0), (3, 0), (0, -1), (0, 2)])
    def test_index_out_of_range(self, tiny_problem, task, agent):
        # a negative index must not alias the last task or agent
        with pytest.raises(StructuralError, match="index"):
            apply_action(SimState.initial(tiny_problem), task, agent)


def test_alive_enabled_gap(tiny_problem):
    state = start(SimState.initial(tiny_problem), "tA", "a0")
    tB = state.compiled.task_index["tB"]
    # tA finishes at 2; tB needs a one-tick gap, so enabled from t=3
    assert not state.advanced_to(2).waits_released(tB)
    assert state.advanced_to(3).waits_released(tB)


def test_agent_can_reach(tiny_problem):
    # a1 stands on tC; tA, with no wait and a free resource, is 5 ticks away
    state = SimState.initial(tiny_problem)
    cp = state.compiled
    a1 = cp.agent_index["a1"]
    assert "tC" in [cp.task_ids[t] for t in state.candidates(a1)]
    assert "tA" not in [cp.task_ids[t] for t in state.candidates(a1)]
    assert "tA" in [cp.task_ids[t] for t in state.advanced_to(5).candidates(a1)]


class TestSchedule:
    def test_from_entries_sorts_and_scores(self, tiny_problem):
        entries = [
            ScheduleEntry("tC", "a1", 0, 2),
            ScheduleEntry("tA", "a0", 0, 2),
            ScheduleEntry("tB", "a0", 5, 8),
        ]
        schedule = Schedule.from_entries(entries, tiny_problem)
        assert [e.task_id for e in schedule.entries] == ["tA", "tC", "tB"]
        assert schedule.objective == 8
        assert schedule.complete

    def test_incomplete_flag(self, tiny_problem):
        schedule = Schedule.from_entries([ScheduleEntry("tA", "a0", 0, 2)],
                                         tiny_problem)
        assert not schedule.complete

    def test_entry_lookup(self, tiny_problem):
        schedule = Schedule.from_entries([ScheduleEntry("tA", "a0", 0, 2)])
        assert schedule.entry("tA").finish == 2
        with pytest.raises(StructuralError):
            schedule.entry("tB")


class TestValidateSchedule:
    def _sched(self, *entries):
        return Schedule.from_entries(list(entries))

    def test_feasible(self, tiny_problem):
        schedule = self._sched(
            ScheduleEntry("tA", "a0", 0, 2),
            ScheduleEntry("tC", "a1", 2, 4),  # r0 frees when tA finishes
            ScheduleEntry("tB", "a0", 5, 8),
        )
        assert validate_schedule(tiny_problem, schedule).feasible

    def _kinds(self, problem, schedule):
        return {v.kind for v in validate_schedule(problem, schedule).violations}

    def test_duration_mismatch(self, tiny_problem):
        bad = self._sched(ScheduleEntry("tA", "a0", 0, 5))
        assert "duration" in self._kinds(tiny_problem, bad)

    def test_deadline_miss(self, tiny_problem):
        bad = self._sched(ScheduleEntry("tC", "a1", 14, 16))
        assert "abs_deadline" in self._kinds(tiny_problem, bad)

    def test_wait_violation(self, tiny_problem):
        bad = self._sched(ScheduleEntry("tA", "a0", 0, 2),
                          ScheduleEntry("tB", "a0", 2, 5))
        assert "wait" in self._kinds(tiny_problem, bad)

    def test_wait_predecessor_missing(self, tiny_problem):
        bad = self._sched(ScheduleEntry("tB", "a0", 5, 8))
        assert "wait" in self._kinds(tiny_problem, bad)

    def test_resource_overlap(self, tiny_problem):
        bad = self._sched(ScheduleEntry("tA", "a0", 0, 2),
                          ScheduleEntry("tC", "a1", 1, 3))
        assert "resource_overlap" in self._kinds(tiny_problem, bad)

    def test_agent_overlap(self, tiny_problem):
        bad = self._sched(ScheduleEntry("tA", "a0", 0, 2),
                          ScheduleEntry("tB", "a0", 1, 4))
        assert "agent_overlap" in self._kinds(tiny_problem, bad)

    def test_reachability(self, tiny_problem):
        # a0 needs two ticks to get to (4, 0)
        bad = self._sched(ScheduleEntry("tB", "a0", 1, 4))
        kinds = self._kinds(tiny_problem, bad)
        assert "reachability" in kinds

    def test_double_booking(self, tiny_problem):
        bad = Schedule(entries=(ScheduleEntry("tA", "a0", 0, 2),
                                ScheduleEntry("tA", "a1", 5, 7)),
                       objective=7, complete=False)
        assert "coverage" in self._kinds(tiny_problem, bad)


class TestSerialization:
    def test_problem_roundtrip(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        assert data["schema_version"] == "v1"
        assert problem_from_dict(data) == tiny_problem

    def test_schedule_roundtrip(self, tiny_problem):
        schedule = Schedule.from_entries(
            [ScheduleEntry("tA", "a0", 0, 2)], tiny_problem)
        assert schedule_from_dict(schedule_to_dict(schedule)) == schedule

    def test_version_check(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        data["schema_version"] = "v0"
        with pytest.raises(StructuralError, match="schema version"):
            problem_from_dict(data)
        sdata = schedule_to_dict(Schedule.from_entries([]))
        sdata["schema_version"] = "v2"
        with pytest.raises(StructuralError, match="schema version"):
            schedule_from_dict(sdata)

    def test_empty_rel_deadlines_load(self, tiny_problem):
        # v1 files may carry an empty rel_deadlines list, or no key at all
        data = problem_to_dict(tiny_problem)
        assert all("rel_deadlines" not in t for t in data["tasks"])
        for t in data["tasks"]:
            t["rel_deadlines"] = []
        assert problem_from_dict(data) == tiny_problem

    def test_rel_deadlines_rejected(self, tiny_problem):
        # relative deadlines are not enforced by any solver, so a problem
        # that sets one must not load
        data = problem_to_dict(tiny_problem)
        data["tasks"][0]["rel_deadlines"] = [["tB", 4]]
        with pytest.raises(StructuralError, match="rel_deadlines"):
            problem_from_dict(data)

    def test_negative_wait_gap_rejected(self, tiny_problem):
        data = problem_to_dict(tiny_problem)
        data["tasks"][1]["waits"] = [["tA", -4]]
        with pytest.raises(StructuralError, match="negative wait gap"):
            problem_from_dict(data)

    @pytest.mark.parametrize("deadline", ["39", 39.0, True])
    def test_non_integer_deadline_rejected(self, tiny_problem, deadline):
        # the solvers compare deadlines with integer finish times
        data = problem_to_dict(tiny_problem)
        data["tasks"][0]["abs_deadline"] = deadline
        with pytest.raises(StructuralError, match="'tA' abs_deadline must be an integer"):
            problem_from_dict(data)

    @pytest.mark.parametrize("owner,key,value", [
        ("task", "location", ["1", "2"]),
        ("task", "location", [1]),
        ("task", "location", [math.nan, 1]),
        ("task", "durations", {"a0": 2.7, "a1": 2}),
        ("task", "waits", [["tC", 1.5]]),
        ("agent", "start_location", ["0", "0"]),
        ("agent", "speed", "2"),
        ("agent", "speed", math.inf),
        ("agent", "speed", True),
        ("problem", "grid_size", [10.0, math.inf]),
        ("problem", "horizon", 40.0),
        ("task", "durations", [3, 3]),
        ("task", "waits", [["tC"]]),
        ("task", "waits", ["tC"]),
        ("task", "waits", [[3, 1]]),
    ])
    def test_malformed_number_rejected(self, tiny_problem, owner, key, value):
        # the simulator needs finite coordinates and speeds, whole ticks,
        # durations by agent id and waits as (task id, gap) pairs
        data = problem_to_dict(tiny_problem)
        target = {"task": data["tasks"][0], "agent": data["agents"][0], "problem": data}
        target[owner][key] = value
        name = {"task": "task 'tA'", "agent": "agent 'a0'", "problem": key}[owner]
        with pytest.raises(StructuralError, match=f"^{name} .*must be"):
            problem_from_dict(data)

    @pytest.mark.parametrize("flaw,value", [
        ("entry 0 (task 'tA') start", ["tA", "a0", "0", 2]),
        ("entry 0 (task 'tA') finish", ["tA", "a0", 0, 2.7]),
        ("entry 0 must be", ["tA", "a0", 0]),
        ("objective", 2.5),
        ("complete", "no"),
    ], ids=["string-start", "fractional-finish", "short-entry", "fractional-objective",
            "string-complete"])
    def test_malformed_schedule_rejected(self, tiny_problem, flaw, value):
        # a schedule is read as written, never coerced: "3" is not 3, 2.7
        # is not 2 and "no" is not true
        data = schedule_to_dict(Schedule.from_entries(
            [ScheduleEntry("tA", "a0", 0, 2)], tiny_problem))
        if flaw.startswith("entry"):
            data["entries"][0] = value
        else:
            data[flaw] = value
        with pytest.raises(StructuralError, match=f"^schedule {re.escape(flaw)}"):
            schedule_from_dict(data)

    def test_file_roundtrip(self, tiny_problem, tmp_path):
        path = str(tmp_path / "problem.json")
        save_json(problem_to_dict(tiny_problem), path)
        assert problem_from_dict(load_json(path)) == tiny_problem
