import numpy as np
import pytest

from demosched import demonstrator
from demosched.core import (
    AgentSpec,
    ProblemInstance,
    TaskSpec,
    problem_to_dict,
    validate_schedule,
)
from demosched.demonstrator import (
    IncompleteDemonstrationError,
    demonstrate,
    demonstration_from_dict,
    demonstration_to_dict,
    verify_expert,
)
from demosched.features import extract_features
from demosched.generator import (
    DURATION_RANGE,
    KIND_FIELDS,
    GenConfig,
    GenerationError,
    generate_demonstrated,
    generate_instance,
    _sample_instance,
    make_config,
)
from demosched.heuristics import RuleKind, rule_scores, select_rule
from demosched.simulate import run_simulation
from conftest import tied_problem


class TestGenConfig:
    def test_defaults_valid(self):
        GenConfig()

    @pytest.mark.parametrize("kw", [
        {"fraction_with_deadlines": -0.1},
        {"fraction_with_deadlines": 1.5},
        {"speed_range": (0.0, 1.0)},
        {"speed_range": (2.0, 1.0)},
        {"num_agents": 0},
        {"num_tasks": 0},
        {"num_resources": 0},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            GenConfig(**kw)


class TestPresets:
    def test_travel_kind_has_slow_agents(self):
        problem = generate_instance(make_config("travel", num_tasks=5, rng_seed=1))
        assert min(a.speed for a in problem.agents) <= 1.0

    def test_temporal_kind_all_deadlines(self):
        problem = generate_instance(make_config("temporal", num_tasks=5, rng_seed=1))
        assert all(t.abs_deadline is not None for t in problem.tasks)
        assert len(problem.resources) == 5

    def test_contention_kind_few_resources(self):
        cfg = make_config("contention", num_tasks=8, rng_seed=1)
        assert cfg.num_resources == 2
        assert cfg.contention_threshold == 16

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            make_config("nope")

    def test_overrides_win(self):
        cfg = make_config("temporal", num_agents=3, rng_seed=9)
        assert cfg.num_agents == 3
        assert cfg.rng_seed == 9


class TestGenerateInstance:
    def test_deterministic(self):
        cfg = make_config("temporal", num_tasks=6, rng_seed=7)
        a = generate_instance(cfg)
        b = generate_instance(cfg)
        assert problem_to_dict(a) == problem_to_dict(b)

    def test_counts_and_ranges(self):
        cfg = make_config("temporal", num_tasks=7, num_agents=3, rng_seed=2)
        problem = generate_instance(cfg)
        assert len(problem.tasks) == 7
        assert len(problem.agents) == 3
        lo, hi = DURATION_RANGE
        for t in problem.tasks:
            assert all(lo <= d <= hi for d in t.durations.values())
        slo, shi = cfg.speed_range
        for a in problem.agents:
            assert slo <= a.speed <= shi

    def test_expert_completes_generated_instance(self):
        problem = generate_instance(make_config("contention", num_tasks=6, rng_seed=3))
        demo = demonstrate(problem, epsilon=0.0, rng_seed=0,
                           contention_threshold=9)
        assert demo.schedule.complete
        assert validate_schedule(problem, demo.schedule).feasible

    def test_heterogeneous_durations(self):
        cfg = make_config("temporal", num_tasks=10, num_agents=2,
                          homogeneous=False, rng_seed=4)
        problem = generate_instance(cfg)
        assert any(len(set(t.durations.values())) > 1 for t in problem.tasks
                   if len(t.durations) > 1)
        assert all(t.durations for t in problem.tasks)

    def test_retry_budget_exhausted(self, monkeypatch):
        """`generate_instance` verifies with `verify_expert`; every draw it
        rejects uses up one of `MAX_RETRIES`, and the error names the last
        draw's failure."""
        self._exhaust(monkeypatch, generate_instance, "verify_expert")

    def test_demonstrated_retry_budget_exhausted(self, monkeypatch):
        self._exhaust(monkeypatch, generate_demonstrated, "demonstrate")

    @staticmethod
    def _exhaust(monkeypatch, generate, expert_run):
        runs = []

        def always_fails(problem, **kw):
            runs.append(problem)
            raise IncompleteDemonstrationError(f"stub {len(runs)}")

        monkeypatch.setattr(f"demosched.generator.{expert_run}", always_fails)
        monkeypatch.setattr("demosched.generator.MAX_RETRIES", 2)
        with pytest.raises(GenerationError, match="after 2 draws: stub 2$"):
            generate(make_config("temporal", num_tasks=3))
        assert len(runs) == 2 and runs[0] != runs[1]


def _raw_draws():
    """Three raw draws per kind, agent count (1-3), task count (4 and 8) and
    duration model, before any verification."""
    for kind in KIND_FIELDS:
        for num_agents in (1, 2, 3):
            for num_tasks in (4, 8):
                for homogeneous in (True, False):
                    cfg = make_config(kind, num_agents=num_agents, num_tasks=num_tasks,
                                      homogeneous=homogeneous)
                    rng = np.random.default_rng(11)
                    for _ in range(3):
                        yield cfg, _sample_instance(cfg, rng)


def test_verifier_agrees_with_demonstrate():
    """`verify_expert` raises exactly when the noise-free `demonstrate`
    does, and its unrecorded playthrough makes the same schedule."""
    incomplete = 0
    for cfg, problem in _raw_draws():
        threshold = cfg.contention_threshold
        try:
            demo = demonstrate(problem, contention_threshold=threshold)
        except IncompleteDemonstrationError:
            incomplete += 1
            with pytest.raises(IncompleteDemonstrationError):
                verify_expert(problem, contention_threshold=threshold)
            continue
        verify_expert(problem, contention_threshold=threshold)
        rule = select_rule(problem, threshold)
        assert demonstrator._play(problem, rule, 0.0, 0, None) == demo.schedule
    assert incomplete == 3  # all "dense" with one agent


@pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
@pytest.mark.parametrize("homogeneous", [True, False])
@pytest.mark.parametrize("num_agents", [2, 3])
def test_generators_accept_the_same_draw(kind, homogeneous, num_agents):
    cfg = make_config(kind, num_agents=num_agents, num_tasks=8,
                      homogeneous=homogeneous, rng_seed=23)
    assert generate_instance(cfg) == generate_demonstrated(cfg).problem


class TestDemonstrate:
    def test_epsilon_validation(self, temporal_problem):
        with pytest.raises(ValueError):
            demonstrate(temporal_problem, epsilon=1.5)

    def test_clean_demo_matches_rule(self, temporal_demo):
        """Every epsilon=0 decision is exactly the cascade rule's pick: the
        lowest score, ties to the lowest id. On the tied problem that is
        "t10", ahead of "t2" and "t3" though listed after "t2"."""
        tied = demonstrate(tied_problem())
        for demo in (temporal_demo, tied):
            assert demo.rule_used is RuleKind.TEMPORAL_REQUIREMENTS
            replayed = []

            def expert(state, a, candidates):
                if not candidates:
                    replayed.append(None)
                    return None
                cp = state.compiled
                ids = [cp.task_ids[t] for t in candidates]
                scores = rule_scores(demo.rule_used, extract_features(state, a, candidates))
                score = dict(zip(ids, scores.tolist()))
                pick = min(ids, key=lambda tid: (score[tid], tid))
                replayed.append(pick)
                return cp.task_index[pick]

            run_simulation(demo.problem, expert)
            assert [o.scheduled[0] if o.scheduled else None
                    for o in demo.observations] == replayed
        assert [o.scheduled[0] for o in tied.observations] == ["t10", "t2", "t3"]

    def test_scheduling_obs_count(self, temporal_demo):
        scheduled = [o for o in temporal_demo.observations if o.scheduled]
        assert len(scheduled) == len(temporal_demo.problem.tasks)

    def test_candidates_sorted_and_featurized(self, temporal_demo):
        for obs in temporal_demo.observations:
            assert list(obs.candidates) == sorted(obs.candidates)
            for tid in obs.candidates:
                assert tid in obs.task_ids

    def test_noise_stays_feasible(self, temporal_problem):
        demo = demonstrate(temporal_problem, epsilon=1.0, rng_seed=5)
        assert demo.schedule.complete
        assert validate_schedule(temporal_problem, demo.schedule).feasible

    def test_noise_deterministic_per_seed(self, temporal_problem):
        a = demonstrate(temporal_problem, epsilon=0.5, rng_seed=9)
        b = demonstrate(temporal_problem, epsilon=0.5, rng_seed=9)
        assert demonstration_to_dict(a) == demonstration_to_dict(b)

    def test_roundtrip(self, temporal_demo):
        data = demonstration_to_dict(temporal_demo)
        assert data["schema_version"] == "v1"
        clone = demonstration_from_dict(data)
        assert demonstration_to_dict(clone) == data

    def test_incomplete_raises(self):
        # tasks too far away to reach within the horizon
        problem = ProblemInstance(
            grid_size=(100.0, 100.0),
            agents=(AgentSpec("a0", (0.0, 0.0), 1.0),),
            tasks=(
                TaskSpec("t0", (100.0, 0.0), {"a0": 2}, "r0"),
                TaskSpec("t1", (100.0, 100.0), {"a0": 2}, "r0"),
            ),
            resources=("r0",),
            horizon=5,
        )
        with pytest.raises(IncompleteDemonstrationError):
            demonstrate(problem)


def test_feasible_candidates_respect_capability():
    problem = ProblemInstance(
        grid_size=(5.0, 5.0),
        agents=(AgentSpec("a0", (0.0, 0.0), 2.0),
                AgentSpec("a1", (0.0, 0.0), 2.0)),
        tasks=(TaskSpec("t0", (0.0, 0.0), {"a1": 2}, "r0"),),
        resources=("r0",),
        horizon=10,
    )
    from demosched.core import SimState

    state = SimState.initial(problem)
    assert state.candidates(0) == []  # a0
    assert [state.compiled.task_ids[t] for t in state.candidates(1)] == ["t0"]
