import csv
import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest

import demosched
from demosched.demonstrator import (
    IncompleteDemonstrationError,
    demonstrate,
    demonstration_to_dict,
)
from demosched.experiments import (
    CSV_FIELDS,
    PROBLEM_KINDS,
    ResultRow,
    collect_demos,
    condition_label,
    derive_seed,
    format_summary,
    make_config,
    run_accuracy_sweep,
    run_baseline_comparison,
    run_covas_benchmark,
    run_sensitivity_grid,
    summarize,
    write_rows_csv,
)
from demosched.generator import KIND_FIELDS, GenConfig, generate_instance


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)

    def test_distinct_streams(self):
        seeds = {derive_seed(0, part) for part in ("a", "b", "c", 1, 2)}
        assert len(seeds) == 5
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_range(self):
        s = derive_seed(123, "x", "y")
        assert 0 <= s < 2**63


def test_condition_label_sorted():
    assert condition_label(b=2, a=1) == "a=1,b=2"


def test_make_config_applies_kind_overrides():
    cfg = make_config("dense", num_tasks=8)
    assert cfg.grid == (6, 6)
    assert cfg.num_tasks == 8
    assert set(KIND_FIELDS) == {"travel", "contention", "temporal", "dense"}


def test_collect_demos_cycles_kinds():
    demos = collect_demos(["temporal", "contention"], 4, 0.0, stream_seed=1,
                          num_tasks=5)
    assert len(demos) == 4
    assert len({id(d.problem) for d in demos}) == 4


def test_noise_free_demos_reuse_the_verifying_run(monkeypatch):
    """At epsilon 0 each demo is the generator's verifying run, recorded
    with its own derived seed: the same demo as a second expert run, for
    one expert run per demo."""
    kinds, stream = ["travel", "temporal"], 7
    expected = []
    for i in range(4):
        kind = kinds[i % 2]
        cfg = make_config(kind, num_tasks=5, rng_seed=derive_seed(stream, "gen", kind, i))
        expected.append(demonstration_to_dict(demonstrate(
            generate_instance(cfg), epsilon=0.0,
            rng_seed=derive_seed(stream, "demo", kind, i),
            contention_threshold=cfg.contention_threshold)))
    runs = []

    def counted(*args, **kwargs):
        runs.append(1)
        return demonstrate(*args, **kwargs)

    monkeypatch.setattr("demosched.generator.demonstrate", counted)
    monkeypatch.setattr("demosched.experiments.demonstrate", counted)
    demos = collect_demos(kinds, 4, 0.0, stream, num_tasks=5)
    assert [demonstration_to_dict(d) for d in demos] == expected
    assert len(runs) == 4


def test_noisy_demos_rerun_the_expert():
    """Above epsilon 0 each demo is a fresh noisy expert run on the
    generated problem, with its own derived seed."""
    kinds, stream = ["dense", "contention"], 5
    demos = collect_demos(kinds, 4, 0.3, stream, num_tasks=6)
    for i, demo in enumerate(demos):
        kind = kinds[i % 2]
        cfg = make_config(kind, num_tasks=6, rng_seed=derive_seed(stream, "gen", kind, i))
        expected = demonstrate(generate_instance(cfg), 0.3,
                               derive_seed(stream, "demo", kind, i),
                               cfg.contention_threshold)
        assert demonstration_to_dict(demo) == demonstration_to_dict(expected)


def test_noisy_demo_past_the_horizon_is_retried(monkeypatch):
    """A noisy run that leaves a task unfinished is run again on the same
    problem with the next attempt's seed, and the demo records the seed
    that completed; with no retry left the run's error is raised."""
    kinds, stream = ["travel", "contention", "temporal", "dense"], 77
    demos = collect_demos(kinds, 8, 0.2, stream, num_tasks=6)
    assert len(demos) == 8
    retried = demos[7]
    threshold = make_config("dense", num_tasks=6).contention_threshold
    with pytest.raises(IncompleteDemonstrationError):
        demonstrate(retried.problem, 0.2, derive_seed(stream, "demo", "dense", 7), threshold)
    assert retried.rng_seed == derive_seed(stream, "demo", "dense", 7, 1)
    assert demonstration_to_dict(retried) == demonstration_to_dict(
        demonstrate(retried.problem, 0.2, retried.rng_seed, threshold))
    monkeypatch.setattr("demosched.experiments.MAX_RETRIES", 1)
    with pytest.raises(IncompleteDemonstrationError):
        collect_demos(kinds, 8, 0.2, stream, num_tasks=6)


class TestCsvRoundtrip:
    def _rows(self):
        return [
            ResultRow("exp", "cond=a", "sensitivity", 0.9, 0, 42),
            ResultRow("exp", "cond=a", "sensitivity", 0.8, 1, 43),
            ResultRow("exp", "cond=b", "specificity", 1.0, 0, 44),
        ]

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        write_rows_csv(self._rows(), path)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [
                list(CSV_FIELDS),
                ["exp", "cond=a", "sensitivity", "0.9", "0", "42"],
                ["exp", "cond=a", "sensitivity", "0.8", "1", "43"],
                ["exp", "cond=b", "specificity", "1.0", "0", "44"],
            ]

    def test_header(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        write_rows_csv([], path)
        with open(path) as fh:
            assert fh.readline().strip() == ",".join(CSV_FIELDS)

    def test_summary(self):
        s = summarize(self._rows())
        mean, std, n = s[("exp", "cond=a", "sensitivity")]
        assert mean == pytest.approx(0.85)
        assert n == 2
        text = format_summary(self._rows())
        assert "cond=a" in text and "0.8500" in text


class TestAccuracySweep:
    def test_row_structure_and_determinism(self, tmp_path):
        kw = dict(num_demos=4, num_seeds=2, num_tasks=5,
                  kinds=("temporal",), min_leaf=5, master_seed=9)
        rows = run_accuracy_sweep(**kw)
        metrics = {r.metric for r in rows}
        assert metrics == {"sensitivity", "specificity"}
        assert len(rows) == 4  # two metrics per seed
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(rows, str(p1))
        write_rows_csv(run_accuracy_sweep(**kw), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_cv_adds_selection_row(self):
        rows = run_accuracy_sweep(num_demos=5, num_seeds=1, num_tasks=5,
                                  kinds=("temporal",), min_leaf=None,
                                  master_seed=9)
        assert any(r.metric == "min_leaf_selected" for r in rows)
        assert all(",min_leaf=cv" in r.condition for r in rows)

    def test_tuned_and_untuned_share_data_stream(self):
        a = run_accuracy_sweep(num_demos=4, num_seeds=1, num_tasks=5,
                               kinds=("temporal",), min_leaf=1, master_seed=3)
        b = run_accuracy_sweep(num_demos=4, num_seeds=1, num_tasks=5,
                               kinds=("temporal",), min_leaf=100, master_seed=3)
        assert a[0].seed == b[0].seed  # same demonstrations underneath


def test_baseline_comparison_rows():
    rows = run_baseline_comparison(num_demos=4, num_seeds=1, num_tasks=5,
                                   kinds=("temporal",), master_seed=5)
    models = {r.condition.split("model=")[1] for r in rows}
    assert models == {"pairwise", "pointwise", "naive"}


def test_covas_benchmark_rows():
    rows = run_covas_benchmark(num_instances=2, num_tasks=5, train_demos=4,
                               master_seed=5)
    per = {}
    for r in rows:
        per.setdefault(r.replicate, {})[r.metric] = r.value
    for rec in per.values():
        assert rec["nodes_seeded"] <= rec["nodes_cold"]
        assert rec["gap_cold"] <= 1e-3
        assert rec["gap_seeded"] <= 1e-3
        assert {"wall_cold", "wall_seeded", "seed_feasible"} <= set(rec)


class TestSensitivityGrid:
    @pytest.fixture(scope="class")
    @staticmethod
    def rows():
        return run_sensitivity_grid(master_seed=2)

    def test_27_cells(self, rows):
        cells = {r.condition for r in rows
                 if r.metric == "objective_ratio" and "count=0" not in r.condition}
        assert len(cells) == 27

    def test_control_rows_exactly_one(self, rows):
        controls = [r for r in rows
                    if r.metric == "objective_ratio" and "count=0" in r.condition]
        assert controls and all(r.value == 1.0 for r in controls)

    def test_ratios_at_least_one(self, rows):
        assert all(r.value >= 1.0 for r in rows if r.metric == "objective_ratio")

    def test_paper_scale_volume(self):
        rows = run_sensitivity_grid(paper_scale=True, master_seed=2)
        data = [r for r in rows if r.metric == "objective_ratio"
                and "count=0" not in r.condition]
        assert len(data) + sum(r.metric == "perturbation_failed"
                               for r in rows) == 2025


# ---------------------------------------------------------------------------
# Golden rows
# ---------------------------------------------------------------------------

def _rows_digest(rows) -> str:
    """SHA-256 of the rows, with wall-clock metrics zeroed."""
    records = [[r.experiment, r.condition, r.metric,
                0.0 if r.metric.startswith("wall_") else float(r.value),
                r.replicate, r.seed] for r in rows]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _demos_digest(demos) -> str:
    return hashlib.sha256(json.dumps(
        [demonstration_to_dict(d) for d in demos], sort_keys=True).encode()).hexdigest()


_GOLDEN_RUNS = {
    "accuracy": lambda: run_accuracy_sweep(
        num_demos=9, num_seeds=1, num_tasks=6, kinds=("temporal", "travel"),
        min_leaf=None, master_seed=9),
    "accuracy-noisy": lambda: run_accuracy_sweep(
        num_demos=4, epsilon=0.3, num_seeds=2, num_agents=3, num_tasks=5,
        kinds=("dense",), min_leaf=2, master_seed=4),
    "baselines": lambda: run_baseline_comparison(
        num_demos=9, epsilon=0.3, num_seeds=1, num_tasks=6,
        kinds=("dense", "temporal"), master_seed=5),
    "covas": lambda: run_covas_benchmark(
        num_instances=2, num_tasks=5, train_num_tasks=6, train_demos=4,
        node_limit=200, master_seed=5),
    "sensitivity": lambda: run_sensitivity_grid(master_seed=2),
}

# Recorded with the drivers as they were before the replicate loop, the
# demo path and the kind table were each shared, and before the parameters
# no caller set were removed.
GOLDEN_ROWS = {
    "accuracy": "cae6039341d23ded76244df303c68a68a895cd8aef31475377def7b95fec2b2e",
    "accuracy-noisy": "3d1245ae337941223d9cf22a02ad955db0b17b149ee9f258facf2913449630e4",
    "baselines": "a5bc463b76ebe10a613f86172f46a7aef2f187170930127fb5fe393e4980c27a",
    "covas": "73af281a96ab2fcba5ea00bd7961cc651c6681c492e21d2ce9fde2f397a17983",
    "sensitivity": "4b220a92082253f4f196df3b6fb5817246065d439a7fb17536c783c488555ef6",
    "demos-0.0": "6303997b48b536c5c8ae0abc2e37d141fb08e338234073a7f72d29dd9d508c9b",
    "demos-0.3": "3b604f2a06de2976c2bf3cd24455f7482f356222c847f358bd3e3a5d6071a109",
}


def test_golden_rows():
    got = {name: _rows_digest(run()) for name, run in _GOLDEN_RUNS.items()}
    kinds = ["travel", "contention", "temporal", "dense"]
    for epsilon in (0.0, 0.3):
        got[f"demos-{epsilon}"] = _demos_digest(
            collect_demos(kinds, 4, epsilon, 11, num_tasks=5))
    assert got == GOLDEN_ROWS


def test_driver_signatures():
    """Every option a driver takes, with its default. The CLI, the tests and
    the benchmark set all of these; a new one needs a caller."""
    def options(f):
        return [(name, p.default) for name, p in inspect.signature(f).parameters.items()]

    empty = inspect.Parameter.empty
    assert options(collect_demos) == [
        ("kinds", empty), ("num_demos", empty), ("epsilon", empty),
        ("stream_seed", empty), ("num_agents", 2), ("num_tasks", 20)]
    assert options(run_accuracy_sweep) == [
        ("num_demos", 150), ("epsilon", 0.0), ("num_seeds", 5), ("num_agents", 2),
        ("num_tasks", 20), ("kinds", PROBLEM_KINDS), ("min_leaf", 10),
        ("master_seed", 0)]
    assert options(run_baseline_comparison) == [
        ("num_demos", 50), ("epsilon", 0.0), ("num_seeds", 5), ("num_tasks", 20),
        ("kinds", PROBLEM_KINDS), ("master_seed", 0)]
    assert options(run_covas_benchmark) == [
        ("num_instances", 20), ("num_tasks", 9), ("train_num_tasks", None),
        ("train_demos", 30), ("node_limit", None), ("time_limit", None),
        ("master_seed", 0)]
    assert options(run_sensitivity_grid) == [("paper_scale", False), ("master_seed", 0)]


def test_genconfig_fields():
    """Every generator knob, with its default; a new one needs a caller."""
    assert [(f.name, f.default) for f in dataclasses.fields(GenConfig)] == [
        ("num_agents", 2), ("num_tasks", 20), ("grid", (20, 20)),
        ("homogeneous", True), ("fraction_with_deadlines", 0.6),
        ("num_resources", 10), ("speed_range", (1.5, 3.0)), ("rng_seed", 0),
        ("contention_threshold", 100)]


def test_kind_configs_pinned():
    """Every field of each kind's configuration at 6 and 20 tasks: each
    field feeds the instance draws that the golden digests pin."""
    def config(grid, deadlines, resources, speeds, threshold, num_tasks):
        return {"num_agents": 2, "num_tasks": num_tasks, "grid": grid,
                "homogeneous": True, "fraction_with_deadlines": deadlines,
                "num_resources": resources, "speed_range": speeds, "rng_seed": 0,
                "contention_threshold": threshold}

    assert {(kind, n): dataclasses.asdict(make_config(kind, num_tasks=n))
            for kind in KIND_FIELDS for n in (6, 20)} == {
        ("travel", 6): config((10, 10), 0.3, 10, (0.6, 1.0), 100, 6),
        ("travel", 20): config((10, 10), 0.3, 10, (0.6, 1.0), 100, 20),
        ("contention", 6): config((20, 20), 0.6, 2, (1.5, 3.0), 9, 6),
        ("contention", 20): config((20, 20), 0.6, 2, (1.5, 3.0), 100, 20),
        ("temporal", 6): config((20, 20), 1.0, 6, (1.5, 3.0), 100, 6),
        ("temporal", 20): config((20, 20), 1.0, 20, (1.5, 3.0), 100, 20),
        ("dense", 6): config((6, 6), 1.0, 6, (9.0, 12.0), 100, 6),
        ("dense", 20): config((6, 6), 1.0, 20, (9.0, 12.0), 100, 20),
    }


def test_package_exports():
    """The names `import demosched` offers; a new one needs a caller."""
    assert sorted(demosched.__all__) == [
        "AgentSpec", "BnBResult", "DecisionTree", "Demonstration",
        "FeasibilityReport", "GenConfig", "GenerationError", "HeuristicPolicy",
        "IncompleteDemonstrationError", "InfeasibleActionError", "Metrics",
        "PerturbationError", "PolicyModel", "ProblemInstance", "Schedule",
        "ScheduleEntry", "SchedulerConfig", "SimState", "StructuralError",
        "TaskSpec", "Violation", "__version__", "branch_and_bound",
        "brute_force_optimal", "construct_schedule", "cross_validate_min_leaf",
        "demonstrate", "evaluate", "generate_instance", "objective_ratio",
        "perturb", "schedulability_test", "split_demos",
        "train_policy", "validate_schedule"]
    for name in demosched.__all__:
        assert hasattr(demosched, name), name
