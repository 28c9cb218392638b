import json

import pytest
from click.testing import CliRunner

from demosched.cli import main
from demosched.core import load_json, problem_from_dict, schedule_from_dict


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, runner):
    """Problem, two demos and a trained model produced through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    problem = str(root / "problem.json")
    result = runner.invoke(main, ["generate", "--kind", "temporal",
                                  "--tasks", "5", "--seed", "3",
                                  "--out", problem])
    assert result.exit_code == 0, result.output
    demos = []
    for i in range(2):
        demo = str(root / f"demo{i}.json")
        result = runner.invoke(main, ["demonstrate", "--problem", problem,
                                      "--seed", str(i), "--out", demo])
        assert result.exit_code == 0, result.output
        demos.append(demo)
    model = str(root / "model.json")
    result = runner.invoke(main, ["train", "--demos", demos[0],
                                  "--demos", demos[1], "--min-leaf", "5",
                                  "--out", model])
    assert result.exit_code == 0, result.output
    return {"root": root, "problem": problem, "demos": demos, "model": model}


def test_generate_writes_valid_problem(workspace):
    problem = problem_from_dict(load_json(workspace["problem"]))
    assert len(problem.tasks) == 5


def test_demonstrate_output_loadable(workspace):
    data = load_json(workspace["demos"][0])
    assert data["schema_version"] == "v1"
    assert data["observations"]


def test_train_cv_mode(workspace, runner):
    out = str(workspace["root"] / "model_cv.json")
    result = runner.invoke(main, ["train", "--demos", workspace["demos"][0],
                                  "--demos", workspace["demos"][1],
                                  "--min-leaf", "cv", "--out", out])
    assert result.exit_code == 0, result.output
    assert "cross-validated min_leaf" in result.output


def test_train_rejects_bad_min_leaf(workspace, runner):
    result = runner.invoke(main, ["train", "--demos", workspace["demos"][0],
                                  "--min-leaf", "many", "--out", "x.json"])
    assert result.exit_code != 0


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_min_leaf_parsed_once_for_both_commands(workspace, runner, value):
    commands = [
        ["train", "--demos", workspace["demos"][0], "--min-leaf", value,
         "--out", str(workspace["root"] / "rejected.json")],
        ["experiment", "accuracy", "--demos", "2", "--num-seeds", "1",
         "--min-leaf", value],
    ]
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--min-leaf'" in result.output
        assert "expected 'cv' or an integer >= 1" in result.output
    assert not (workspace["root"] / "rejected.json").exists()


def test_evaluate_prints_metrics(workspace, runner):
    result = runner.invoke(main, ["evaluate", "--model", workspace["model"],
                                  "--demos", workspace["demos"][0]])
    assert result.exit_code == 0, result.output
    metrics = json.loads(result.output)
    assert 0.0 <= metrics["sensitivity"] <= 1.0
    assert metrics["num_scheduling_obs"] == 5


def test_schedule_and_optimize(workspace, runner):
    sched = str(workspace["root"] / "schedule.json")
    result = runner.invoke(main, ["schedule", "--problem", workspace["problem"],
                                  "--model", workspace["model"],
                                  "--out", sched])
    assert result.exit_code == 0, result.output
    assert schedule_from_dict(load_json(sched)).complete

    best = str(workspace["root"] / "optimal.json")
    result = runner.invoke(main, ["optimize", "--problem", workspace["problem"],
                                  "--seed-schedule", sched, "--out", best])
    assert result.exit_code == 0, result.output
    tail = result.output[result.output.index("{"):]
    report = json.loads(tail)
    assert report["seeded"] is True
    assert report["gap"] <= 1e-3
    stats = report["stats"]
    assert set(stats) == {"bound_evals", "children_generated", "pruned_canonical",
                          "pruned_deadline", "pruned_bound", "peak_open"}
    assert stats["bound_evals"] >= 1 and stats["peak_open"] >= 1
    optimal = schedule_from_dict(load_json(best))
    assert optimal.objective <= schedule_from_dict(load_json(sched)).objective


def test_experiment_sensitivity(workspace, runner):
    out = str(workspace["root"] / "grid.csv")
    result = runner.invoke(main, ["experiment", "sensitivity", "--out", out])
    assert result.exit_code == 0, result.output
    assert "objective_ratio" in result.output
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "experiment,condition,metric,value,replicate,seed"


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    for cmd in ("generate", "demonstrate", "train", "evaluate", "schedule",
                "optimize", "experiment"):
        assert cmd in result.output
