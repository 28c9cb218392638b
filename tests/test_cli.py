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


@pytest.mark.parametrize("child", [0, 99])
def test_evaluate_rejects_malformed_model(workspace, runner, child):
    """A priority-tree root whose left child is itself (a walk that never
    ends) or out of range is refused at load, with exit code 1."""
    data = load_json(workspace["model"])
    root = data["priority_tree"]["nodes"][0]
    assert "feature" in root
    root["left"] = child
    path = workspace["root"] / f"malformed{child}.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["evaluate", "--model", str(path),
                                  "--demos", workspace["demos"][0]])
    assert result.exit_code == 1, result.output
    assert "malformed tree" in result.output


def test_model_commands_reject_out_of_range_feature(workspace, runner):
    """`evaluate` and `schedule` refuse a priority-tree root that splits on
    column 50 of 9-wide rows at load, with exit code 1, not an IndexError
    at the first prediction."""
    data = load_json(workspace["model"])
    root = data["priority_tree"]["nodes"][0]
    assert "feature" in root
    root["feature"] = 50
    path = workspace["root"] / "wide.json"
    path.write_text(json.dumps(data))
    for command in (["evaluate", "--demos", workspace["demos"][0]],
                    ["schedule", "--problem", workspace["problem"],
                     "--out", str(workspace["root"] / "wide_schedule.json")]):
        result = runner.invoke(main, [command[0], "--model", str(path), *command[1:]])
        assert result.exit_code == 1, result.output
        assert "feature 50 of rows 9 wide" in result.output


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


@pytest.mark.parametrize("args", [
    ["accuracy", "--demos", "2", "--num-seeds", "1"],
    ["baselines", "--demos", "2", "--num-seeds", "1"],
    ["covas", "--instances", "1", "--tasks", "5"],
], ids=" ".join)
def test_experiment_run_through(workspace, runner, args):
    """Each experiment command runs its driver with the options it passes."""
    out = str(workspace["root"] / f"{args[0]}.csv")
    result = runner.invoke(main, ["experiment", *args, "--out", out])
    assert result.exit_code == 0, result.output
    with open(out) as fh:
        header = fh.readline().strip()
    assert header == "experiment,condition,metric,value,replicate,seed"


def _with_required(workspace, args):
    """`args` plus whatever its command requires besides the option tried."""
    out = str(workspace["root"] / "never_written.json")
    problem, model = workspace["problem"], workspace["model"]
    required = {
        "generate": ["--out", out],
        "demonstrate": ["--problem", problem, "--out", out],
        "schedule": ["--problem", problem, "--model", model, "--out", out],
        "optimize": ["--problem", problem, "--out", out],
    }
    return args + required.get(args[0], [])


@pytest.mark.parametrize("args", [
    ["generate", "--tasks", "0"],
    ["generate", "--agents", "0"],
    ["experiment", "covas", "--tasks", "0"],
    ["experiment", "covas", "--train-tasks", "0"],
    ["demonstrate", "--epsilon", "2"],
    ["experiment", "accuracy", "--epsilon", "1.5"],
    ["experiment", "baselines", "--epsilon", "1.5"],
    ["experiment", "accuracy", "--demos", "0"],
    ["experiment", "baselines", "--demos", "0"],
    ["experiment", "accuracy", "--demos", "1"],
    ["experiment", "baselines", "--demos", "1"],
    ["experiment", "accuracy", "--num-seeds", "0"],
    ["experiment", "baselines", "--num-seeds", "0"],
    ["experiment", "covas", "--instances", "0"],
    ["schedule", "--fallback-depth", "0"],
    ["schedule", "--fallback-depth", "-3"],
    ["optimize", "--gap", "-1"],
    ["optimize", "--node-limit", "-5"],
    ["optimize", "--time-limit", "-1"],
    ["experiment", "covas", "--time-limit", "-1"],
], ids=" ".join)
def test_out_of_range_option_is_usage_error(workspace, runner, args):
    """An out-of-range count, probability, depth, gap or limit exits 2 with the
    option named, rather than a traceback, a silent clamp or an experiment
    that runs no replicate and prints an empty line."""
    result = runner.invoke(main, _with_required(workspace, args))
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{args[-2]}'" in result.output
    assert not (workspace["root"] / "never_written.json").exists()


def _write_json(workspace, name, data) -> str:
    path = workspace["root"] / name
    path.write_text(json.dumps(data))
    return str(path)


def _assert_error_message(result, path):
    """Exit 1 through a ClickException naming the file, not a traceback."""
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {path}: " in result.output


# flaw -> (owner list, key, value) set on the problem's first task or agent
_BAD_VALUES = {
    "string-location": ("tasks", "location", ["1", "2"]),
    "short-location": ("tasks", "location", [1]),
    "nan-location": ("tasks", "location", [float("nan"), 1]),
    "fractional-duration": ("tasks", "durations", {"a0": 2.7, "a1": 3}),
    "string-start": ("agents", "start_location", ["0", "0"]),
    "string-speed": ("agents", "speed", "2"),
    "infinite-speed": ("agents", "speed", float("inf")),
    "list-durations": ("tasks", "durations", [3, 3]),
    "short-wait": ("tasks", "waits", [["t01"]]),
    "string-wait": ("tasks", "waits", ["t01"]),
}


@pytest.mark.parametrize("command", ["demonstrate", "schedule", "optimize"])
@pytest.mark.parametrize("flaw", ["wait-cycle", "schema-v0", "string-deadline",
                                  *_BAD_VALUES])
def test_malformed_problem_is_error_message(workspace, runner, command, flaw):
    data = load_json(workspace["problem"])
    if flaw == "schema-v0":
        data["schema_version"] = "v0"
    elif flaw == "string-deadline":
        data["tasks"][0]["abs_deadline"] = str(data["tasks"][0]["abs_deadline"])
    elif flaw in _BAD_VALUES:
        owners, key, value = _BAD_VALUES[flaw]
        data[owners][0][key] = value
    else:
        first, second = data["tasks"][:2]
        first["waits"] = [[second["id"], 0]]
        second["waits"] = [[first["id"], 0]]
    path = _write_json(workspace, f"{flaw}.json", data)
    args = _with_required(workspace, [command])
    args[args.index("--problem") + 1] = path
    result = runner.invoke(main, args)
    _assert_error_message(result, path)
    if flaw in _BAD_VALUES:  # the message names the task or agent at fault
        assert repr(data[_BAD_VALUES[flaw][0]][0]["id"]) in result.output


def test_train_rejects_non_demo_file(workspace, runner):
    result = runner.invoke(main, ["train", "--demos", workspace["problem"],
                                  "--min-leaf", "5",
                                  "--out", str(workspace["root"] / "x.json")])
    _assert_error_message(result, workspace["problem"])


def test_optimize_rejects_seed_naming_unknown_task(workspace, runner):
    sched = str(workspace["root"] / "seed_source.json")
    result = runner.invoke(main, ["schedule", "--problem", workspace["problem"],
                                  "--model", workspace["model"], "--out", sched])
    assert result.exit_code == 0, result.output
    data = load_json(sched)
    data["entries"][0][0] = "zz"
    path = _write_json(workspace, "seed_zz.json", data)
    result = runner.invoke(main, _with_required(
        workspace, ["optimize", "--seed-schedule", path]))
    _assert_error_message(result, path)
    assert "'zz'" in result.output


# flaw -> (position in the first entry, None for the whole entry, or a
# top-level key; the value set there)
_BAD_SEEDS = {
    "string-start": (2, "3"),
    "fractional-finish": (3, 2.7),
    "short-entry": (None, ["t00", "a0", 0]),
    "fractional-objective": ("objective", 2.5),
    "string-complete": ("complete", "no"),
}


@pytest.mark.parametrize("flaw", _BAD_SEEDS)
def test_optimize_rejects_malformed_seed_schedule(workspace, runner, flaw):
    """A seed schedule's start, finish and objective are integers, each
    entry four values and `complete` a bool; anything else exits 1 with a
    message, not a read of "3" as 3, 2.7 as 2 or "no" as true."""
    sched = str(workspace["root"] / "seed_source.json")
    result = runner.invoke(main, ["schedule", "--problem", workspace["problem"],
                                  "--model", workspace["model"], "--out", sched])
    assert result.exit_code == 0, result.output
    data = load_json(sched)
    entry, value = _BAD_SEEDS[flaw]
    if isinstance(entry, int):
        data["entries"][0][entry] = value
    elif entry is None:
        data["entries"][0] = value
    else:
        data[entry] = value
    path = _write_json(workspace, f"seed_{flaw}.json", data)
    result = runner.invoke(main, _with_required(
        workspace, ["optimize", "--seed-schedule", path]))
    _assert_error_message(result, path)
    assert "schedule" in result.output


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    for cmd in ("generate", "demonstrate", "train", "evaluate", "schedule",
                "optimize", "experiment"):
        assert cmd in result.output
