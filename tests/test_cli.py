import json
import math
import shlex
from pathlib import Path

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


# flaw -> (edit of a trained model, the message refusing it)
_BAD_MODELS = {
    "0": (lambda m: m["priority_tree"]["nodes"][0].update(left=0), "malformed tree"),
    "99": (lambda m: m["priority_tree"]["nodes"][0].update(left=99), "malformed tree"),
    "future-version": (lambda m: m.update(schema_version="v9"),
                       "unsupported schema version 'v9'"),
    "pointwise": (lambda m: m.update(kind="pointwise"), "unsupported model kind 'pointwise'"),
    "fractional-feature": (lambda m: m["priority_tree"]["nodes"][0].update(feature=0.7),
                           "node 0 feature must be an integer, got 0.7"),
    "fractional-child": (lambda m: m["priority_tree"]["nodes"][0].update(left=1.9),
                         "node 0 left must be an integer, got 1.9"),
    "nan-threshold": (lambda m: m["priority_tree"]["nodes"][0].update(threshold=math.nan),
                      "node 0 threshold must be a number, got nan"),
    "nan-prob": (lambda m: m["act_tree"]["nodes"][0].update(prob=math.nan),
                 "node 0 prob must be a finite number, got nan"),
    "prob-above-one": (lambda m: m["priority_tree"]["nodes"][0].update(prob=7.0),
                       "node 0 prob must be in [0, 1], got 7.0"),
    "negative-count": (lambda m: m["priority_tree"]["nodes"][0].update(count=-3),
                       "node 0 count must be at least 1, got -3"),
    "huge-threshold": (lambda m: m["priority_tree"]["nodes"][0].update(threshold=10**400),
                       "node 0 threshold must be at most 1.7976931348623157e+308 in size"),
    "huge-count": (lambda m: m["priority_tree"]["nodes"][0].update(count=10**30),
                   "node 0 count must be at most 9223372036854775807 in size"),
    "fractional-min-leaf": (lambda m: m["priority_tree"].update(min_leaf=1.9),
                            "min_leaf must be an integer, got 1.9"),
    "list-node": (lambda m: m["act_tree"]["nodes"].__setitem__(0, [1]),
                  "node 0 must be an object, got [1]"),
    "list-file": (lambda m: [1], "'list' object has no attribute 'get'"),
}


@pytest.mark.parametrize("flaw", _BAD_MODELS)
def test_evaluate_rejects_malformed_model(workspace, runner, flaw):
    """A priority-tree root whose left child is itself (a walk that never
    ends) or out of range, a schema version other than v1, a kind other
    than pairwise, or a node field or leaf size of the wrong type or out of
    range is refused at load, with exit code 1 and a message naming it. So
    is a file that is a list, not an object."""
    data = load_json(workspace["model"])
    assert "feature" in data["priority_tree"]["nodes"][0]
    edit, message = _BAD_MODELS[flaw]
    whole = edit(data)  # an edit in place, or a whole new file
    data = whole if isinstance(whole, list) else data
    path = workspace["root"] / f"malformed-{flaw}.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["evaluate", "--model", str(path),
                                  "--demos", workspace["demos"][0]])
    assert result.exit_code == 1, result.output
    assert message in result.output


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
                          "pruned_deadline", "pruned_screen", "pruned_bound",
                          "pruned_route", "peak_open"}
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
    ["experiment", "covas", "--tasks", "1"],
    ["experiment", "covas", "--train-tasks", "1"],
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
    ["demonstrate", "--epsilon", "nan"],
    ["experiment", "accuracy", "--epsilon", "nan"],
    ["experiment", "baselines", "--epsilon", "nan"],
    ["optimize", "--gap", "nan"],
    ["optimize", "--time-limit", "nan"],
    ["experiment", "covas", "--instances", "1", "--time-limit", "nan"],
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
    # finite, but travel would take infinitely many ticks
    "subnormal-speed": ("agents", "speed", 1e-320),
    "far-start": ("agents", "start_location", [1.7e308, 1.7e308]),
    # an int that no float holds, which JSON allows
    "huge-location": ("tasks", "location", [10**400, 0]),
    "huge-speed": ("agents", "speed", 10**400),
    "list-durations": ("tasks", "durations", [3, 3]),
    "short-wait": ("tasks", "waits", [["t01"]]),
    "string-wait": ("tasks", "waits", ["t01"]),
    "number-task-id": ("tasks", "id", 5),
    "number-agent-id": ("agents", "id", 5),
}


@pytest.mark.parametrize("command", ["demonstrate", "schedule", "optimize"])
@pytest.mark.parametrize("flaw", ["wait-cycle", "schema-v0", "string-deadline",
                                  "duplicate-resource", "no-tasks", "list-file",
                                  "number-task", "huge-horizon", *_BAD_VALUES])
def test_malformed_problem_is_error_message(workspace, runner, command, flaw):
    data = load_json(workspace["problem"])
    if flaw == "schema-v0":
        data["schema_version"] = "v0"
    elif flaw == "duplicate-resource":
        data["resources"].append(data["tasks"][0]["resource"])
    elif flaw == "no-tasks":
        data["tasks"] = []
    elif flaw == "list-file":
        data = [data]
    elif flaw == "number-task":
        data["tasks"][0] = 5
    elif flaw == "string-deadline":
        data["tasks"][0]["abs_deadline"] = str(data["tasks"][0]["abs_deadline"])
    elif flaw == "huge-horizon":
        data["horizon"] = 10**400
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


def test_demonstrate_unfinishable_problem_is_error_message(workspace, runner):
    """A well-formed problem the expert cannot finish (its one task is 50
    away from an agent of speed 1, and the horizon is 10) is an error
    message naming the file and the horizon, not a traceback."""
    path = _write_json(workspace, "unfinishable.json", {
        "schema_version": "v1", "grid_size": [60, 10],
        "agents": [{"id": "a0", "start_location": [0, 0], "speed": 1}],
        "tasks": [{"id": "t0", "location": [50, 0], "durations": {"a0": 1},
                   "resource": "r0"}],
        "resources": ["r0"], "horizon": 10})
    result = runner.invoke(main, ["demonstrate", "--problem", path, "--out",
                                  str(workspace["root"] / "never_written.json")])
    _assert_error_message(result, path)
    assert "horizon 10 reached with 1 unfinished tasks" in result.output


def test_train_rejects_non_demo_file(workspace, runner):
    result = runner.invoke(main, ["train", "--demos", workspace["problem"],
                                  "--min-leaf", "5",
                                  "--out", str(workspace["root"] / "x.json")])
    _assert_error_message(result, workspace["problem"])


def _first_scheduled(observations) -> dict:
    return next(o for o in observations if o["scheduled"])


# flaw -> edit of the first observation that schedules a task
_BAD_OBSERVATIONS = {
    "string-context": lambda o: o.update(context=["x", "y"]),
    "short-context": lambda o: o.update(context=[1.0]),
    "nan-feature": lambda o: o["task_features"][o["candidates"][0]].__setitem__(
        0, float("nan")),
    "huge-feature": lambda o: o["task_features"][o["candidates"][0]].__setitem__(0, 10**400),
    "short-features": lambda o: o["task_features"][o["candidates"][0]].pop(),
    "unfeaturized-candidate": lambda o: o["task_features"].pop(o["candidates"][0]),
    "scheduled-non-candidate": lambda o: o.update(candidates=[
        c for c in o["candidates"] if c != o["scheduled"][0]]),
    "fractional-tick": lambda o: o.update(tick=3.7),
    "string-tick": lambda o: o.update(tick="3"),
    "list-features": lambda o: o.update(task_features=list(o["task_features"].values())),
    "unknown-row-task": lambda o: o["task_features"].__setitem__(
        "zz", o["task_features"][o["scheduled"][0]]),
    "unknown-scheduled-task": lambda o: _rename_task(o, o["scheduled"][0], "zz"),
    "unknown-agent": lambda o: o["scheduled"].__setitem__(1, "zz"),
    "numeric-agent": lambda o: o["scheduled"].__setitem__(1, 5),
    "duplicate-candidates": lambda o: o.update(candidates=[o["scheduled"][0]] * 2),
    "negative-tick": lambda o: o.update(tick=-1),
    # a falsy value is not an idle observation's null
    **{f"{name}-scheduled": lambda o, value=value: o.update(scheduled=value)
       for name, value in [("false", False), ("zero", 0), ("zero-float", 0.0),
                           ("empty-string", ""), ("empty-list", []), ("empty-dict", {})]},
}


def _rename_task(observation: dict, old: str, new: str) -> None:
    """Call task `old` `new` in the observation's rows, candidates and pick."""
    features = observation["task_features"]
    features[new] = features.pop(old)
    observation["candidates"] = [new if c == old else c for c in observation["candidates"]]
    if observation["scheduled"][0] == old:
        observation["scheduled"][0] = new

# flaw -> edit of the demonstration's own fields
_BAD_DEMOS = {
    "future-version": lambda d: d.update(schema_version="v9"),
    "no-version": lambda d: d.pop("schema_version"),
    "fractional-seed": lambda d: d.update(rng_seed=2.9),
    "string-epsilon": lambda d: d.update(epsilon="0.5"),
    "epsilon-above-one": lambda d: d.update(epsilon=7.0),
    "list-file": lambda d: [1],
}


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("flaw", [*_BAD_OBSERVATIONS, *_BAD_DEMOS])
def test_malformed_demo_is_error_message(workspace, runner, command, flaw):
    """A demonstration whose observation has a non-numeric, non-finite or
    short feature row, task features in a list, an unfeaturized candidate, a
    scheduled task that was not a candidate, a row, candidate or scheduled
    task its problem lacks, a scheduled agent its problem lacks, a scheduled
    value that is neither null nor a pair, a candidate listed twice or a
    tick that is not an integer >= 0 exits 1 with a message
    naming the observation. So does one whose schema
    version is not v1, whose rng_seed is not an integer or whose epsilon is
    not a number in [0, 1], or a file that is a list, naming the file."""
    data = load_json(workspace["demos"][0])
    observation = _first_scheduled(data["observations"])
    if flaw in _BAD_OBSERVATIONS:
        _BAD_OBSERVATIONS[flaw](observation)
    else:
        whole = _BAD_DEMOS[flaw](data)  # an edit in place, or a whole new file
        data = whole if isinstance(whole, list) else data
    path = _write_json(workspace, f"demo_{flaw}.json", data)
    args = {"train": ["train", "--out", str(workspace["root"] / "never_written.json")],
            "evaluate": ["evaluate", "--model", workspace["model"]]}[command]
    result = runner.invoke(main, args + ["--demos", path])
    _assert_error_message(result, path)
    if flaw in _BAD_OBSERVATIONS:
        assert f"observation {data['observations'].index(observation)}: " in result.output
    assert not (workspace["root"] / "never_written.json").exists()


@pytest.mark.parametrize("min_leaf", ["cv", "1"])
def test_train_on_untrainable_demos_is_error_message(tmp_path, runner, min_leaf):
    """One-task demonstrations give no pairwise rows to fit: exit 1 with a
    message, not a traceback."""
    problem, demo = str(tmp_path / "problem.json"), str(tmp_path / "demo.json")
    for args in (["generate", "--kind", "temporal", "--tasks", "1", "--seed", "3",
                  "--out", problem],
                 ["demonstrate", "--problem", problem, "--out", demo]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["train", "--demos", demo, "--min-leaf", min_leaf,
                                  "--out", str(tmp_path / "model.json")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Error: cannot train on these demonstrations: " in result.output
    assert not (tmp_path / "model.json").exists()


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


# flaw -> (position in the first entry, None for the whole entry, ... for
# the whole file, or a top-level key; the value set there)
_BAD_SEEDS = {
    "string-start": (2, "3"),
    "fractional-finish": (3, 2.7),
    "short-entry": (None, ["t00", "a0", 0]),
    "fractional-objective": ("objective", 2.5),
    "string-complete": ("complete", "no"),
    "number-task-id": (0, 3),
    "number-agent-id": (1, 0),
    "list-file": (..., [1]),
}


@pytest.mark.parametrize("flaw", _BAD_SEEDS)
def test_optimize_rejects_malformed_seed_schedule(workspace, runner, flaw):
    """A seed schedule's ids are strings, its start, finish and objective
    integers, each entry four values and `complete` a bool, and the file an
    object; anything else exits 1 with a message, not a read of "3" as 3,
    2.7 as 2 or "no" as true, nor a traceback."""
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
    elif entry is ...:
        data = value
    else:
        data[entry] = value
    path = _write_json(workspace, f"seed_{flaw}.json", data)
    result = runner.invoke(main, _with_required(
        workspace, ["optimize", "--seed-schedule", path]))
    _assert_error_message(result, path)
    if entry is not ...:  # a whole file of the wrong type names no field
        assert "schedule" in result.output


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    for cmd in ("generate", "demonstrate", "train", "evaluate", "schedule",
                "optimize", "experiment"):
        assert cmd in result.output


def _quick_start() -> list[list[str]]:
    """The arguments of each `demosched` line of README's quick-start block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("demosched ")]


def test_readme_quick_start_runs(tmp_path, monkeypatch, runner):
    """Every command of README's quick start exits 0, run in order in an
    empty directory: the documented path through demonstrations and a
    model loaded from JSON."""
    commands = _quick_start()
    assert [args[0] for args in commands] == ["generate", "demonstrate", "demonstrate",
                                              "train", "evaluate", "schedule", "optimize"]
    monkeypatch.chdir(tmp_path)
    for args in commands:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
    assert json.loads(result.output)["seeded"] is True  # the replayed schedule was the seed
