import ast
import csv
import dataclasses
import hashlib
import inspect
import json
from pathlib import Path

import pytest

import demosched
from demosched.demonstrator import (
    IncompleteDemonstrationError,
    demonstrate,
    demonstration_to_dict,
    verify_expert,
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
from demosched.scheduler import SchedulerConfig


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


def test_noisy_demos_record_no_verifying_run(monkeypatch):
    """Above epsilon 0 the generator verifies each problem without recording,
    and every recorded expert run is a noisy demo or a retry of one."""
    kinds, stream = ["travel", "contention", "temporal", "dense"], 77
    expected = [demonstration_to_dict(d)
                for d in collect_demos(kinds, 8, 0.2, stream, num_tasks=6)]
    recorded, verified = [], []

    def counted(calls, run):
        def call(*args, **kwargs):
            calls.append(1)
            return run(*args, **kwargs)
        return call

    monkeypatch.setattr("demosched.generator.demonstrate", counted(recorded, demonstrate))
    monkeypatch.setattr("demosched.experiments.demonstrate", counted(recorded, demonstrate))
    monkeypatch.setattr("demosched.generator.verify_expert",
                        counted(verified, verify_expert))
    demos = collect_demos(kinds, 8, 0.2, stream, num_tasks=6)
    assert [demonstration_to_dict(d) for d in demos] == expected
    assert len(recorded) == 9  # demo 7's first noisy run falls short
    assert len(verified) >= 8


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
# no caller set were removed; "covas" was re-recorded when the search gained
# its route component, which moves only its node counts.
GOLDEN_ROWS = {
    "accuracy": "cae6039341d23ded76244df303c68a68a895cd8aef31475377def7b95fec2b2e",
    "accuracy-noisy": "3d1245ae337941223d9cf22a02ad955db0b17b149ee9f258facf2913449630e4",
    "baselines": "a5bc463b76ebe10a613f86172f46a7aef2f187170930127fb5fe393e4980c27a",
    "covas": "660bf1f33579010600ca17c05b001cbfa64e5725d4d39f293ed36c636738d2b1",
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


def test_schedulerconfig_fields():
    """Every replay knob, with its default; a new one needs a caller."""
    assert [(f.name, f.default) for f in dataclasses.fields(SchedulerConfig)] == [
        ("fallback_depth", 3)]


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
        "FeasibilityReport", "GenConfig", "GenerationError",
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


def _module_paths(*dirs: str) -> list[Path]:
    """The library's modules (`__init__.py` aside) and those of the other
    named directories of the repository."""
    root = Path(__file__).resolve().parents[1]
    return [p for p in sorted((root / "src" / "demosched").glob("*.py"))
            if p.name != "__init__.py"] + [
        p for d in dirs for p in sorted((root / d).glob("*.py"))]


# public names no entry point calls, kept on purpose
UNCALLED_ALLOWED = {
    "brute_force_optimal": "the exhaustive oracle C5 checks branch and bound against",
    "origin_angle": "defines the angle feature that tests compare `Compiled.angle` to",
}


def test_every_public_function_has_a_caller():
    """Every undecorated top-level public function or class in the library
    (`__init__.py` aside) and the benchmark is named somewhere in them,
    other than by its own definition: code only tests reach belongs in the
    tests."""
    defined, used = {}, set()
    for path in _module_paths("perfbench"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not node.decorator_list):
                defined[node.name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    uncalled = {name: where for name, where in defined.items()
                if name not in used and name not in UNCALLED_ALLOWED}
    assert uncalled == {}


def test_every_public_method_has_a_caller():
    """Every undecorated public method of a top-level class in the library
    (`__init__.py` aside) and the benchmark is named by an attribute in
    them, as `obj.name`; a local variable of the same name is no call. A
    method only tests reach belongs in the tests."""
    defined, used = {}, set()
    for path in _module_paths("perfbench"):
        tree = ast.parse(path.read_text())
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef)
                            and not node.name.startswith("_") and not node.decorator_list):
                        defined[f"{cls.name}.{node.name}"] = path.name
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    uncalled = {name: where for name, where in defined.items()
                if name.split(".")[1] not in used}
    assert uncalled == {}


# defaulted parameters no call passes, kept on purpose
UNPASSED_ALLOWED: dict[str, str] = {}


def _defaulted(fn: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each defaulted parameter's name and its position among those a call
    passes positionally (None for a keyword-only one); a method's `self`
    or `cls` is no position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    if method and "staticmethod" not in [ast.unparse(d) for d in fn.decorator_list]:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    found = {arg.arg: k for k, arg in enumerate(positional) if k >= first}
    found.update((arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                 if default is not None)
    return found


def _unpassed_defaults(library: list[str], callers: list[str]) -> list[str]:
    """`function: parameter` for each defaulted parameter of a public
    function, or public method or `__init__` of a public class, in the
    `library` sources that no call in the `callers` sources passes, by
    keyword or by position. A call is matched by the name it calls (an
    `__init__` by its class's); one that unpacks `*args` passes every
    position, and one that unpacks `**kwargs` every keyword."""
    defined = []  # (shown as, called as, parameters)
    for source in library:
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((node.name, node.name, _defaulted(node, False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                            fn.name == "__init__" or not fn.name.startswith("_")):
                        called = node.name if fn.name == "__init__" else fn.name
                        defined.append((f"{node.name}.{fn.name}", called,
                                        _defaulted(fn, True)))
    passed: dict[str, set] = {}  # called name -> keywords and positions passed
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            got = passed.setdefault(name, set())
            got.update(k.arg or "**" for k in call.keywords)
            got.update(range(len(call.args)))
            if any(isinstance(a, ast.Starred) for a in call.args):
                got.add("*")
    unpassed = []
    for shown, called, params in defined:
        got = passed.get(called, set())
        unpassed += [f"{shown}: {name}" for name, k in params.items()
                     if name not in got and "**" not in got
                     and (k is None or (k not in got and "*" not in got))]
    return unpassed


def test_every_defaulted_parameter_is_passed():
    """Every defaulted parameter of a public library function, method or
    class is passed by some call in the library, the tests or the
    benchmark: a default nothing overrides is a knob nobody turns, or a
    parameter left over from a caller that is gone."""
    library = [p.read_text() for p in _module_paths()]
    callers = [p.read_text() for p in _module_paths("tests", "perfbench")]
    unpassed = [name for name in _unpassed_defaults(library, callers)
                if name not in UNPASSED_ALLOWED]
    assert unpassed == []


def test_defaulted_parameter_check_catches_a_leftover():
    """Mutation check for the rule above, on a fixed source: parameters
    passed by keyword, by position, through `__init__` or by unpacking
    pass it, and a leftover one does not."""
    library = (
        "def fit(bins, y, rows=None, hist=None): pass\n"
        "def grid(values, folds=5, *, seed=0): pass\n"
        "class Tree:\n"
        "    def __init__(self, min_leaf=1): pass\n"
        "    def predict(self, X, cut=0.5): pass\n"
        "    def _hidden(self, unused=1): pass\n")
    callers = ("fit(b, y, rows)\n"
               "grid(v, **options)\n"
               "Tree(min_leaf=3).predict(X)\n")
    assert _unpassed_defaults([library], [callers]) == ["fit: hist", "Tree.predict: cut"]
    assert _unpassed_defaults([library], [callers + "t.predict(*args)\n"]) == ["fit: hist"]


# parameters no body reads, kept on purpose
UNREAD_ALLOWED = {
    "cli.py: _min_leaf: ctx": "click calls an option callback as (ctx, param, value)",
    "cli.py: _min_leaf: param": "click calls an option callback as (ctx, param, value)",
    "generator.py: KIND_FIELDS['travel'].<lambda>: n":
        "every kind's fields take the task count; travel's do not depend on it",
}


def _unread_parameters(module: str, source: str) -> list[str]:
    """`module: function: parameter` for each parameter of a function,
    method, closure or lambda in `source` that its body never reads, `self`
    and `cls` aside. A function is named by the classes and functions it
    sits in; a lambda by the name, and dict key, it is bound to, then
    `<lambda>`."""
    unread = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        elif isinstance(node, ast.Lambda):
            where = f"{where}.<lambda>".lstrip(".")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for part in body for n in ast.walk(part)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(f"{module}: {where}: {p}" for p in params
                          if p not in read and p not in ("self", "cls"))
        labels = {}  # id of a child -> the name it is bound to
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            labels[id(node.value)] = f"{where}.{node.targets[0].id}".lstrip(".")
        elif isinstance(node, ast.Dict):
            labels.update((id(value), f"{where}[{key.value!r}]")
                          for key, value in zip(node.keys, node.values)
                          if isinstance(key, ast.Constant))
        for child in ast.iter_child_nodes(node):
            visit(child, labels.get(id(child), where))

    visit(ast.parse(source), "")
    return unread


def test_every_parameter_is_read():
    """Every parameter of a library function, method, closure or lambda is
    read by its body: one that nothing reads is a knob that turns nothing,
    or a value left over from a caller that is gone. Every exemption is
    still needed."""
    unread = {name for path in _module_paths()
              for name in _unread_parameters(path.name, path.read_text())}
    assert sorted(unread - UNREAD_ALLOWED.keys()) == []
    assert sorted(UNREAD_ALLOWED.keys() - unread) == []


def test_unread_parameter_check_catches_a_leftover():
    """Mutation check for the rule above, on a fixed source: parameters read
    in the body, in a closure or through `self` pass it, and a leftover one
    of a function, method, closure or lambda does not."""
    source = (
        "def fit(bins, y, rows, hist):\n"
        "    def walk(node, depth):\n"
        "        return node + y\n"
        "    return walk(bins, rows)\n"
        "class Tree:\n"
        "    def predict(self, X, *args, cut=0.5, **kw):\n"
        "        return self.score(X, *args, **kw)\n"
        "    @classmethod\n"
        "    def load(cls, data):\n"
        "        return cls()\n"
        "KINDS = {'plain': lambda n: {}, 'sized': lambda n: {'n': n}}\n")
    assert _unread_parameters("m.py", source) == [
        "m.py: fit: hist", "m.py: fit.walk: depth", "m.py: Tree.predict: cut",
        "m.py: Tree.load: data", "m.py: KINDS['plain'].<lambda>: n"]


def test_every_module_import_is_used():
    """No module of the library, the tests or the benchmark imports a name
    at module level that no expression in it reads."""
    unused = []
    for path in _module_paths("tests", "perfbench"):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def _compiled_class(trees) -> ast.ClassDef:
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "Compiled"]
    assert len(classes) == 1
    return classes[0]


def _names_compiled(node: ast.Attribute, in_class: set) -> bool:
    """Whether an attribute is one of a compiled problem's: `cp.name`,
    `<state>.compiled.name`, or `self.name` inside `Compiled`."""
    owner = node.value
    return ((isinstance(owner, ast.Name)
             and (owner.id == "cp" or owner.id == "self" and id(node) in in_class))
            or (isinstance(owner, ast.Attribute) and owner.attr == "compiled"))


def test_every_compiled_table_is_read():
    """Every attribute `Compiled.__init__` assigns is read in the library or
    the benchmark outside it: as `cp.name`, `<state>.compiled.name`, or
    `self.name` in a method of `Compiled`. A table only tests read belongs
    in the tests."""
    trees = [ast.parse(path.read_text()) for path in _module_paths("perfbench")]
    cls = _compiled_class(trees)
    in_class = {id(node) for node in ast.walk(cls)}
    init = next(f for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    inside = {id(node) for node in ast.walk(init)}
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in inside and _names_compiled(node, in_class)}
    assigned = {node.attr for node in ast.walk(init)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    assert sorted(assigned - read) == []


# the only functions that may assign a compiled problem's tables
COMPILED_WRITERS = ["core.py: Compiled.__init__", "optimizer.py: _search_tables"]


def test_compiled_tables_are_assigned_only_where_built():
    """No code in the library or the benchmark assigns or deletes an
    attribute of a compiled problem (`cp.name`, `<state>.compiled.name`, or
    `self.name` inside `Compiled`) outside `Compiled.__init__` and
    `optimizer._search_tables`, so a table never changes once built."""
    paths = _module_paths("perfbench")
    trees = [ast.parse(path.read_text()) for path in paths]
    in_class = {id(node) for node in ast.walk(_compiled_class(trees))}
    writers = set()
    for path, tree in zip(paths, trees):
        owners = {}  # id of each node -> the function (in its class) it sits in
        for scope in ast.walk(tree):
            for fn in (n for n in ast.iter_child_nodes(scope)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
                prefix = f"{scope.name}." if isinstance(scope, ast.ClassDef) else ""
                owners.update({id(n): prefix + fn.name for n in ast.walk(fn)
                               if id(n) not in owners})
        writers.update(f"{path.name}: {owners.get(id(node))}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.ctx, (ast.Store, ast.Del))
                       and _names_compiled(node, in_class))
    assert sorted(writers) == COMPILED_WRITERS


def test_compiled_holds_no_reference_to_its_problem():
    """`Compiled.__init__` reads its problem argument only through its
    fields (`problem.tasks`) and names no `weakref`, so no slot holds the
    problem or a weak reference to it: the compiled problem outlives the
    problem it was built from."""
    cls = _compiled_class([ast.parse(path.read_text()) for path in _module_paths()])
    init = next(f for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name == "__init__")
    problem = init.args.args[1].arg
    fields = {id(node.value) for node in ast.walk(init) if isinstance(node, ast.Attribute)}
    held = [ast.unparse(node) for node in ast.walk(init) if isinstance(node, ast.Name)
            and (node.id == problem and id(node) not in fields or node.id == "weakref")]
    assert held == []


def test_compiled_is_built_only_by_the_problem():
    """No library module builds `Compiled` but `ProblemInstance.compiled`,
    so a problem is compiled once however many layers read it."""
    builds = []
    for path in _module_paths():
        tree = ast.parse(path.read_text())
        owners = {}  # id of each call -> (class, function) it sits in
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
                owners.update({id(n): (cls, fn) for n in ast.walk(fn)})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            cls, fn = owners.get(id(node), (None, None))
            if getattr(func, "id", getattr(func, "attr", None)) == "Compiled":
                builds.append(f"{path.name}: {cls and cls.name}.{fn and fn.name}")
    assert builds == ["core.py: ProblemInstance.compiled"]
