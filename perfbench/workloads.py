"""The benchmark's workloads, built from the same experiment calls the
acceptance criteria use.

- learn-20 (C1 traffic): generate and demonstrate noise-free 20-task,
  2-agent instances cycling through travel, contention and temporal; split
  85/15 by demo; build both datasets; pick the leaf size by cross-validation;
  fit both trees; evaluate on the held-out split; replay a policy fitted with
  the solve workloads' leaf size on every held-out problem. No branch and
  bound runs.
- solve-7 (C6 traffic at 7 tasks): a policy trained on temporal demos in
  set-up warm-starts branch and bound on fresh instances; cold and seeded
  searches both run to gap 1e-3 with no node limit, so they close. C6 itself
  uses 9 tasks, where one instance costs about 2 s and per-instance cost
  varies about 0.6 (coefficient of variation): a run could not solve enough
  9-task instances for its mean to repeat across seeds.
- transfer-20 (C7 traffic): a policy trained on 10-task demos seeds 20-task
  searches under a node limit. No search closes, so the cost is the
  per-node cost of each arm.

One round is one learning pipeline (learn-20) or one instance solved both
ways (solve-7, transfer-20). Layer values are per-round means.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from demosched.core import validate_schedule
from demosched.datasets import build_act_dataset, build_pairwise_dataset
from demosched.demonstrator import demonstrate
from demosched.experiments import (
    PROBLEM_KINDS,
    condition_label,
    derive_seed,
    make_config,
)
from demosched.generator import generate_instance
from demosched.optimizer import GAP_THRESHOLD, branch_and_bound
from demosched.policy import (
    MIN_LEAF_GRID,
    PolicyModel,
    cross_validate_min_leaf,
    evaluate,
    split_demos,
)
from demosched.scheduler import SchedulerConfig, construct_schedule
from demosched.tree import DecisionTree

from harness import Gate, Recorder

GEN = "generator.generate_instance"
DEMO = "demonstrator.demonstrate"
PAIR = "datasets.build_pairwise_dataset"
ACT = "datasets.build_act_dataset"
FIT = "tree.DecisionTree.fit"
CV = "policy.cross_validate_min_leaf"
EVAL = "policy.evaluate"
CONSTRUCT = "scheduler.construct_schedule"
VALIDATE = "core.validate_schedule"
BNB = "optimizer.branch_and_bound"
ARMS = ("cold", "seeded")
LAYERS = (GEN, DEMO, PAIR, ACT, FIT, CV, EVAL, CONSTRUCT, VALIDATE,
          BNB + ".cold", BNB + ".seeded")

# benchmark-side spans that group layer calls
ROUND = "bench.round"
TRAIN = "bench.train"
SEEDED_SOLVE = "bench.seeded_solve"

CV_FOLDS = 5
REJECT_RATE = 0.1  # C7: at least 18 of 20 policy seeds feasible
MIN_LEAF = 10  # the leaf size run_covas_benchmark trains with
SPLIT = 0.85


@dataclass(frozen=True)
class Sizes:
    learn_demos: int = 150     # C1 volume
    warmup_demos: int = 12     # learn-20 set-up pipeline
    solve_tasks: int = 7
    transfer_tasks: int = 20
    transfer_train_tasks: int = 10
    train_demos: int = 30      # run_covas_benchmark's training volume
    eval_demos: int = 30       # held-out demos scoring the solve policies
    # per arm on transfer-20. C7 uses 10k; at 2k both arms' time per node is
    # within 15 % of theirs at 10k, at 500 cold's is 1.8x (fixed costs)
    node_limit: int = 2000
    setups: int = 5


FULL = Sizes()
TINY = Sizes(learn_demos=9, warmup_demos=3, solve_tasks=4,
             transfer_tasks=6, transfer_train_tasks=4, train_demos=5,
             eval_demos=3, node_limit=30, setups=1)


# ---------------------------------------------------------------------------
# Layer calls, each timed and its output checked
# ---------------------------------------------------------------------------

def check_schedule(rec: Recorder, gate: Gate, problem, schedule, what: str) -> bool:
    """An exact search's schedule must be complete and pass every check."""
    report = rec.call(VALIDATE, validate_schedule, problem, schedule)
    ok = schedule.complete and report.feasible
    return gate.check(ok, f"{what}: " + ("; ".join(
        v.detail for v in report.violations) or "incomplete"))


def check_heuristic(rec: Recorder, gate: Gate, problem, schedule, layer: str,
                    what: str) -> bool:
    """True when a heuristic's schedule is complete and passes every check.

    The expert and the policy replay may commit to a pick that misses an
    absolute deadline, and a replay may stall before every task is placed.
    Either makes the schedule unusable as a warm start: it is counted under
    `<layer>.rejected`, and `check_rejections` fails the run when a layer's
    rejections go over C7's tolerance. Any other violation of a complete
    schedule fails the operation.
    """
    report = rec.call(VALIDATE, validate_schedule, problem, schedule)
    if schedule.complete:
        others = [v.detail for v in report.violations
                  if v.kind != "abs_deadline"]
        gate.check(not others, f"{what}: " + "; ".join(others))
    ok = schedule.complete and report.feasible
    rec.add(layer + ".rejected", not ok)
    return ok


def check_rejections(gate: Gate, recs: list[Recorder]) -> None:
    """C7 accepts 18 feasible policy seeds in 20, a rejection rate of 1 in
    10. A layer whose heuristic schedules are rejected more often than that,
    by more than three standard deviations of a binomial count (so that a
    short run at that rate passes), fails the run."""
    for layer in (DEMO, CONSTRUCT):
        made = sum(r.calls[layer] for r in recs)
        rejected = sum(r.counts[layer + ".rejected"] for r in recs)
        allowed = made * REJECT_RATE + 3 * math.sqrt(
            made * REJECT_RATE * (1 - REJECT_RATE))
        with gate.operation(f"{layer} rejections"):
            gate.check(rejected <= allowed,
                       f"{layer}: {rejected:.0f} of {made} schedules "
                       f"rejected, over {allowed:.1f}")


def collect(rec: Recorder, gate: Gate, kinds, num_demos: int, stream: int,
            num_tasks: int, num_agents: int = 2) -> list:
    """`experiments.collect_demos` with generation and demonstration timed
    apart: the same make_config/derive_seed calls, so the same demos."""
    demos = []
    for i in range(num_demos):
        kind = kinds[i % len(kinds)]
        cfg = make_config(kind, num_agents=num_agents, num_tasks=num_tasks,
                          homogeneous=True,
                          rng_seed=derive_seed(stream, "gen", kind, i))
        what = f"demonstration {kind} {i}"
        with gate.operation(what):
            problem = rec.call(GEN, generate_instance, cfg)
            demo = rec.call(DEMO, demonstrate, problem, epsilon=0.0,
                            rng_seed=derive_seed(stream, "demo", kind, i),
                            contention_threshold=cfg.contention_threshold)
            rec.add(DEMO + ".observations", len(demo.observations))
            gate.check(demo.schedule.complete, f"{what}: incomplete")
            check_heuristic(rec, gate, problem, demo.schedule, DEMO, what)
            demos.append(demo)
    return demos


def train(rec: Recorder, demos: list, leaf_sizes) -> list[PolicyModel]:
    """Dataset build, then both tree fits for each leaf size in turn; a
    leaf size of None is picked by cross-validation."""
    policies = []
    with rec.span(TRAIN):
        pair = rec.call(PAIR, build_pairwise_dataset, demos)
        act = rec.call(ACT, build_act_dataset, demos)
        rec.add(PAIR + ".rows", len(pair))
        rec.add(ACT + ".rows", len(act))
        for min_leaf in leaf_sizes:
            if min_leaf is None:
                min_leaf = rec.call(CV, cross_validate_min_leaf, pair,
                                    folds=CV_FOLDS)
                rec.add(CV + ".fits", len(MIN_LEAF_GRID) * CV_FOLDS)
                rec.add(CV + ".min_leaf_selected", min_leaf)
            priority = rec.call(FIT, DecisionTree(min_leaf=min_leaf).fit,
                                pair.X, pair.y)
            act_tree = rec.call(FIT, DecisionTree(min_leaf=min_leaf).fit,
                                act.X, act.y)
            rec.add(FIT + ".rows", len(pair) + len(act))
            rec.add(FIT + ".leaves",
                    priority.num_leaves() + act_tree.num_leaves())
            policies.append(PolicyModel(priority_tree=priority,
                                        act_tree=act_tree))
    return policies


def score(rec: Recorder, gate: Gate, policy, demos: list) -> dict:
    metrics = rec.call(EVAL, evaluate, policy, demos)
    rec.add(EVAL + ".observations",
            metrics.num_scheduling_obs + metrics.num_idle_obs)
    gate.check(metrics.sensitivity is not None
               and metrics.specificity is not None,
               "evaluation set lacks scheduling or idle observations")
    return {"sensitivity": metrics.sensitivity,
            "specificity": metrics.specificity}


def seed_schedule(rec: Recorder, gate: Gate, problem, policy):
    """Policy replay plus the validation a warm start needs. After a
    rejected seed the search runs cold, as run_covas_benchmark does."""
    seed = rec.call(CONSTRUCT, construct_schedule, problem, policy,
                    SchedulerConfig())
    return seed, check_heuristic(rec, gate, problem, seed, CONSTRUCT,
                                 "policy replay")


def note_seed_ratio(rec: Recorder, seed, reference: int) -> None:
    """Seed objective over the expert's (learn-20) or over the best that
    either search found (solve workloads)."""
    rec.add(CONSTRUCT + ".ratio_sum", seed.objective / reference)
    rec.add(CONSTRUCT + ".ratio_n", 1)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Learn:
    name = "learn-20"
    kinds = PROBLEM_KINDS
    num_tasks = 20

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, rec: Recorder, gate: Gate, seed: int) -> dict:
        """A small pipeline so lazy imports and first-call costs are paid
        before the timed rounds; its demos are not reused."""
        stream = derive_seed(seed, self.name, "warm-up")
        demos = collect(rec, gate, self.kinds, self.sizes.warmup_demos, stream,
                        self.num_tasks)
        with gate.operation("warm-up training"):
            policy, = train(rec, demos, [MIN_LEAF])
            score(rec, gate, policy, demos)
            seed_schedule(rec, gate, demos[0].problem, policy)
        return {}

    def round(self, rec: Recorder, gate: Gate, seed: int, index: int,
              state: dict) -> dict:
        # run_accuracy_sweep's stream for replicate `index` of C1
        condition = condition_label(
            demos=self.sizes.learn_demos, epsilon=0.0, agents=2,
            tasks=self.num_tasks, kinds="+".join(self.kinds))
        stream = derive_seed(seed, "accuracy", condition, index)
        out = {}
        with rec.span(ROUND):
            demos = collect(rec, gate, self.kinds, self.sizes.learn_demos,
                            stream, self.num_tasks)
            train_set, test_set = split_demos(demos, SPLIT,
                                              rng_seed=stream % 2**32)
            # C1 scores the cross-validated policy. The replay uses one fit
            # with the solve workloads' leaf size, so that its cost does not
            # follow the leaf size each round's cross-validation picks
            # (1 gives about twice the leaves of 5, and replays about 20 %
            # slower).
            with gate.operation("training and evaluation"):
                policy, replayed = train(rec, train_set, [None, MIN_LEAF])
                out.update(score(rec, gate, policy, test_set))
            for demo in test_set:
                with gate.operation("policy replay"):
                    with rec.span(SEEDED_SOLVE):
                        replay, ok = seed_schedule(rec, gate, demo.problem,
                                                   replayed)
                    if ok:
                        note_seed_ratio(rec, replay, demo.schedule.objective)
        return out


class Solve:
    """Cold and policy-seeded branch and bound on fresh instances."""

    kind = "temporal"

    def __init__(self, name: str, sizes: Sizes, num_tasks: int,
                 train_tasks: int, node_limit: int | None):
        self.name = name
        self.sizes = sizes
        self.num_tasks = num_tasks
        self.train_tasks = train_tasks
        self.node_limit = node_limit
        # run_covas_benchmark's condition, so seed 0 replays its streams
        self.condition = condition_label(
            tasks=num_tasks, agents=2, train_tasks=train_tasks,
            kind=self.kind, homogeneous=True)

    def setup(self, rec: Recorder, gate: Gate, seed: int) -> dict:
        train_stream = derive_seed(seed, "covas", self.condition, "train")
        eval_stream = derive_seed(seed, "covas", self.condition, "eval")
        demos = collect(rec, gate, [self.kind], self.sizes.train_demos,
                        train_stream, self.train_tasks)
        held_out = collect(rec, gate, [self.kind], self.sizes.eval_demos,
                           eval_stream, self.train_tasks)
        with gate.operation("training and evaluation"):
            policy, = train(rec, demos, [MIN_LEAF])
            accuracy = score(rec, gate, policy, held_out)
        return {"policy": policy, **accuracy}

    def round(self, rec: Recorder, gate: Gate, seed: int, index: int,
              state: dict) -> dict:
        stream = derive_seed(seed, "covas", self.condition, "inst", index)
        cfg = make_config(self.kind, num_agents=2, num_tasks=self.num_tasks,
                          rng_seed=stream, homogeneous=True)
        with rec.span(ROUND), gate.operation(f"instance {index}"):
            problem = rec.call(GEN, generate_instance, cfg)
            with rec.span(SEEDED_SOLVE):
                replay, ok = seed_schedule(rec, gate, problem, state["policy"])
                warm_start = replay if ok else None
                warm = rec.call(BNB + ".seeded", branch_and_bound, problem,
                                seed=warm_start,
                                gap_threshold=GAP_THRESHOLD,
                                node_limit=self.node_limit)
            cold = rec.call(BNB + ".cold", branch_and_bound, problem,
                            gap_threshold=GAP_THRESHOLD,
                            node_limit=self.node_limit)
            self._check(rec, gate, problem, warm_start, cold, warm, index)
        return {}

    def _check(self, rec, gate, problem, seed, cold, warm, index) -> None:
        what = f"instance {index}"
        for arm, res in zip(ARMS, (cold, warm)):
            if seed is not None:
                gate.check(res.status != "infeasible",
                           f"{what}: {arm} search calls an instance with a "
                           "feasible seed infeasible")
            if res.schedule is not None:
                check_schedule(rec, gate, problem, res.schedule,
                               f"{what}: {arm} schedule")
        gate.check(warm.nodes_explored <= cold.nodes_explored,
                   f"{what}: seeded explored {warm.nodes_explored} nodes, "
                   f"cold {cold.nodes_explored}")
        closed = [res.schedule is not None and res.gap <= GAP_THRESHOLD
                  for res in (cold, warm)]
        if all(closed):
            gate.check(abs(cold.objective - warm.objective)
                       <= GAP_THRESHOLD * max(cold.objective, warm.objective),
                       f"{what}: closed arms disagree, cold "
                       f"{cold.objective} seeded {warm.objective}")
        if seed is not None:
            gate.check(warm.objective is not None
                       and warm.objective <= seed.objective,
                       f"{what}: seeded result worse than its seed")
            found = [r.objective for r in (cold, warm) if r.objective is not None]
            note_seed_ratio(rec, seed, min(found))

        for arm, res, is_closed in zip(ARMS, (cold, warm), closed):
            key = f"{BNB}.{arm}"
            # the seed itself opens a seeded run's incumbent trace
            searched = [(n, obj) for n, obj in res.incumbent_trace
                        if not (res.seeded and n == 0)]
            rec.add(key + ".nodes", res.nodes_explored)
            rec.add(key + ".closed", is_closed)
            rec.add(key + ".incumbents", len(searched))
            if res.schedule is not None:
                rec.add(key + ".gap_sum", res.gap)
                rec.add(key + ".gap_n", 1)
            if seed is not None:
                beat = next((n for n, obj in searched
                             if obj < seed.objective), None)
                if beat is not None:
                    rec.add(key + ".beat_sum", beat)
                    rec.add(key + ".beat_n", 1)


def make(name: str, sizes: Sizes = FULL):
    if name == "learn-20":
        return Learn(sizes)
    if name == "solve-7":
        return Solve(name, sizes, sizes.solve_tasks, sizes.solve_tasks, None)
    if name == "transfer-20":
        return Solve(name, sizes, sizes.transfer_tasks,
                     sizes.transfer_train_tasks, sizes.node_limit)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("learn-20", "solve-7", "transfer-20")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# units of the end-to-end figures that BENCHMARK.json does not gate: they
# are 0 on some workload or do not repeat across seeds, and are reported only
REPORT_UNITS = {
    "wall_mean_s": "s", "seeded_solve_mean_s": "s",
    "cold_solve_s": "s", "nodes_seeded": "count", "nodes_cold": "count",
    "closed_seeded": "frac", "closed_cold": "frac", "gap_seeded_mean": "frac",
    "failed_frac": "frac", "train_s": "s", "demos_per_s": "1/s",
}


def end_to_end(rec: Recorder, setups: list[Recorder], setup_s: list[float],
               setup_state: dict, walls: list[float], rounds: list[dict],
               rss_mb: float, failed_frac: float) -> dict:
    """Metric name -> value for every end-to-end figure the run computes.

    Times are at the reference pace (see harness.py); `setup_s` and `walls`
    are already scaled, each by the pace measured during it. wall_s is the
    median round; seeded_solve_s is the median time from a problem to a
    checked warm start plus the seeded search, per policy replay. Medians,
    so that a round or replay that a pause of the host lands in moves them
    less; the means are reported too. learn-20 collects and trains every
    round; the solve workloads do both only during set-up, so their train_s
    and demos_per_s come from the median set-up.
    """
    n = len(walls)
    source, per = ([rec], n) if rec.calls[DEMO] else (setups, 1)
    accuracy = rounds if rounds and "sensitivity" in rounds[0] else [setup_state]
    search = search_summary(rec, n)
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "wall_mean_s": statistics.fmean(walls),
        "seeded_solve_s": statistics.median(rec.scaled[SEEDED_SOLVE]),
        "seeded_solve_mean_s": statistics.fmean(rec.scaled[SEEDED_SOLVE]),
        "cold_solve_s": search[BNB + ".cold.busy_s"],
        "nodes_seeded": search[BNB + ".seeded.nodes"],
        "nodes_cold": search[BNB + ".cold.nodes"],
        "closed_seeded": search[BNB + ".seeded.closed"],
        "closed_cold": search[BNB + ".cold.closed"],
        "gap_seeded_mean": search[BNB + ".seeded.gap_mean"],
        "failed_frac": failed_frac,
        "sensitivity": statistics.fmean(a["sensitivity"] for a in accuracy),
        "specificity": statistics.fmean(a["specificity"] for a in accuracy),
        "train_s": statistics.median(r.seconds(TRAIN) for r in source) / per,
        "demos_per_s": statistics.median(
            _ratio(r.calls[DEMO], r.seconds(GEN) + r.seconds(DEMO))
            for r in source),
        "peak_rss_mb": rss_mb,
    }


def search_summary(rec: Recorder, n: int) -> dict:
    """Branch-and-bound figures per instance; zeros where no search ran."""
    out = {}
    for arm in ARMS:
        key = f"{BNB}.{arm}"
        c = rec.counts
        out[key + ".busy_s"] = _ratio(rec.seconds(key), n)
        out[key + ".nodes"] = _ratio(c[key + ".nodes"], n)
        out[key + ".us_per_node"] = 1e6 * _ratio(rec.seconds(key),
                                                 c[key + ".nodes"])
        out[key + ".closed"] = _ratio(c[key + ".closed"], rec.calls[key])
        out[key + ".gap_mean"] = _ratio(c[key + ".gap_sum"], c[key + ".gap_n"])
        out[key + ".incumbents"] = _ratio(c[key + ".incumbents"], n)
        out[key + ".nodes_to_beat_seed"] = _ratio(c[key + ".beat_sum"],
                                                  c[key + ".beat_n"])
    out[BNB + ".node_reduction"] = _ratio(rec.counts[BNB + ".cold.nodes"],
                                          rec.counts[BNB + ".seeded.nodes"])
    return out


def per_layer(rec: Recorder, setup: Recorder, n: int) -> dict:
    """Metric name -> value for the per-layer metrics (traced run).

    Values are per round, and times are at the run's reference pace. A
    layer that a workload calls only during set-up (training on the solve
    workloads) reports its set-up totals instead.
    """
    def src(layer):
        return rec if rec.calls[layer] else setup

    def per(layer, value):
        return value / n if src(layer) is rec else value

    def busy(layer):
        return per(layer, src(layer).seconds(layer))

    def count(layer, stat):
        return per(layer, src(layer).counts[f"{layer}.{stat}"])

    def calls(layer):
        return per(layer, src(layer).calls[layer])

    c = rec.counts
    out = search_summary(rec, n)
    out.update({
        CONSTRUCT + ".calls": calls(CONSTRUCT),
        CONSTRUCT + ".busy_s": busy(CONSTRUCT),
        CONSTRUCT + ".feasible": 1 - _ratio(
            src(CONSTRUCT).counts[CONSTRUCT + ".rejected"],
            src(CONSTRUCT).calls[CONSTRUCT]),
        CONSTRUCT + ".seed_ratio_mean": _ratio(c[CONSTRUCT + ".ratio_sum"],
                                               c[CONSTRUCT + ".ratio_n"]),
        GEN + ".calls": calls(GEN),
        GEN + ".busy_s": busy(GEN),
        DEMO + ".calls": calls(DEMO),
        DEMO + ".busy_s": busy(DEMO),
        DEMO + ".observations": count(DEMO, "observations"),
        DEMO + ".rejected": count(DEMO, "rejected"),
        DEMO + ".obs_per_s": _ratio(src(DEMO).counts[DEMO + ".observations"],
                                    src(DEMO).seconds(DEMO)),
        PAIR + ".busy_s": busy(PAIR),
        PAIR + ".rows": count(PAIR, "rows"),
        ACT + ".busy_s": busy(ACT),
        ACT + ".rows": count(ACT, "rows"),
        FIT + ".busy_s": busy(FIT),
        FIT + ".rows": count(FIT, "rows"),
        FIT + ".leaves": count(FIT, "leaves"),
        CV + ".busy_s": busy(CV),
        CV + ".fits": count(CV, "fits"),
        CV + ".min_leaf_selected": _ratio(src(CV).counts[CV + ".min_leaf_selected"],
                                          src(CV).calls[CV]),
        EVAL + ".busy_s": busy(EVAL),
        EVAL + ".observations": count(EVAL, "observations"),
        EVAL + ".obs_per_s": _ratio(src(EVAL).counts[EVAL + ".observations"],
                                    src(EVAL).seconds(EVAL)),
        VALIDATE + ".calls": calls(VALIDATE),
        VALIDATE + ".busy_s": busy(VALIDATE),
    })
    own = {rec: rec.self_times(), setup: setup.self_times()}
    for layer in LAYERS:
        out[layer + ".self_s"] = per(layer, own[src(layer)].get(layer, 0.0)
                                     / src(layer).pace())
    return out
