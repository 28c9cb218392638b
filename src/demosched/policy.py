"""Trained scheduling policies and their evaluation.

A policy answers two questions from recorded or live features: which task in
a pool ranks first, and whether the top task should be scheduled now or the
agent should stay idle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SCHEMA_VERSION
from .datasets import (
    PAIRWISE_FEATURE_NAMES,
    POINTWISE_FEATURE_NAMES,
    Dataset,
    build_act_dataset,
    build_naive_dataset,
    build_pairwise_dataset,
    build_pointwise_dataset,
    pair_rows,
    point_vector,
    wide_vector,
)
from .demonstrator import Demonstration
from .features import ContextFeatures, TaskFeatures
from .tree import DecisionTree, RankBins

FEATURE_SCHEMA = "v1"

MIN_LEAF_GRID = (1, 5, 10, 25, 50, 100, 250, 500, 1000)


class _LearnedPolicy:
    """A trained priority model plus a schedule-vs-idle act tree. Each
    model supplies `scores(context, task_features, pool)`, one number per
    pool task, higher preferred."""

    def __init__(self, priority_tree: DecisionTree, act_tree: DecisionTree):
        self.priority_tree = priority_tree
        self.act_tree = act_tree

    def select_task(
        self,
        context: ContextFeatures,
        task_features: dict[str, TaskFeatures],
        pool: list[str],
    ) -> str:
        """The highest-scoring pool task; ties go to the lowest id."""
        if not pool:
            raise ValueError("empty candidate pool")
        scores = self.scores(context, task_features, list(pool))
        return min(pool, key=lambda tid: (-scores[tid], tid))

    def predict_act(self, context: ContextFeatures, tf: TaskFeatures) -> bool:
        """True = schedule. A probability of exactly 0.5 schedules."""
        return float(self.act_tree.predict_proba([point_vector(context, tf)])[0]) >= 0.5


class PolicyModel(_LearnedPolicy):
    """Pairwise-ranking priority tree plus a schedule-vs-idle act tree."""

    def pair_matrix(self, context, task_features, pool: list[str]) -> np.ndarray:
        """Entry [i, j] is the tree's probability that pool[i] ranks above
        pool[j]."""
        F = np.array([task_features[tid] for tid in pool], dtype=float)
        rows = pair_rows(context, F[:, None], F[None, :])
        probs = self.priority_tree.predict_proba(rows.reshape(-1, rows.shape[-1]))
        return probs.reshape(len(pool), len(pool))

    def scores(self, context, task_features, pool: list[str]) -> dict[str, float]:
        """Sum of pairwise win probabilities of each pool task against every
        pool task (the self term is a constant offset shared by all)."""
        sums = self.pair_matrix(context, task_features, pool).sum(axis=1)
        return dict(zip(pool, sums.tolist()))

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "feature_schema": FEATURE_SCHEMA,
            "kind": "pairwise",
            "priority_tree": self.priority_tree.to_dict(),
            "act_tree": self.act_tree.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolicyModel":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {data.get('schema_version')!r}")
        if data.get("kind") != "pairwise":
            raise ValueError(f"unsupported model kind {data.get('kind')!r}")
        if data.get("feature_schema") != FEATURE_SCHEMA:
            raise ValueError(f"unsupported feature schema {data.get('feature_schema')!r}")
        return cls(
            priority_tree=_load_tree(data["priority_tree"], len(PAIRWISE_FEATURE_NAMES)),
            act_tree=_load_tree(data["act_tree"], len(POINTWISE_FEATURE_NAMES)),
        )


def _load_tree(data: dict, width: int) -> DecisionTree:
    """Raises ValueError when the tree splits on a column its rows, `width`
    wide, do not have."""
    tree = DecisionTree.from_dict(data)
    if tree.feature.max() >= width:
        raise ValueError(f"malformed tree: splits on feature {tree.feature.max()} "
                         f"of rows {width} wide")
    return tree


class PointwisePolicy(_LearnedPolicy):
    """Baseline: score each task independently; highest probability wins."""

    def scores(self, context, task_features, pool: list[str]) -> dict[str, float]:
        rows = np.array([point_vector(context, task_features[tid]) for tid in pool])
        return dict(zip(pool, self.priority_tree.predict_proba(rows).tolist()))


class NaivePolicy(_LearnedPolicy):
    """Baseline: fixed-width concatenation with one-vs-rest trees per task
    index. Parametric in the task count by construction."""

    def __init__(self, class_trees: list[DecisionTree], task_ids: list[str],
                 act_tree: DecisionTree):
        self.class_trees = class_trees
        self.index = {tid: k for k, tid in enumerate(task_ids)}
        self.act_tree = act_tree

    def scores(self, context, task_features, pool: list[str]) -> dict[str, float]:
        row = np.array([wide_vector(context, task_features, self.index)])
        return {
            tid: float(self.class_trees[self.index[tid]].predict_proba(row)[0])
            for tid in pool
        }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _fit(data: Dataset, min_leaf: int) -> DecisionTree:
    return DecisionTree(min_leaf=min_leaf).fit(data.X, data.y)


def train_policy(demos: list[Demonstration], min_leaf: int | None = 1) -> PolicyModel:
    """min_leaf=None picks the leaf size of both trees by
    `cross_validate_min_leaf` on the pairwise set."""
    pairwise = build_pairwise_dataset(demos)
    if min_leaf is None:
        min_leaf = cross_validate_min_leaf(pairwise)
    return PolicyModel(
        priority_tree=_fit(pairwise, min_leaf),
        act_tree=_fit(build_act_dataset(demos), min_leaf),
    )


def train_pointwise(demos: list[Demonstration], min_leaf: int,
                    act_tree: DecisionTree) -> PointwisePolicy:
    return PointwisePolicy(_fit(build_pointwise_dataset(demos), min_leaf), act_tree)


def train_naive(demos: list[Demonstration], min_leaf: int,
                act_tree: DecisionTree) -> NaivePolicy:
    data = build_naive_dataset(demos)
    bins = RankBins(data.X)  # one ranking serves every one-vs-rest tree
    task_ids = sorted(t.id for t in demos[0].problem.tasks)
    trees = [DecisionTree(min_leaf=min_leaf).fit_bins(bins, (data.y == k).astype(int))
             for k in range(len(task_ids))]
    return NaivePolicy(class_trees=trees, task_ids=task_ids, act_tree=act_tree)


def cross_validate_min_leaf(
    dataset: Dataset, candidates: tuple[int, ...] = MIN_LEAF_GRID, folds: int = 5
) -> int:
    """Mean accuracy over contiguous folds; ties go to the larger (more
    regularized) leaf size."""
    n = len(dataset)
    if n < folds:
        raise ValueError(f"need at least {folds} examples, got {n}")
    bins = RankBins(dataset.X)  # one ranking serves every fold's fits
    accs: list[list[float]] = [[] for _ in candidates]
    for fold in np.array_split(np.arange(n), folds):
        rows = np.delete(np.arange(n), fold)
        # every leaf size's fit on this fold starts from one root count
        hist = bins.root_histogram(dataset.y, rows)
        for value, fold_accs in zip(candidates, accs):
            tree = DecisionTree(min_leaf=value).fit_bins(bins, dataset.y, rows, hist)
            fold_accs.append(float((tree.predict(dataset.X[fold]) == dataset.y[fold]).mean()))
    best_acc, best_value = -1.0, None
    for value, fold_accs in zip(candidates, accs):
        acc = round(float(np.mean(fold_accs)), 12)
        if acc > best_acc or (acc == best_acc and value > best_value):
            best_acc, best_value = acc, value
    return best_value


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metrics:
    sensitivity: float | None
    specificity: float | None
    num_scheduling_obs: int
    num_idle_obs: int


def evaluate(policy, demos: list[Demonstration]) -> Metrics:
    """Sensitivity: the policy picks the expert's task among the feasible
    candidates and elects to schedule it. Specificity: at expert-idle ticks
    the act model keeps the policy's top task idle."""
    sched_hits = sched_total = idle_hits = idle_total = 0
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is not None:
                pool = list(obs.candidates)
                sched_total += 1
                top = policy.select_task(obs.context, obs.task_features, pool)
                if top == obs.scheduled[0] and policy.predict_act(
                    obs.context, obs.task_features[top]
                ):
                    sched_hits += 1
            else:
                idle_total += 1
                pool = list(obs.candidates) or sorted(obs.task_features)
                if not pool:
                    idle_hits += 1  # nothing left to schedule
                    continue
                top = policy.select_task(obs.context, obs.task_features, pool)
                if not policy.predict_act(obs.context, obs.task_features[top]):
                    idle_hits += 1
    return Metrics(
        sensitivity=sched_hits / sched_total if sched_total else None,
        specificity=idle_hits / idle_total if idle_total else None,
        num_scheduling_obs=sched_total,
        num_idle_obs=idle_total,
    )


def split_demos(
    demos: list[Demonstration], train_fraction: float = 0.85, rng_seed: int = 0
) -> tuple[list[Demonstration], list[Demonstration]]:
    """Split by whole demonstrations to avoid leakage within a playthrough."""
    order = np.random.default_rng(rng_seed).permutation(len(demos))
    cut = max(1, int(round(train_fraction * len(demos))))
    cut = min(cut, len(demos) - 1) if len(demos) > 1 else cut
    train = [demos[i] for i in order[:cut]]
    test = [demos[i] for i in order[cut:]]
    return train, test
