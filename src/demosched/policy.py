"""Trained scheduling policies and their evaluation.

A policy answers two questions from recorded or live features: which task in
a pool ranks first, and whether the top task should be scheduled now or the
agent should stay idle. Its whole interface is two batch methods:
`select_tasks` ranks many pools and `predict_acts` decides many tops, each in
as few tree passes as the rows allow. `evaluate` asks them once for a whole
held-out set and the scheduler's replay asks them with one query at a time.
The pairwise model scores the pools of one size as one (m, k, k) block;
every pass holds at most `_CHUNK_ROWS` rows, or one pool's pair rows where a
pool has more, so a large batch does not raise peak memory.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .core import SCHEMA_VERSION
from .datasets import (
    PAIRWISE_FEATURE_NAMES,
    POINTWISE_FEATURE_NAMES,
    Dataset,
    _act,
    _pairwise,
    _walk,
    build_naive_dataset,
    build_pointwise_dataset,
    pair_rows,
    point_vector,
    wide_vector,
)
from .demonstrator import Demonstration
from .tree import DecisionTree, RankBins, fit_leaf_sizes

FEATURE_SCHEMA = "v1"

MIN_LEAF_GRID = (1, 5, 10, 25, 50, 100, 250, 500, 1000)

_CHUNK_ROWS = 1 << 15  # most rows a tree pass scores, unless one pool has more pairs

# one ranking question: context, ascending task ids, their rows and a pool of
# row positions; rows ascend by id, so the lowest position is the lowest id
Query = tuple[tuple, tuple[str, ...], np.ndarray, list[int] | range]


def _predict(tree: DecisionTree, rows: list) -> list[float]:
    """The tree's probability for each row, in passes of at most
    `_CHUNK_ROWS` rows."""
    return [p for start in range(0, len(rows), _CHUNK_ROWS)
            for p in tree.predict_proba(rows[start:start + _CHUNK_ROWS]).tolist()]


class _LearnedPolicy:
    """A trained priority model plus a schedule-vs-idle act tree, asked
    only in batches: `select_tasks` and `predict_acts`. Each model supplies
    `pool_scores(queries)`: for each query, one score per pool task in pool
    order, higher preferred."""

    def __init__(self, priority_tree: DecisionTree, act_tree: DecisionTree):
        self.priority_tree = priority_tree
        self.act_tree = act_tree

    def select_tasks(self, queries: list[Query]) -> list[int]:
        """Each query's highest-scoring pool position; ties go to the lowest
        position. A pool of one is its own top and is not scored."""
        if any(not pool for *_, pool in queries):
            raise ValueError("empty candidate pool")
        tops = [pool[0] for *_, pool in queries]
        ranked = [n for n, (*_, pool) in enumerate(queries) if len(pool) > 1]
        for n, scores in zip(ranked, self.pool_scores([queries[n] for n in ranked])):
            tops[n] = min(zip(queries[n][3], scores), key=lambda p: (-p[1], p[0]))[0]
        return tops

    def predict_acts(self, asks: list[tuple[tuple, np.ndarray]]) -> list[bool]:
        """For each (context, task-feature row) pair, True = schedule. A
        probability of exactly 0.5 schedules."""
        return [p >= 0.5 for p in _predict(self.act_tree,
                                           [point_vector(c, row) for c, row in asks])]


class PolicyModel(_LearnedPolicy):
    """Pairwise-ranking priority tree plus a schedule-vs-idle act tree."""

    def pool_scores(self, queries: list[Query]) -> list[list[float]]:
        """Each pool task's sum of pairwise win probabilities against every
        pool task (the self term is a constant offset shared by all). The
        pools of one size k are scored together, as many to a tree pass as
        keep it within `_CHUNK_ROWS` pair rows, and at least one."""
        out: list = [None] * len(queries)
        by_size = defaultdict(list)
        for n, (*_, pool) in enumerate(queries):
            by_size[len(pool)].append(n)
        for k, members in by_size.items():
            step = max(1, _CHUNK_ROWS // (k * k))
            for start in range(0, len(members), step):
                chunk = members[start:start + step]
                # as a (len(chunk), k, k) block, entry [n, i, j] is the
                # probability that task i of pool n ranks above its task j
                F = np.stack([queries[n][2][queries[n][3]] for n in chunk])
                C = np.array([queries[n][0] for n in chunk], dtype=float)[:, None, None, :]
                rows = pair_rows(C, F[:, :, None], F[:, None, :])
                probs = self.priority_tree.predict_proba(rows.reshape(-1, rows.shape[-1]))
                # each pool's row sums run over its own contiguous block, in
                # the order a lone pool's matrix adds them
                for n, row in zip(chunk, probs.reshape(-1, k, k).sum(axis=-1).tolist()):
                    out[n] = row
        return out

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

    def pool_scores(self, queries: list[Query]) -> list[list[float]]:
        probs = _predict(self.priority_tree, [point_vector(context, row)
                                              for context, _, rows, pool in queries
                                              for row in rows[pool]])
        out, start = [], 0
        for *_, pool in queries:
            out.append(probs[start:start + len(pool)])
            start += len(pool)
        return out


class NaivePolicy(_LearnedPolicy):
    """Baseline: fixed-width concatenation with one-vs-rest trees per task
    index. Parametric in the task count by construction."""

    def __init__(self, class_trees: list[DecisionTree], task_ids: list[str],
                 act_tree: DecisionTree):
        self.class_trees = class_trees
        self.index = {tid: k for k, tid in enumerate(task_ids)}
        self.act_tree = act_tree

    def pool_scores(self, queries: list[Query]) -> list[list[float]]:
        """Each pool task's probability from its slot's tree on the query's
        wide row; each tree any pool asks for scores every query's row."""
        wide = [wide_vector(context, task_ids, rows, self.index)
                for context, task_ids, rows, _ in queries]
        slots = [[self.index[task_ids[p]] for p in pool] for _, task_ids, _, pool in queries]
        probs = {k: _predict(self.class_trees[k], wide) for k in set().union(*slots)}
        return [[probs[k][n] for k in ks] for n, ks in enumerate(slots)]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _fit(data: Dataset, min_leaf: int) -> DecisionTree:
    return DecisionTree(min_leaf=min_leaf).fit(data.X, data.y)


def train_policy(demos: list[Demonstration], min_leaf: int | None = 1) -> PolicyModel:
    """min_leaf=None picks the leaf size of both trees by
    `cross_validate_min_leaf` on the pairwise set."""
    walk = _walk(demos)  # one walk serves both sets
    pairwise = _pairwise(*walk)
    if min_leaf is None:
        min_leaf = cross_validate_min_leaf(pairwise)
    return PolicyModel(
        priority_tree=_fit(pairwise, min_leaf),
        act_tree=_fit(_act(*walk), min_leaf),
    )


def train_pointwise(demos: list[Demonstration], min_leaf: int,
                    act_tree: DecisionTree) -> PointwisePolicy:
    return PointwisePolicy(_fit(build_pointwise_dataset(demos), min_leaf), act_tree)


def train_naive(demos: list[Demonstration], min_leaf: int,
                act_tree: DecisionTree) -> NaivePolicy:
    data = build_naive_dataset(demos)
    bins = RankBins(data.X)  # one ranking serves every one-vs-rest tree
    task_ids = sorted(t.id for t in demos[0].problem.tasks)
    trees = [fit_leaf_sizes(bins, (data.y == k).astype(int), None, (min_leaf,))[0]
             for k in range(len(task_ids))]
    return NaivePolicy(class_trees=trees, task_ids=task_ids, act_tree=act_tree)


def cross_validate_min_leaf(
    dataset: Dataset, candidates: tuple[int, ...] = MIN_LEAF_GRID, folds: int = 5
) -> int:
    """Mean accuracy over contiguous folds; ties go to the larger (more
    regularized) leaf size, which is returned as given. Each fold grows
    the trees of every candidate in one shared pass. Raises ValueError
    unless there is at least one candidate, each an integer >= 1, and
    `folds` is an integer >= 2 no larger than the dataset."""
    if not candidates:
        raise ValueError("candidates must hold at least one leaf size")
    if type(folds) is not int or folds < 2:
        raise ValueError(f"folds must be an integer >= 2, got {folds!r}")
    n = len(dataset)
    if n < folds:
        raise ValueError(f"need at least {folds} examples, got {n}")
    bins = RankBins(dataset.X)  # one ranking serves every fold's fits
    accs: list[list[float]] = [[] for _ in candidates]
    for fold in np.array_split(np.arange(n), folds):
        rows = np.delete(np.arange(n), fold)
        trees = fit_leaf_sizes(bins, dataset.y, rows, candidates)
        for tree, fold_accs in zip(trees, accs):
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
    the act model keeps the policy's top task idle.

    Every scored observation's pool is ranked in one `select_tasks` call and
    every top decided in one `predict_acts` call, so a learned policy scores
    the held-out set in a few chunked tree passes, not one per observation.
    """
    queries, picks = [], []  # per scored observation; the pick is None at idle
    idle_hits = idle_total = 0
    for demo in demos:
        for obs in demo.observations:
            candidates = set(obs.candidates)  # none: an idle observation ranks every task
            pool = ([p for p, tid in enumerate(obs.task_ids) if tid in candidates]
                    if candidates else range(len(obs.task_ids)))
            if obs.scheduled is None:
                idle_total += 1
                if not pool:
                    idle_hits += 1  # nothing left to schedule
                    continue
            queries.append((obs.context, obs.task_ids, obs.rows, pool))
            picks.append(None if obs.scheduled is None else obs.scheduled[0])
    tops = policy.select_tasks(queries)
    acts = policy.predict_acts([(context, rows[top])
                                for (context, _, rows, _), top in zip(queries, tops)])
    sched_hits = sched_total = 0
    for pick, (_, task_ids, *_), top, act in zip(picks, queries, tops, acts):
        if pick is None:
            idle_hits += not act
        else:
            sched_total += 1
            sched_hits += task_ids[top] == pick and act
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
