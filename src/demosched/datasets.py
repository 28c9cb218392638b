"""Training-set construction from recorded demonstrations.

Three constructions for the priority model (pairwise differences, pointwise
per-task rows, and a fixed-width concatenation) plus the schedule-vs-idle
set for the act classifier. Each set is built from one walk over the
observations; the pairwise and act sets can share theirs, as `train_policy`
does. Each row shape has one encoder (`pair_rows`, `point_vector`,
`wide_vector`), which the matching policy also scores with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demonstrator import Demonstration
from .features import CONTEXT_FEATURE_NAMES, TASK_FEATURE_NAMES


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.y)


PAIRWISE_FEATURE_NAMES = CONTEXT_FEATURE_NAMES + tuple(
    f"delta_{name}" for name in TASK_FEATURE_NAMES
)
POINTWISE_FEATURE_NAMES = CONTEXT_FEATURE_NAMES + TASK_FEATURE_NAMES
_CONTEXT = len(CONTEXT_FEATURE_NAMES)  # a point row's context columns


def pair_rows(context, a, b) -> np.ndarray:
    """Rows `context ‖ a − b`; the context broadcasts over the feature rows,
    so one call encodes a pair, a list of pairs or a pool's pair matrix."""
    delta = np.subtract(a, b, dtype=float)
    context = np.broadcast_to(context, delta.shape[:-1] + np.shape(context)[-1:])
    return np.concatenate([context, delta], axis=-1)


def point_vector(context, row: np.ndarray) -> list[float]:
    return [*context, *row.tolist()]


def wide_vector(context, task_ids, rows: np.ndarray, index: dict[str, int]) -> np.ndarray:
    """The context, then one task block per `index` slot; tasks missing
    from `task_ids` (finished ones) leave their block zero."""
    blocks = np.zeros((len(index), len(TASK_FEATURE_NAMES)))
    blocks[[index[tid] for tid in task_ids]] = rows
    return np.concatenate((context, blocks.ravel()))


def _rows(observations):
    """Each observation's `point_vector` rows, one per unfinished task, in
    observation order and by task id within each observation. Also returns,
    per row, the index of the row its observation picked (-1 when the
    observation idled) and whether the row is that pick."""
    observations = list(observations)
    sizes = np.array([len(o.task_ids) for o in observations], dtype=int)
    ranks = np.array([-1 if o.scheduled is None else o.task_ids.index(o.scheduled[0])
                      for o in observations], dtype=int)
    n = int(sizes.sum())
    X = np.empty((n, len(POINTWISE_FEATURE_NAMES)))
    contexts = np.array([o.context for o in observations], dtype=float)
    X[:, :_CONTEXT] = np.repeat(contexts.reshape(-1, _CONTEXT), sizes, axis=0)
    if observations:  # the task blocks go straight into X's task columns
        np.concatenate([o.rows for o in observations], out=X[:, _CONTEXT:])
    pick_of = np.repeat(np.where(ranks < 0, -1, np.cumsum(sizes) - sizes + ranks), sizes)
    return X, pick_of, pick_of == np.arange(n)


def build_pairwise_dataset(demos: list[Demonstration]) -> Dataset:
    """One positive and one mirrored negative per (scheduled, other) pair.

    Idle observations contribute nothing; the result is exactly
    label-balanced by construction.
    """
    return _pairwise(*_walk(demos))


def build_act_dataset(demos: list[Demonstration]) -> Dataset:
    """Positives from scheduling observations, one negative per unfinished
    task at each idle observation."""
    return _act(*_walk(demos))


def _walk(demos: list[Demonstration]):
    """`_rows` over every observation of `demos`: the walk that the pairwise
    and act sets are both built from."""
    return _rows(o for d in demos for o in d.observations)


def _pairwise(X: np.ndarray, pick_of: np.ndarray, picked: np.ndarray) -> Dataset:
    """`build_pairwise_dataset`'s set from the rows of its walk."""
    other = np.flatnonzero((pick_of >= 0) & ~picked)
    firsts = np.stack([X[pick_of[other], _CONTEXT:], X[other, _CONTEXT:]], axis=1)
    rows = pair_rows(X[other, None, :_CONTEXT], firsts, firsts[:, ::-1])
    return Dataset(
        X=rows.reshape(2 * len(other), len(PAIRWISE_FEATURE_NAMES)),
        y=np.tile(np.array([1, 0], dtype=int), len(other)),
    )


def _act(X: np.ndarray, pick_of: np.ndarray, picked: np.ndarray) -> Dataset:
    """`build_act_dataset`'s set from the rows of its walk."""
    keep = picked | (pick_of < 0)
    return Dataset(X=X[keep], y=picked[keep].astype(int))


def build_pointwise_dataset(demos: list[Demonstration]) -> Dataset:
    """Per-task rows from scheduling observations, labelled 1 only for the
    task the expert picked."""
    X, _, picked = _rows(o for d in demos for o in d.observations if o.scheduled is not None)
    return Dataset(X=X, y=picked.astype(int))


class HeterogeneousTaskCountError(ValueError):
    """The fixed-width construction needs the same task count everywhere."""


def build_naive_dataset(demos: list[Demonstration]) -> Dataset:
    """Concatenate all task blocks into one wide row per scheduling
    observation; the label is the scheduled task's index. Finished tasks'
    blocks are zeroed."""
    task_counts = {len(d.problem.tasks) for d in demos}
    if len(task_counts) != 1:
        raise HeterogeneousTaskCountError(
            f"task counts differ across demonstrations: {sorted(task_counts)}"
        )
    n = task_counts.pop()
    rows, labels = [], []
    for demo in demos:
        task_ids = sorted(t.id for t in demo.problem.tasks)
        index = {tid: k for k, tid in enumerate(task_ids)}
        for obs in demo.observations:
            if obs.scheduled is None:
                continue
            rows.append(wide_vector(obs.context, obs.task_ids, obs.rows, index))
            labels.append(index[obs.scheduled[0]])
    width = len(CONTEXT_FEATURE_NAMES) + n * len(TASK_FEATURE_NAMES)
    return Dataset(
        X=np.array(rows, dtype=float).reshape(len(rows), width),
        y=np.array(labels, dtype=int),
    )
