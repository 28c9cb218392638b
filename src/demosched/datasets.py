"""Training-set construction from recorded demonstrations.

Three constructions for the priority model (pairwise differences, pointwise
per-task rows, and a fixed-width concatenation) plus the schedule-vs-idle
set for the act classifier. Each row shape has one encoder (`pair_rows`,
`point_vector`, `wide_vector`), which the matching policy also scores with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .demonstrator import Demonstration
from .features import CONTEXT_FEATURE_NAMES, TASK_FEATURE_NAMES


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...] = field(default=("0", "1"))

    def __len__(self) -> int:
        return len(self.y)


PAIRWISE_FEATURE_NAMES = CONTEXT_FEATURE_NAMES + tuple(
    f"delta_{name}" for name in TASK_FEATURE_NAMES
)
POINTWISE_FEATURE_NAMES = CONTEXT_FEATURE_NAMES + TASK_FEATURE_NAMES


def pair_rows(context, a, b) -> np.ndarray:
    """Rows `context ‖ a − b`; the context broadcasts over the feature rows,
    so one call encodes a pair, a list of pairs or a pool's pair matrix."""
    delta = np.subtract(a, b, dtype=float)
    context = np.broadcast_to(context, delta.shape[:-1] + np.shape(context)[-1:])
    return np.concatenate([context, delta], axis=-1)


def point_vector(context, features) -> list[float]:
    return [*context, *features]


def wide_vector(context, task_features, index: dict[str, int]) -> list[float]:
    """The context, then one task block per `index` slot; tasks missing
    from `task_features` (finished ones) leave their block zero."""
    block = len(TASK_FEATURE_NAMES)
    vec = [*context] + [0.0] * (len(index) * block)
    for tid, tf in task_features.items():
        start = len(context) + index[tid] * block
        vec[start : start + block] = tf
    return vec


def build_pairwise_dataset(demos: list[Demonstration]) -> Dataset:
    """One positive and one mirrored negative per (scheduled, other) pair.

    Idle observations contribute nothing; the result is exactly
    label-balanced by construction.
    """
    contexts, firsts, seconds = [], [], []
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is None:
                continue
            sched_id = obs.scheduled[0]
            gamma_i = obs.task_features[sched_id]
            for other_id in sorted(obs.task_features):
                if other_id == sched_id:
                    continue
                gamma_j = obs.task_features[other_id]
                contexts += (obs.context, obs.context)
                firsts += (gamma_i, gamma_j)
                seconds += (gamma_j, gamma_i)
    rows = pair_rows(contexts, firsts, seconds)
    return Dataset(
        X=rows.reshape(len(contexts), len(PAIRWISE_FEATURE_NAMES)),
        y=np.tile(np.array([1, 0], dtype=int), len(contexts) // 2),
        feature_names=PAIRWISE_FEATURE_NAMES,
    )


def build_act_dataset(demos: list[Demonstration]) -> Dataset:
    """Positives from scheduling observations, one negative per unfinished
    task at each idle observation."""
    rows, labels = [], []
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is not None:
                rows.append(point_vector(obs.context, obs.task_features[obs.scheduled[0]]))
                labels.append(1)
            else:
                for tid in sorted(obs.task_features):
                    rows.append(point_vector(obs.context, obs.task_features[tid]))
                    labels.append(0)
    return Dataset(
        X=np.array(rows, dtype=float).reshape(len(rows), len(POINTWISE_FEATURE_NAMES)),
        y=np.array(labels, dtype=int),
        feature_names=POINTWISE_FEATURE_NAMES,
    )


def build_pointwise_dataset(demos: list[Demonstration]) -> Dataset:
    """Per-task rows from scheduling observations, labelled 1 only for the
    task the expert picked."""
    rows, labels = [], []
    for demo in demos:
        for obs in demo.observations:
            if obs.scheduled is None:
                continue
            sched_id = obs.scheduled[0]
            for tid in sorted(obs.task_features):
                rows.append(point_vector(obs.context, obs.task_features[tid]))
                labels.append(1 if tid == sched_id else 0)
    return Dataset(
        X=np.array(rows, dtype=float).reshape(len(rows), len(POINTWISE_FEATURE_NAMES)),
        y=np.array(labels, dtype=int),
        feature_names=POINTWISE_FEATURE_NAMES,
    )


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
            rows.append(wide_vector(obs.context, obs.task_features, index))
            labels.append(index[obs.scheduled[0]])
    names = CONTEXT_FEATURE_NAMES + tuple(
        f"task{k}_{name}" for k in range(n) for name in TASK_FEATURE_NAMES
    )
    return Dataset(
        X=np.array(rows, dtype=float).reshape(len(rows), len(names)),
        y=np.array(labels, dtype=int),
        feature_names=names,
        class_names=tuple(str(k) for k in range(n)),
    )
