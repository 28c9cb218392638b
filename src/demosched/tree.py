"""From-scratch binary CART classifier.

Gini impurity, midpoint thresholds, deterministic first-best split (lowest
feature index, then lowest threshold). Growth stops when a node is pure or
when no split keeps `min_leaf` samples on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class _Node:
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    prob: float | None = None  # positive-class probability at a leaf
    count: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTree:
    def __init__(self, min_leaf: int = 1):
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.min_leaf = min_leaf
        self.root: _Node | None = None

    # -- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("training data must be a non-empty 2D array")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        min_leaf = min(self.min_leaf, len(X))  # clamp to dataset size
        self.root = _grow(X, y, min_leaf)
        return self

    # -- prediction ----------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty(len(X), dtype=float)
        _route(self.root, X, np.arange(len(X)), out)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        # probability exactly 0.5 counts as positive
        return (self.predict_proba(X) >= 0.5).astype(int)

    def depth(self) -> int:
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if node.is_leaf:
                best = max(best, d)
            else:
                stack.append((node.left, d + 1))
                stack.append((node.right, d + 1))
        return best

    def num_leaves(self) -> int:
        count = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend((node.left, node.right))
        return count

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        # flat node list with child indices; deep trees overflow nested JSON
        nodes: list[dict] = []
        order: list[_Node] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            order.append(node)
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        index = {id(n): i for i, n in enumerate(order)}
        for node in order:
            rec: dict = {"prob": node.prob, "count": node.count}
            if not node.is_leaf:
                rec.update(
                    feature=node.feature,
                    threshold=node.threshold,
                    left=index[id(node.left)],
                    right=index[id(node.right)],
                )
            nodes.append(rec)
        return {"min_leaf": self.min_leaf, "nodes": nodes}

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        tree = cls(min_leaf=int(data["min_leaf"]))
        records = data["nodes"]
        built = [_Node(prob=float(r["prob"]), count=int(r["count"])) for r in records]
        for node, rec in zip(built, records):
            if "feature" in rec:
                node.feature = int(rec["feature"])
                node.threshold = float(rec["threshold"])
                node.left = built[rec["left"]]
                node.right = built[rec["right"]]
        tree.root = built[0]
        return tree


def _grow(X: np.ndarray, y: np.ndarray, min_leaf: int) -> _Node:
    # explicit stack: unregularized trees can exceed the recursion limit
    root = _Node()
    stack = [(root, X, y)]
    while stack:
        node, Xn, yn = stack.pop()
        n = len(yn)
        pos = int(yn.sum())
        node.prob = pos / n
        node.count = n
        if pos == 0 or pos == n or n < 2 * min_leaf:
            continue
        split = _best_split(Xn, yn, min_leaf)
        if split is None:
            continue
        feature, threshold = split
        mask = Xn[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = _Node()
        node.right = _Node()
        stack.append((node.left, Xn[mask], yn[mask]))
        stack.append((node.right, Xn[~mask], yn[~mask]))
    return root


def _best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Lowest weighted child impurity; ties keep the earliest (feature,
    threshold) encountered. Returns None when min_leaf leaves no valid cut."""
    # zero-gain splits are allowed (a pure-fit tree needs them, e.g. on
    # XOR-style data); recursion still terminates since children shrink
    n = len(y)
    best = (np.inf, None, None)
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        xs, ys = col[order], y[order]
        # split positions between distinct neighbouring values
        distinct = np.nonzero(np.diff(xs) > 0)[0] + 1
        if len(distinct) == 0:
            continue
        valid = distinct[(distinct >= min_leaf) & (n - distinct >= min_leaf)]
        if len(valid) == 0:
            continue
        cum_pos = np.cumsum(ys)
        left_n = valid.astype(float)
        left_pos = cum_pos[valid - 1].astype(float)
        right_n = n - left_n
        right_pos = cum_pos[-1] - left_pos
        lp = left_pos / left_n
        rp = right_pos / right_n
        weighted = (left_n * 2 * lp * (1 - lp) + right_n * 2 * rp * (1 - rp)) / n
        k = int(np.argmin(weighted))
        if weighted[k] < best[0]:
            lo, hi = xs[valid[k] - 1], xs[valid[k]]
            threshold = 0.5 * (lo + hi)
            if threshold >= hi:  # midpoint of adjacent floats can round up
                threshold = lo
            best = (weighted[k], j, threshold)
    if best[1] is None:
        return None
    return best[1], best[2]


def _route(root: _Node, X: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    stack = [(root, idx)]
    while stack:
        node, ids = stack.pop()
        if node.is_leaf:
            out[ids] = node.prob
            continue
        mask = X[ids, node.feature] <= node.threshold
        if mask.any():
            stack.append((node.left, ids[mask]))
        if not mask.all():
            stack.append((node.right, ids[~mask]))
