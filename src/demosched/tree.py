"""From-scratch binary CART classifier.

Gini impurity, midpoint thresholds, deterministic first-best split (lowest
feature index, then lowest threshold). Growth stops when a node is pure or
when no split keeps `min_leaf` samples on both sides.

A fitted tree is six parallel node arrays, which are also its JSON form:
`feature`, `threshold`, `left`, `right` (all -1 at a leaf), `prob` (the
positive-class share) and `count`. Node 0 is the root, and nodes are stored
in right-first pre-order, so every parent comes before its children.
"""

from __future__ import annotations

import numpy as np

_ARRAYS = ("feature", "threshold", "left", "right", "prob", "count")
_FEW_ROWS = 16  # predict_proba walks batches up to this size row by row


class DecisionTree:
    def __init__(self, min_leaf: int = 1):
        if min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        self.min_leaf = min_leaf
        self.feature: np.ndarray | None = None

    def _set_nodes(self, feature, threshold, left, right, prob, count) -> None:
        self.feature, self.left, self.right, self.count = (
            np.asarray(a, dtype=np.intp) for a in (feature, left, right, count))
        self.threshold, self.prob = (np.asarray(a, dtype=float) for a in (threshold, prob))

    def _check_fitted(self) -> None:
        if self.feature is None:
            raise RuntimeError("tree is not fitted")

    # -- training -----------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("training data must be a non-empty 2D array")
        if len(X) != len(y):
            raise ValueError("X and y length mismatch")
        min_leaf = min(self.min_leaf, len(X))  # clamp to dataset size
        self._set_nodes(*zip(*_grow(X, y, min_leaf)))
        return self

    # -- prediction ----------------------------------------------------------

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if len(X) <= _FEW_ROWS:
            # on a few rows, numpy's per-call cost outweighs a Python walk
            return self.prob[[self._leaf(row) for row in X.tolist()]]
        node = np.zeros(len(X), dtype=np.intp)
        live = np.arange(len(X))
        # one level per pass; rows drop out when they reach a leaf
        while live.size:
            at = node[live]
            inner = self.feature[at] >= 0
            live, at = live[inner], at[inner]
            go_left = X[live, self.feature[at]] <= self.threshold[at]
            node[live] = np.where(go_left, self.left[at], self.right[at])
        return self.prob[node]

    def _leaf(self, row: list[float]) -> int:
        i = 0
        while self.feature[i] >= 0:
            i = self.left[i] if row[self.feature[i]] <= self.threshold[i] else self.right[i]
        return i

    def predict(self, X: np.ndarray) -> np.ndarray:
        # probability exactly 0.5 counts as positive
        return (self.predict_proba(X) >= 0.5).astype(int)

    def depth(self) -> int:
        self._check_fitted()
        # parents are stored before their children
        depths = [0] * len(self.feature)
        for i in np.flatnonzero(self.feature >= 0).tolist():
            depths[self.left[i]] = depths[self.right[i]] = depths[i] + 1
        return max(depths)

    def num_leaves(self) -> int:
        self._check_fitted()
        return int((self.feature < 0).sum())

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        # flat node list with child indices; deep trees overflow nested JSON
        self._check_fitted()
        nodes = []
        for f, t, l, r, p, c in zip(*(getattr(self, a).tolist() for a in _ARRAYS)):
            rec: dict = {"prob": p, "count": c}
            if f >= 0:
                rec.update(feature=f, threshold=t, left=l, right=r)
            nodes.append(rec)
        return {"min_leaf": self.min_leaf, "nodes": nodes}

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTree":
        """Raises ValueError unless the nodes form one tree stored parent
        first: every internal node has `feature` >= 0 and children after
        it, and every node but the root is the child of exactly one node."""
        tree = cls(min_leaf=int(data["min_leaf"]))
        records = data["nodes"]
        tree._set_nodes(*([r.get(a, -1) for r in records] for a in _ARRAYS[:4]),
                        [r["prob"] for r in records], [r["count"] for r in records])
        inner = np.array(["feature" in r for r in records], dtype=bool)
        parents = np.tile(np.flatnonzero(inner), 2)
        children = np.concatenate([tree.left[inner], tree.right[inner]])
        if not (records and (tree.feature[inner] >= 0).all() and (parents < children).all()
                and np.array_equal(np.sort(children), np.arange(1, len(records)))):
            raise ValueError("malformed tree: nodes must form one tree, "
                             "each internal node before its children")
        return tree


def _grow(X: np.ndarray, y: np.ndarray, min_leaf: int) -> list[list]:
    """Node records [feature, threshold, left, right, prob, count], appended
    as nodes are popped; each child's index is written into its parent's
    `left` or `right` slot."""
    # explicit stack: unregularized trees can exceed the recursion limit
    nodes: list[list] = []
    stack = [(X, y, None, None)]
    while stack:
        Xn, yn, parent, side = stack.pop()
        if parent is not None:
            parent[side] = len(nodes)
        n = len(yn)
        pos = int(yn.sum())
        node = [-1, -1, -1, -1, pos / n, n]
        nodes.append(node)
        if pos == 0 or pos == n or n < 2 * min_leaf:
            continue
        split = _best_split(Xn, yn, min_leaf)
        if split is None:
            continue
        node[0], node[1] = split
        mask = Xn[:, node[0]] <= node[1]
        stack.append((Xn[mask], yn[mask], node, 2))
        stack.append((Xn[~mask], yn[~mask], node, 3))
    return nodes


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
