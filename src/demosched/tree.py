"""From-scratch binary CART classifier.

Gini impurity, midpoint thresholds, deterministic first-best split (lowest
feature index, then lowest threshold). Growth stops when a node is pure or
when no split keeps `min_leaf` samples on both sides.

Split search is the exact histogram form of CART's. `RankBins` ranks each
column once: every distinct value becomes its own bin, and all columns share
one bin space. A node's candidate cuts are its present bins, scored in
(feature, value) order from per-bin row and positive counts, so ties and
thresholds are what sorting the node's rows would give: the midpoint of the
two values around the cut, or the lower value when the midpoint rounds up to
the upper one. After a split, only the smaller child's histogram is counted
from its rows; the larger child's is the parent's minus it, exact on integer
counts (the subtraction of LightGBM, Ke et al. 2017). One ranking serves
every fit on the same matrix: cross-validation folds and one-vs-rest trees
fit row subsets or relabellings of it, and fits on the same rows can share
one root histogram.

A fitted tree is six parallel node arrays, which are also its JSON form:
`feature`, `threshold`, `left`, `right` (all -1 at a leaf), `prob` (the
positive-class share) and `count`. Node 0 is the root, and nodes are stored
in right-first pre-order, so every parent comes before its children.
"""

from __future__ import annotations

import numpy as np

_ARRAYS = ("feature", "threshold", "left", "right", "prob", "count")
_FEW_ROWS = 16  # predict_proba walks batches up to this size row by row
_COUNT_ROWS = 8192  # rows per bincount call when counting a histogram


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
        return self.fit_bins(RankBins(X), y)

    def fit_bins(self, bins: RankBins, y: np.ndarray, rows: np.ndarray | None = None,
                 hist: np.ndarray | None = None) -> "DecisionTree":
        """Fit on `rows` (default all) of a ranked matrix; `y` holds a 0/1
        label for every row of the matrix. `hist`, when given, is
        `bins.root_histogram(y, rows)`, counted once for several fits on
        the same rows; the fit reads a copy."""
        y = np.asarray(y, dtype=int)
        if len(bins.codes) != len(y):
            raise ValueError("X and y length mismatch")
        if ((y != 0) & (y != 1)).any():
            raise ValueError("labels must be 0 or 1")
        rows = np.arange(len(y)) if rows is None else np.asarray(rows, dtype=np.intp)
        if len(rows) == 0:
            raise ValueError("no rows to fit")
        min_leaf = min(self.min_leaf, len(rows))  # clamp to dataset size
        self._set_nodes(*zip(*_grow(bins, y, rows, min_leaf, hist)))
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


class RankBins:
    """A training matrix ranked once for every fit on its rows: each value
    becomes its rank among its column's distinct values, offset so that
    bin `b` holds value `values[b]` of column `column[b]`. Raises
    ValueError on an empty or non-2D matrix, and on NaN, which would get a
    bin of its own and so a cut that sorting the rows never offers."""

    def __init__(self, X: np.ndarray):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError("training data must be a non-empty 2D array")
        if np.isnan(X).any():
            raise ValueError("training data contains NaN")
        self.codes = np.empty(X.shape, dtype=np.int32)
        values, offset = [], 0
        for j, col in enumerate(X.T):
            distinct, rank = np.unique(col, return_inverse=True)
            self.codes[:, j] = rank + offset
            offset += len(distinct)
            values.append(distinct)
        self.values = np.concatenate(values)
        self.column = np.repeat(np.arange(len(values)), [len(v) for v in values])

    def histogram(self, rows: np.ndarray, pos: int) -> np.ndarray:
        """Row counts (first row) and positive-row counts (second) of every
        bin over `rows`, whose first `pos` rows are the positive ones."""
        hist = np.empty((2, len(self.values)), dtype=np.int32)
        for counts, counted in zip(hist, (rows, rows[:pos])):
            # bincount copies its codes to int64; slices bound that copy
            counts[:] = self._bincount(counted[:_COUNT_ROWS])
            for start in range(_COUNT_ROWS, len(counted), _COUNT_ROWS):
                counts += self._bincount(counted[start:start + _COUNT_ROWS])
        return hist

    def root_histogram(self, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The histogram a fit on `rows` under 0/1 labels `y` counts at its
        root."""
        return self.histogram(*_positives_first(y, rows))

    def _bincount(self, rows: np.ndarray) -> np.ndarray:
        return np.bincount(self.codes[rows].ravel(), minlength=len(self.values))

    def best_cut(self, hist: np.ndarray, n: int, pos: int, min_leaf: int):
        """(feature, last left bin, threshold) of the lowest weighted child
        Gini over the cuts after each present bin that leave `min_leaf`
        rows on both sides, or None when there is no such cut."""
        # zero-gain splits are allowed (a pure-fit tree needs them, e.g. on
        # XOR-style data); growth still ends since children shrink
        present = np.flatnonzero(hist[0] > 0)
        column = self.column[present]
        # running sums restart at each column, whose bins hold n rows
        left_n = np.cumsum(hist[0, present]) - n * column
        left_pos = np.cumsum(hist[1, present]) - pos * column
        cuts = np.flatnonzero((left_n >= min_leaf) & (left_n <= n - min_leaf))
        if len(cuts) == 0:
            return None
        left_n = left_n[cuts].astype(float)
        left_pos = left_pos[cuts].astype(float)
        right_n = n - left_n
        right_pos = pos - left_pos
        lp = left_pos / left_n
        rp = right_pos / right_n
        weighted = (left_n * 2 * lp * (1 - lp) + right_n * 2 * rp * (1 - rp)) / n
        # cuts run in (feature, value) order: ties keep the first
        k = int(cuts[np.argmin(weighted)])
        # a valid cut leaves rows on the right, so the next present bin is
        # in the same column
        b = int(present[k])
        lo, hi = self.values[[b, present[k + 1]]].tolist()
        threshold = 0.5 * (lo + hi)
        if not lo <= threshold < hi:  # the midpoint of adjacent floats can
            threshold = lo            # round up; inf + -inf or overflow too
        return int(column[k]), b, threshold


def _positives_first(y: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """`rows` with its positive rows first, and how many there are."""
    positive = y[rows] == 1
    return np.concatenate([rows[positive], rows[~positive]]), int(np.count_nonzero(positive))


def _grow(bins: RankBins, y: np.ndarray, rows: np.ndarray, min_leaf: int,
          hist: np.ndarray | None) -> list[list]:
    """Node records [feature, threshold, left, right, prob, count], appended
    as nodes are popped; each child's index is written into its parent's
    `left` or `right` slot.

    Only a node that can split gets a histogram. After a split, the smaller
    child's histogram is counted from its rows and the larger's is the
    parent's minus it; a child that cannot split keeps none. Every node
    keeps its positive rows first, so that counting them needs no copy.
    A root histogram passed in is copied, since splits subtract from it.
    """

    def splittable(n: int, pos: int) -> bool:
        return 0 < pos < n and n >= 2 * min_leaf

    rows, pos = _positives_first(y, rows)
    if not splittable(len(rows), pos):
        hist = None
    else:
        hist = bins.histogram(rows, pos) if hist is None else hist.copy()
    # explicit stack: unregularized trees can exceed the recursion limit
    nodes: list[list] = []
    stack = [(rows, pos, hist, None, None)]
    while stack:
        rows, pos, hist, parent, side = stack.pop()
        if parent is not None:
            parent[side] = len(nodes)
        n = len(rows)
        node = [-1, -1, -1, -1, pos / n, n]
        nodes.append(node)
        split = None if hist is None else bins.best_cut(hist, n, pos, min_leaf)
        if split is None:
            continue
        node[0], cut, node[1] = split
        go_left = bins.codes[rows, node[0]] <= cut
        parts = [rows[go_left], rows[~go_left]]  # order kept: positives first
        left_pos = int(np.count_nonzero(go_left[:pos]))
        part_pos = [left_pos, pos - left_pos]
        wants = [splittable(len(part), c) for part, c in zip(parts, part_pos)]
        hists = [None, None]
        if any(wants):
            small = int(len(parts[1]) < len(parts[0]))
            counted = bins.histogram(parts[small], part_pos[small])
            if wants[small]:
                hists[small] = counted
            if wants[1 - small]:
                hist -= counted  # the parent is done with its histogram
                hists[1 - small] = hist
        for side in (2, 3):
            stack.append((parts[side - 2], part_pos[side - 2], hists[side - 2], node, side))
    return nodes
