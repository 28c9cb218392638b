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
fit row subsets or relabellings of it. Trees of several leaf sizes on the
same rows grow in one shared pass (`fit_leaf_sizes`, whose one-size case
is `DecisionTree.fit`): each node they share is counted and scored once,
and they part only where their cuts differ.

A fitted tree is six parallel node arrays: `feature`, `threshold`, `left`,
`right` (all -1 at a leaf), `prob` (the positive-class share) and `count`.
Node 0 is the root, and nodes are stored in right-first pre-order, so every
parent comes before its children. Its JSON form lists one record per node
in that order, and a leaf's record leaves out the four split fields.
"""

from __future__ import annotations

import numpy as np

from .core import _number

_ARRAYS = ("feature", "threshold", "left", "right", "prob", "count")
_FEW_ROWS = 16  # predict_proba walks batches up to this size row by row
_INTP_MAX = int(np.iinfo(np.intp).max)
_COUNT_ROWS = 8192  # rows per bincount call when counting a histogram


class DecisionTree:
    def __init__(self, min_leaf: int = 1):
        # the rule `from_dict` applies, so every fitted tree reloads
        _number(min_leaf, "min_leaf", (int,))
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
        """The one-size case of `fit_leaf_sizes`, on every row of `X`."""
        (fitted,) = fit_leaf_sizes(RankBins(X), y, None, (self.min_leaf,))
        self._set_nodes(*(getattr(fitted, a) for a in _ARRAYS))
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
        """Raises ValueError naming the field unless `min_leaf` is an integer
        and every node's fields are well formed (see `_node`), and unless
        the nodes form one tree stored parent first: every internal node
        has `feature` >= 0 and children after it, and every node but the
        root is the child of exactly one node."""
        tree = cls(min_leaf=_number(data["min_leaf"], "malformed tree: min_leaf", (int,)))
        records = data["nodes"]
        nodes = [_node(r, k) for k, r in enumerate(records)]
        tree._set_nodes(*(list(zip(*nodes)) or [()] * len(_ARRAYS)))
        inner = np.array(["feature" in r for r in records], dtype=bool)
        parents = np.tile(np.flatnonzero(inner), 2)
        children = np.concatenate([tree.left[inner], tree.right[inner]])
        if not (records and (tree.feature[inner] >= 0).all() and (parents < children).all()
                and np.array_equal(np.sort(children), np.arange(1, len(records)))):
            raise ValueError("malformed tree: nodes must form one tree, "
                             "each internal node before its children")
        return tree


def fit_leaf_sizes(bins: RankBins, y: np.ndarray, rows: np.ndarray | None,
                   min_leafs: tuple[int, ...]) -> list[DecisionTree]:
    """One tree per leaf size, fitted on `rows` (all when None) of a ranked
    matrix, where `y` holds a 0/1 label for every row of the matrix. The
    trees grow together in one pass (see `_grow`), each exactly as a pass
    of its size alone would grow it."""
    trees = [DecisionTree(min_leaf=m) for m in min_leafs]
    y = np.asarray(y, dtype=int)
    if len(bins.codes) != len(y):
        raise ValueError("X and y length mismatch")
    if ((y != 0) & (y != 1)).any():
        raise ValueError("labels must be 0 or 1")
    rows = np.arange(len(y)) if rows is None else np.asarray(rows, dtype=np.intp)
    if len(rows) == 0:
        raise ValueError("no rows to fit")
    for tree, nodes in zip(trees, _grow(bins, y, rows, min_leafs)):
        tree._set_nodes(*zip(*nodes))
    return trees


def _node(record: dict, k: int) -> tuple:
    """Node k's six fields from its JSON record, an object where a leaf leaves
    out the four split fields. `feature`, `left`, `right` and `count` must be
    integers that a node array holds, `count` at least 1, `threshold` a
    number other than NaN that a float holds (an infinite cut is one `fit`
    can make) and `prob` a number in [0, 1]."""
    what = f"malformed tree: node {k}"
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be an object, got {record!r}")
    feature, left, right = (_node_int(record.get(key, -1), f"{what} {key}")
                            for key in ("feature", "left", "right"))
    threshold = record.get("threshold", -1)
    if type(threshold) not in (int, float) or threshold != threshold:
        raise ValueError(f"{what} threshold must be a number, got {threshold!r}")
    if type(threshold) is int:  # one too large for a float is refused
        _number(threshold, f"{what} threshold", (int,))
    prob = _number(record["prob"], f"{what} prob")
    if not 0 <= prob <= 1:
        raise ValueError(f"{what} prob must be in [0, 1], got {prob!r}")
    count = _node_int(record["count"], f"{what} count")
    if count < 1:
        raise ValueError(f"{what} count must be at least 1, got {count!r}")
    return feature, threshold, left, right, prob, count


def _node_int(value, what: str) -> int:
    """`value` if it is an integer that a node array can hold."""
    value = _number(value, what, (int,))
    if abs(value) > _INTP_MAX:
        raise ValueError(f"{what} must be at most {_INTP_MAX} in size, got {value!r}")
    return value


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

    def _bincount(self, rows: np.ndarray) -> np.ndarray:
        return np.bincount(self.codes[rows].ravel(), minlength=len(self.values))

    def best_cuts(self, hist: np.ndarray, n: int, pos: int, min_leafs: list[int]) -> list:
        """For each leaf size, the (feature, last left bin, threshold) of the
        lowest weighted child Gini over the cuts after each present bin that
        leave that many rows on both sides, or None when there is no such
        cut. The scores are computed once, over the cuts the least size
        allows; a larger size takes the least score among its own cuts,
        which are a subset, so its pick is the one scoring its cuts alone
        would make."""
        # zero-gain splits are allowed (a pure-fit tree needs them, e.g. on
        # XOR-style data); growth still ends since children shrink
        present = np.flatnonzero(hist[0] > 0)
        column = self.column[present]
        # running sums restart at each column, whose bins hold n rows
        left_n = np.cumsum(hist[0, present]) - n * column
        left_pos = np.cumsum(hist[1, present]) - pos * column
        least = min(min_leafs)
        cuts = np.flatnonzero((left_n >= least) & (left_n <= n - least))
        if len(cuts) == 0:
            return [None] * len(min_leafs)
        left_n = left_n[cuts].astype(float)
        left_pos = left_pos[cuts].astype(float)
        right_n = n - left_n
        right_pos = pos - left_pos
        lp = left_pos / left_n
        rp = right_pos / right_n
        weighted = (left_n * 2 * lp * (1 - lp) + right_n * 2 * rp * (1 - rp)) / n
        found = []
        for min_leaf in min_leafs:
            if min_leaf == least:
                scores = weighted
            else:
                allowed = (left_n >= min_leaf) & (left_n <= n - min_leaf)
                if not allowed.any():
                    found.append(None)
                    continue
                scores = np.where(allowed, weighted, np.inf)
            # cuts run in (feature, value) order: ties keep the first
            k = int(cuts[np.argmin(scores)])
            # a valid cut leaves rows on the right, so the next present bin
            # is in the same column
            b = int(present[k])
            lo, hi = self.values[[b, present[k + 1]]].tolist()
            threshold = 0.5 * (lo + hi)
            if not lo <= threshold < hi:  # the midpoint of adjacent floats can
                threshold = lo            # round up; inf + -inf or overflow too
            found.append((int(column[k]), b, threshold))
        return found


def _splittable(n: int, pos: int, min_leaf: int) -> bool:
    return 0 < pos < n and n >= 2 * min_leaf


def _grow(bins: RankBins, y: np.ndarray, rows: np.ndarray,
          min_leafs: tuple[int, ...]) -> list[list[list]]:
    """One list of node records [feature, threshold, left, right, prob,
    count] per leaf size, each appended as its nodes are popped; each
    child's index is written into its parent's `left` or `right` slot.

    The trees grow together. A stack entry is one row set and the trees
    (its members) that hold a node on it: its histogram is counted once
    and `best_cuts` scores its cuts once for every member's leaf size.
    Members whose cuts agree share the children; where cuts differ the
    members fork, and each fork but the last subtracts from a copy of the
    parent's histogram. Every tree still pops its own nodes in right-first
    pre-order, so each list is the tree a grow of its size alone makes.

    Only a node that a member can split gets a histogram. After a split,
    the smaller child's histogram is counted from its rows and the
    larger's is the parent's minus it; a child that no member can split
    keeps none. Every node keeps its positive rows first, so that counting
    them needs no copy.
    """
    trees: list[list[list]] = [[] for _ in min_leafs]
    positive = y[rows] == 1
    rows, pos = np.concatenate([rows[positive], rows[~positive]]), int(np.count_nonzero(positive))
    hist = bins.histogram(rows, pos) if _splittable(len(rows), pos, min(min_leafs)) else None
    # explicit stack: unregularized trees can exceed the recursion limit;
    # a member is (its tree's node list, its leaf size, its parent node)
    stack = [(rows, pos, hist, None, [(nodes, m, None) for nodes, m in zip(trees, min_leafs)])]
    while stack:
        rows, pos, hist, side, members = stack.pop()
        n = len(rows)
        here = []  # the members as parents of this entry's children
        for nodes, min_leaf, parent in members:
            if parent is not None:
                parent[side] = len(nodes)
            node = [-1, -1, -1, -1, pos / n, n]
            nodes.append(node)
            here.append((nodes, min_leaf, node))
        if hist is None:
            continue
        forks: dict[tuple, list[tuple]] = {}
        for member, cut in zip(here, bins.best_cuts(hist, n, pos, [m for _, m, _ in here])):
            if cut is not None:
                forks.setdefault(cut, []).append(member)
        last = len(forks) - 1
        for j, ((feature, cut, threshold), group) in enumerate(forks.items()):
            for _, _, node in group:
                node[0], node[1] = feature, threshold
            go_left = bins.codes[rows, feature] <= cut
            parts = [rows[go_left], rows[~go_left]]  # order kept: positives first
            left_pos = int(np.count_nonzero(go_left[:pos]))
            part_pos = [left_pos, pos - left_pos]
            least = min(m for _, m, _ in group)
            wants = [_splittable(len(part), c, least) for part, c in zip(parts, part_pos)]
            hists = [None, None]
            if any(wants):
                small = int(len(parts[1]) < len(parts[0]))
                counted = bins.histogram(parts[small], part_pos[small])
                if wants[small]:
                    hists[small] = counted
                if wants[1 - small]:
                    # the last fork is the parent's histogram's final reader
                    rest = hist if j == last else hist.copy()
                    rest -= counted
                    hists[1 - small] = rest
            for side in (2, 3):
                stack.append((parts[side - 2], part_pos[side - 2], hists[side - 2], side, group))
    return trees
