"""Tree-structured varying-coefficient models.

The predictor is ``eta(x) = b0 + sum_j beta_j(x) * x_j`` where each
coefficient function ``beta_j`` is piecewise constant over a binary
tree whose split rules test the *other* covariates (the effect
modifiers).  Fitting is greedy: every admissible one-split refinement
of the current trees is scored by the residual sum of squares of a
full least-squares refit, and the best one is kept.  Repeating this
yields a nested path of models with 0..s_max splits.

A model with s splits spends ``p + s + 1`` coefficients: the intercept
plus one coefficient per leaf across all p trees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .core import Dataset, LinearFit, solve_least_squares
from .errors import (
    DimensionMismatchError,
    EmptyLeafError,
    NoAdmissibleSplitError,
    RankDeficientError,
    ValidationError,
)

# Candidates whose added design direction has squared norm below this
# fraction of the column norm are treated as rank deficient and skipped.
_DEGENERATE_RTOL = 1e-10

# After a split the carried scores of the other segments are downdated,
# not rescored, and downdated gains only screen: when more than one
# candidate lies within this relative margin of the best gain, their
# segments are rescored exactly before the pick.  Downdated gains stay
# within 1e-9 of the best gain of the exact ones (tests/test_tree.py
# checks it on random, tied and mixed-scale paths; about 1e-12 is
# typical), so the margin keeps every candidate that could win or tie.
_SCREEN_RTOL = 1e-6

# A downdated denominator at or below this fraction of ||u||^2 has lost
# too many digits to cancellation to screen by; its segment is rescored.
_DOWNDATE_FLOOR = 1e-6

# Cap on the array entries (segments x row positions x values per
# position) that one block of the batched split search holds; it bounds
# the search's working memory.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class LeafNode:
    leaf_id: int


@dataclass(frozen=True)
class SplitNode:
    modifier: int
    threshold: float
    left: "LeafNode | SplitNode"   # x[modifier] <= threshold
    right: "LeafNode | SplitNode"  # x[modifier] >  threshold


@dataclass(frozen=True)
class SplitRule:
    """One refinement step: split ``parent_leaf`` of the tree for
    covariate ``target`` on ``modifier`` at ``threshold``."""

    target: int
    modifier: int
    threshold: float
    parent_leaf: int

    def __post_init__(self):
        if self.target == self.modifier:
            raise ValidationError("a covariate cannot modify its own coefficient")


@dataclass(frozen=True)
class CoefficientTree:
    """Binary tree defining one piecewise-constant coefficient function.

    ``leaves`` lists the active leaf ids in creation order, which is
    also the column order of the expanded design.  ``coefficients``
    aligns with ``leaves`` and is None while a tree is still a search
    structure rather than part of a fitted model.
    """

    target: int
    root: LeafNode | SplitNode
    leaves: tuple[int, ...]
    n_created: int
    coefficients: tuple[float, ...] | None = None

    @classmethod
    def stump(cls, target: int) -> "CoefficientTree":
        return cls(target=target, root=LeafNode(0), leaves=(0,), n_created=1)

    @property
    def n_splits(self) -> int:
        return len(self.leaves) - 1

    def split(self, rule: SplitRule) -> "CoefficientTree":
        """Return a new tree with ``rule.parent_leaf`` replaced by a
        split node; children get the next two creation ids."""
        if rule.target != self.target:
            raise ValidationError(
                f"rule targets covariate {rule.target}, tree is for {self.target}"
            )
        if rule.parent_leaf not in self.leaves:
            raise ValidationError(f"leaf {rule.parent_leaf} is not active")
        left_id, right_id = self.n_created, self.n_created + 1

        def rebuild(node):
            if isinstance(node, LeafNode):
                if node.leaf_id != rule.parent_leaf:
                    return node
                return SplitNode(
                    modifier=rule.modifier,
                    threshold=rule.threshold,
                    left=LeafNode(left_id),
                    right=LeafNode(right_id),
                )
            left = rebuild(node.left)
            right = rebuild(node.right)
            if left is node.left and right is node.right:
                return node
            return SplitNode(node.modifier, node.threshold, left, right)

        leaves = tuple(m for m in self.leaves if m != rule.parent_leaf) + (
            left_id,
            right_id,
        )
        return CoefficientTree(
            target=self.target,
            root=rebuild(self.root),
            leaves=leaves,
            n_created=self.n_created + 2,
        )

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Route every row of X to a leaf; returns an int array of leaf ids."""
        out = np.empty(X.shape[0], dtype=np.int64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if isinstance(node, LeafNode):
                out[idx] = node.leaf_id
                continue
            mask = X[idx, node.modifier] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def with_coefficients(self, values) -> "CoefficientTree":
        values = tuple(float(v) for v in values)
        if len(values) != len(self.leaves):
            raise DimensionMismatchError(
                f"expected {len(self.leaves)} coefficients, got {len(values)}"
            )
        return replace(self, coefficients=values)

    def coefficient_map(self) -> np.ndarray:
        """Dense lookup array: leaf id -> coefficient."""
        if self.coefficients is None:
            raise ValidationError("tree carries no coefficients")
        out = np.full(self.n_created, np.nan)
        out[list(self.leaves)] = self.coefficients
        return out


@dataclass(frozen=True)
class TsvcModel:
    """A fitted varying-coefficient model with ``s`` splits in total.

    ``fit`` holds the in-sample least-squares solve and is None for
    models reconstructed from JSON (the training data is not stored).
    """

    intercept: float
    trees: tuple[CoefficientTree, ...]
    s: int
    n: int
    p: int
    names: tuple[str, ...]
    rss: float
    fit: LinearFit | None = None

    @property
    def sigma2_hat(self) -> float:
        return self.rss / self.n

    @property
    def n_params(self) -> int:
        return self.p + self.s + 1

    def predict(self, X_new) -> np.ndarray:
        return predict(self, X_new)


@dataclass(frozen=True)
class ModelPath:
    """Nested greedy path M0 .. Ms, plus the rule chosen at each step."""

    models: tuple[TsvcModel, ...]
    rules: tuple[SplitRule, ...]
    s_max: int

    @property
    def deviances(self) -> tuple[float, ...]:
        return tuple(m.rss for m in self.models)

    def model_at(self, s: int) -> TsvcModel:
        for m in self.models:
            if m.s == s:
                return m
        raise ValidationError(f"path has no model with {s} splits")


# ---------------------------------------------------------------------------
# design expansion
# ---------------------------------------------------------------------------

def _column_layout(trees) -> list[tuple[int, int]]:
    """(covariate, leaf id) pairs in design-column order, after the intercept."""
    return [(tree.target, leaf) for tree in trees for leaf in tree.leaves]


def _leaf_ids(dataset: Dataset, trees) -> np.ndarray:
    """(trees x rows) array: the leaf id of every row in every tree."""
    if len(trees) != dataset.p:
        raise DimensionMismatchError(
            f"expected {dataset.p} trees, got {len(trees)}"
        )
    return np.stack([tree.assign(dataset.X) for tree in trees])


def build_design(dataset: Dataset, trees, *, _leaf_of=None) -> np.ndarray:
    """Expand the trees into a least-squares design matrix.

    Column 0 is all ones; then for each covariate j in index order, one
    column per leaf of its tree in creation order, equal to
    ``x_j * I(row falls in that leaf)``.  ``_leaf_of`` is internal: the
    rows' leaf ids, which the greedy search keeps from step to step
    instead of routing every row through every tree again.

    Raises
    ------
    EmptyLeafError
        If some leaf captures no observation.
    """
    if _leaf_of is None:
        _leaf_of = _leaf_ids(dataset, trees)
    X = dataset.X
    cols = [np.ones(X.shape[0])]
    for tree, leaf_of in zip(trees, _leaf_of):
        xj = X[:, tree.target]
        for leaf in tree.leaves:
            mask = leaf_of == leaf
            if not mask.any():
                raise EmptyLeafError(
                    f"leaf {leaf} of the tree for covariate {tree.target} is empty"
                )
            cols.append(np.where(mask, xj, 0.0))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# candidate enumeration and greedy growth
# ---------------------------------------------------------------------------

class _Segments(NamedTuple):
    """The admissible (target, modifier, leaf) triples, in enumeration
    order (target, then modifier, then leaf id), of leaves holding at
    least ``2 * min_leaf`` rows.  Segment s's rows, in modifier order,
    are ``rows[start[s]:start[s] + size[s]]``; ``tree[s]`` indexes its
    tree in the trees tuple."""

    tree: np.ndarray
    target: np.ndarray
    modifier: np.ndarray
    leaf: np.ndarray
    start: np.ndarray
    size: np.ndarray
    rows: np.ndarray
    columns: np.ndarray  # X.T, contiguous

    def values(self, covariate, rows) -> np.ndarray:
        """``X[rows, covariate]``, elementwise over broadcast arguments."""
        return np.take(self.columns, covariate * self.columns.shape[1] + rows)

    def thresholds(self, seg, pos) -> np.ndarray:
        """Cut between the rows at ``pos`` and ``pos + 1`` of segment ``seg``:
        their midpoint, or the lower value where the midpoint of two
        adjacent floats rounds up to the upper one, so that ``x <= cut``
        always splits the rows where they were scored."""
        at = self.start[seg] + pos
        k = self.modifier[seg]
        lower = self.values(k, self.rows[at])
        upper = self.values(k, self.rows[at + 1])
        mid = 0.5 * (lower + upper)
        return np.where(mid < upper, mid, lower)

    def keys(self) -> np.ndarray:
        """One integer per segment, ascending along the table, that
        names its (tree, modifier, leaf) in any step of a path."""
        p, n = self.columns.shape
        # leaf ids stay below 2n: a split needs a leaf of two rows or more
        return (self.tree * p + self.modifier) * (2 * n) + self.leaf

    def rule(self, seg: int, pos: int) -> SplitRule:
        return SplitRule(target=int(self.target[seg]), modifier=int(self.modifier[seg]),
                         threshold=float(self.thresholds(seg, pos)),
                         parent_leaf=int(self.leaf[seg]))


class _Block(NamedTuple):
    """Scores of the cuts of a block of segments, as ``_score_candidates``
    makes them: row b holds segment ``seg[b]``'s rows (then the unread
    tail of ``_candidate_blocks``), their target values ``v`` and, per
    position t, whether the cut after it is admissible and its
    left-child column u's ``num = u.r``, ``den = ||u||^2 - ||Q^T u||^2``
    and ``uu = ||u||^2`` against a residual r and basis Q."""

    seg: np.ndarray
    rows: np.ndarray
    v: np.ndarray
    admissible: np.ndarray
    num: np.ndarray
    den: np.ndarray
    uu: np.ndarray


class _Carry(NamedTuple):
    """The previous step's candidate scores and the split that ended it.

    ``blocks`` hold the scores of every segment of that step against its
    residual r and basis Q, with ``seg`` indexing its segment table,
    whose ``keys`` are ``keys``.  The split added the unit direction
    ``direction`` to the basis and took ``rq`` (its product with r) out
    of the residual.
    """

    keys: np.ndarray
    blocks: tuple[_Block, ...]
    direction: np.ndarray
    rq: float


class _StepState(NamedTuple):
    """What one greedy step takes over from the step before it.

    ``order`` is the stable argsort of X's columns (ties keep row
    order), sorted once per fit;
    ``leaf_of[i]`` holds every row's leaf id in tree i; ``fit`` and
    ``Q`` are the least-squares fit of the current trees and the
    orthonormal basis of its design; ``carry`` holds the previous
    step's candidate scores, and is None on a path's first step.  A
    snapshot is never modified: a step makes a new one for the next
    step, and its arrays are read-only.
    """

    order: np.ndarray
    leaf_of: np.ndarray
    fit: LinearFit
    Q: np.ndarray
    carry: _Carry | None = None


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _start_state(dataset: Dataset, trees) -> _StepState:
    """Sort X and fit the current trees: the state of a path's first step."""
    leaf_of = _leaf_ids(dataset, trees)
    fit, Q = solve_least_squares(build_design(dataset, trees, _leaf_of=leaf_of),
                                 dataset.y, return_basis=True)
    order = np.argsort(dataset.X, axis=0, kind="stable")
    return _StepState(_frozen(order), _frozen(leaf_of), fit, _frozen(Q))


def _segments(dataset: Dataset, trees, min_leaf: int, order: np.ndarray,
              leaf_of: np.ndarray) -> _Segments:
    """Take each modifier's rows in ``order``; a split tree's leaves
    take theirs from that order, grouped by leaf id (``leaf_of``)."""
    X = dataset.X
    n, p = X.shape
    n_ids = max(tree.n_created for tree in trees)
    counts = np.bincount(
        (np.arange(len(trees))[:, None] * n_ids + leaf_of).ravel(),
        minlength=len(trees) * n_ids,
    ).reshape(len(trees), n_ids)
    first = np.cumsum(counts, axis=1) - counts
    # Row k of slot 0 is modifier k's order.  A split tree gets its own
    # slot, whose row k holds the same rows grouped by leaf id.
    rank = np.empty((p, n), dtype=np.int64)
    rank[np.arange(p)[:, None], order.T] = np.arange(n)
    split = [i for i, tree in enumerate(trees) if len(tree.leaves) > 1]
    slot = np.zeros(len(trees), dtype=np.int64)
    slot[split] = np.arange(1, len(split) + 1)
    rows = np.empty((1 + len(split), p, n), dtype=np.int64)
    rows[0] = order.T
    for s, i in enumerate(split, start=1):
        rows[s] = np.argsort(leaf_of[i] * n + rank, axis=-1)
    targets = np.array([tree.target for tree in trees])
    tree_of, modifier, leaf = np.nonzero(
        (counts >= 2 * min_leaf)[:, None, :]
        & (np.arange(p) != targets[:, None])[:, :, None]
    )
    return _Segments(
        tree=tree_of, target=targets[tree_of], modifier=modifier, leaf=leaf,
        start=(slot[tree_of] * p + modifier) * n + first[tree_of, leaf],
        size=counts[tree_of, leaf],
        rows=rows.ravel(),
        columns=np.ascontiguousarray(X.T),
    )


def _candidate_blocks(segs: _Segments, min_leaf: int, width: int, which=None):
    """Yield the segments ``which`` (default: all) in blocks, as
    (seg, rows, admissible).

    ``seg`` lists a block's segments; row b of ``rows`` starts with
    segment ``seg[b]``'s rows and runs on into rows of other segments,
    which only positions that are never admissible read.  Position t of
    a row is admissible when a cut there (left child: positions 0..t)
    falls between distinct modifier values and leaves both children
    ``min_leaf`` rows.  Blocks take segments from the longest down,
    which keeps the unread tails short, and hold at most
    ``_BLOCK_ELEMENTS`` entries of a (segments x positions x width)
    array.
    """
    if which is None:
        which = np.arange(segs.size.size)
    longest_first = which[np.argsort(-segs.size[which], kind="stable")]
    pos = 0
    while pos < longest_first.size:
        length = int(segs.size[longest_first[pos]])
        seg = longest_first[pos:pos + max(1, _BLOCK_ELEMENTS // (length * width))]
        pos += seg.size
        size = segs.size[seg, None]
        # the right child keeps min_leaf rows: no cut reads further
        span = np.arange(length - min_leaf + 1)
        rows = np.take(segs.rows, segs.start[seg, None] + span, mode="clip")
        xs = segs.values(segs.modifier[seg, None], rows)
        admissible = np.zeros(xs.shape, dtype=bool)
        admissible[:, :-1] = xs[:, 1:] > xs[:, :-1]
        left = span + 1  # rows sent left by a cut at each position
        admissible &= (left >= min_leaf) & (size - left >= min_leaf)
        yield seg, rows, admissible


def enumerate_candidates(dataset: Dataset, trees, min_leaf: int, *,
                         _state: _StepState | None = None) -> list[SplitRule]:
    """All admissible one-split refinements, deterministically ordered.

    Order: target covariate ascending, then modifier ascending, then
    parent leaf id ascending, then threshold ascending.  ``_state`` is
    internal: the snapshot ``fit_path`` hands to ``grow_one_split``,
    whose sort and leaf ids are used instead of being recomputed.
    """
    if min_leaf < 1:
        raise ValidationError(f"min_leaf must be >= 1, got {min_leaf}")
    if _state is None:
        order = np.argsort(dataset.X, axis=0, kind="stable")
        leaf_of = _leaf_ids(dataset, trees)
    else:
        order, leaf_of = _state.order, _state.leaf_of
    segs = _segments(dataset, trees, min_leaf, order, leaf_of)
    seg, pos = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for block_seg, _, admissible in _candidate_blocks(segs, min_leaf, width=3):
        b, t = np.nonzero(admissible)
        seg.append(block_seg[b])
        pos.append(t)
    seg, pos = np.concatenate(seg), np.concatenate(pos)
    order = np.lexsort((pos, seg))
    seg, pos = seg[order], pos[order]
    return [
        SplitRule(target=j, modifier=k, threshold=c, parent_leaf=leaf)
        for j, k, leaf, c in zip(segs.target[seg].tolist(), segs.modifier[seg].tolist(),
                                 segs.leaf[seg].tolist(),
                                 segs.thresholds(seg, pos).tolist())
    ]


def _make_model(dataset: Dataset, trees, fit: LinearFit) -> TsvcModel:
    """Distribute fitted coefficients onto the trees."""
    layout = _column_layout(trees)
    per_tree: dict[int, list[float]] = {tree.target: [] for tree in trees}
    for (j, _leaf), value in zip(layout, fit.coefficients[1:]):
        per_tree[j].append(float(value))
    fitted_trees = tuple(tree.with_coefficients(per_tree[tree.target]) for tree in trees)
    s = sum(tree.n_splits for tree in trees)
    return TsvcModel(
        intercept=float(fit.coefficients[0]),
        trees=fitted_trees,
        s=s,
        n=dataset.n,
        p=dataset.p,
        names=dataset.names,
        rss=fit.rss,
        fit=fit,
    )


def _score_candidates(segs: _Segments, min_leaf: int, resid, Q, which):
    """Exact scores of every cut of the segments ``which``, from one
    batched pass.

    Yields one ``_Block`` per block of segments.  A segment's scores do
    not depend on the other segments of its block: per candidate the
    arithmetic is the per-leaf scan's, the same products and the same
    sequential cumulative sums.
    """
    q = Q.shape[1]
    # per row position: q cumulative sums plus about eight scalars
    for seg, rows, admissible in _candidate_blocks(segs, min_leaf, q + 8, which):
        v = segs.values(segs.target[seg, None], rows)
        num = np.take(resid, rows)
        num *= v
        np.cumsum(num, axis=1, out=num)
        uu = v * v
        np.cumsum(uu, axis=1, out=uu)
        cum_vQ = np.take(Q, rows, axis=0)
        np.multiply(v[:, :, None], cum_vQ, out=cum_vQ)
        np.cumsum(cum_vQ, axis=1, out=cum_vQ)
        flat_vQ = cum_vQ.reshape(-1, q)
        den = np.einsum("ij,ij->i", flat_vQ, flat_vQ).reshape(uu.shape)
        np.subtract(uu, den, out=den)
        yield _Block(seg, rows, v, admissible, num, den, uu)


def _gains(block: _Block, floor: float):
    """Rss drops ``num^2 / den`` of the block's admissible cuts whose
    ``den`` exceeds ``floor * uu``, -inf elsewhere; and that mask."""
    good = block.admissible & (block.uu > 0.0) & (block.den > floor * block.uu)
    gains = np.full(block.num.shape, -np.inf)
    np.divide(np.square(block.num), block.den, out=gains, where=good)
    return gains, good


def _downdate(block: _Block, carry: _Carry) -> _Block:
    """A block's scores after the last split: that split added the unit
    direction d to the basis and took ``rq = d.r`` out of the residual,
    so ``num`` drops by ``rq * (u.d)`` and ``den`` by ``(u.d)^2``."""
    c = np.take(carry.direction, block.rows)
    c *= block.v
    np.cumsum(c, axis=1, out=c)  # u.d
    num = block.num - carry.rq * c
    return block._replace(num=num, den=np.subtract(block.den, np.square(c, out=c), out=c))


class _Screen:
    """One greedy step's split search over the segment table ``segs``.

    Without carried scores every segment is scored exactly.  With them
    only the segments of the leaves the last split made are; the others
    downdate their carried scores by the direction that split added to
    the basis, which costs one cumulative sum per position instead of
    q + 2.  Downdated gains only screen: before ``pick`` settles a
    near-tie it rescores exactly every segment that holds a candidate
    within ``_SCREEN_RTOL`` of the best, so the rule is the one a fresh
    search picks.  ``blocks`` collect this step's scores, downdated or
    exact, for the next step.
    """

    def __init__(self, segs: _Segments, min_leaf: int, resid, Q, carry: _Carry | None):
        self.segs, self.min_leaf, self.resid, self.Q = segs, min_leaf, resid, Q
        n_segs = segs.size.size
        self.best = np.full(n_segs, -np.inf)  # per segment
        self.exact = np.zeros(n_segs, dtype=bool)
        # segment s's scores and gains sit in row home_row[s] of
        # blocks[home[s]] and gains[home[s]]
        self.blocks, self.gains = [], []
        self.home = np.zeros(n_segs, dtype=np.int64)
        self.home_row = np.zeros(n_segs, dtype=np.int64)
        carried = np.zeros(n_segs, dtype=bool)
        near_floor = np.zeros(n_segs, dtype=bool)
        if carry is not None and n_segs:
            keys = segs.keys()
            for block in carry.blocks:
                old = carry.keys[block.seg]
                seg = np.minimum(np.searchsorted(keys, old), n_segs - 1)
                kept = keys[seg] == old  # a split leaf's segments are gone
                if not kept.any():
                    continue
                block = _Block(seg, *block[1:])
                if not kept.all():
                    block = _Block(*(a[kept] for a in block))
                block = _downdate(block, carry)
                good = self._keep(block, exact=False)
                carried[block.seg] = True
                # too close to the degeneracy floor to screen by
                near_floor[block.seg] = (block.admissible & (block.uu > 0.0) & ~good).any(axis=1)
        for block in _score_candidates(segs, min_leaf, resid, Q, np.flatnonzero(~carried)):
            self._keep(block, exact=True)
        if near_floor.any():
            self.rescore(np.flatnonzero(near_floor))

    def _keep(self, block: _Block, exact: bool):
        gains, good = _gains(block, _DEGENERATE_RTOL if exact else _DOWNDATE_FLOOR)
        self.home[block.seg] = len(self.blocks)
        self.home_row[block.seg] = np.arange(block.seg.size)
        self.blocks.append(block)
        self.gains.append(gains)
        self.best[block.seg] = gains.max(axis=1)
        self.exact[block.seg] = exact
        return good

    def _row(self, seg) -> np.ndarray:
        return self.gains[self.home[seg]][self.home_row[seg]]

    def rescore(self, which):
        """Score the screened segments ``which`` exactly, in place of
        their downdated scores."""
        for block in _score_candidates(self.segs, self.min_leaf, self.resid, self.Q, which):
            gains, _ = _gains(block, _DEGENERATE_RTOL)
            for b, seg in enumerate(block.seg):
                home, row = self.home[seg], self.home_row[seg]
                # both rows run past the segment's last admissible cut
                width = min(gains.shape[1], self.gains[home].shape[1])
                for kept, exact in ((self.blocks[home].num, block.num),
                                    (self.blocks[home].den, block.den),
                                    (self.gains[home], gains)):
                    kept[row, :width] = exact[b, :width]
            self.best[block.seg] = gains.max(axis=1)
            self.exact[block.seg] = True

    def pick(self):
        """The candidate with the highest exact gain, ties going to the
        first in enumeration order, as (seg, pos); None when no
        candidate is left.  A candidate alone within the margin of the
        best needs no rescoring: no other candidate can overtake it."""
        while (best := self.best.max(initial=-np.inf)) > -np.inf:
            floor = best - _SCREEN_RTOL * best
            close = np.flatnonzero(self.best >= floor)
            found = [(int(seg), int(pos)) for seg in close
                     for pos in np.flatnonzero(self._row(seg) >= floor)]
            screened = close[~self.exact[close]]
            if screened.size and len(found) > 1:
                self.rescore(screened)
                continue
            return min((seg, pos) for seg, pos in found if self._row(seg)[pos] == best)
        return None

    def ban(self, seg: int, pos: int):
        """Drop a candidate whose exact refit is singular."""
        row = self._row(seg)
        row[pos] = -np.inf
        self.best[seg] = row.max()

    def carry(self, seg: int, pos: int) -> _Carry:
        """What the next step needs after this step's split at the cut
        after position ``pos`` of segment ``seg``: the scores, and the
        unit part of the cut's left-child column orthogonal to the
        basis."""
        segs = self.segs
        left = segs.rows[segs.start[seg]:segs.start[seg] + pos + 1]
        u = np.zeros(self.Q.shape[0])
        u[left] = segs.values(segs.target[seg], left)
        for _ in range(2):  # the second pass restores what cancellation lost
            u -= self.Q @ (self.Q.T @ u)
        u /= np.linalg.norm(u)
        blocks = tuple(_Block(*map(_frozen, block)) for block in self.blocks)
        return _Carry(_frozen(segs.keys()), blocks, _frozen(u), float(u @ self.resid))


def grow_one_split(dataset: Dataset, trees, min_leaf: int = 10, *,
                   _state: _StepState | None = None):
    """Best one-split refinement of the current trees.

    Every admissible rule is scored by the residual sum of squares of
    the refitted model on all observations; the smallest wins, with
    ties broken by enumeration order.  Scoring uses the orthogonal
    projection update: replacing one leaf column by its two children
    spans the same space as adding the left-child column, so the rss
    drop is ``(u.r)^2 / ||u_perp||^2`` for the added column u, the
    base-fit residual r and the component u_perp of u orthogonal to
    the base design.  Candidates are scored in batched passes; the
    winning rule is then refitted exactly, and a winner that turns out
    singular is dropped in favour of the next best.

    ``_state`` is internal to ``fit_path``: the previous step's sort,
    leaf ids, fit, basis and candidate scores, so that the base design
    is neither rebuilt nor factorised again, and only the new leaves
    are scored in full (see ``_Screen``).  Without it the step computes
    everything itself.

    Returns
    -------
    (SplitRule, TsvcModel), followed by the next step's state when
    ``_state`` is given.

    Raises
    ------
    NoAdmissibleSplitError
        If no candidate satisfies ``min_leaf`` (or all are degenerate).
    """
    if min_leaf < 1:
        raise ValidationError(f"min_leaf must be >= 1, got {min_leaf}")
    y = dataset.y
    state = _start_state(dataset, trees) if _state is None else _state
    segs = _segments(dataset, trees, min_leaf, state.order, state.leaf_of)
    screen = _Screen(segs, min_leaf, y - state.fit.fitted, state.Q, state.carry)
    while (picked := screen.pick()) is not None:
        seg, pos = picked
        rule = segs.rule(seg, pos)
        i = int(segs.tree[seg])
        new_trees = tuple(trees[:i]) + (trees[i].split(rule),) + tuple(trees[i + 1:])
        # only the parent leaf's rows move
        leaf_of = state.leaf_of.copy()
        rows = np.flatnonzero(leaf_of[i] == rule.parent_leaf)
        leaf_of[i, rows] = new_trees[i].assign(dataset.X[rows])
        try:
            fit, Q = solve_least_squares(build_design(dataset, new_trees, _leaf_of=leaf_of),
                                         y, return_basis=True)
        except RankDeficientError:
            # Scored as improving but singular on exact refit: drop the
            # candidate and take the next best.
            screen.ban(seg, pos)
            continue
        model = _make_model(dataset, new_trees, fit)
        if _state is None:
            return rule, model
        return rule, model, _StepState(state.order, _frozen(leaf_of), fit, _frozen(Q),
                                       screen.carry(seg, pos))
    raise NoAdmissibleSplitError("no admissible split candidate")


def fit_path(dataset: Dataset, s_max: int, min_leaf: int = 10) -> ModelPath:
    """Greedy nested path of models with 0 .. s_max splits.

    The path may stop early when no admissible split remains.  The
    residual sum of squares never increases along the path.  X is
    sorted once per path, and each step's exact refit is the next
    step's base fit.
    """
    if s_max < 0:
        raise ValidationError(f"s_max must be >= 0, got {s_max}")
    trees = tuple(CoefficientTree.stump(j) for j in range(dataset.p))
    state = _start_state(dataset, trees)
    models = [_make_model(dataset, trees, state.fit)]
    rules: list[SplitRule] = []
    while len(rules) < s_max:
        try:
            rule, model, state = grow_one_split(dataset, models[-1].trees, min_leaf,
                                                _state=state)
        except NoAdmissibleSplitError:
            break
        models.append(model)
        rules.append(rule)
    return ModelPath(models=tuple(models), rules=tuple(rules), s_max=s_max)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def predict(model: TsvcModel, X_new) -> np.ndarray:
    """Evaluate the fitted predictor on new covariate rows."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim == 1:
        X_new = X_new.reshape(1, -1)
    if X_new.ndim != 2 or X_new.shape[1] != model.p:
        raise DimensionMismatchError(
            f"expected {model.p} columns, got shape {X_new.shape}"
        )
    eta = np.full(X_new.shape[0], model.intercept)
    for tree in model.trees:
        coef = tree.coefficient_map()[tree.assign(X_new)]
        eta += coef * X_new[:, tree.target]
    return eta


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

def _node_to_dict(node):
    if isinstance(node, LeafNode):
        return {"kind": "leaf", "id": node.leaf_id}
    return {
        "kind": "split",
        "modifier": node.modifier,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc):
    if doc["kind"] == "leaf":
        return LeafNode(int(doc["id"]))
    return SplitNode(
        modifier=int(doc["modifier"]),
        threshold=float(doc["threshold"]),
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def _node_leaf_ids(node) -> list[int]:
    if isinstance(node, LeafNode):
        return [node.leaf_id]
    return _node_leaf_ids(node.left) + _node_leaf_ids(node.right)


def model_to_dict(model: TsvcModel) -> dict:
    return {
        "intercept": model.intercept,
        "s": model.s,
        "n": model.n,
        "p": model.p,
        "rss": model.rss,
        "names": list(model.names),
        "trees": [
            {
                "target": tree.target,
                "root": _node_to_dict(tree.root),
                "leaves": [
                    {"id": leaf, "coefficient": coef}
                    for leaf, coef in zip(tree.leaves, tree.coefficients)
                ],
            }
            for tree in model.trees
        ],
    }


def model_from_dict(doc: dict) -> TsvcModel:
    trees = []
    for tdoc in doc["trees"]:
        target = int(tdoc["target"])
        root = _node_from_dict(tdoc["root"])
        leaves = tuple(int(item["id"]) for item in tdoc["leaves"])
        coefficients = tuple(float(item["coefficient"]) for item in tdoc["leaves"])
        root_leaves = sorted(_node_leaf_ids(root))
        if sorted(leaves) != root_leaves:
            raise ValidationError(
                f"tree for covariate {target}: leaves {sorted(leaves)} differ "
                f"from the leaves of its root {root_leaves}"
            )
        trees.append(
            CoefficientTree(
                target=target,
                root=root,
                leaves=leaves,
                n_created=max(leaves) + 1,
                coefficients=coefficients,
            )
        )
    return TsvcModel(
        intercept=float(doc["intercept"]),
        trees=tuple(trees),
        s=int(doc["s"]),
        n=int(doc["n"]),
        p=int(doc["p"]),
        names=tuple(doc["names"]),
        rss=float(doc["rss"]),
        fit=None,
    )


def model_to_json(model: TsvcModel, indent: int = 2) -> str:
    return json.dumps(model_to_dict(model), indent=indent)


def model_from_json(text: str) -> TsvcModel:
    return model_from_dict(json.loads(text))
