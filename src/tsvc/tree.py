"""Design expansion and the greedy split search.

Fitting is greedy: every admissible one-split refinement of the current
coefficient trees (see ``model``) is scored by the residual sum of
squares of a full least-squares refit, and the best one is kept.
Repeating this yields a nested path of 0..s_max splits, which keeps each
step's trees and least-squares fit.  ``build_design`` expands trees into
the least-squares design whose column layout the search and
``TsvcModel.from_fit`` share.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (DEGENERATE_RTOL, SCREEN_FLOOR, Dataset, LinearFit, check_response_scale,
                   orthogonal_part, solve_least_squares)
from .errors import (
    DimensionMismatchError,
    EmptyLeafError,
    NoAdmissibleSplitError,
    RankDeficientError,
    ValidationError,
)
from .model import CoefficientTree, ModelPath, SplitRule, TsvcModel

# After a split the carried scores of the other segments are downdated,
# not rescored, and downdated gains only screen: when more than one
# candidate lies within this relative margin of the best gain, their
# segments are rescored exactly before the pick.  Downdated gains stay
# within 1e-9 of the best gain of the exact ones (tests/test_tree.py
# checks it on random, tied and mixed-scale paths; about 1e-12 is
# typical), so the margin keeps every candidate that could win or tie.
_SCREEN_RTOL = 1e-6

# Cap on the array entries (segments x row positions x values per
# position) that one block of the batched split search holds.  It bounds
# a block's scoring temporaries, unless one segment alone is larger; the
# scores carried from step to step are bounded by _LOCKSTEP_POSITIONS.
# 2^18 float64 entries are 2 MiB, one core's L2 cache on the host where
# a sweep of 2^16..2^20 chose it (README): larger blocks take fewer numpy
# passes per step, and past 2^18 the largest grid cell grew slower and
# its peak memory higher.
_BLOCK_ELEMENTS = 1 << 18

# Row width (chains x entries per position) from which ``_prefix_sums``
# adds one position's row into the next across all chains at once, one
# numpy call per position, instead of pairing chains in one
# ``np.cumsum``.  Below it the per-call cost of the sweep outweighs the
# two chains per add of the pairs; a sweep of 256..2048 on the 2-core
# host chose 512 (README).  It moves no byte: both ways add the same
# terms in the same order.
_SWEEP_LANES = 512

# Cap on the candidate positions (about p^2 * n per replicate) that the
# replicates of one lockstep group of ``fit_paths`` carry from step to
# step, at about 40 bytes each; it bounds a group's memory.
_LOCKSTEP_POSITIONS = 1 << 20


# ---------------------------------------------------------------------------
# design expansion
# ---------------------------------------------------------------------------

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
        cols += [_leaf_column(X[:, tree.target], leaf_of, leaf, tree.target)
                 for leaf in tree.leaves]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# candidate enumeration and greedy growth
# ---------------------------------------------------------------------------

class _Segments(NamedTuple):
    """The admissible (replicate, target, modifier, leaf) quadruples, in
    enumeration order (replicate, then target, then modifier, then leaf
    id), of leaves holding at least ``2 * min_leaf`` rows.  Segment s's
    rows, in modifier order, are ``rows[start[s]:start[s] + size[s]]``;
    ``tree[s]`` indexes its tree in its replicate's trees tuple.  The
    rows of replicate j are numbered ``j * n .. j * n + n - 1``, and
    ``columns`` holds X.T once per replicate, contiguous."""

    rep: np.ndarray
    tree: np.ndarray
    target: np.ndarray
    modifier: np.ndarray
    leaf: np.ndarray
    start: np.ndarray
    size: np.ndarray
    rows: np.ndarray
    columns: np.ndarray

    def values(self, covariate, rows) -> np.ndarray:
        """``X[rows, covariate]``, elementwise over broadcast arguments."""
        return np.take(self.columns, covariate * self.columns.shape[1] + rows)

    def keys(self) -> np.ndarray:
        """One integer per segment, ascending along the table, that
        names its (replicate, tree, modifier, leaf) in any step of a path."""
        p, width = self.columns.shape
        # leaf ids stay below 2n: a split needs a leaf of two rows or more
        return ((self.rep * p + self.tree) * p + self.modifier) * (2 * width) + self.leaf

    def rule(self, seg: int, pos: int) -> SplitRule:
        """Cut between the rows at ``pos`` and ``pos + 1`` of segment ``seg``:
        their midpoint, or the lower value where the midpoint of two
        adjacent floats rounds up to the upper one, so that ``x <= cut``
        always splits the rows where they were scored."""
        at = self.start[seg] + pos
        modifier = int(self.modifier[seg])
        lower, upper = self.values(modifier, self.rows[at:at + 2]).tolist()
        mid = 0.5 * (lower + upper)
        return SplitRule(target=int(self.target[seg]), modifier=modifier,
                         threshold=mid if mid < upper else lower,
                         parent_leaf=int(self.leaf[seg]))


class _Block(NamedTuple):
    """Scores of the cuts of a block of segments, as ``_score_candidates``
    makes them: row b holds segment ``seg[b]``'s rows (then the unread
    tail of ``_candidate_blocks``), their target values ``v`` and, per
    position t, the scores of the cut after it, whose left-child column
    u has ``num = u.r`` and ``den = ||u||^2 - ||Q^T u||^2`` against a
    residual r and basis Q, and ``uu = ||u||^2`` if the cut is
    admissible, else 0."""

    seg: np.ndarray
    rows: np.ndarray
    v: np.ndarray
    num: np.ndarray
    den: np.ndarray
    uu: np.ndarray


class _Carry(NamedTuple):
    """The previous step's candidate scores and the splits that ended it.

    ``blocks`` hold the scores of every segment of that step, each in
    one row, against its residuals and bases, with ``seg`` indexing its
    segment table, whose ``keys`` are ``keys``.  Replicate j's split
    added the unit direction ``direction[j * n:(j + 1) * n]`` to its
    basis and took ``rq[j]`` (its product with the residual) out of its
    residual.
    """

    keys: np.ndarray
    blocks: tuple[_Block, ...]
    direction: np.ndarray
    rq: np.ndarray


class _StepState(NamedTuple):
    """What one replicate's greedy step takes over from the step before.

    ``trees`` are the current trees; ``leaf_of[i]`` holds every row's
    leaf id in tree i, and ``grouped[i]`` each modifier's rows in the
    group's sort order grouped by leaf id, a (p x n) array, or None while
    tree i is one leaf; ``design`` is the design of the trees, ``fit``
    and ``Q`` its least-squares fit and orthonormal basis.  The sort and
    the carried scores belong to the lockstep group (see
    ``_grow_splits``).  A snapshot is never modified: a step makes a new
    one for the next step, and its arrays are read-only, the fit's and Q
    as ``solve_least_squares`` hands them out.
    """

    trees: tuple
    leaf_of: np.ndarray
    grouped: tuple
    design: np.ndarray
    fit: LinearFit
    Q: np.ndarray


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _grouped_orders(order: np.ndarray, leaf_of: np.ndarray, trees) -> tuple:
    """``_StepState.grouped`` of the trees, sorted afresh."""
    split = [len(tree.leaves) > 1 for tree in trees]
    if not any(split):
        return (None,) * len(trees)
    n, p = order.shape
    rank = np.empty((p, n), dtype=np.int64)
    rank[np.arange(p)[:, None], order.T] = np.arange(n)
    return tuple(_frozen(np.argsort(leaf_of[i] * n + rank, axis=-1)) if is_split else None
                 for i, is_split in enumerate(split))


def _regroup(grouped, order, old_leaf, new_leaf, parent: int, left: int) -> np.ndarray:
    """A tree's grouped order after its leaf ``parent`` split into the
    leaves ``left`` and ``left + 1``, the highest ids of the tree: the
    parent's rows leave their place and follow the other leaves' rows,
    the left child's then the right child's, each in modifier order.
    ``grouped`` is the order before (None for a one-leaf tree) and
    ``old_leaf``, ``new_leaf`` the rows' leaf ids before and after."""
    before = order.T if grouped is None else grouped
    first = np.count_nonzero(old_leaf < parent)
    stop = first + np.count_nonzero(old_leaf == parent)
    moved = before[:, first:stop]
    to_left = new_leaf[moved] == left
    p = before.shape[0]
    return _frozen(np.concatenate([before[:, :first], before[:, stop:],
                                   moved[to_left].reshape(p, -1),
                                   moved[~to_left].reshape(p, -1)], axis=1))


def _stacked_segments(columns: np.ndarray, min_leaf: int, order: np.ndarray,
                      replicates) -> _Segments:
    """The segment tables of ``replicates``, (j, trees, leaf_of, grouped)
    for replicate j, stacked in one table over ``columns``: each
    modifier's rows come in ``order``, and a split tree's leaves take
    theirs from its grouped order."""
    n, p = order.shape
    leaf_of = np.stack([leaf_of for _, _, leaf_of, _ in replicates])
    count, n_trees = leaf_of.shape[:2]
    n_ids = max(tree.n_created for _, trees, _, _ in replicates for tree in trees)
    counts = np.bincount(
        (np.arange(count * n_trees)[:, None] * n_ids + leaf_of.reshape(-1, n)).ravel(),
        minlength=count * n_trees * n_ids,
    ).reshape(count, n_trees, n_ids)
    first = np.cumsum(counts, axis=2) - counts
    # A replicate's first slot holds each modifier's order in row k.  A
    # split tree gets its own slot, whose row k holds the same rows
    # grouped by leaf id.
    slots, owner = [], []
    slot = np.zeros((count, n_trees), dtype=np.int64)
    for r, (j, trees, _, grouped) in enumerate(replicates):
        split = [i for i, tree in enumerate(trees) if len(tree.leaves) > 1]
        slot[r] = len(slots)
        slot[r, split] += np.arange(1, len(split) + 1)
        slots += [order.T] + [grouped[i] for i in split]
        owner += [j] * (1 + len(split))
    rows = np.stack(slots)
    if any(owner):
        rows += (n * np.array(owner))[:, None, None]
    targets = np.array([[tree.target for tree in trees] for _, trees, _, _ in replicates])
    r, tree_of, modifier, leaf = np.nonzero(
        (counts >= 2 * min_leaf)[:, :, None, :]
        & (np.arange(p) != targets[:, :, None])[:, :, :, None]
    )
    return _Segments(
        rep=np.array([j for j, _, _, _ in replicates])[r],
        tree=tree_of, target=targets[r, tree_of], modifier=modifier, leaf=leaf,
        start=(slot[r, tree_of] * p + modifier) * n + first[r, tree_of, leaf],
        size=counts[r, tree_of, leaf],
        rows=rows.ravel(),
        columns=columns,
    )


def _segments(dataset: Dataset, trees, min_leaf: int, order: np.ndarray,
              leaf_of: np.ndarray) -> _Segments:
    """One fit's segment table (see ``_stacked_segments``), each split
    tree's rows sorted by leaf id afresh."""
    return _stacked_segments(np.ascontiguousarray(dataset.X.T), min_leaf, order,
                             [(0, trees, leaf_of, _grouped_orders(order, leaf_of, trees))])


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


def _check_min_leaf(min_leaf: int):
    if min_leaf < 1:
        raise ValidationError(f"min_leaf must be >= 1, got {min_leaf}")


def enumerate_candidates(dataset: Dataset, trees, min_leaf: int) -> list[SplitRule]:
    """All admissible one-split refinements, deterministically ordered.

    Order: target covariate ascending, then modifier ascending, then
    parent leaf id ascending, then threshold ascending.
    """
    _check_min_leaf(min_leaf)
    order = np.argsort(dataset.X, axis=0, kind="stable")
    segs = _segments(dataset, trees, min_leaf, order, _leaf_ids(dataset, trees))
    seg, pos = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for block_seg, _, admissible in _candidate_blocks(segs, min_leaf, width=3):
        b, t = np.nonzero(admissible)
        seg.append(block_seg[b])
        pos.append(t)
    seg, pos = np.concatenate(seg), np.concatenate(pos)
    order = np.lexsort((pos, seg))
    return [segs.rule(s, t) for s, t in zip(seg[order].tolist(), pos[order].tolist())]


def _prefix_sums(a: np.ndarray) -> np.ndarray:
    """Cumulative sums of a C-contiguous float64 array along its first
    axis (positions), in place, with an even last axis.

    Every chain is summed term by term from its start, as ``np.cumsum``
    sums it, so the bits are its bits (only the sign of a nan may differ,
    where a chain holds nans of both signs; sums of finite inputs make
    nans of one sign).  ``np.cumsum`` adds one chain at a time, each add
    waiting on the one before.  So a position's row of at least
    ``_SWEEP_LANES`` entries is added into the next row, all chains in
    one call per position, and narrower rows are summed as complex
    pairs, two chains per add."""
    if a[0].size >= _SWEEP_LANES:
        before = a[0]
        for row in a[1:]:
            np.add(before, row, out=row)
            before = row
    else:
        pairs = a.view(np.complex128)
        np.cumsum(pairs, axis=0, out=pairs)
    return a


def _score_table(resid, Q, copies: int = 1) -> np.ndarray:
    """The table that ``_score_candidates`` gathers its blocks from: row
    i holds a slot for ``v``, row i's residual in every copy, its row of
    Q and a zero that makes the width even.  With ``copies`` > 1,
    ``resid`` stacks one residual per copy and Q's first copy is read."""
    n_rows = resid.size // copies
    lanes = 1 + copies + Q.shape[1]
    table = np.zeros((n_rows, lanes + lanes % 2))
    table[:, 1:1 + copies] = resid.reshape(copies, n_rows).T
    table[:, 1 + copies:lanes] = Q[:n_rows]
    return table


def _score_candidates(segs: _Segments, min_leaf: int, table, q: int, which, copies: int = 1):
    """Exact scores of every cut of the segments ``which``, from one
    batched pass, against the residuals and basis (of width ``q``) that
    ``table`` holds (see ``_score_table``).

    Yields one ``_Block`` per block of segments.  A segment's scores do
    not depend on the other segments of its block: per candidate the
    arithmetic is the per-leaf scan's, the same products and the same
    sequential cumulative sums.  With ``copies`` > 1 the table is that
    many copies of one table whose rows share the basis, ``which``
    indexes the first copy, and ``table`` holds one residual per copy:
    ``v``, ``den`` and ``uu`` are summed once and ``num`` once per copy,
    and the blocks hold every copy's segments.

    A block gathers its rows of ``table`` position-major, puts ``v`` in
    the slot and multiplies by ``v``, which gives ``v^2``, ``r v`` and
    ``Q v``, and ``_prefix_sums`` sums them all in one pass.
    """
    n_rows, lanes = table.shape[0], 1 + copies + q
    # copy c's segments and rows follow copy 0's by c times these
    seg_shift = segs.size.size // copies * np.arange(copies)[:, None]
    row_shift = n_rows * np.arange(copies)[:, None, None]
    # per row position: a table row of q + copies + 1 or 2 entries and
    # about six scalars; the cap counts q + 8, one copy's share
    for seg, rows, admissible in _candidate_blocks(segs, min_leaf, q + 8, which):
        v = segs.values(segs.target[seg, None], rows)
        sums = np.take(table, rows.T, axis=0)  # (positions, segments, lanes)
        sums[:, :, 0] = v.T
        sums *= v.T[:, :, None]
        _prefix_sums(sums)
        vQ, uu = sums[:, :, 1 + copies:lanes], sums[:, :, 0]
        # each (t, b) is one run of q along contiguous k, summed as a
        # contiguous (rows x q) array sums its rows
        den = np.einsum("tbk,tbk->tb", vQ, vQ)
        np.subtract(uu, den, out=den)
        uu, den = uu.T.copy(), den.T.copy()
        uu[~admissible] = 0.0
        num = np.ascontiguousarray(sums[:, :, 1:1 + copies].transpose(2, 1, 0))
        num = num.reshape(-1, rows.shape[1])
        del sums, vQ  # free the table block before the tiles and gains
        if copies > 1:
            seg = (seg + seg_shift).ravel()
            rows = (rows + row_shift).reshape(-1, rows.shape[1])
            v, den, uu = (np.tile(a, (copies, 1)) for a in (v, den, uu))
        yield _Block(seg, rows, v, num, den, uu)


def _gains(block: _Block, floor: float):
    """Rss drops ``num^2 / den`` of the admissible cuts (``uu > 0``)
    whose ``den`` exceeds ``floor * uu``, -inf elsewhere; and that mask.
    A drop past the float range reads inf (see ``_Screen``)."""
    good = (block.uu > 0.0) & (block.den > floor * block.uu)
    gains = np.full(block.num.shape, -np.inf)
    np.divide(np.square(block.num), block.den, out=gains, where=good)
    return gains, good


def _downdate(block: _Block, direction: np.ndarray, rq: np.ndarray, kept=None) -> _Block:
    """A block's scores after the last split: that split added the unit
    direction d to the basis and took ``rq = d.r`` (one per block row)
    out of the residual, so ``num`` drops by ``rq * (u.d)`` and ``den``
    by ``(u.d)^2``.  A row mask ``kept`` keeps only those rows; their
    ``num`` and ``den`` are downdated as they are gathered."""
    seg, rows, v, num, den, uu = block
    if kept is not None:
        seg, rows, v, uu, rq = (a[kept] for a in (seg, rows, v, uu, rq))
    c = np.take(direction, rows)
    c *= v
    np.cumsum(c, axis=1, out=c)  # u.d
    if kept is None:
        num = num - rq * c
        den = np.subtract(den, np.square(c, out=c), out=c)
    else:
        num = num[kept]
        num -= rq * c
        den = den[kept]
        den -= np.square(c, out=c)
    return _Block(seg, rows, v, num, den, uu)


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
    exact, for the next step; a segment's scores sit in one home row,
    and a rescore gives it a new one.  ``resid`` and ``Q`` stack the
    residual and basis of every replicate in the table, and ``copies`` >
    1 says that the table is that many copies of one (see
    ``_score_candidates``).
    """

    # Gains past the float range read inf, which ``pick`` refuses; the
    # overflow warning is off while the screen scores, set once per call
    # rather than once per block of ``_gains``.
    @np.errstate(over="ignore")
    def __init__(self, segs: _Segments, min_leaf: int, resid, Q, carry: _Carry | None,
                 copies: int = 1):
        self.segs, self.min_leaf, self.resid, self.Q = segs, min_leaf, resid, Q
        n_segs = segs.size.size
        self.best = np.full(n_segs, -np.inf)  # per segment
        self.exact = np.zeros(n_segs, dtype=bool)
        # segment s's scores and gains sit in row home_row[s] of
        # blocks[home[s]] and gains[home[s]]
        self.blocks, self.gains = [], []
        self.home = np.zeros(n_segs, dtype=np.int64)
        self.home_row = np.zeros(n_segs, dtype=np.int64)
        # the one-copy table that rescores gather from, built at the first
        # rescore
        self.table = None
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
                block = _downdate(block._replace(seg=seg), carry.direction,
                                  carry.rq[segs.rep[seg], None], None if kept.all() else kept)
                good = self._keep(block, exact=False)
                carried[block.seg] = True
                # too close to SCREEN_FLOOR to screen by
                near_floor[block.seg] = ((block.uu > 0.0) & ~good).any(axis=1)
        fresh = np.flatnonzero(~carried[:n_segs // copies])
        if fresh.size:
            table = _score_table(resid, Q, copies)
            for block in _score_candidates(segs, min_leaf, table, Q.shape[1], fresh, copies):
                self._keep(block, exact=True)
        if near_floor.any():
            self.rescore(np.flatnonzero(near_floor))

    def _keep(self, block: _Block, exact: bool):
        gains, good = _gains(block, DEGENERATE_RTOL if exact else SCREEN_FLOOR)
        self.home[block.seg] = len(self.blocks)
        self.home_row[block.seg] = np.arange(block.seg.size)
        self.blocks.append(block)
        self.gains.append(gains)
        self.best[block.seg] = gains.max(axis=1)
        self.exact[block.seg] = exact
        return good

    def _row(self, seg) -> np.ndarray:
        return self.gains[self.home[seg]][self.home_row[seg]]

    @np.errstate(over="ignore")
    def rescore(self, which):
        """Score the screened segments ``which`` exactly: their exact
        rows become their home, in place of the downdated ones."""
        if self.table is None:
            self.table = _score_table(self.resid, self.Q)
        for block in _score_candidates(self.segs, self.min_leaf, self.table, self.Q.shape[1],
                                       which):
            self._keep(block, exact=True)

    def pick(self, lo: int = 0, hi: int | None = None):
        """The candidate of the segments ``lo:hi`` (one replicate's) with
        the highest exact gain, ties going to the first in enumeration
        order, as (seg, pos); None when no candidate is left.  A
        candidate alone within the margin of the best needs no
        rescoring: no other candidate can overtake it."""
        best_of = self.best[lo:hi]
        while (best := best_of.max(initial=-np.inf)) > -np.inf:
            if best == np.inf:
                raise ValidationError(
                    "split gains overflow the float range: rescale y and X "
                    "nearer unit scale")
            floor = best - _SCREEN_RTOL * best
            close = lo + np.flatnonzero(best_of >= floor)
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

    def carry(self, picks, n: int) -> _Carry:
        """What the next step needs: this step's scores, from each
        segment's home row only, and the unit directions that the
        replicates' splits added to their bases, with their products with
        the residuals (see ``_Carry``).  ``picks`` holds the (seg, pos)
        of each split; every replicate has n rows."""
        blocks = []
        for b, block in enumerate(self.blocks):
            home = self.home[block.seg] == b
            if home.all():
                blocks.append(_Block(*map(_frozen, block)))
            elif home.any():
                blocks.append(_Block(*(_frozen(a[home]) for a in block)))
        direction, rq = self._directions(picks, n)
        return _Carry(_frozen(self.segs.keys()), tuple(blocks), direction, rq)

    def _directions(self, picks, n: int):
        """Per replicate, the unit part of its picked cut's left-child
        column orthogonal to its basis, and that part's product with its
        residual, from one two-pass projection over the stacked bases;
        zeros for a replicate that did not split."""
        segs = self.segs
        U = np.zeros(self.resid.size)
        for seg, pos in picks:
            left = segs.rows[segs.start[seg]:segs.start[seg] + pos + 1]
            U[left] = segs.values(segs.target[seg], left)
        width = U.size // n
        U = orthogonal_part(self.Q.reshape(width, n, -1), U.reshape(width, n, 1)).reshape(width, n)
        split = segs.rep[[seg for seg, _ in picks]]
        U[split] /= np.sqrt(np.einsum("wn,wn->w", U[split], U[split]))[:, None]
        rq = np.einsum("wn,wn->w", U, self.resid.reshape(U.shape))
        return _frozen(U.reshape(-1)), _frozen(rq)


def _leaf_column(xj: np.ndarray, leaf_of: np.ndarray, leaf: int, target: int) -> np.ndarray:
    """The design column of one leaf: ``x_j`` on the leaf's rows, 0 elsewhere."""
    mask = leaf_of == leaf
    if not mask.any():
        raise EmptyLeafError(f"leaf {leaf} of the tree for covariate {target} is empty")
    return np.where(mask, xj, 0.0)


def _split_design(design: np.ndarray, X: np.ndarray, trees, i: int, parent: int,
                  leaf_of: np.ndarray, split: CoefficientTree) -> np.ndarray:
    """``build_design`` after tree i's leaf ``parent`` split, giving the
    tree ``split`` and its rows' leaf ids ``leaf_of``: the base design
    without the parent's column, and with the children's at the end of
    tree i's columns."""
    before = 1 + sum(len(tree.leaves) for tree in trees[:i])
    parent_col = before + trees[i].leaves.index(parent)
    tail = before + len(trees[i].leaves)  # the children's columns: tail - 1, tail
    out = np.empty((design.shape[0], design.shape[1] + 1))
    out[:, :parent_col] = design[:, :parent_col]
    out[:, parent_col:tail - 1] = design[:, parent_col + 1:tail]
    for col, leaf in enumerate(split.leaves[-2:], start=tail - 1):
        out[:, col] = _leaf_column(X[:, split.target], leaf_of, leaf, split.target)
    out[:, tail + 1:] = design[:, tail:]
    return out


def _stack(parts) -> np.ndarray:
    """The replicates' arrays end to end, zeros for the inactive (None)
    ones; a single array is itself."""
    if len(parts) == 1:
        return parts[0]
    blank = np.zeros_like(next(part for part in parts if part is not None))
    return np.concatenate([blank if part is None else part for part in parts])


def _grow_splits(dataset: Dataset, Y, order, states, carry: _Carry | None, min_leaf: int,
                 last: bool = False):
    """One greedy step of every replicate j whose ``states[j]`` is not
    None, with response ``Y[j]``, all in lockstep on the covariates of
    ``dataset``.  The group owns ``order``, the stable argsort of X's
    columns, and ``carry``, its last step's scores (None on its first).

    The replicates' segment tables are stacked into one table, with
    replicate j's rows numbered from ``j * n`` in the stacked residuals,
    bases and directions; every replicate has taken as many splits, so
    their bases have one width.  One ``_Screen`` scores them all.  On a
    first step (no carried scores) of more than one replicate they all
    start from the same trees and basis, and share every sum but the
    residual's.  Each replicate then picks, bans and refits its own
    winner.  The last step of the paths (``last``) makes only the rules,
    trees and fits: no next state and no carry.  No step builds a model.

    Returns
    -------
    (grown, carry): per replicate, (SplitRule, trees, LinearFit, next
    _StepState, None on the last step) or None when it is inactive or
    has no admissible split left; and the group's carry for its next
    step, None on the last.
    """
    n, width = dataset.n, len(states)
    active = [j for j, state in enumerate(states) if state is not None]
    resid = _stack([None if state is None else Y[j] - state.fit.fitted
                    for j, state in enumerate(states)])
    segs = _stacked_segments(np.tile(dataset.X.T, (1, width)), min_leaf, order,
                             [(j, states[j].trees, states[j].leaf_of, states[j].grouped)
                              for j in active])
    copies = width if width > 1 and carry is None else 1
    screen = _Screen(segs, min_leaf, resid,
                     _stack([None if state is None else state.Q for state in states]),
                     carry, copies)
    bounds = np.searchsorted(segs.rep, np.arange(width + 1))
    grown, picks = [None] * width, []
    for j in active:
        state = states[j]
        while (picked := screen.pick(bounds[j], bounds[j + 1])) is not None:
            seg, pos = picked
            rule = segs.rule(seg, pos)
            i = int(segs.tree[seg])
            split = state.trees[i].split(rule)
            trees = state.trees[:i] + (split,) + state.trees[i + 1:]
            # only the parent leaf's rows move, to its children left, left + 1
            left = split.n_created - 2
            leaf_of = state.leaf_of.copy()
            rows = np.flatnonzero(leaf_of[i] == rule.parent_leaf)
            leaf_of[i, rows] = np.where(dataset.X[rows, rule.modifier] <= rule.threshold,
                                        left, left + 1)
            design = _split_design(state.design, dataset.X, state.trees, i, rule.parent_leaf,
                                   leaf_of[i], split)
            try:
                fit, Q = solve_least_squares(design, Y[j], return_basis=True)
            except RankDeficientError:
                # Scored as improving but singular on exact refit: drop the
                # candidate and take the next best.
                screen.ban(seg, pos)
                continue
            if last:
                grown[j] = (rule, trees, fit, None)
                break
            picks.append(picked)
            grouped = list(state.grouped)
            grouped[i] = _regroup(grouped[i], order, state.leaf_of[i], leaf_of[i],
                                  rule.parent_leaf, left)
            grown[j] = (rule, trees, fit, _StepState(trees, _frozen(leaf_of), tuple(grouped),
                                                     _frozen(design), fit, Q))
            break
    return grown, None if last else screen.carry(picks, n)


def _start_states(dataset: Dataset, trees, Y):
    """Sort X and fit the current trees to each response of Y (m x n),
    from one factorisation of their design: the group's sort order and
    the states of the paths' first step, as (order, states)."""
    leaf_of = _frozen(_leaf_ids(dataset, trees))
    design = _frozen(build_design(dataset, trees, _leaf_of=leaf_of))
    fits, Q = solve_least_squares(design, Y, return_basis=True)
    order = _frozen(np.argsort(dataset.X, axis=0, kind="stable"))
    grouped = _grouped_orders(order, leaf_of, trees)
    return order, [_StepState(trees, leaf_of, grouped, design, fit, Q) for fit in fits]


def grow_one_split(dataset: Dataset, trees, min_leaf: int = 10):
    """Best one-split refinement of the current trees, searched afresh.

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

    This is the lockstep step of ``fit_paths`` on one response, run
    from scratch: it sorts X, fits ``trees`` and scores every candidate
    exactly, where a step of ``fit_path`` takes all of that over from
    the step before.  Called on its own, it is the fresh search that the
    tests hold every step of ``fit_path`` to, bit for bit.

    Returns
    -------
    (SplitRule, TsvcModel): the winning rule and the model of its
    exact refit.

    Raises
    ------
    NoAdmissibleSplitError
        If no candidate satisfies ``min_leaf`` (or all are degenerate).
    """
    _check_min_leaf(min_leaf)
    Y = dataset.y[None]
    order, states = _start_states(dataset, tuple(trees), Y)
    (grown,), _ = _grow_splits(dataset, Y, order, states, None, min_leaf, last=True)
    if grown is None:
        raise NoAdmissibleSplitError("no admissible split candidate")
    rule, trees, fit, _ = grown
    return rule, TsvcModel.from_fit(trees, fit, dataset.names)


def fit_path(dataset: Dataset, s_max: int, min_leaf: int = 10) -> ModelPath:
    """Greedy nested path of models with 0 .. s_max splits.

    The path may stop early when no admissible split remains.  The
    residual sum of squares never increases along the path.  This is
    ``fit_paths`` on the one response ``dataset.y``: X is sorted once
    per path, and each step's exact refit and candidate scores are the
    next step's base.
    """
    return _lockstep(dataset, dataset.y[None], s_max, min_leaf)[0]


def fit_paths(X, Y, s_max: int, min_leaf: int = 10) -> list[ModelPath]:
    """``fit_path`` for each response row of Y (m x n) on the one
    covariate matrix X: path j equals
    ``fit_path(Dataset.from_arrays(Y[j], X), s_max, min_leaf)``, bit for
    bit.

    The paths advance in lockstep, a group of replicates at a time
    (``_LOCKSTEP_POSITIONS`` bounds a group's memory): they share the sort
    of X, the first step's design, factorisation and candidate sums,
    and each step scores the candidates of all of them in one pass (see
    ``_grow_splits``).  A path with no admissible split left stops while
    the others go on.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[0] < 1:
        raise ValidationError(f"Y must hold one response per row, got shape {Y.shape}")
    dataset = Dataset.from_arrays(Y[0], X)
    if not np.isfinite(Y).all():
        raise ValidationError("y and X must be finite")
    check_response_scale(Y)
    group = max(1, _LOCKSTEP_POSITIONS // (dataset.p ** 2 * dataset.n))
    return [path for lo in range(0, Y.shape[0], group)
            for path in _lockstep(dataset, Y[lo:lo + group], s_max, min_leaf)]


def _lockstep(dataset: Dataset, Y, s_max: int, min_leaf: int) -> list[ModelPath]:
    """The paths of the responses Y on ``dataset``'s covariates, grown in lockstep."""
    if s_max < 0:
        raise ValidationError(f"s_max must be >= 0, got {s_max}")
    _check_min_leaf(min_leaf)
    trees = tuple(CoefficientTree.stump(j) for j in range(dataset.p))
    order, states = _start_states(dataset, trees, Y)
    # per path: its rules, and each step's trees and fit
    paths = [([], [trees], [state.fit]) for state in states]
    carry = None
    for step in range(1, s_max + 1):
        if all(state is None for state in states):
            break
        grown, carry = _grow_splits(dataset, Y, order, states, carry, min_leaf,
                                    last=step == s_max)
        for j, out in enumerate(grown):
            if out is None:
                states[j] = None
                continue
            *made, states[j] = out  # the rule, trees and fit
            for kept, part in zip(paths[j], made):
                kept.append(part)
    return [ModelPath(trees=tuple(steps), fits=tuple(fits), rules=tuple(rules), s_max=s_max,
                      names=dataset.names)
            for rules, steps, fits in paths]
