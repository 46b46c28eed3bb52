"""Tree representation, design expansion, greedy path fitting, JSON."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tsvc.core import Dataset, solve_least_squares
from tsvc.errors import (
    DimensionMismatchError,
    EmptyLeafError,
    NoAdmissibleSplitError,
    RankDeficientError,
    ValidationError,
)
from tsvc.model import (
    CoefficientTree,
    SplitRule,
    model_from_dict,
    model_from_json,
    model_to_json,
    predict,
)
from tsvc.tree import (
    build_design,
    enumerate_candidates,
    fit_path,
    fit_paths,
    grow_one_split,
)


def _dataset(n=40, p=2, seed=0, signal=True):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    if signal:
        y = y * 0.05 + (X[:, 1] > 0.0) * X[:, 0]
    return Dataset.from_arrays(y, X)


def _segments(ds, trees, min_leaf, order, leaf_of):
    """One fit's segment table, as ``enumerate_candidates`` builds it."""
    from tsvc.tree import _stacked_segments
    return _stacked_segments(np.ascontiguousarray(ds.X.T), min_leaf, order, [trees], leaf_of)


# ---------------------------------------------------------------------------
# tree mechanics
# ---------------------------------------------------------------------------

def test_stump_has_single_leaf():
    tree = CoefficientTree.stump(0)
    assert tree.leaves == (0,)
    assert tree.n_splits == 0


def test_split_assigns_creation_order_ids():
    tree = CoefficientTree.stump(0)
    tree = tree.split(SplitRule(target=0, modifier=1, threshold=0.0, parent_leaf=0))
    assert tree.leaves == (1, 2)
    tree = tree.split(SplitRule(target=0, modifier=1, threshold=1.0, parent_leaf=2))
    # leaf 2 is replaced; its children 3 and 4 append at the end
    assert tree.leaves == (1, 3, 4)
    assert tree.n_splits == 2


def test_split_rejects_bad_rules():
    tree = CoefficientTree.stump(0)
    with pytest.raises(ValidationError):
        SplitRule(target=0, modifier=0, threshold=0.0, parent_leaf=0)
    with pytest.raises(ValidationError):
        tree.split(SplitRule(target=1, modifier=0, threshold=0.0, parent_leaf=0))
    with pytest.raises(ValidationError):
        tree.split(SplitRule(target=0, modifier=1, threshold=0.0, parent_leaf=7))


def test_assign_routes_rows_to_leaves():
    tree = CoefficientTree.stump(0)
    tree = tree.split(SplitRule(target=0, modifier=1, threshold=0.0, parent_leaf=0))
    tree = tree.split(SplitRule(target=0, modifier=1, threshold=1.0, parent_leaf=2))
    X = np.array([[9.0, -0.5], [9.0, 0.5], [9.0, 2.0]])
    assert tree.assign(X).tolist() == [1, 3, 4]


def _last_model(path):
    """The model of the path's last step."""
    return path.model_at(len(path.fits) - 1)


def test_every_row_matches_exactly_one_leaf():
    ds = _dataset(n=60, p=3, seed=2)
    path = fit_path(ds, s_max=3, min_leaf=5)
    for tree in path.trees[-1]:
        hits = tree.assign(ds.X)
        assert set(hits.tolist()) <= set(tree.leaves)


# ---------------------------------------------------------------------------
# design expansion
# ---------------------------------------------------------------------------

def test_zero_split_design_is_linear():
    ds = _dataset(n=12, p=2, seed=3, signal=False)
    trees = tuple(CoefficientTree.stump(j) for j in range(2))
    design = build_design(ds, trees)
    np.testing.assert_allclose(design[:, 0], 1.0)
    np.testing.assert_allclose(design[:, 1], ds.X[:, 0])
    np.testing.assert_allclose(design[:, 2], ds.X[:, 1])


def test_one_split_design_row_pattern():
    # split of covariate 0 on covariate 1 at 0; a row with x2 = -1 puts
    # its x1 value in the left-leaf column and 0 in the right one
    X = np.array([[5.0, -1.0], [2.0, 1.0], [1.0, 0.5], [-1.0, -2.0],
                  [0.3, 0.1], [0.7, -0.1]])
    y = np.zeros(6)
    ds = Dataset.from_arrays(y, X)
    t0 = CoefficientTree.stump(0).split(
        SplitRule(target=0, modifier=1, threshold=0.0, parent_leaf=0))
    trees = (t0, CoefficientTree.stump(1))
    design = build_design(ds, trees)
    assert design.shape == (6, 4)
    row = design[0]
    assert row.tolist() == [1.0, 5.0, 0.0, -1.0]


def test_per_covariate_one_nonzero_leaf_column():
    ds = _dataset(n=50, p=2, seed=4)
    path = fit_path(ds, s_max=3, min_leaf=5)
    model = _last_model(path)
    design = build_design(ds, model.trees)
    # columns 1..(1+leaves of tree 0) belong to covariate 0
    width0 = len(model.trees[0].leaves)
    block = design[:, 1:1 + width0]
    nonzero = (block != 0.0).sum(axis=1)
    assert np.all(nonzero[ds.X[:, 0] != 0.0] == 1)


def test_empty_leaf_detected():
    X = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -0.5], [4.0, -1.5],
                  [5.0, -0.2], [6.0, -2.5]])
    ds = Dataset.from_arrays(np.zeros(6), X)
    # threshold above every x2 value leaves the right child empty
    t0 = CoefficientTree.stump(0).split(
        SplitRule(target=0, modifier=1, threshold=5.0, parent_leaf=0))
    with pytest.raises(EmptyLeafError):
        build_design(ds, (t0, CoefficientTree.stump(1)))


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------

_ENUM_X = np.column_stack([[0.1, 0.7, -0.3, 0.9, 0.4, -0.6],
                           [1.0, 2.0, 2.0, 3.0, 3.0, 4.0]])
_ENUM_Y = np.array([0.0, 1.0, 0.0, 1.0, 0.5, -0.5])


def test_candidate_thresholds_are_midpoints():
    # distinct modifier values 1,2,3,4 -> midpoints between neighbours
    ds = Dataset.from_arrays(_ENUM_Y, _ENUM_X)
    trees = tuple(CoefficientTree.stump(j) for j in range(2))
    rules = [r for r in enumerate_candidates(ds, trees, min_leaf=1)
             if r.target == 0]
    assert [r.threshold for r in rules] == [1.5, 2.5, 3.5]


def test_rule_threshold_equals_the_batched_threshold_of_every_cut():
    # the one cut rule of the split search, for picked cuts and the
    # candidate list alike, takes the midpoint, or the lower value where
    # the midpoint of adjacent floats rounds up.  Column x2 holds 1+2^-52
    # and 1+2^-51, whose midpoint rounds up.
    from tsvc.tree import _candidate_blocks

    lo, hi = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
    assert 0.5 * (lo + hi) == hi
    rng = np.random.default_rng(17)
    x2 = np.concatenate([np.linspace(-2.0, 3.0, 9), [lo] * 3, [hi] * 3])
    X = np.column_stack([rng.standard_normal(15), x2, rng.integers(0, 4, 15).astype(float)])
    ds = Dataset.from_arrays(rng.standard_normal(15), X)
    first = CoefficientTree.stump(0).split(
        SplitRule(target=0, modifier=2, threshold=1.5, parent_leaf=0))
    for trees in ((CoefficientTree.stump(0),), (first,)):
        trees += (CoefficientTree.stump(1), CoefficientTree.stump(2))
        order = np.argsort(X, axis=0, kind="stable")
        segs = _segments(ds, trees, 2, order, np.stack([tree.assign(X) for tree in trees]))
        between = 0  # cuts between lo and hi
        for seg, block_rows, admissible in _candidate_blocks(segs, 2, width=3):
            for b, pos in zip(*np.nonzero(admissible)):
                s = int(seg[b])
                rule = segs.rule(s, block_rows[b], int(pos))
                # x <= threshold sends exactly the positions 0..pos left
                rows, (start,) = segs.rows_of(np.array([s]))
                rows = rows[start:start + segs.size[s]]
                left = X[rows, rule.modifier] <= rule.threshold
                assert left.sum() == pos + 1 and left[:pos + 1].all()
                between += rule.modifier == 1 and rule.threshold == lo
        assert between >= 1


def test_min_leaf_filters_candidates():
    # counts per side are 1/5, 3/3, 5/1: only the middle cut survives
    ds = Dataset.from_arrays(_ENUM_Y, _ENUM_X)
    trees = tuple(CoefficientTree.stump(j) for j in range(2))
    rules = [r for r in enumerate_candidates(ds, trees, min_leaf=2)
             if r.target == 0]
    assert [r.threshold for r in rules] == [2.5]


def test_constant_modifier_yields_no_candidates():
    # a constant column is refused by Dataset; here x2 takes two values
    # and tree 0 is split on it, so x2 is constant inside each leaf
    X = np.column_stack([np.linspace(-1, 1, 8), np.repeat([3.0, 7.0], 4)])
    ds = Dataset.from_arrays(np.zeros(8), X)
    t0 = CoefficientTree.stump(0).split(
        SplitRule(target=0, modifier=1, threshold=5.0, parent_leaf=0))
    rules = enumerate_candidates(ds, (t0, CoefficientTree.stump(1)), min_leaf=1)
    assert rules and all(r.modifier != 1 for r in rules)


def test_candidates_sorted_by_enumeration_key():
    ds = _dataset(n=30, p=3, seed=5)
    trees = tuple(CoefficientTree.stump(j) for j in range(3))
    rules = enumerate_candidates(ds, trees, min_leaf=5)
    keys = [(r.target, r.modifier, r.parent_leaf, r.threshold) for r in rules]
    assert keys == sorted(keys)
    assert all(r.target != r.modifier for r in rules)


# ---------------------------------------------------------------------------
# greedy growth
# ---------------------------------------------------------------------------

def test_grow_one_split_finds_planted_split():
    ds = _dataset(n=40, p=2, seed=6)
    base = fit_path(ds, s_max=0, min_leaf=5).model_at(0)
    rule, model = grow_one_split(ds, base.trees, min_leaf=5)
    assert rule.target == 0 and rule.modifier == 1
    x2 = np.sort(ds.X[:, 1])
    below = x2[x2 <= 0.0].max()
    above = x2[x2 > 0.0].min()
    assert below < rule.threshold < above
    assert model.rss <= base.rss + 1e-8


def _oracle_step(ds, trees, min_leaf):
    """Exhaustive search: refit every enumerated candidate exactly and
    keep the first one with the lowest rss (enumeration order breaks
    ties within round-off)."""
    best = None
    for cand in enumerate_candidates(ds, trees, min_leaf=min_leaf):
        refined = list(trees)
        refined[cand.target] = refined[cand.target].split(cand)
        try:
            fit = solve_least_squares(build_design(ds, tuple(refined)), ds.y)
        except RankDeficientError:
            continue
        if best is None or fit.rss < best[0] - 1e-12 * max(1.0, best[0]):
            best = (fit.rss, cand)
    return best


def _key(rule):
    return (rule.target, rule.modifier, rule.parent_leaf, rule.threshold)


def test_grow_one_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for i in range(25):
        n = int(rng.integers(20, 51))
        p = int(rng.integers(2, 4))
        X = rng.standard_normal((n, p))
        y = X @ rng.standard_normal(p) + rng.standard_normal(n)
        ds = Dataset.from_arrays(y, X)
        base = fit_path(ds, s_max=0, min_leaf=4).model_at(0)
        try:
            rule, model = grow_one_split(ds, base.trees, min_leaf=4)
        except NoAdmissibleSplitError:
            continue
        best = _oracle_step(ds, base.trees, min_leaf=4)
        assert _key(rule) == _key(best[1]), f"dataset {i}"
        assert model.rss == pytest.approx(best[0], rel=1e-9, abs=1e-9)


def test_grow_one_split_matches_exhaustive_oracle_after_splits():
    # steps 2 and 3: the trees already hold splits, so segments are
    # leaves of different sizes and the scores must see the wider basis
    rng = np.random.default_rng(17)
    checked = 0
    for i in range(20):
        n = int(rng.integers(40, 91))
        p = int(rng.integers(2, 5))
        X = rng.standard_normal((n, p))
        y = (X @ rng.standard_normal(p) + (X[:, 1] > 0) * X[:, 0]
             + rng.standard_normal(n))
        ds = Dataset.from_arrays(y, X)
        path = fit_path(ds, s_max=2, min_leaf=4)
        for model in map(path.model_at, range(1, len(path.fits))):
            trees = model.trees
            assert any(len(t.leaves) >= 2 for t in trees)
            assert all(
                (t.assign(ds.X) == leaf).sum() >= 2 for t in trees for leaf in t.leaves
            )
            best = _oracle_step(ds, trees, min_leaf=4)
            if best is None:
                with pytest.raises(NoAdmissibleSplitError):
                    grow_one_split(ds, trees, min_leaf=4)
                continue
            rule, grown = grow_one_split(ds, trees, min_leaf=4)
            assert _key(rule) == _key(best[1]), f"dataset {i}, s = {model.s}"
            assert grown.rss == pytest.approx(best[0], rel=1e-9, abs=1e-9)
            checked += 1
    assert checked >= 30


def test_exact_tie_goes_to_the_lower_modifier():
    # x3 = exp(x2) orders the rows exactly as x2 does, so splits on
    # either give the same partitions and bit-equal gains; enumeration
    # order then picks modifier 1 with its own midpoint threshold
    rng = np.random.default_rng(21)
    x1, x2 = rng.standard_normal(60), rng.standard_normal(60)
    X = np.column_stack([x1, x2, np.exp(x2)])
    y = x1 * np.where(x2 > 0.3, 2.0, -1.0) + 0.05 * rng.standard_normal(60)
    ds = Dataset.from_arrays(y, X)
    base = fit_path(ds, s_max=0, min_leaf=5).model_at(0)
    rule, model = grow_one_split(ds, base.trees, min_leaf=5)
    assert (rule.target, rule.modifier) == (0, 1)
    x2_sorted = np.sort(x2)
    below = x2_sorted[x2_sorted <= rule.threshold].max()
    above = x2_sorted[x2_sorted > rule.threshold].min()
    assert rule.threshold == 0.5 * (below + above)
    # the same cut on modifier 2 is also a candidate, with a bit-equal refit
    twin = [r for r in enumerate_candidates(ds, base.trees, min_leaf=5)
            if (r.target, r.modifier) == (0, 2)
            and (np.exp(x2) <= r.threshold).sum() == (x2 <= rule.threshold).sum()]
    assert len(twin) == 1
    refined = (base.trees[0].split(twin[0]),) + base.trees[1:]
    assert solve_least_squares(build_design(ds, refined), ds.y).rss == model.rss


def test_no_admissible_split_when_min_leaf_too_large():
    ds = _dataset(n=10, p=2, seed=8, signal=False)
    base = fit_path(ds, s_max=0, min_leaf=10).model_at(0)
    with pytest.raises(NoAdmissibleSplitError):
        grow_one_split(ds, base.trees, min_leaf=10)


# ---------------------------------------------------------------------------
# path fitting
# ---------------------------------------------------------------------------
# lockstep paths: many responses on one X
# ---------------------------------------------------------------------------

def _assert_same_path(lockstep, alone, label):
    assert lockstep.rules == alone.rules, label
    assert len(lockstep.fits) == len(alone.fits), label
    for s in range(len(alone.fits)):
        a, b = lockstep.model_at(s), alone.model_at(s)
        assert model_to_json(a) == model_to_json(b), label
        assert a.rss == b.rss, label
        assert a.fit.fitted.tobytes() == b.fit.fitted.tobytes(), label
        assert a.fit.coefficients.tobytes() == b.fit.coefficients.tobytes(), label


def test_fit_paths_equal_one_path_per_response():
    # random and tied integer-valued columns over p 2-10, n 30-200 and
    # min_leaf 3-14; some replicates of a group stop before the others
    rng = np.random.default_rng(61)
    seeds = uneven = 0
    while seeds < 20:
        p, n = int(rng.integers(2, 11)), int(rng.integers(30, 201))
        min_leaf = int(rng.integers(3, 15))
        if seeds % 2:
            X = rng.integers(0, 4, size=(n, p)).astype(float)
        else:
            X = rng.standard_normal((n, p))
        try:
            fit_path(Dataset.from_arrays(np.zeros(n), X), s_max=0)
        except (RankDeficientError, ValidationError):
            continue  # a duplicate, constant or collinear draw
        Y = rng.standard_normal((int(rng.integers(2, 7)), n))
        Y[0] += 3.0 * X[:, 0] * (X[:, -1] > np.median(X[:, -1]))
        s_max = int(rng.integers(3, 9))
        paths = fit_paths(X, Y, s_max, min_leaf)
        assert len(paths) == len(Y)
        for j, path in enumerate(paths):
            alone = fit_path(Dataset.from_arrays(Y[j], X), s_max, min_leaf)
            _assert_same_path(path, alone, f"seed {seeds}, replicate {j}")
        uneven += len({len(path.rules) for path in paths}) > 1
        seeds += 1
    assert uneven >= 1


def test_fit_paths_replicates_stop_at_different_steps():
    # one leaf of 2 * 6 rows or more: the planted split of the first
    # response leaves room for more splits than pure noise does
    rng = np.random.default_rng(67)
    X = rng.standard_normal((26, 2))
    Y = rng.standard_normal((4, 26))
    Y[1] = 5.0 * X[:, 0] * (X[:, 1] > 0.0) + 0.1 * Y[1]
    paths = fit_paths(X, Y, s_max=6, min_leaf=6)
    lengths = [len(path.rules) for path in paths]
    assert len(set(lengths)) > 1
    for j, path in enumerate(paths):
        _assert_same_path(path, fit_path(Dataset.from_arrays(Y[j], X), 6, 6), f"replicate {j}")


def test_fit_paths_in_groups_equal_one_group(monkeypatch):
    # a memory cap splits the replicates into lockstep groups of two
    import tsvc.tree as tree_module

    rng = np.random.default_rng(73)
    X = rng.standard_normal((60, 3))
    Y = rng.standard_normal((5, 60))
    whole = fit_paths(X, Y, s_max=5, min_leaf=5)
    monkeypatch.setattr(tree_module, "_LOCKSTEP_POSITIONS", 2 * 3 ** 2 * 60)
    grouped = fit_paths(X, Y, s_max=5, min_leaf=5)
    for j, (a, b) in enumerate(zip(grouped, whole)):
        _assert_same_path(a, b, f"replicate {j}")
        _assert_same_path(a, fit_path(Dataset.from_arrays(Y[j], X), 5, 5), f"replicate {j}")


def _record_scores(monkeypatch):
    """Per greedy step, the scores every segment was kept with: (segment,
    exact, num, den, uu) over the segment's own positions."""
    import tsvc.tree as tree_module

    steps = []
    real_init, real_keep = tree_module._Screen.__init__, tree_module._Screen._keep

    def init(self, *args, **kwargs):
        steps.append([])
        real_init(self, *args, **kwargs)

    def keep(self, block, exact):
        own = self.segs.size[block.seg] - self.min_leaf + 1
        steps[-1].extend((int(seg), exact) + tuple(a[b, :own[b]].tobytes() for a in
                                                   (block.num, block.den, block.uu))
                         for b, seg in enumerate(block.seg))
        return real_keep(self, block, exact)

    monkeypatch.setattr(tree_module._Screen, "__init__", init)
    monkeypatch.setattr(tree_module._Screen, "_keep", keep)
    return steps


@pytest.mark.parametrize("cap", [1, 1 << 12, 1 << 24])
def test_block_composition_leaves_the_paths_unchanged(cap, monkeypatch):
    # a segment's scores do not depend on which segments share its block:
    # one segment per block (cap 1), several blocks of several segments,
    # or one block per step give the default's scores and paths bit for
    # bit, on random, tied and mixed-scale columns, several responses per
    # X so that the first step's copies share one table
    import tsvc.tree as tree_module

    rng = np.random.default_rng(89)
    cases = []
    while len(cases) < 6:
        n, p = int(rng.integers(60, 121)), int(rng.integers(2, 5))
        ds = _random_path_dataset(rng, ("normal", "tied", "mixed")[len(cases) % 3], n, p)
        try:
            fit_path(ds, s_max=0)
        except RankDeficientError:
            continue  # a collinear draw
        X, Y = ds.X, rng.standard_normal((int(rng.integers(2, 5)), n))
        Y[0] += 2.0 * X[:, 0] / np.abs(X[:, 0]).mean() * (X[:, -1] > np.median(X[:, -1]))
        cases.append((X, Y, int(rng.integers(3, 8))))
    scores = _record_scores(monkeypatch)
    default = [fit_paths(X, Y, s_max=6, min_leaf=min_leaf) for X, Y, min_leaf in cases]
    default_scores = scores[:]
    scores.clear()
    monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", cap)
    for c, ((X, Y, min_leaf), paths) in enumerate(zip(cases, default)):
        for j, (a, b) in enumerate(zip(fit_paths(X, Y, s_max=6, min_leaf=min_leaf), paths)):
            _assert_same_path(a, b, f"case {c}, replicate {j}")
    assert [sorted(step) for step in scores] == [sorted(step) for step in default_scores]
    assert sum(len(path.rules) for paths in default for path in paths) >= 60
    assert sum(len(step) for step in scores) >= 500


@pytest.mark.parametrize("cap", [1, 700, 1 << 12, None])
def test_candidate_blocks_hold_at_most_the_cap(cap, monkeypatch):
    # a block holds at most _BLOCK_ELEMENTS entries of a (segments x
    # positions x width) array, or a single segment that alone exceeds
    # it; the blocks cover the segments asked for, each once.  None
    # keeps the default cap, which n = 3000 fills with several segments.
    import tsvc.tree as tree_module
    from tsvc.tree import _candidate_blocks

    if cap is not None:
        monkeypatch.setattr(tree_module, "_BLOCK_ELEMENTS", cap)
    cap = tree_module._BLOCK_ELEMENTS
    rng = np.random.default_rng(97)
    sizes = set()
    for n, p, min_leaf, splits in ((3000, 4, 10, 2), (80, 3, 4, 3), (45, 2, 2, 4)):
        X = rng.standard_normal((n, p))
        X[:, -1] = np.round(X[:, -1])  # a tied modifier
        ds = Dataset.from_arrays(rng.standard_normal(n), X)
        path = fit_path(ds, s_max=splits, min_leaf=min_leaf)
        for trees in (path.trees[0], path.trees[-1]):
            order = np.argsort(X, axis=0, kind="stable")
            segs = _segments(ds, trees, min_leaf, order,
                             np.stack([tree.assign(X) for tree in trees]))
            for which in (None, np.arange(segs.size.size)[::2]):
                for width in (3, 2 + p + 8):
                    seen = []
                    for seg, rows, admissible in _candidate_blocks(segs, min_leaf, width, which):
                        assert rows.shape == admissible.shape == (seg.size, rows.shape[1])
                        entries = seg.size * rows.shape[1] * width
                        assert entries <= cap or seg.size == 1, (n, width, seg.size)
                        seen.extend(seg.tolist())
                        sizes.add(seg.size)
                    want = range(segs.size.size) if which is None else which.tolist()
                    assert sorted(seen) == sorted(want)
    assert max(sizes) > 1 or cap == 1


def test_prefix_sums_are_cumsum_bit_for_bit(monkeypatch):
    # both branches of the prefix pass give np.cumsum's bits along the
    # positions, on the position-major (positions x segments x even
    # width) arrays that a fresh block hands it: the sweep (rows of at
    # least _SWEEP_LANES entries, here every row) and the complex pairs
    # (here no row).  The entries hold signed zeros, infinities,
    # subnormals, values near 1e308 whose sums overflow, and the nan that
    # arithmetic makes.  That is the only nan the search can meet, as
    # its inputs are finite; a chain holding nans of both signs may keep
    # either sign, in np.cumsum as in a sweep.
    import tsvc.tree as tree_module
    from tsvc.tree import _prefix_sums

    with np.errstate(invalid="ignore"):
        made_nan = np.subtract(np.inf, np.inf)
    special = np.array([0.0, -0.0, np.inf, -np.inf, made_nan, 5e-324, -5e-324, 2.2e-308,
                        1.7e308, -1.7e308, 9e307])
    rng = np.random.default_rng(131)
    for lanes in (1, 1 << 62):
        monkeypatch.setattr(tree_module, "_SWEEP_LANES", lanes)
        for width in range(2, 41, 2):
            for positions in (1, 2, 3, 91, 3000):
                a = rng.standard_normal((positions, int(rng.integers(1, 4)), width))
                a *= 10.0 ** rng.integers(-320, 308, a.shape)
                odd = rng.random(a.shape) < 0.1
                a[odd] = rng.choice(special, odd.sum())
                # opposite infinities make nans: invalid is off as well
                with np.errstate(over="ignore", invalid="ignore"):
                    want = np.cumsum(a.transpose(1, 0, 2), axis=1)
                    got = _prefix_sums(a.copy()).transpose(1, 0, 2)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                    (lanes, width, positions)


def test_sweep_width_moves_no_byte(monkeypatch):
    # always sweeping (1), the default, and never sweeping (above any
    # row) give the same scores and paths bit for bit: on a lockstep
    # path group, whose first step sums five copies at once, and on a
    # path of n = 1000, whose rows run to 991 positions.  At the default
    # both branches run.
    import tsvc.tree as tree_module

    rng = np.random.default_rng(137)
    X8 = rng.standard_normal((100, 8))
    Y = rng.standard_normal((5, 100))
    Y[0] += X8[:, 0] * (X8[:, 1] > 0.0)
    long_path = _random_path_dataset(rng, "tied", 1000, 3)
    widths = []
    real_prefix = tree_module._prefix_sums

    def prefix(a):
        widths.append(a[0].size)
        return real_prefix(a)

    monkeypatch.setattr(tree_module, "_prefix_sums", prefix)
    scores = _record_scores(monkeypatch)
    runs, default = [], tree_module._SWEEP_LANES
    for lanes in (1, default, 1 << 62):
        monkeypatch.setattr(tree_module, "_SWEEP_LANES", lanes)
        scores.clear()
        widths.clear()
        paths = fit_paths(X8, Y, s_max=5, min_leaf=10) + [fit_path(long_path, 5, 10)]
        runs.append((paths, [sorted(step) for step in scores]))
        if lanes == default:
            assert min(widths) < lanes <= max(widths)
    (base, base_scores), *others = runs
    for paths, step_scores in others:
        assert step_scores == base_scores
        for j, (a, b) in enumerate(zip(paths, base)):
            _assert_same_path(a, b, f"path {j}")
    assert [len(path.rules) for path in base] == [5] * 6


def test_fit_paths_ban_one_replicate_refit_and_not_the_others(monkeypatch):
    # on mixed-scale columns some winning refits are singular: replicates
    # 0 and 2 ban candidates, 1 and 3 never do, and each still follows
    # its own path
    import tsvc.tree as tree_module

    rng = np.random.default_rng(1)
    X = rng.standard_normal((50, 2)) * np.array([1e-5, 1e5])
    Y = np.stack([np.random.default_rng(seed).standard_normal(50) for seed in (0, 3, 1, 8)])
    banned = []
    real_solve = tree_module.solve_least_squares

    def solve(design, y, **kwargs):
        try:
            return real_solve(design, y, **kwargs)
        except RankDeficientError:
            banned.append(next(j for j in range(len(Y)) if np.array_equal(Y[j], y)))
            raise

    monkeypatch.setattr(tree_module, "solve_least_squares", solve)
    paths = fit_paths(X, Y, s_max=2, min_leaf=3)
    assert set(banned) == {0, 2}
    for j, path in enumerate(paths):
        _assert_same_path(path, fit_path(Dataset.from_arrays(Y[j], X), 2, 3), f"replicate {j}")


def test_fit_paths_checks_its_arguments():
    X = np.random.default_rng(2).standard_normal((30, 2))
    with pytest.raises(ValidationError):
        fit_paths(X, np.zeros(30), s_max=2)
    with pytest.raises(ValidationError):
        fit_paths(X, np.full((2, 30), np.nan), s_max=2)
    with pytest.raises(ValidationError):
        fit_paths(X, np.zeros((2, 30)), s_max=-1)
    with pytest.raises(ValidationError):
        fit_paths(X, np.zeros((2, 31)), s_max=2)


def test_fit_paths_checks_the_scale_of_every_response():
    X = np.random.default_rng(2).standard_normal((30, 2))
    Y = np.random.default_rng(3).standard_normal((3, 30))
    Y[2] *= 1e160
    with pytest.raises(ValidationError, match="sum of squares of y overflows"):
        fit_paths(X, Y, s_max=2)


def test_fit_path_keeps_its_rules_from_a_tiny_to_a_huge_response():
    # n = 80, p = 2: y * 2^-60 lost its rss to an absolute zero floor, and
    # at y * 1e153 the split gains overflow; tier-1 makes their
    # RuntimeWarning an error, so none may be raised on the way
    rng = np.random.default_rng(0)
    X = rng.standard_normal((80, 2))
    y = X[:, 0] * (X[:, 1] > 0) + rng.standard_normal(80)
    path = fit_path(Dataset.from_arrays(y, X), 5, 5)
    tiny = fit_path(Dataset.from_arrays(np.ldexp(y, -60), X), 5, 5)
    assert tiny.rules == path.rules
    for a, b in zip(tiny.fits, path.fits):
        assert a.rss == np.ldexp(b.rss, -120) > 0.0
        assert a.fitted.tobytes() == np.ldexp(b.fitted, -60).tobytes()
    assert fit_path(Dataset.from_arrays(y * 1e152, X), 5, 5).rules == path.rules
    with pytest.raises(ValidationError, match="split gains overflow the float range"):
        fit_path(Dataset.from_arrays(y * 1e153, X), 5, 5)


def test_segment_rows_are_each_leaf_filtered_from_the_sort():
    # rows_of gives every segment its leaf's rows in its modifier's
    # order, numbered from j * n in replicate j: on stumps and on trees of
    # up to 8 splits, with tied modifier values and min_leaf 1, for
    # several stacked replicates (one inactive), asked for all at once or
    # a shuffled half of them
    from tsvc.tree import _stack, _stacked_segments

    rng = np.random.default_rng(113)
    checked = deepest = 0
    for case in range(24):
        n, p, min_leaf = int(rng.integers(12, 61)), int(rng.integers(2, 5)), case % 3 + 1
        X = rng.standard_normal((n, p))
        X[:, -1] = rng.integers(0, 4, n)  # tied modifier values
        order = np.argsort(X, axis=0, kind="stable")
        trees = [fit_path(Dataset.from_arrays(rng.standard_normal(n), X), s_max=s_max,
                          min_leaf=min_leaf).trees[-1]
                 for s_max in (0, 8, 0, int(rng.integers(1, 9)))]
        trees[2] = None  # an inactive replicate
        deepest = max(deepest, sum(len(tree.leaves) - 1 for tree in trees[1]))
        leaf_of = _stack([None if own is None else np.stack([tree.assign(X) for tree in own])
                          for own in trees])
        segs = _stacked_segments(np.tile(X.T, (1, len(trees))), min_leaf, order, trees, leaf_of)
        assert set(segs.rep.tolist()) == {0, 1, 3}
        for which in (np.arange(segs.size.size),
                      rng.permutation(segs.size.size)[:segs.size.size // 2]):
            rows, start = segs.rows_of(which)
            for s, at in zip(which.tolist(), start.tolist()):
                j, i, k = segs.rep[s], segs.tree[s], segs.modifier[s]
                ids = leaf_of[j * p + i]
                want = order[:, k][ids[order[:, k]] == segs.leaf[s]] + j * n
                assert segs.size[s] == want.size >= 2 * min_leaf
                assert np.array_equal(rows[at:at + segs.size[s]], want)
                checked += 1
    assert checked >= 1000 and deepest == 8


def test_step_states_and_path_fits_are_read_only():
    # a step's snapshot and a path's fits are shared, never copied: the
    # solve hands out fits and bases read-only, and a step freezes the rest
    from tsvc.tree import _grow_splits, _start_states

    ds = _dataset(n=80, p=3, seed=10)
    Y = ds.y + np.random.default_rng(3).standard_normal((3, ds.n))
    order, states = _start_states(ds, tuple(CoefficientTree.stump(j) for j in range(ds.p)), Y)
    seen, carry = list(states), None
    for _ in range(3):
        grown, carry = _grow_splits(ds, Y, order, states, carry, min_leaf=5)
        states = [None if out is None else out[-1] for out in grown]
        seen += [state for state in states if state is not None]
    assert len(seen) == 12
    for state in seen:
        for array in [order, state.leaf_of, state.design, state.fit.coefficients,
                      state.fit.fitted, state.Q]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
    for path in [fit_path(ds, s_max=4, min_leaf=5)] + fit_paths(ds.X, Y, s_max=4, min_leaf=5):
        assert len(path.fits) == 5
        for s, fit in enumerate(path.fits):
            assert path.model_at(s).fit is fit
            for array in (fit.coefficients, fit.fitted):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0


# ---------------------------------------------------------------------------

def test_fit_path_smax_zero():
    ds = _dataset(seed=9)
    path = fit_path(ds, s_max=0, min_leaf=5)
    assert len(path.fits) == 1
    assert path.model_at(0).s == 0
    assert path.model_at(0).n_params == ds.p + 1


def test_path_drivers_check_min_leaf_without_a_step():
    # s_max = 0 takes no step, so only the drivers' own check refuses it
    ds = _dataset(seed=9)
    with pytest.raises(ValidationError, match="min_leaf must be >= 1, got 0"):
        fit_path(ds, s_max=0, min_leaf=0)
    with pytest.raises(ValidationError, match="min_leaf must be >= 1, got -4"):
        fit_paths(ds.X, np.stack([ds.y, -ds.y]), 0, -4)
    with pytest.raises(ValidationError, match="min_leaf must be >= 1, got 0"):
        grow_one_split(ds, fit_path(ds, s_max=0).trees[0], min_leaf=0)


def test_fit_path_nesting_and_monotone_deviance():
    ds = _dataset(n=80, p=3, seed=10)
    path = fit_path(ds, s_max=4, min_leaf=5)
    models = [path.model_at(s) for s in range(len(path.fits))]
    assert [m.s for m in models] == list(range(len(models)))
    dev = [f.rss for f in path.fits]
    assert all(dev[i + 1] <= dev[i] + 1e-8 for i in range(len(dev) - 1))
    assert len(path.rules) == len(path.fits) - 1
    for m in models:
        assert m.n_params == ds.p + m.s + 1
        assert m.fit.n_params == m.n_params


def test_fit_path_refinement_one_tree_at_a_time():
    ds = _dataset(n=80, p=3, seed=11)
    path = fit_path(ds, s_max=4, min_leaf=5)
    for prev, cur, rule in zip(path.trees, path.trees[1:], path.rules):
        for j in range(ds.p):
            if j == rule.target:
                old = set(prev[j].leaves)
                new = set(cur[j].leaves)
                assert len(new) == len(old) + 1
                assert rule.parent_leaf in old - new
            else:
                # untouched trees keep their structure; the full refit
                # still updates every coefficient
                assert cur[j].root == prev[j].root
                assert cur[j].leaves == prev[j].leaves


def test_fit_path_stops_early_without_candidates():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((12, 2))
    ds = Dataset.from_arrays(rng.standard_normal(12), X)

    # min_leaf equal to n forbids any split at all
    path = fit_path(ds, s_max=5, min_leaf=12)
    assert len(path.fits) == 1 and path.rules == ()
    assert _last_model(path).s == 0 and path.s_max == 5

    # min_leaf = 6 allows at most one split per tree before every leaf
    # is unsplittable, so the path ends before s_max
    path = fit_path(ds, s_max=5, min_leaf=6)
    assert len(path.rules) <= 2
    assert _last_model(path).s == len(path.rules) < 5


def _carried_state_dataset(kind):
    rng = np.random.default_rng(1)
    if kind == "ties":
        # few distinct values per column: tied modifier values everywhere
        X = rng.integers(0, 6, size=(90, 3)).astype(float)
        y = X[:, 0] * (X[:, 1] > 2) + rng.standard_normal(90)
        return Dataset.from_arrays(y, X), 8, 4
    if kind == "p2":
        X = rng.standard_normal((70, 2))
        y = X[:, 0] * np.where(X[:, 1] > 0.2, 1.5, -0.5) + 0.3 * rng.standard_normal(70)
        return Dataset.from_arrays(y, X), 8, 3
    # mixed scales: the exact refit finds some well-scored winners singular
    X = rng.standard_normal((50, 2)) * np.array([1e-5, 1e5])
    return Dataset.from_arrays(X[:, 1] * 1e-4 + rng.standard_normal(50), X), 8, 3


@pytest.mark.parametrize("kind", ["ties", "p2", "mixed_scale"])
def test_fit_path_carried_state_matches_fresh_steps(kind, monkeypatch):
    # fit_path carries each step's sort, leaf ids, refit and scores to
    # the next; a loop of self-contained steps must give the same bits
    import tsvc.tree as tree_module

    ds, s_max, min_leaf = _carried_state_dataset(kind)
    bans = []
    real_solve = tree_module.solve_least_squares

    def solve(*args, **kwargs):
        try:
            return real_solve(*args, **kwargs)
        except RankDeficientError:
            bans.append(args[0].shape)
            raise

    monkeypatch.setattr(tree_module, "solve_least_squares", solve)
    path = fit_path(ds, s_max=s_max, min_leaf=min_leaf)
    monkeypatch.undo()
    assert len(path.rules) == s_max
    if kind == "mixed_scale":
        assert bans

    trees = tuple(CoefficientTree.stump(j) for j in range(ds.p))
    first = solve_least_squares(build_design(ds, trees), ds.y)
    assert path.fits[0].fitted.tobytes() == first.fitted.tobytes()
    for k in range(s_max):
        rule, model = grow_one_split(ds, trees, min_leaf)
        step = path.model_at(k + 1)
        assert rule == path.rules[k], f"step {k + 1}"
        assert model.trees == step.trees
        assert model.rss == step.rss
        assert model.fit.fitted.tobytes() == step.fit.fitted.tobytes()
        assert model.fit.coefficients.tobytes() == step.fit.coefficients.tobytes()
        trees = model.trees


# ---------------------------------------------------------------------------
# carried scores: downdated gains screen, near-ties are rescored exactly
# ---------------------------------------------------------------------------

def _random_path_dataset(rng, kind, n, p):
    if kind == "normal":
        X = rng.standard_normal((n, p))
    elif kind == "tied":
        # integer values: tied modifier values and exact-tie candidates
        X = rng.integers(0, 5, size=(n, p)).astype(float)
    else:
        X = rng.standard_normal((n, p)) * np.array([1e-5, 1e5, 1.0, 1e-5])[:p]
    unit = X / np.abs(X).mean(axis=0)
    y = unit @ rng.standard_normal(p) + (unit[:, -1] > 0.5) * unit[:, 0] + rng.standard_normal(n)
    return Dataset.from_arrays(y, X)


def _short_paths(seed, count, kinds=("normal", "tied", "mixed")):
    """(dataset, min_leaf) pairs for short paths; X of a draw whose s = 0
    design the rank check refuses is drawn again."""
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        kind = kinds[made % len(kinds)]
        ds = _random_path_dataset(rng, kind, int(rng.integers(30, 61)), int(rng.integers(2, 5)))
        try:
            fit_path(ds, s_max=0)
        except RankDeficientError:
            continue
        made += 1
        yield ds, int(rng.integers(3, 5))


def test_fit_path_matches_exhaustive_oracle_at_every_step():
    # every step of short paths, tied integer columns included: the
    # rule of the carried search is the exhaustive oracle's, and so is
    # its rss.  Tied columns can make two different partitions tie in
    # exact arithmetic; there the oracle's first and the search's pick
    # (decided by last-bit differences of the gains) may differ, and
    # only their rss must agree.
    checked = ties = 0
    for ds, min_leaf in _short_paths(seed=31, count=30):
        path = fit_path(ds, s_max=6, min_leaf=min_leaf)
        for k, trees in enumerate(path.trees):
            best = _oracle_step(ds, trees, min_leaf)
            if k == len(path.rules):
                assert best is None or len(path.rules) == 6
                continue
            assert best is not None
            rule, grown = path.rules[k], path.fits[k + 1]
            if _key(rule) != _key(best[1]):
                ties += 1
                assert grown.rss == pytest.approx(best[0], rel=1e-12)
            assert grown.rss == pytest.approx(best[0], rel=1e-9, abs=1e-9)
            checked += 1
    assert checked >= 150
    assert ties <= checked // 50


# Downdated gains stay within this fraction of the step's best exact
# gain; tree._SCREEN_RTOL rescores near-ties with a margin 1000 times wider.
_DOWNDATE_BOUND = 1e-9


def test_downdated_gains_stay_within_the_bound_of_fresh_gains():
    # after each step of a path, the screen over the carried state holds
    # downdated gains, and one without it scores every segment afresh
    from tsvc.tree import _Screen, _grow_splits, _start_states

    steps = compared = 0
    worst = 0.0
    for ds, min_leaf in _short_paths(seed=41, count=210):
        trees = tuple(CoefficientTree.stump(j) for j in range(ds.p))
        order, (state,) = _start_states(ds, trees, ds.y[None])
        carry = None
        for _ in range(6):
            (grown,), carry = _grow_splits(ds, ds.y[None], order, [state], carry, min_leaf)
            if grown is None:
                break
            *_, state = grown
            trees = state.trees
            segs = _segments(ds, trees, min_leaf, order, state.leaf_of)
            if not segs.size.size:
                break
            resid = ds.y - state.fit.fitted
            carried = _Screen(segs, min_leaf, resid, state.Q, carry)
            fresh = _Screen(segs, min_leaf, resid, state.Q, None)
            best = fresh.best.max()
            for seg in range(segs.size.size):
                screened, exact = carried._row(seg), fresh._row(seg)
                width = min(screened.size, exact.size)
                screened, exact = screened[:width], exact[:width]
                both = np.isfinite(screened) & np.isfinite(exact)
                if both.any():
                    worst = max(worst, np.abs(screened[both] - exact[both]).max() / best)
                    compared += both.sum()
            steps += 1
    assert steps >= 600 and compared >= 100_000
    assert worst <= _DOWNDATE_BOUND


def _check_carries(monkeypatch, grow, *args, **kwargs):
    """Run ``grow(*args, **kwargs)`` and check every step's hand-over:
    the carry holds, once each, the rows of the segments that the next
    step keeps (its replicate split, its leaf did not), every key among
    the next step's segments once, and a rescored segment's row is its
    exact row, downdated by ``_downdate`` with the step's direction, bit
    for bit.
    Returns what ``grow`` returned, the rescored rows compared and the
    replicates that were scored but made no split."""
    import tsvc.tree as tree_module
    from tsvc.tree import _downdate, _score_candidates, _score_table

    steps = []
    real_init, real_rescore = tree_module._Screen.__init__, tree_module._Screen.rescore
    real_carry = tree_module._Screen.carry

    def init(self, *args, **kwargs):
        steps.append({"screen": self, "rescored": set()})
        real_init(self, *args, **kwargs)

    def rescore(self, which):
        steps[-1]["rescored"].update(np.asarray(which).tolist())
        return real_rescore(self, which)

    def carry(self, picks, n):
        direction, rq = self._directions(picks, n)
        blocks = real_carry(self, picks, n)
        steps[-1].update(picks=list(picks), direction=direction, rq=rq, blocks=blocks)
        return blocks

    monkeypatch.setattr(tree_module._Screen, "__init__", init)
    monkeypatch.setattr(tree_module._Screen, "rescore", rescore)
    monkeypatch.setattr(tree_module._Screen, "carry", carry)
    grown = grow(*args, **kwargs)
    monkeypatch.undo()
    compared = idle = 0
    for step, following in zip(steps, steps[1:]):
        screen, blocks = step["screen"], step["blocks"]
        segs, q = screen.segs, screen.Q.shape[1]
        split = {(segs.rep[seg], segs.tree[seg], segs.leaf[seg]) for seg, _ in step["picks"]}
        reps = {rep for rep, _, _ in split}
        idle += len(set(segs.rep.tolist()) - reps)
        kept = np.array([rep in reps and (rep, tree, leaf) not in split
                         for rep, tree, leaf in zip(segs.rep, segs.tree, segs.leaf)], dtype=bool)
        now = segs.keys()
        keys = np.concatenate([now[:0]] + [block.seg for block in blocks])
        assert np.array_equal(np.sort(keys), now[kept])
        assert ((following["screen"].segs.keys()[:, None] == keys).sum(axis=0) == 1).all()
        for seg in sorted(step["rescored"] & set(np.flatnonzero(kept).tolist())):
            table = _score_table(screen.resid, screen.Q)
            (exact,) = _score_candidates(segs, screen.min_leaf, table, q, np.array([seg]))
            want = _downdate(exact, step["direction"], step["rq"][segs.rep[[seg]], None])
            (block,) = [block for block in blocks if now[seg] in block.seg]
            row = np.flatnonzero(block.seg == now[seg])[0]
            width = want.num.shape[1]
            assert block.num[row, :width].tobytes() == want.num[0].tobytes()
            assert block.den[row, :width].tobytes() == want.den[0].tobytes()
            compared += 1
    return grown, compared, idle


def test_carry_holds_each_segment_once_with_its_rescored_scores(monkeypatch):
    # a step hands on each surviving segment's scores, downdated, in one
    # row: a rescore's exact row replaces the screened one
    compared = 0
    for ds, min_leaf in _short_paths(seed=64, count=400, kinds=("tied",)):
        compared += _check_carries(monkeypatch, fit_path, ds, s_max=7, min_leaf=min_leaf)[1]
    assert compared >= 10
    # a lockstep group of tied columns in which a replicate scores its
    # segments but finds no admissible split while the others go on: its
    # segments are not carried
    rng = np.random.default_rng(16)
    X = rng.integers(0, 4, size=(24, 3)).astype(float)
    Y = rng.standard_normal((3, 24))
    paths, _, idle = _check_carries(monkeypatch, fit_paths, X, Y, s_max=6, min_leaf=6)
    assert [len(path.rules) for path in paths] == [6, 4, 5]
    assert idle >= 1


def _count_rescored(monkeypatch):
    """Segments rescored exactly, one list entry per greedy step."""
    import tsvc.tree as tree_module

    per_step = []
    real_init, real_rescore = tree_module._Screen.__init__, tree_module._Screen.rescore

    def init(self, *args, **kwargs):
        per_step.append(0)
        real_init(self, *args, **kwargs)

    def rescore(self, which):
        per_step[-1] += len(which)
        return real_rescore(self, which)

    monkeypatch.setattr(tree_module._Screen, "__init__", init)
    monkeypatch.setattr(tree_module._Screen, "rescore", rescore)
    return per_step


def test_few_segments_are_rescored(monkeypatch):

    per_step = _count_rescored(monkeypatch)
    rescored, segments = [], []
    for ds, min_leaf in _short_paths(seed=51, count=30):
        path = fit_path(ds, s_max=6, min_leaf=min_leaf)
        # the first step of a path scores every segment in full
        rescored.extend(per_step[1:len(path.fits)])
        for trees in path.trees[1:]:
            order = np.argsort(ds.X, axis=0, kind="stable")
            leaf_of = np.stack([t.assign(ds.X) for t in trees])
            segments.append(_segments(ds, trees, min_leaf, order, leaf_of).size.size)
        per_step.clear()
    assert np.median(rescored) <= 0.1 * np.median(segments)
    assert np.mean(rescored) <= 0.2 * np.mean(segments)


def test_a_screen_builds_each_score_table_at_most_once(monkeypatch):
    # a screen's rescores all gather from one one-copy table, built at
    # the first of them, however many follow
    import tsvc.tree as tree_module

    events = []
    real_init, real_rescore = tree_module._Screen.__init__, tree_module._Screen.rescore
    real_table = tree_module._score_table

    def init(self, *args, **kwargs):
        events.append(["screen"])
        real_init(self, *args, **kwargs)

    def rescore(self, which):
        events[-1].append("rescore")
        return real_rescore(self, which)

    def table(resid, Q, copies=1):
        events[-1].append(f"table x{copies}")
        return real_table(resid, Q, copies)

    monkeypatch.setattr(tree_module._Screen, "__init__", init)
    monkeypatch.setattr(tree_module._Screen, "rescore", rescore)
    monkeypatch.setattr(tree_module, "_score_table", table)
    # x3 and x4 order the rows as x0 and x1 do: their cuts tie exactly
    rng = np.random.default_rng(23)
    X = rng.standard_normal((120, 5))
    X[:, 3], X[:, 4] = X[:, 0] ** 3, np.exp(X[:, 1])
    fit_paths(X, rng.standard_normal((6, 120)), s_max=4, min_leaf=5)
    # every step scores the leaves of its splits afresh, the first all six copies
    assert [screen[:2] for screen in events] == [["screen", "table x6"]] + [
        ["screen", "table x1"]] * 3
    for screen in events:
        rescores = screen.count("rescore")
        assert screen[2:] == (["rescore", "table x1"] + ["rescore"] * (rescores - 1)
                              if rescores else [])
    assert sum(screen.count("rescore") for screen in events) >= 8


def test_exact_tie_after_a_first_split_goes_to_the_lower_modifier(monkeypatch):
    # x3 = exp(x2) orders the rows as x2 does.  The first split refines
    # the tree of x4 on x1; the second refines x1's tree on x2 or x3,
    # whose carried scores downdate to bit-equal gains.  Both twins are
    # rescored exactly, and enumeration order picks modifier 1.
    rng = np.random.default_rng(23)
    x1, x2, x4 = (rng.standard_normal(80) for _ in range(3))
    X = np.column_stack([x1, x2, np.exp(x2), x4])
    y = (4.0 * x4 * np.where(x1 > 0.0, 1.0, -1.0) + x1 * np.where(x2 > 0.3, 2.0, -1.0)
         + 0.05 * rng.standard_normal(80))
    ds = Dataset.from_arrays(y, X)
    per_step = _count_rescored(monkeypatch)
    path = fit_path(ds, s_max=2, min_leaf=5)
    assert (path.rules[0].target, path.rules[0].modifier) == (3, 0)
    rule = path.rules[1]
    assert (rule.target, rule.modifier) == (0, 1)
    assert per_step[1] >= 2
    x2_sorted = np.sort(x2)
    below = x2_sorted[x2_sorted <= rule.threshold].max()
    above = x2_sorted[x2_sorted > rule.threshold].min()
    assert rule.threshold == 0.5 * (below + above)
    trees = path.trees[1]
    twin = [r for r in enumerate_candidates(ds, trees, min_leaf=5)
            if (r.target, r.modifier) == (0, 2)
            and (np.exp(x2) <= r.threshold).sum() == (x2 <= rule.threshold).sum()]
    assert len(twin) == 1
    refined = (trees[0].split(twin[0]),) + trees[1:]
    assert solve_least_squares(build_design(ds, refined), ds.y).rss == path.fits[2].rss


def test_degenerate_candidates_are_rescored_not_screened(monkeypatch):
    # x1 is zero above the median of x2: a cut on x2 there leaves all
    # of x1's leaf column on the left, which the basis already spans.
    # The first split refines x1's tree on x3; from the third step on,
    # its leaves' segments on x2 are carried, downdate to a denominator
    # near zero and are rescored every step, and the path equals fresh
    # steps.
    rng = np.random.default_rng(29)
    x2, x3 = rng.standard_normal(60), rng.standard_normal(60)
    x1 = np.where(x2 > np.median(x2), 0.0, rng.standard_normal(60))
    X = np.column_stack([x1, x2, x3])
    y = x1 * np.where(x3 > 0.0, 2.0, -1.0) + x3 * (x2 > 0.5) + 0.1 * rng.standard_normal(60)
    ds = Dataset.from_arrays(y, X)
    per_step = _count_rescored(monkeypatch)
    path = fit_path(ds, s_max=5, min_leaf=4)
    assert len(path.rules) == 5
    assert (path.rules[0].target, path.rules[0].modifier) == (0, 2)
    assert all(count >= 1 for count in per_step[2:])
    monkeypatch.undo()
    trees = path.trees[0]
    for k, rule in enumerate(path.rules):
        fresh_rule, model = grow_one_split(ds, trees, min_leaf=4)
        assert fresh_rule == rule, f"step {k + 1}"
        assert model.fit.fitted.tobytes() == path.fits[k + 1].fitted.tobytes()
        trees = model.trees


def test_model_at_and_missing_s():
    ds = _dataset(seed=12)
    path = fit_path(ds, s_max=2, min_leaf=5)
    assert path.model_at(1).s == 1
    # an index past either end names no step: -1 is not the last one
    for s in (99, -1, len(path.fits)):
        with pytest.raises(ValidationError, match=f"path has no model with {s} splits"):
            path.model_at(s)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

def test_predict_zero_split_equals_linear():
    ds = _dataset(n=30, p=2, seed=13, signal=False)
    model = fit_path(ds, s_max=0, min_leaf=5).model_at(0)
    fit = solve_least_squares(np.column_stack([np.ones(ds.n), ds.X]), ds.y)
    np.testing.assert_allclose(predict(model, ds.X), fit.fitted, atol=1e-10)


def test_predict_hand_evaluated_piecewise_coefficient():
    ds = _dataset(n=40, p=2, seed=14)
    t0 = CoefficientTree.stump(0).split(
        SplitRule(target=0, modifier=1, threshold=0.0, parent_leaf=0))
    t0 = replace(t0, coefficients=(2.0, 5.0))  # leaf 1: x2 <= 0, leaf 2: x2 > 0
    t1 = replace(CoefficientTree.stump(1), coefficients=(0.0,))
    model = fit_path(ds, s_max=0, min_leaf=5).model_at(0)
    hand = type(model)(intercept=0.0, trees=(t0, t1), s=1, n=ds.n, p=2,
                       names=ds.names, rss=1.0)
    assert predict(hand, np.array([[1.0, -1.0]]))[0] == pytest.approx(2.0)
    assert predict(hand, np.array([[1.0, 3.0]]))[0] == pytest.approx(5.0)


def test_predict_on_training_matches_fitted():
    ds = _dataset(n=60, p=3, seed=15)
    path = fit_path(ds, s_max=3, min_leaf=5)
    for model in map(path.model_at, range(len(path.fits))):
        np.testing.assert_allclose(predict(model, ds.X), model.fit.fitted,
                                   atol=1e-10)


def test_predict_checks_width():
    ds = _dataset(seed=16)
    model = _last_model(fit_path(ds, s_max=1, min_leaf=5))
    with pytest.raises(DimensionMismatchError):
        predict(model, np.ones((3, 5)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_is_stable():
    ds = _dataset(n=70, p=3, seed=17)
    model = _last_model(fit_path(ds, s_max=3, min_leaf=5))
    text = model_to_json(model)
    clone = model_from_json(text)
    assert model_to_json(clone) == text
    np.testing.assert_allclose(predict(clone, ds.X), predict(model, ds.X),
                               atol=1e-12)
    doc = json.loads(text)
    for key in ("intercept", "s", "n", "p", "rss", "names", "trees"):
        assert key in doc


def test_json_leaf_ids_must_match_the_tree():
    ds = _dataset(n=70, p=3, seed=17)
    doc = json.loads(model_to_json(_last_model(fit_path(ds, s_max=3, min_leaf=5))))
    tree = next(t for t in doc["trees"] if len(t["leaves"]) > 1)
    tree["leaves"][0]["id"] += 100
    with pytest.raises(ValidationError, match="differ from the leaves of its root"):
        model_from_json(json.dumps(doc))


def _split_root(doc):
    return next(t for t in doc["trees"] if len(t["leaves"]) > 1)["root"]


# documents that describe no model: once loaded, predict would index a
# missing column, read one column twice or give NaN, n_params would be
# wrong, or sigma2_hat would divide by zero or be negative
_JSON_DEFECTS = {
    "target_out_of_range": (lambda doc: doc["trees"][0].update(target=7),
                            r"trees are for covariates \[1, 2, 7\]"),
    "modifier_out_of_range": (lambda doc: _split_root(doc).update(modifier=9),
                              r"splits on \[.*9\]"),
    "target_twice": (lambda doc: doc["trees"][2].update(target=0),
                     r"trees are for covariates \[0, 0, 1\]"),
    "s_not_the_splits": (lambda doc: doc.update(s=0), "s = 0, but the trees hold 3 splits"),
    "names_too_few": (lambda doc: doc.update(names=["a"]),
                      r"names = \['a'\], but a model with p = 3 has 3 distinct names"),
    "names_repeated": (lambda doc: doc.update(names=["a", "b", "a"]), "3 distinct names"),
    "names_not_strings": (lambda doc: doc.update(names=[1, 2, 3]), "3 distinct names"),
    "intercept_nan": (lambda doc: doc.update(intercept="nan"), "intercept = nan is not finite"),
    "coefficient_nan": (lambda doc: doc["trees"][0]["leaves"][0].update(coefficient="nan"),
                        "tree for covariate 0: a coefficient or threshold is not finite"),
    "threshold_nan": (lambda doc: _split_root(doc).update(threshold="nan"),
                      "a coefficient or threshold is not finite"),
    "rss_nan": (lambda doc: doc.update(rss="nan"), "rss = nan, but a residual sum of squares"),
    "rss_negative": (lambda doc: doc.update(rss=-1.0), r"rss = -1\.0, but"),
    "n_zero": (lambda doc: doc.update(n=0), "n = 0, but a model is fitted to n >= 1 rows"),
}


@pytest.mark.parametrize("defect", sorted(_JSON_DEFECTS))
def test_json_must_describe_a_model(defect):
    ds = _dataset(n=70, p=3, seed=17)
    doc = json.loads(model_to_json(_last_model(fit_path(ds, s_max=3, min_leaf=5))))
    corrupt, match = _JSON_DEFECTS[defect]
    corrupt(doc)
    with pytest.raises(ValidationError, match=match):
        model_from_json(json.dumps(doc))


def _without(doc, node, key):
    del node[key]
    return json.dumps(doc)


def _deep_chain(doc, depth=5_000):
    """``doc`` with a first tree that is a chain of ``depth`` splits."""
    node = {"kind": "leaf", "id": 0}
    for k in range(depth):
        node = {"kind": "split", "modifier": 1, "threshold": 0.0, "left": node,
                "right": {"kind": "leaf", "id": k + 1}}
    doc["trees"][0]["root"] = node
    return doc


# model JSON comes from outside the program: a document of the wrong
# shape is a ValidationError, not a KeyError, TypeError, JSONDecodeError
# or RecursionError; a case that gives a dict goes to model_from_dict
_JSON_MALFORMED = {
    "no_trees": (lambda doc: '{"p": 2}', r"not a model document \(KeyError: 'trees'\)"),
    "tree_without_root": (lambda doc: _without(doc, doc["trees"][0], "root"),
                          r"not a model document \(KeyError: 'root'\)"),
    "not_an_object": (lambda doc: "[]", r"not a model document \(TypeError: "),
    "split_without_modifier": (lambda doc: _without(doc, _split_root(doc), "modifier"),
                               r"not a model document \(KeyError: 'modifier'\)"),
    "not_json": (lambda doc: "not json", "model JSON does not parse: Expecting value"),
    "nested_too_deep": (lambda doc: "[" * 100_000,
                        "model JSON does not parse: maximum recursion depth"),
    "split_chain_too_deep": (_deep_chain, r"not a model document \(RecursionError: "),
}


@pytest.mark.parametrize("case", sorted(_JSON_MALFORMED))
def test_malformed_json_raises_validation_error(case):
    ds = _dataset(n=70, p=3, seed=17)
    doc = json.loads(model_to_json(_last_model(fit_path(ds, s_max=3, min_leaf=5))))
    make, match = _JSON_MALFORMED[case]
    document = make(doc)
    load = model_from_json if isinstance(document, str) else model_from_dict
    with pytest.raises(ValidationError, match=match):
        load(document)
