"""The fitted tree-structured varying-coefficient model and its JSON form.

The predictor is ``eta(x) = b0 + sum_j beta_j(x) * x_j`` where each
coefficient function ``beta_j`` is piecewise constant over a binary
tree whose split rules test the *other* covariates (the effect
modifiers).  A model with s splits spends ``p + s + 1`` coefficients:
the intercept plus one coefficient per leaf across all p trees.

This module holds the trees, the models and paths that ``tree`` grows,
the one place a least-squares fit becomes a model, prediction, and the
JSON document a model is saved as.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LinearFit
from .errors import DimensionMismatchError, ValidationError


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

    @classmethod
    def from_fit(cls, trees, fit: LinearFit, names) -> "TsvcModel":
        """The model of ``fit``, a least-squares fit of the trees' design:
        its coefficients go onto the trees in design-column order, the
        intercept first, then each tree's leaves in creation order (see
        ``tree.build_design``)."""
        values = fit.coefficients.tolist()
        fitted_trees, at = [], 1
        for tree in trees:
            width = len(tree.leaves)
            fitted_trees.append(replace(tree, coefficients=tuple(values[at:at + width])))
            at += width
        return cls(intercept=values[0], trees=tuple(fitted_trees),
                   s=sum(tree.n_splits for tree in trees), n=fit.fitted.size, p=len(trees),
                   names=names, rss=fit.rss, fit=fit)


@dataclass(frozen=True)
class ModelPath:
    """Nested greedy path M0 .. Ms as the search made it: step s holds
    exactly s splits, its trees ``trees[s]`` and their least-squares fit
    ``fits[s]``; ``rules[s]`` is the split that leads from step s to
    step s + 1.  ``model_at`` builds a step's model when asked."""

    trees: tuple[tuple[CoefficientTree, ...], ...]
    fits: tuple[LinearFit, ...]
    rules: tuple[SplitRule, ...]
    s_max: int
    names: tuple[str, ...]

    def model_at(self, s: int) -> TsvcModel:
        if not 0 <= s < len(self.fits):
            raise ValidationError(f"path has no model with {s} splits")
        return TsvcModel.from_fit(self.trees[s], self.fits[s], self.names)


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


def _nodes(node):
    """The nodes of a tree, depth first."""
    yield node
    if isinstance(node, SplitNode):
        yield from _nodes(node.left)
        yield from _nodes(node.right)


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
    """Rebuild a model from ``model_to_dict``'s document, checking that
    it describes one: one tree per covariate, splits on the other
    covariates, leaves that match the tree, ``s`` splits in all, p
    distinct names, n >= 1, finite numbers and a nonnegative ``rss``.  A
    document of another shape raises ValidationError as well."""
    try:
        p = int(doc["p"])
        trees = []
        for tdoc in doc["trees"]:
            target = int(tdoc["target"])
            root = _node_from_dict(tdoc["root"])
            leaves = tuple(int(item["id"]) for item in tdoc["leaves"])
            coefficients = tuple(float(item["coefficient"]) for item in tdoc["leaves"])
            nodes = list(_nodes(root))
            root_leaves = sorted(node.leaf_id for node in nodes if isinstance(node, LeafNode))
            if sorted(leaves) != root_leaves:
                raise ValidationError(
                    f"tree for covariate {target}: leaves {sorted(leaves)} differ "
                    f"from the leaves of its root {root_leaves}"
                )
            modifiers = sorted({node.modifier for node in nodes if isinstance(node, SplitNode)})
            if any(k == target or not 0 <= k < p for k in modifiers):
                raise ValidationError(
                    f"tree for covariate {target}: splits on {modifiers}, but only "
                    f"the other covariates of 0..{p - 1} can modify it"
                )
            thresholds = tuple(node.threshold for node in nodes if isinstance(node, SplitNode))
            if not all(map(math.isfinite, coefficients + thresholds)):
                raise ValidationError(f"tree for covariate {target}: a coefficient or "
                                      f"threshold is not finite")
            trees.append(CoefficientTree(target=target, root=root, leaves=leaves,
                                         n_created=max(leaves) + 1, coefficients=coefficients))
        targets = sorted(tree.target for tree in trees)
        if targets != list(range(p)):
            raise ValidationError(
                f"trees are for covariates {targets}, but a model with p = {p} "
                f"has one tree for each of 0..{p - 1}"
            )
        s = int(doc["s"])
        splits = sum(tree.n_splits for tree in trees)
        if s != splits:
            raise ValidationError(f"s = {s}, but the trees hold {splits} splits")
        names = doc["names"]
        if (not isinstance(names, list) or len(names) != p
                or not all(isinstance(name, str) for name in names) or len(set(names)) != p):
            raise ValidationError(f"names = {names!r}, but a model with p = {p} has "
                                  f"{p} distinct names")
        n, intercept, rss = int(doc["n"]), float(doc["intercept"]), float(doc["rss"])
        if n < 1:
            raise ValidationError(f"n = {n}, but a model is fitted to n >= 1 rows")
        if not math.isfinite(intercept):
            raise ValidationError(f"intercept = {intercept!r} is not finite")
        if not (math.isfinite(rss) and rss >= 0.0):
            raise ValidationError(f"rss = {rss!r}, but a residual sum of squares is "
                                  f"finite and >= 0")
        return TsvcModel(intercept=intercept, trees=tuple(trees), s=s, n=n, p=p,
                         names=tuple(names), rss=rss, fit=None)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ValidationError(f"not a model document ({type(exc).__name__}: {exc})") from exc


def model_to_json(model: TsvcModel, indent: int = 2) -> str:
    return json.dumps(model_to_dict(model), indent=indent)


def model_from_json(text: str) -> TsvcModel:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"model JSON does not parse: {exc}") from exc
    return model_from_dict(doc)
