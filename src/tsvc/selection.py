"""BIC-based post-pruning of a greedy model path.

The greedy path is grown to its full length first; pruning then picks
the split count minimising ``BIC = -2 * log_lik + log(n) * dof`` where
the degrees of freedom come from a pluggable source.  Charging the
true search cost (rather than the raw coefficient count) is what keeps
the criterion honest about adaptively chosen splits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._io import read_csv, write_csv
from .dof import DofSpec
from .errors import DegenerateFitError, ValidationError
from .model import ModelPath


def bic(log_lik: float, dof: float, n) -> float:
    """Bayesian information criterion, ``-2 * log_lik + log(n) * dof``."""
    if not math.isfinite(log_lik):
        raise DegenerateFitError("BIC needs a finite log-likelihood")
    if not math.isfinite(dof) or dof <= 0:
        raise ValidationError(f"dof must be positive and finite, got {dof}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return -2.0 * log_lik + math.log(n) * dof


@dataclass(frozen=True)
class PruneEntry:
    s: int
    dof: float
    log_lik: float
    bic: float
    selected: bool


@dataclass(frozen=True)
class PruneReport:
    """BIC table over a model path and the selected split count."""

    dof_name: str
    entries: tuple[PruneEntry, ...]
    selected_s: int

    def to_csv(self, path=None) -> str:
        return write_csv(["s", "dof", "log_lik", "bic", "selected"],
                         ([e.s, repr(e.dof), repr(e.log_lik), repr(e.bic), int(e.selected)]
                          for e in self.entries), path)

    @classmethod
    def from_csv_text(cls, text: str, dof_name: str = "") -> "PruneReport":
        rows = read_csv(text, {"s": int, "dof": float, "log_lik": float,
                               "bic": float, "selected": int})
        entries = [PruneEntry(**{**r, "selected": bool(r["selected"])}) for r in rows]
        selected = [e.s for e in entries if e.selected]
        if len(selected) != 1:
            raise ValidationError("report must mark exactly one selected row")
        return cls(dof_name=dof_name, entries=tuple(entries), selected_s=selected[0])


def prune_path(path: ModelPath, dof_spec: DofSpec) -> PruneReport:
    """Select the split count with minimal BIC along the path.

    Ties go to the smallest split count.  Every DoF source charges the
    split-free model exactly p + 1, so sources only differ in how they
    price the searched splits.

    Raises
    ------
    MissingDofError
        If the DoF source cannot price some split count on the path.
    DegenerateFitError
        If a step's fit is saturated (infinite log-likelihood).
    """
    if not path.fits:
        raise ValidationError("empty model path")
    p, n = len(path.names), path.fits[0].fitted.size
    rows = []
    best_s = None
    best_bic = math.inf
    for s, fit in enumerate(path.fits):
        dof = dof_spec.dof_for(s, p, n)
        value = bic(fit.log_lik, dof, n)
        rows.append((s, dof, fit.log_lik, value))
        if value < best_bic:
            best_bic = value
            best_s = s
    entries = tuple(
        PruneEntry(s=s, dof=dof, log_lik=ll, bic=b, selected=(s == best_s))
        for s, dof, ll, b in rows
    )
    return PruneReport(dof_name=dof_spec.name, entries=entries, selected_s=best_s)
