"""Bayesian information criterion and pairwise variant preference.

A variant is preferred over another when its BIC is lower by more than
the margin; inside the margin neither is favored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .io import FitResult

__all__ = [
    "BIC_PREFERENCE_MARGIN",
    "ComparisonMatrix",
    "bic",
    "compare",
]

BIC_PREFERENCE_MARGIN = 10.0


def bic(objective_at_optimum: float, n_params: int, n_data: int) -> float:
    """log(N) |theta| - 2 * objective, natural log."""
    if n_data < 1:
        raise ValueError("n_data must be at least 1")
    if n_params < 1:
        raise ValueError("n_params must be at least 1")
    return math.log(n_data) * n_params - 2.0 * objective_at_optimum


@dataclass(frozen=True)
class ComparisonMatrix:
    """BIC per variant plus the pairwise preference relation.

    preference maps each ordered pair (i, j), i != j, to one of
    "i_favored", "j_favored", or "no_preference"; it is antisymmetric by
    construction.
    """

    bic: dict[str, float]
    preference: dict[tuple[str, str], str]

    def favored(self, variant_i: str, variant_j: str) -> str:
        return self.preference[(variant_i, variant_j)]

    def delta(self, variant_i: str, variant_j: str) -> float:
        return self.bic[variant_i] - self.bic[variant_j]


def compare(results: dict[str, "FitResult"]) -> ComparisonMatrix:
    """Pairwise BIC preferences across fits of the same interval set.

    Results fitted on different data (judged by the recorded digest and
    count) are rejected; BIC differences are meaningless across data.
    """
    if not results:
        raise ValueError("nothing to compare")
    items = list(results.items())
    first_name, first = items[0]
    for name, res in items[1:]:
        if res.data_digest != first.data_digest or res.n_data != first.n_data:
            raise ValueError(
                f"fits {first_name!r} and {name!r} were made on different data "
                f"({first.data_digest}/{first.n_data} vs {res.data_digest}/{res.n_data})"
            )
    bics = {name: float(res.bic) for name, res in items}
    preference: dict[tuple[str, str], str] = {}
    for name_i, bic_i in bics.items():
        for name_j, bic_j in bics.items():
            if name_i == name_j:
                continue
            d = bic_i - bic_j
            if d < -BIC_PREFERENCE_MARGIN:
                verdict = "i_favored"
            elif d > BIC_PREFERENCE_MARGIN:
                verdict = "j_favored"
            else:
                verdict = "no_preference"
            preference[(name_i, name_j)] = verdict
    return ComparisonMatrix(bic=bics, preference=preference)
