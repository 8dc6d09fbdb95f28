"""Bayesian information criterion and pairwise variant preference.

A comparison holds only the BICs.  A variant is preferred over another
when its BIC is lower by more than the margin ("very strong" evidence to
Kass & Raftery); inside the margin neither is favored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import _is_int

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
    """log(N) |theta| - 2 * objective, natural log, for integer counts >= 1."""
    if not _is_int(n_data) or n_data < 1:
        raise ValueError("n_data must be at least 1")
    if not _is_int(n_params) or n_params < 1:
        raise ValueError("n_params must be at least 1")
    return math.log(n_data) * n_params - 2.0 * objective_at_optimum


@dataclass(frozen=True)
class ComparisonMatrix:
    """BIC per variant; the pairwise preference follows from it.

    favored(i, j) answers "i_favored", "j_favored" or "no_preference" by
    the margin rule on delta(i, j), so it is antisymmetric exactly, and
    favored(i, i) is "no_preference".  An unknown name raises KeyError.
    """

    bic: dict[str, float]

    def favored(self, variant_i: str, variant_j: str) -> str:
        d = self.delta(variant_i, variant_j)
        if d < -BIC_PREFERENCE_MARGIN:
            return "i_favored"
        if d > BIC_PREFERENCE_MARGIN:
            return "j_favored"
        return "no_preference"

    def delta(self, variant_i: str, variant_j: str) -> float:
        return self.bic[variant_i] - self.bic[variant_j]


def compare(results: dict[str, "FitResult"]) -> ComparisonMatrix:
    """The BICs of fits of the same interval set, to compare pairwise.

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
    return ComparisonMatrix(bic={name: float(res.bic) for name, res in items})
