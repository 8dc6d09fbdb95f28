"""Tests for BIC computation and pairwise variant preference."""

import dataclasses
import math

import pytest

from burstfit.fit import FitResult
from burstfit.likelihood import ObjectiveValue
from burstfit.model import ModelParams
from burstfit.selection import BIC_PREFERENCE_MARGIN, bic, compare


def _result(objective: float, n_params: int, n_data: int = 5000, digest: str = "feedc0de") -> FitResult:
    value = ObjectiveValue(
        log_likelihood=objective, penalty=0.0, objective=objective
    )
    params = ModelParams(a=0.7, b=1.0, c=0.0)
    return FitResult(
        params_star=params,
        objective_trace=(value,),
        converged=True,
        reason="gradient tolerance",
        n_projections=0,
        bic=bic(objective, n_params, n_data),
        n_data=n_data,
        data_digest=digest,
    )


def test_bic_formula():
    assert bic(0.0, 2, 100) == pytest.approx(2 * math.log(100))
    assert bic(-1234.5, 3, 1000) == pytest.approx(3 * math.log(1000) + 2469.0)
    # one data point costs nothing in the complexity term
    assert bic(5.0, 4, 1) == pytest.approx(-10.0)


def test_bic_rejects_degenerate_counts():
    with pytest.raises(ValueError):
        bic(0.0, 2, 0)
    with pytest.raises(ValueError):
        bic(0.0, 0, 100)


def test_compare_preferences_and_margin():
    # (n_params, objective) chosen so the BIC gaps straddle the margin
    results = {
        "M1": _result(-1000.0, 2),
        "M2": _result(-980.0, 3),
        "M3": _result(-999.0, 10),
    }
    matrix = compare(results)
    assert set(matrix.bic) == {"M1", "M2", "M3"}
    # M2 gains 40 in fit at a cost of one parameter: clearly favored
    assert matrix.favored("M2", "M1") == "i_favored"
    assert matrix.favored("M1", "M2") == "j_favored"
    assert matrix.delta("M2", "M1") == pytest.approx(-matrix.delta("M1", "M2"))
    # M3 pays eight extra parameters for 2 nats: penalized
    assert matrix.favored("M1", "M3") == "i_favored"


def test_compare_no_preference_band():
    results = {
        "A": _result(-1000.0, 2),
        "B": _result(-1000.0 + BIC_PREFERENCE_MARGIN / 4.0, 2),
    }
    matrix = compare(results)
    assert abs(matrix.delta("A", "B")) < BIC_PREFERENCE_MARGIN
    assert matrix.favored("A", "B") == "no_preference"
    assert matrix.favored("B", "A") == "no_preference"


def test_favored_follows_the_bics_alone():
    matrix = compare({"A": _result(-1000.0, 2), "B": _result(-900.0, 2)})
    # a variant against itself has delta 0
    assert matrix.favored("A", "A") == "no_preference"
    with pytest.raises(KeyError):
        matrix.favored("A", "C")
    assert [f.name for f in dataclasses.fields(matrix)] == ["bic"]


def test_compare_is_antisymmetric_on_a_grid():
    objectives = [-1000.0, -996.0, -950.0, -900.0]
    results = {f"V{i}": _result(obj, 2 + i) for i, obj in enumerate(objectives)}
    matrix = compare(results)
    flip = {"i_favored": "j_favored", "j_favored": "i_favored", "no_preference": "no_preference"}
    for i in matrix.bic:
        for j in matrix.bic:
            if i != j:
                assert matrix.favored(j, i) == flip[matrix.favored(i, j)]


def test_compare_rejects_results_from_different_data():
    results = {
        "M1": _result(-1000.0, 2, digest="feedc0de"),
        "M2": _result(-990.0, 3, digest="0ddba11d"),
    }
    with pytest.raises(ValueError, match="different data"):
        compare(results)
    results = {
        "M1": _result(-1000.0, 2, n_data=5000),
        "M2": _result(-990.0, 3, n_data=4999),
    }
    with pytest.raises(ValueError, match="different data"):
        compare(results)


def test_compare_rejects_empty():
    with pytest.raises(ValueError):
        compare({})
