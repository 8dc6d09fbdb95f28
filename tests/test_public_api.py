"""The public names: every ``__all__`` entry resolves, and removed helpers
stay removed."""

import importlib

import pytest

from burstfit.fit import FitResult
from burstfit.io import LogBinnedHistogram
from burstfit.model import RefractoryKernel, VariantSpec

MODULES = (
    "burstfit",
    "burstfit.special",
    "burstfit.model",
    "burstfit.simulate",
    "burstfit.likelihood",
    "burstfit.fit",
    "burstfit.selection",
    "burstfit.io",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from burstfit import *", namespace)
    package = importlib.import_module("burstfit")
    for n in package.__all__:
        assert namespace[n] is getattr(package, n)


@pytest.mark.parametrize(
    "module, name",
    [
        ("burstfit.model", "PriorityTransform"),
        ("burstfit.model", "apply_priority_transform"),
        ("burstfit.model", "iti_density_conditional"),
        ("burstfit.model", "free_param_names"),
        ("burstfit.fit", "project"),
        ("burstfit.likelihood", "effective_reg_weight"),
    ],
)
def test_removed_helpers_stay_removed(module, name):
    """Helpers no command, fit or sampler reached are not public names."""
    assert not hasattr(importlib.import_module("burstfit"), name)
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize(
    "cls, name",
    [
        (RefractoryKernel, "spacing_ratio"),
        (VariantSpec, "names"),
        (LogBinnedHistogram, "widths"),
        (FitResult, "log_likelihood"),
    ],
)
def test_removed_members_stay_removed(cls, name):
    assert not hasattr(cls, name)
