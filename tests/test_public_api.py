"""The public names: every ``__all__`` entry resolves, and removed helpers
stay removed."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burstfit

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


def test_package_import_loads_no_module_until_a_name_is_used():
    """``import burstfit`` loads none of its modules; a public name or a
    submodule attribute loads its module on first use."""
    src = str(Path(burstfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, burstfit\n"
        "print(sorted(m for m in sys.modules if m.startswith('burstfit.')))\n"
        "burstfit.log_gamma\n"
        "print(sorted(m for m in sys.modules if m.startswith('burstfit.')))\n"
        "names = ('io', 'model', 'simulate', 'likelihood', 'selection', 'special')\n"
        "print(all(getattr(burstfit, m) is sys.modules['burstfit.' + m] for m in names))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "['burstfit.special']", "True"]


# Run in a fresh interpreter: every submodule is imported before any
# package attribute is read, so the package names resolve only after the
# import of burstfit.fit has bound that submodule on the package.
_HOME_CHECK = """
import importlib, sys
submodules = sys.argv[1:]
for name in submodules:
    importlib.import_module(name)
import burstfit
wrong = []
for n in burstfit.__all__:
    homes = [m for m in submodules if n in getattr(sys.modules[m], "__all__", ())]
    if len(homes) != 1 or getattr(burstfit, n) is not getattr(sys.modules[homes[0]], n):
        wrong.append((n, homes))
namespace = {}
exec("from burstfit import *", namespace)
wrong += [n for n in burstfit.__all__ if namespace[n] is not getattr(burstfit, n)]
fit_module = sys.modules["burstfit.fit"]
if burstfit.fit is not fit_module.fit or namespace["fit"] is not fit_module.fit:
    wrong.append("fit")
print(wrong)
"""


def test_public_names_are_their_home_objects():
    """Each ``__all__`` name is the object its one home module defines,
    ``burstfit.fit`` is the function, not the submodule of that name, and
    ``from burstfit import *`` binds the same objects."""
    src = str(Path(burstfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _HOME_CHECK, *MODULES[1:], "burstfit.cli"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
