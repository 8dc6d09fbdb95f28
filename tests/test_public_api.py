"""The public names: each is defined in one module, whose ``__all__``
lists it, and reached from outside the tests; the package itself
re-exports nothing; removed helpers stay removed."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import burstfit

from burstfit.io import FitResult, LogBinnedHistogram
from burstfit.model import RefractoryKernel, VariantSpec
from burstfit.selection import ComparisonMatrix
from test_readme import _library_example

MODULES = (
    "burstfit.special",
    "burstfit.model",
    "burstfit.simulate",
    "burstfit.likelihood",
    "burstfit.fit",
    "burstfit.selection",
    "burstfit.io",
)

# Every name the package namespace once re-exported and still has a
# caller; each stays importable from its one module.
PUBLIC_NAMES = (
    "BIC_PREFERENCE_MARGIN", "ComparisonMatrix", "EventTrain", "FitConfig", "FitResult",
    "InfeasibleParamsError", "ItiSet", "LogBinnedHistogram", "ModelParams", "ObjectiveValue",
    "PrecisionLossError", "RefractoryKernel", "VARIANTS", "bic", "compare",
    "compute_itis", "default_constraint_grid", "deserialize_fit", "digamma", "fit",
    "gradient", "invert_R", "iti_density", "kummer_1f1", "load_timestamps",
    "log_binned_histogram", "log_gamma", "log_likelihood", "objective", "refractory_eval",
    "refractory_integral", "save_timestamps", "serialize_comparison", "serialize_fit",
    "simulate_continuous", "simulate_discrete",
)

ROOT = Path(__file__).resolve().parents[1]


def _fresh(code: str, *args: str) -> str:
    """stdout of code run in a new interpreter that imports this tree."""
    src = str(Path(burstfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_each_public_name_is_listed_by_exactly_one_module():
    homes: dict[str, list[str]] = {}
    for name in MODULES:
        for n in importlib.import_module(name).__all__:
            homes.setdefault(n, []).append(name)
    assert {n: m for n, m in homes.items() if len(m) != 1} == {}
    assert set(PUBLIC_NAMES) - set(homes) == set()


def test_package_import_loads_no_module_until_a_name_is_used():
    """``import burstfit`` loads none of its modules and binds no public
    name; importing a name loads its module and that module's imports."""
    out = _fresh(
        "import sys, burstfit\n"
        "print(sorted(m for m in sys.modules if m.startswith('burstfit.')))\n"
        "print(sorted(n for n in vars(burstfit) if not n.startswith('__')))\n"
        "from burstfit.special import log_gamma\n"
        "print(sorted(m for m in sys.modules if m.startswith('burstfit.')))\n"
    )
    assert out.split("\n")[:3] == ["[]", "[]", "['burstfit.special']"]


@pytest.mark.parametrize("name", ("burstfit", *MODULES, "burstfit.cli"))
def test_each_module_imports_alone(name):
    """Each module imports first in a new interpreter, so no import
    order hides a cycle."""
    assert _fresh("import importlib, sys; importlib.import_module(sys.argv[1]); print('ok')",
                  name).strip() == "ok"


@pytest.mark.parametrize(
    "module, name",
    [
        ("burstfit.model", "PriorityTransform"),
        ("burstfit.model", "apply_priority_transform"),
        ("burstfit.model", "iti_density_conditional"),
        ("burstfit.model", "free_param_names"),
        ("burstfit.fit", "project"),
        ("burstfit.likelihood", "effective_reg_weight"),
        ("burstfit.model", "iti_tail_asymptote"),
        ("burstfit.special", "log_beta"),
        ("burstfit.model", "params_to_vector"),
        ("burstfit.model", "vector_to_params"),
        ("burstfit.simulate", "discrete_intervals"),
        ("burstfit.io", "fit_log_slope"),
        ("burstfit.fit", "feasible"),
        ("burstfit.simulate", "_check_feasible"),
        ("burstfit.fit", "_basis_feasible"),
        ("burstfit.io", "_open_mode"),
        ("burstfit.simulate", "SimConfig"),
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
        (VariantSpec, "unpack"),
        (ComparisonMatrix, "preference"),
    ],
)
def test_removed_members_stay_removed(cls, name):
    # a dataclass field without a default is no class attribute
    assert not hasattr(cls, name)
    assert name not in getattr(cls, "__dataclass_fields__", {})


def _references(tree: ast.Module) -> set[str]:
    """Names a module reaches, as a name, an attribute or an imported name,
    each top-level statement's own definitions left out."""
    found: set[str] = set()
    for stmt in tree.body:
        own = {getattr(stmt, "name", None)} | {
            t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)
        }
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name not in own:
                found.add(name)
    return found


def test_every_public_name_has_a_caller():
    """Each ``__all__`` name is reached from outside the tests: by the
    package beyond its own definition, by the benchmark harness (not its
    tests), by the README's library example or by a backticked README
    mention.  A name only tests reach is runtime code no user runs."""
    sources = sorted((ROOT / "src" / "burstfit").glob("*.py")) + [
        p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")
    ]
    reached: set[str] = set()
    for path in sources:
        reached |= _references(ast.parse(path.read_text(encoding="utf-8")))
    reached |= _references(ast.parse(_library_example()))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8")):
        reached |= set(re.findall(r"[A-Za-z_]\w*", span))
    public = {n for name in MODULES for n in importlib.import_module(name).__all__}
    unreached = sorted(public - reached)
    assert not unreached, "public names only tests reach: " + ", ".join(unreached)
