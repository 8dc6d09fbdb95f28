"""The public names: each is defined in one module, whose ``__all__``
lists it, and reached from outside the tests; the package itself
re-exports nothing; removed helpers stay removed; every import in the
package and its tests is used; every scalar a caller passes is judged
by one rule."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import burstfit

from burstfit.io import FitResult, LogBinnedHistogram, log_binned_histogram
from burstfit.likelihood import ItiSet
from burstfit.model import ModelParams, RefractoryKernel, VariantSpec
from burstfit.selection import ComparisonMatrix, bic
from burstfit.special import digamma, kummer_1f1
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
    "log_binned_histogram", "log_likelihood", "objective", "refractory_eval",
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
        "from burstfit.special import digamma\n"
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
        ("burstfit.special", "log_gamma"),
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


def _import_scopes(tree: ast.Module):
    """(scope, names its own import statements bind) for the module and
    each function in it; an import inside a function binds in that
    function, so it must be used there."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, functions))]:
        todo, bound = list(ast.iter_child_nodes(scope)), []
        while todo:
            node = todo.pop()
            if isinstance(node, functions):
                continue
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
            todo.extend(ast.iter_child_nodes(node))
        yield scope, bound


def _used_names(scope: ast.AST) -> set[str]:
    """Names a scope reads, counting those inside a string annotation."""
    used, annotations = set(), []
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations += filter(None, (getattr(node, "annotation", None), getattr(node, "returns", None)))
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", sorted([*(ROOT / "src" / "burstfit").glob("*.py"),
                                          *(ROOT / "tests").glob("*.py")]), ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name an import binds is read in the scope it is bound in, in
    the package and in its tests: a fold that leaves an import behind
    fails here."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set().union(*(set(bound) - _used_names(scope)
                                  for scope, bound in _import_scopes(tree))))
    assert not unused, "imported but never used: " + ", ".join(unused)


# Every public entry that takes a caller's scalar: (a call with the
# scalar, the start of its refusal, whether it takes any real number or
# an integer only).
_SCALAR_ENTRIES = {
    "ModelParams.a": (lambda v: ModelParams(a=v, b=1.0, c=0.0), "a must", True),
    "ModelParams.b": (lambda v: ModelParams(a=1.0, b=v, c=0.0, variant="M2"), "b must", True),
    "ModelParams.c": (lambda v: ModelParams(a=1.0, b=1.0, c=v), "c must", True),
    "RefractoryKernel.gamma": (lambda v: RefractoryKernel((v,), (20.0,)), "kernel amplitudes", True),
    "RefractoryKernel.alpha": (lambda v: RefractoryKernel((0.0,), (v,)), "kernel decay rates", True),
    "RefractoryKernel.log_spaced": (lambda v: RefractoryKernel.log_spaced((v,)), "kernel amplitudes", True),
    "digamma": (digamma, "z must", True),
    "kummer_1f1.a": (lambda v: kummer_1f1(v, 5.0, -1.0), "a must", True),
    "kummer_1f1.b": (lambda v: kummer_1f1(0.5, v, -1.0), "b must", True),
    "log_binned_histogram": (lambda v: log_binned_histogram(ItiSet(np.array([0.5, 1.0, 20.0])), v),
                             "bins_per_decade must", False),
    "bic.n_params": (lambda v: bic(-3.0, v, 10), "n_params must", False),
    "bic.n_data": (lambda v: bic(-3.0, 1, v), "n_data must", False),
}
_NOT_A_NUMBER = {"True": True, "np.True_": np.True_, "str": "2", "0-d array": np.array(2.0)}
_NOT_AN_INTEGER = {**_NOT_A_NUMBER, "2.5": 2.5, "np.float32": np.float32(2.0)}


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, real) in _SCALAR_ENTRIES.items()
    for bad in (_NOT_A_NUMBER if real else _NOT_AN_INTEGER)])
def test_every_entry_refuses_a_scalar_that_is_no_number_by_name(entry, bad):
    """A bool, numpy bool, numeric string or 0-d array passes no entry as
    the number it converts to, and a fraction or float passes no count:
    each raises ValueError naming the parameter."""
    call, refusal, _ = _SCALAR_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{refusal}"):
        call(_NOT_AN_INTEGER[bad])


@pytest.mark.parametrize("entry", _SCALAR_ENTRIES)
def test_every_entry_takes_numpy_scalars_as_the_python_number(entry):
    """np.int64 at every entry, and np.float32 at the real ones, give what
    the equal Python number gives (bic keeps numpy's float64 type)."""
    call, _, real = _SCALAR_ENTRIES[entry]
    expected = str(call(2.0 if real else 2))
    for value in (np.int64(2), np.float32(2.0)) if real else (np.int64(2),):
        assert str(call(value)) == expected
