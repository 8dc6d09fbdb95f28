"""In-memory spans around calls into burstfit's public layer functions.

A span records name, start, end, the id of the span that caused it and
the run id.  Spans are kept in a list and written out once, at the end
of the traced run, so recording costs two clock reads and one small dict.

`instrument` swaps selected public functions for timing wrappers in every
burstfit module namespace that holds them, so a call made through
another module (cli -> fit, simulate_continuous -> invert_R) is traced
too.  Nothing under src/ changes; `restore` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Layer entry points that get a span, by module.  Cheap scalar helpers
# (digamma, bic, vector_to_params, ...) are left out: they run thousands
# of times per fit and would only add overhead to the trace.
TRACED = {
    "simulate": ("simulate_continuous", "simulate_discrete", "invert_R"),
    "io": (
        "load_timestamps",
        "save_timestamps",
        "compute_itis",
        "log_binned_histogram",
        "serialize_fit",
        "deserialize_fit",
        "serialize_comparison",
    ),
    "fit": ("fit",),
    "likelihood": ("objective", "gradient", "log_likelihood"),
    "model": ("iti_density", "refractory_eval", "refractory_integral"),
    "selection": ("compare",),
}


class Tracer:
    """Collects spans for one run; spans nest by the order they open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans) + len(self._stack) + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                 "start": start, "end": end, "attrs": attrs}
            )

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as attrs:
            out = fn(*args, **kwargs)
            if name == "fit.fit":
                # the work the fit did, beside its time
                attrs.update(variant=args[0], iters=len(out.objective_trace) - 1,
                             projections=out.n_projections, converged=int(out.converged))
            return out

    return traced


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Route the TRACED functions through `tracer`; returns the undo list."""
    wrappers = {}
    for short, names in TRACED.items():
        module = sys.modules[f"burstfit.{short}"]
        for fname in names:
            fn = getattr(module, fname)
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{short}.{fname}", fn))
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "burstfit" and not mod_name.startswith("burstfit."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for module, attr, original in undo:
        setattr(module, attr, original)
