"""File formats: timestamp logs, log-binned histograms, fit artifacts.

Timestamps travel as newline-delimited integer milliseconds with an
optional ``unit=ms`` header line.  They are parsed in one bulk pass over
the split bytes, with a line-by-line fallback that names a bad line, and
streamed to the file a block of lines at a time, never as one whole-file
string.  Fit results travel as versioned JSON; floats go through Python's
shortest round-trip repr, so serialization is lossless bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from collections.abc import Iterable
from dataclasses import dataclass
from io import BytesIO
from pathlib import Path

import numpy as np

from .fit import FitResult
from .likelihood import ItiSet, ObjectiveValue
from .model import ModelParams, RefractoryKernel
from .selection import ComparisonMatrix
from .simulate import EventTrain

__all__ = [
    "LogBinnedHistogram",
    "load_timestamps",
    "save_timestamps",
    "compute_itis",
    "log_binned_histogram",
    "fit_log_slope",
    "serialize_fit",
    "deserialize_fit",
    "serialize_comparison",
    "write_atomic",
]

log = logging.getLogger(__name__)

_FIT_FORMAT = "burstfit-fit"
_FIT_VERSION = 1


@dataclass(frozen=True)
class LogBinnedHistogram:
    """Histogram on geometric bins, normalized to a probability density."""

    edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray
    n_total: int

    @property
    def centers(self) -> np.ndarray:
        """Geometric bin midpoints."""
        return np.sqrt(self.edges[:-1] * self.edges[1:])


def _is_header(raw: bytes) -> bool:
    return raw.decode("utf-8", errors="replace").strip().replace(" ", "") == "unit=ms"


def _parse_lines(blob: bytes) -> list[int]:
    """Line-by-line parse that names the first bad line."""
    values: list[int] = []
    for lineno, raw in enumerate(BytesIO(blob), start=1):
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            continue
        if lineno == 1 and _is_header(raw):
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected an integer millisecond timestamp, got {text!r}"
            ) from None
    return values


def _parse(blob: bytes) -> np.ndarray:
    """All values of a timestamp blob, in file order.

    ``int(bytes)`` accepts a subset of what ``int(str)`` accepts after
    stripping, and gives the same value, so the bulk pass agrees with
    the line loop wherever it succeeds.  The loop runs only when the bulk
    pass fails: it then reads what ``int(bytes)`` rejects (Unicode
    digits or whitespace, lines of spaces) or names the bad line.
    """
    lines = blob.split(b"\n")
    if _is_header(lines[0]):
        lines[0] = b""
    try:
        count = len(lines) - lines.count(b"")
        return np.fromiter(map(int, filter(None, lines)), np.int64, count)
    except (ValueError, OverflowError):
        return np.asarray(_parse_lines(blob), dtype=np.int64)


def load_timestamps(source) -> EventTrain:
    """Parse newline-delimited millisecond timestamps into an EventTrain.

    source is a file path or a bytes blob, read alike as one byte string
    that splits lines at newline bytes only.  A single ``unit=ms`` header
    line is allowed at the top.  Timestamps are sorted and exact
    duplicates collapsed (count logged); anything non-integer raises with
    its line number.
    """
    ts = _parse(source if isinstance(source, bytes) else Path(source).read_bytes())
    if not ts.size:
        raise ValueError("timestamp stream contains no events")
    ts.sort()
    dup = ts[1:] == ts[:-1]
    if dup.any():
        log.info("collapsed %d duplicate timestamp(s)", np.count_nonzero(dup))
        ts = np.delete(ts, np.flatnonzero(dup) + 1)
    return EventTrain(ts)


# Values formatted and written per chunk: while formatted, their Python
# ints and strings take about 110 bytes a value, several times the bytes
# of a line, so a chunk stays small and the train is never formatted whole.
_FORMAT_BLOCK = 1 << 12


def save_timestamps(train: EventTrain, path) -> None:
    """Write a train in the same format load_timestamps reads.

    The text is streamed a block of lines at a time, so no whole-file
    string is ever built.
    """
    ts = train.timestamps_ms

    def chunks():
        yield "unit=ms\n"
        if not ts.size:
            yield "\n"
        for i in range(0, ts.size, _FORMAT_BLOCK):
            yield "\n".join(map(str, ts[i : i + _FORMAT_BLOCK].tolist())) + "\n"

    write_atomic(path, chunks())


def compute_itis(train: EventTrain) -> ItiSet:
    """Consecutive-event intervals in seconds.

    An EventTrain is strictly increasing in whole milliseconds, so every
    interval is at least 1 ms.
    """
    if train.n_events < 2:
        raise ValueError("need at least 2 events to form intervals")
    return ItiSet(train.intervals_seconds())


def log_binned_histogram(
    data: ItiSet, bins_per_decade: int = 8, bin_range: tuple[float, float] | None = None
) -> LogBinnedHistogram:
    """Density estimate on geometric bins.

    Empty bins stay in the output with zero density; a single distinct
    value degenerates to one bin centered on it.
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be at least 1")
    iv = data.intervals
    lo, hi = bin_range if bin_range is not None else (float(iv.min()), float(iv.max()))
    if not 0.0 < lo <= hi:
        raise ValueError("histogram range must be positive and ordered")
    step = 10.0 ** (1.0 / bins_per_decade)
    if lo == hi:
        edges = np.array([lo / math.sqrt(step), lo * math.sqrt(step)])
    else:
        n_bins = max(1, math.ceil(round(bins_per_decade * math.log10(hi / lo), 9)))
        edges = lo * step ** np.arange(n_bins + 1)
        edges[-1] = max(edges[-1], hi)
    counts, _ = np.histogram(iv, bins=edges)
    n_total = int(counts.sum())
    densities = counts / (max(n_total, 1) * np.diff(edges))
    return LogBinnedHistogram(edges=edges, counts=counts, densities=densities, n_total=n_total)


def fit_log_slope(
    hist: LogBinnedHistogram, tau_min: float, tau_max: float
) -> float:
    """Least-squares slope of log density vs log time over occupied bins."""
    centers = hist.centers
    keep = (hist.counts > 0) & (centers >= tau_min) & (centers <= tau_max)
    if keep.sum() < 2:
        raise ValueError("need at least 2 occupied bins in range to fit a slope")
    x = np.log10(centers[keep])
    y = np.log10(hist.densities[keep])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def write_atomic(path, content: str | Iterable[str]) -> None:
    """Write via a temp file and rename, so readers never see partials.

    content is one string, or an iterable of strings written in order;
    an iterable is consumed as it is written, so a generator streams a
    large file without holding its whole text.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([content] if isinstance(content, str) else content)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def serialize_fit(result: FitResult) -> str:
    """Versioned JSON for a FitResult; floats survive exactly."""
    p = result.params_star
    doc = {
        "format": _FIT_FORMAT,
        "version": _FIT_VERSION,
        "variant": p.variant,
        "params": {
            "a": p.a,
            "b": p.b,
            "c": p.c,
            "gamma": list(p.kernel.gamma),
            "alpha": list(p.kernel.alpha),
        },
        "converged": result.converged,
        "reason": result.reason,
        "n_projections": result.n_projections,
        "bic": result.bic,
        "n_data": result.n_data,
        "data_digest": result.data_digest,
        "objective_trace": [
            [v.log_likelihood, v.penalty, v.objective] for v in result.objective_trace
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"fit document is missing required field {name!r}")
    return doc[name]


def deserialize_fit(text: str | bytes) -> FitResult:
    """Inverse of serialize_fit; rejects unknown versions loudly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"fit document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FIT_FORMAT:
        raise ValueError("not a fit document (missing format tag)")
    version = _field(doc, "version")
    if version != _FIT_VERSION:
        raise ValueError(
            f"fit document version {version!r} is not supported (expected {_FIT_VERSION})"
        )
    raw_params = _field(doc, "params")
    gamma = tuple(float(g) for g in _field(raw_params, "gamma"))
    alpha = tuple(float(al) for al in _field(raw_params, "alpha"))
    kernel = (
        RefractoryKernel(gamma=gamma, alpha=alpha) if gamma else RefractoryKernel.none()
    )
    params = ModelParams(
        a=float(_field(raw_params, "a")),
        b=float(_field(raw_params, "b")),
        c=float(_field(raw_params, "c")),
        kernel=kernel,
        variant=str(_field(doc, "variant")),
    )
    trace = tuple(
        ObjectiveValue(float(ll), float(pen), float(obj))
        for ll, pen, obj in _field(doc, "objective_trace")
    )
    return FitResult(
        params_star=params,
        objective_trace=trace,
        converged=bool(_field(doc, "converged")),
        reason=str(_field(doc, "reason")),
        n_projections=int(_field(doc, "n_projections")),
        bic=float(_field(doc, "bic")),
        n_data=int(_field(doc, "n_data")),
        data_digest=str(_field(doc, "data_digest")),
    )


def serialize_comparison(matrix: ComparisonMatrix) -> str:
    """Versioned JSON for a variant comparison."""
    doc = {
        "format": "burstfit-comparison",
        "version": 1,
        "bic": dict(matrix.bic),
        "preference": [
            {"i": i, "j": j, "verdict": verdict}
            for (i, j), verdict in sorted(matrix.preference.items())
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
