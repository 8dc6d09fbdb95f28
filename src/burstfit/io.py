"""File formats and the records they carry: event trains, log-binned
histograms, fit artifacts.

Timestamps travel as newline-delimited integer milliseconds in one
grammar: an optional ``unit=ms`` header line, then lines of 1 to 19
ASCII digits whose value is below 2**63, each perhaps ending in
"\\r\\n", and empty lines.  Both directions work a block of lines at a
time on byte arrays: ingest turns each block into int64 by digit
arithmetic, or names the first line that breaks the grammar, and
emission writes each block's digits from the int64 values, never one
whole-file string.  Fit results travel as versioned JSON; floats go
through Python's shortest round-trip repr, so serialization is lossless
bit for bit.

The records that cross a file boundary live here: EventTrain, what
timestamp files hold, and FitResult with its ObjectiveValue trace, what
fit artifacts hold.  The samplers, the likelihood and the fitter import
them from this module, which imports no module of the package at its
top: it loads numpy (for the timestamp codec, the arrays and the
histogram), ``model`` (to rebuild a fit's parameters), ``likelihood``
(for the interval set ``compute_itis`` returns), ``json`` and
``logging`` only inside the functions that use them.  So a command that
reads or writes timestamps alone does not pay the import of the others,
one that reads a fit artifact loads neither the fitter nor the
likelihood, and reading and writing fit and comparison documents loads
no numpy.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .likelihood import ItiSet
    from .model import ModelParams
    from .selection import ComparisonMatrix

__all__ = [
    "EventTrain",
    "ObjectiveValue",
    "FitResult",
    "LogBinnedHistogram",
    "load_timestamps",
    "save_timestamps",
    "compute_itis",
    "log_binned_histogram",
    "serialize_fit",
    "deserialize_fit",
    "serialize_comparison",
    "write_atomic",
]

_FIT_FORMAT = "burstfit-fit"
_FIT_VERSION = 1


@dataclass(frozen=True, eq=False)
class EventTrain:
    """Strictly increasing event timestamps in integer milliseconds."""

    timestamps_ms: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        ts = np.asarray(self.timestamps_ms)
        if ts.ndim != 1:
            raise ValueError("timestamps must be a 1-d array")
        # a float cast to int64 would truncate fractions and turn NaN or
        # inf into -2**63; NaN fails both comparisons
        if ts.dtype.kind == "f" and not np.all((ts == np.floor(ts)) & (np.abs(ts) < 2.0**63)):
            raise ValueError("timestamps must be finite whole milliseconds")
        ts = ts.astype(np.int64, copy=True)
        if ts.size:
            if ts[0] < 0:
                raise ValueError("timestamps must be nonnegative")
            # compared, not subtracted: a difference can wrap around int64
            if np.any(ts[1:] <= ts[:-1]):
                raise ValueError("timestamps must be strictly increasing")
        ts.setflags(write=False)
        object.__setattr__(self, "timestamps_ms", ts)

    @property
    def n_events(self) -> int:
        return int(self.timestamps_ms.size)

    @property
    def duration_seconds(self) -> float:
        if self.n_events < 2:
            return 0.0
        return float(self.timestamps_ms[-1] - self.timestamps_ms[0]) / 1000.0

    def intervals_seconds(self) -> np.ndarray:
        """Consecutive inter-event intervals in seconds."""
        import numpy as np

        return np.diff(self.timestamps_ms) / 1000.0


@dataclass(frozen=True)
class ObjectiveValue:
    """Penalized objective split into its two parts."""

    log_likelihood: float
    penalty: float
    objective: float


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: the point found, how, and on what data."""

    params_star: ModelParams
    objective_trace: tuple[ObjectiveValue, ...]
    converged: bool
    reason: str
    n_projections: int
    bic: float
    n_data: int
    data_digest: str

    @property
    def variant(self) -> str:
        return self.params_star.variant

    @property
    def objective(self) -> float:
        return self.objective_trace[-1].objective


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
        import numpy as np

        return np.sqrt(self.edges[:-1] * self.edges[1:])


def _is_header(raw: bytes) -> bool:
    return raw.decode("utf-8", errors="replace").strip().replace(" ", "") == "unit=ms"


# Bytes parsed per block.  A block's digit arithmetic holds a few arrays
# of its own bytes and of its own line count, so ingest memory beyond the
# int64 result does not grow with the file.
_PARSE_BLOCK = 1 << 20
# Widest line the grammar takes.  Horner's rule folds a line's digit
# bytes in uint64, which wraps mod 2**64, and then subtracts what its "0"
# bytes added, mod 2**64 too.  The result is the value mod 2**64, and 19
# digits stay below 10**19 < 2**64, so it is the value itself: one that
# passes 2**63 - 1 reads as a negative int64.
_MAX_DIGITS = 19
# What w bytes of "0" add to the value of w digit bytes, mod 2**64
_ZERO_BYTES = [48 * (10**w - 1) // 9 % 2**64 for w in range(_MAX_DIGITS + 1)]


def _digit_lines(b: np.ndarray) -> np.ndarray | int:
    """int64 values of a uint8 block of whole lines in the module's
    grammar, or the offset of its first line that breaks it.  Empty lines
    give no value; lines are grouped by width, and each group is folded
    one digit column at a time."""
    import numpy as np

    ends = np.flatnonzero(b == 10)
    # every byte that is not a digit must be a newline or a "\r" directly
    # before one; a block of bare newlines skips the "\r" search
    n_other = np.count_nonzero(b - 48 > 9) - ends.size
    crs = np.flatnonzero(b == 13) if n_other else ends[:0]
    if crs.size != n_other or (
        crs.size and (crs[-1] == b.size - 1 or np.any(b[crs + 1] != 10))
    ):
        bad = (b - 48 > 9) & (b != 10)
        bad[:-1] &= (b[:-1] != 13) | (b[1:] != 10)
        at = np.argmax(bad)
        head = _digit_lines(b[:at])  # an earlier line may be too wide or large
        return head if isinstance(head, int) else int(at)
    if not ends.size or ends[-1] != b.size - 1:
        ends = np.append(ends, b.size)  # the blob's last line has no newline
    widths = np.diff(ends, prepend=-1) - 1
    if crs.size:
        # a CRLF line's digits end at its "\r"
        crlf = np.searchsorted(ends, crs + 1)
        ends[crlf] -= 1
        widths[crlf] -= 1
    starts = ends - widths
    del ends
    values = np.zeros(widths.size, np.int64)
    counts = np.bincount(widths)
    ten = np.uint64(10)  # a uint64 scalar keeps numpy 1.x's arithmetic in uint64
    for w in np.flatnonzero(counts[1 : _MAX_DIGITS + 1]) + 1:
        rows = np.flatnonzero(widths == w)
        pos = starts[rows]
        acc = b[pos].astype(np.uint64)
        for _ in range(w - 1):
            pos += 1
            acc *= ten
            acc += b[pos]
        acc -= np.uint64(_ZERO_BYTES[w])
        values[rows] = acc.view(np.int64)
    over = (widths > _MAX_DIGITS) | (values < 0)
    if over.any():
        return int(starts[np.argmax(over)])
    return values[widths > 0] if counts[0] else values


def _parse(blob: bytes) -> np.ndarray:
    """All values of a timestamp blob, in file order.

    The blob is read as a uint8 view, one block of about _PARSE_BLOCK
    bytes of whole lines at a time, into an int64 array sized by its
    newline count; _digit_lines reads each block.  The first block with
    a line that breaks the grammar stops the parse, which raises naming
    the earliest such line by number and its text without its line end.
    """
    import numpy as np

    first = blob.find(b"\n") + 1 or len(blob)  # where line 2 starts
    pos = first if _is_header(blob[:first]) else 0
    view = np.frombuffer(blob, np.uint8)
    out = np.empty(blob.count(b"\n") + 1, np.int64)
    n = 0
    while pos < len(blob):
        # the block ends after the first newline at or past _PARSE_BLOCK
        # bytes, or at the blob's end
        end = blob.find(b"\n", pos + _PARSE_BLOCK - 1) + 1 or len(blob)
        values = _digit_lines(view[pos:end])
        if isinstance(values, int):
            at = pos + values
            start, stop = blob.rfind(b"\n", 0, at) + 1, blob.find(b"\n", at)
            line = blob[start:stop].removesuffix(b"\r") if stop >= 0 else blob[start:]
            lineno, text = blob.count(b"\n", 0, at) + 1, line.decode(errors="replace")
            raise ValueError(
                f"line {lineno}: expected an integer millisecond timestamp, got {text!r}"
            )
        out[n : n + values.size] = values
        n += values.size
        pos = end
    return out[:n]


def load_timestamps(source) -> EventTrain:
    """Parse newline-delimited millisecond timestamps into an EventTrain.

    source is a file path or a bytes blob, read alike as one byte string
    that splits lines at newline bytes only, in the grammar this module's
    docstring states.  Timestamps are sorted and exact duplicates
    collapsed (count logged); the first line that breaks the grammar
    raises with its line number and text.
    """
    import numpy as np

    ts = _parse(source if isinstance(source, bytes) else Path(source).read_bytes())
    if not ts.size:
        raise ValueError("timestamp stream contains no events")
    ts.sort()
    dup = ts[1:] == ts[:-1]
    if dup.any():
        import logging

        logging.getLogger(__name__).info(
            "collapsed %d duplicate timestamp(s)", np.count_nonzero(dup)
        )
        ts = np.delete(ts, np.flatnonzero(dup) + 1)
    return EventTrain(ts)


# Lines formatted per chunk.  A chunk's digit arithmetic holds a few int64
# arrays of its line count and its text, so the train is never formatted
# whole.
_FORMAT_BLOCK = 1 << 14
# 10, 100, ..., 10**18: a value below 10**w has at most w digits
_POW10 = [10**w for w in range(1, 19)]


def _format_lines(ts: np.ndarray) -> str:
    """Text of increasing nonnegative int64 values, one a line.

    Values of equal width sit in one run, written as a (count, width + 1)
    byte block: digit columns from the last, then a newline column.
    """
    import numpy as np

    cuts = np.concatenate(([0], np.searchsorted(ts, _POW10), [ts.size]))
    widths = np.arange(1, cuts.size)
    text = np.empty(int(np.diff(cuts) @ (widths + 1)), np.uint8)
    at = 0
    for w, lo, hi in zip(widths.tolist(), cuts[:-1].tolist(), cuts[1:].tolist()):
        if lo == hi:
            continue
        block = text[at : at + (hi - lo) * (w + 1)].reshape(hi - lo, w + 1)
        at += block.size
        block[:, w] = 10
        rest = ts[lo:hi]
        for k in range(w - 1, -1, -1):
            rest, digit = np.divmod(rest, 10)
            np.add(digit, 48, out=block[:, k], casting="unsafe")
    return text.tobytes().decode("ascii")


def save_timestamps(train: EventTrain, path) -> None:
    """Write a train in the same format load_timestamps reads.

    The text is formatted and streamed a block of lines at a time, so no
    whole-file string is ever built.
    """
    ts = train.timestamps_ms

    def chunks():
        yield "unit=ms\n"
        if not ts.size:
            yield "\n"
        for i in range(0, ts.size, _FORMAT_BLOCK):
            yield _format_lines(ts[i : i + _FORMAT_BLOCK])

    write_atomic(path, chunks())


def compute_itis(train: EventTrain) -> ItiSet:
    """Consecutive-event intervals in seconds.

    An EventTrain is strictly increasing in whole milliseconds, so every
    interval is at least 1 ms.
    """
    if train.n_events < 2:
        raise ValueError("need at least 2 events to form intervals")
    from .likelihood import ItiSet

    return ItiSet(train.intervals_seconds())


# Most rows a table sized by a caller's count may have: a histogram's
# bins, an evaluation grid's points.  The count is checked against it
# before anything is allocated, so no count can ask for more memory than
# a machine has.
_MAX_TABLE_ROWS = 10**6


def log_binned_histogram(data: ItiSet, bins_per_decade: int = 8) -> LogBinnedHistogram:
    """Density estimate on geometric bins spanning the data's intervals.

    Empty bins stay in the output with zero density; a single distinct
    value degenerates to one bin centered on it.  More than
    _MAX_TABLE_ROWS bins (or bins per decade) raise ValueError first.
    """
    import numpy as np

    if not 1 <= bins_per_decade <= _MAX_TABLE_ROWS:
        raise ValueError(f"bins_per_decade must be 1 to the cap of {_MAX_TABLE_ROWS} table rows")
    iv = data.intervals
    lo, hi = float(iv.min()), float(iv.max())
    step = 10.0 ** (1.0 / bins_per_decade)
    if lo == hi:
        edges = np.array([lo / math.sqrt(step), lo * math.sqrt(step)])
    else:
        n_bins = max(1, math.ceil(round(bins_per_decade * math.log10(hi / lo), 9)))
        if n_bins > _MAX_TABLE_ROWS:
            raise ValueError(
                f"the histogram needs {n_bins} bins, past the cap of "
                f"{_MAX_TABLE_ROWS} table rows"
            )
        edges = lo * step ** np.arange(n_bins + 1)
        edges[-1] = max(edges[-1], hi)
    counts, _ = np.histogram(iv, bins=edges)
    n_total = int(counts.sum())
    densities = counts / (max(n_total, 1) * np.diff(edges))
    return LogBinnedHistogram(edges=edges, counts=counts, densities=densities, n_total=n_total)


def write_atomic(path, content: str | Iterable[str]) -> None:
    """Write via a temp file and rename, so readers never see partials.

    content is one string, or an iterable of strings written in order;
    an iterable is consumed as it is written, so a generator streams a
    large file without holding its whole text.  The file gets the mode
    open(path, "w") leaves: an existing target's, else 0666 less the
    umask, which the kernel applies when the temp file is created.
    """
    path = Path(path)
    while True:
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
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
    import json

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


def _is_number(value) -> bool:
    # bool is an int subclass, so JSON true is no number; an int must fit
    # a float, and never reaches isfinite, which overflows past that range;
    # NaN, Infinity and 1e400 (which json reads as inf) are not finite
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is float and math.isfinite(value)


# The JSON types a fit document's fields may take, by their description
_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "an integer >= 0": lambda v: type(v) is int and v >= 0,
    "a number": _is_number,
    "a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
    "a non-empty list of rows": lambda v: isinstance(v, list) and v,
}


def _typed(doc: dict, name: str, what: str):
    """The field, if it is what _KINDS[what] accepts; its JSON type is
    checked, never coerced, so "false" cannot load as true, 2.9 as 2 nor
    "0.5" as 0.5."""
    value = _field(doc, name)
    if not _KINDS[what](value):
        raise ValueError(f"fit document field {name!r} must be {what}, got {value!r}")
    return value


def _trace_row(index: int, row) -> ObjectiveValue:
    if not (_KINDS["a list of numbers"](row) and len(row) == 3):
        raise ValueError(f"fit document field 'objective_trace' row {index} must be "
                         f"3 numbers (log-likelihood, penalty, objective), got {row!r}")
    return ObjectiveValue(*map(float, row))


def deserialize_fit(text: str | bytes) -> FitResult:
    """Inverse of serialize_fit; rejects unknown versions loudly, and a
    field of the wrong JSON type by name."""
    import json

    from .model import ModelParams, RefractoryKernel

    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise ValueError(f"fit document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != _FIT_FORMAT:
        raise ValueError("not a fit document (missing format tag)")
    version = _field(doc, "version")
    if type(version) is not int or version != _FIT_VERSION:
        raise ValueError(
            f"fit document version {version!r} is not supported (expected {_FIT_VERSION})"
        )
    # ModelParams and RefractoryKernel store the numbers as floats
    raw = _typed(doc, "params", "an object")
    params = ModelParams(
        a=_typed(raw, "a", "a number"),
        b=_typed(raw, "b", "a number"),
        c=_typed(raw, "c", "a number"),
        kernel=RefractoryKernel(
            _typed(raw, "gamma", "a list of numbers"), _typed(raw, "alpha", "a list of numbers")
        ),
        variant=_typed(doc, "variant", "a string"),
    )
    rows = _typed(doc, "objective_trace", "a non-empty list of rows")
    return FitResult(
        params_star=params,
        objective_trace=tuple(_trace_row(i, row) for i, row in enumerate(rows)),
        converged=_typed(doc, "converged", "true or false"),
        reason=_typed(doc, "reason", "a string"),
        n_projections=_typed(doc, "n_projections", "an integer >= 0"),
        bic=float(_typed(doc, "bic", "a number")),
        n_data=_typed(doc, "n_data", "an integer >= 0"),
        data_digest=_typed(doc, "data_digest", "a string"),
    )


def serialize_comparison(matrix: ComparisonMatrix) -> str:
    """Versioned JSON for a variant comparison."""
    import json

    doc = {
        "format": "burstfit-comparison",
        "version": 1,
        "bic": dict(matrix.bic),
        "preference": [
            {"i": i, "j": j, "verdict": matrix.favored(i, j)}
            for i in sorted(matrix.bic) for j in sorted(matrix.bic) if i != j
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
