"""Tests for timestamp ingestion, histogramming and fit serialization."""

import dataclasses
import json
import logging
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest

from burstfit import io as bio
from burstfit.fit import FitResult, fit
from burstfit.io import (
    compute_itis,
    deserialize_fit,
    load_timestamps,
    log_binned_histogram,
    save_timestamps,
    serialize_comparison,
    serialize_fit,
    write_atomic,
)
from burstfit.likelihood import ItiSet, ObjectiveValue
from burstfit.model import ModelParams, RefractoryKernel
from burstfit.selection import compare
from burstfit.simulate import EventTrain, simulate_discrete
from oracles import fit_log_slope, load_timestamps_by_line


# ----------------------------------------------------------------------
# timestamp ingestion
# ----------------------------------------------------------------------


def test_load_timestamps_minimal():
    train = load_timestamps(b"0\n150\n300\n")
    assert train.n_events == 3
    np.testing.assert_array_equal(train.timestamps_ms, [0, 150, 300])


def test_load_timestamps_sorts():
    train = load_timestamps(b"300\n150\n")
    np.testing.assert_array_equal(train.timestamps_ms, [150, 300])


def test_load_timestamps_collapses_duplicates(caplog):
    with caplog.at_level(logging.INFO, logger="burstfit.io"):
        train = load_timestamps(b"150\n150\n")
    assert train.n_events == 1
    assert train.timestamps_ms[0] == 150
    assert any("1 duplicate" in rec.getMessage() for rec in caplog.records)


def test_load_timestamps_header_and_blank_lines():
    train = load_timestamps(b"unit=ms\n10\n\n20\n")
    np.testing.assert_array_equal(train.timestamps_ms, [10, 20])
    # the header is only recognized on the first line
    with pytest.raises(ValueError, match="line 2"):
        load_timestamps(b"10\nunit=ms\n20\n")


def test_load_timestamps_parse_error_has_line_number():
    with pytest.raises(ValueError, match="line 3"):
        load_timestamps(b"10\n20\nthirty\n")
    # a bare carriage return does not end a line
    with pytest.raises(ValueError, match="line 1"):
        load_timestamps(b"1\r2\r3\r")


def test_load_timestamps_empty_stream():
    with pytest.raises(ValueError, match="no events"):
        load_timestamps(b"")
    with pytest.raises(ValueError, match="no events"):
        load_timestamps(b"unit=ms\n\n")


def test_load_timestamps_from_path(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("unit=ms\n5\n25\n125\n")
    train = load_timestamps(path)
    assert train.n_events == 3


@pytest.mark.parametrize(
    "blob", [b"1\r2\r3\r", b"unit=ms\r\n1\r\n2\r\n", b"5\n\n7\nx8\n"]
)
def test_load_timestamps_path_and_bytes_parse_alike(tmp_path, blob):
    """The same bytes give the same train, or the same error, from a file
    and from memory: both are split on newlines only."""
    path = tmp_path / "train.txt"
    path.write_bytes(blob)
    outcomes = []
    for source in (blob, path):
        try:
            outcomes.append(load_timestamps(source).timestamps_ms.tolist())
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def test_save_load_round_trip(tmp_path):
    train = EventTrain(np.array([0, 7, 19, 1000], dtype=np.int64))
    path = tmp_path / "out.txt"
    save_timestamps(train, path)
    text = path.read_text()
    assert text.startswith("unit=ms\n")
    again = load_timestamps(path)
    np.testing.assert_array_equal(again.timestamps_ms, train.timestamps_ms)


def test_ingestion_is_idempotent(tmp_path):
    train = load_timestamps(b"3\n1\n1\n8\n")
    path = tmp_path / "roundtrip.txt"
    save_timestamps(train, path)
    again = load_timestamps(path)
    np.testing.assert_array_equal(again.timestamps_ms, train.timestamps_ms)


def _outcome(parse, source):
    try:
        return parse(source).timestamps_ms.tolist()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_GOOD_LINES = b"".join(b"%d\n" % (3 * i) for i in range(10_000))

_PARSE_CASES = {
    "crlf": b"unit=ms\r\n5\r\n7\r\n",
    "mixed crlf and lf": b"5\r\n7\n9\r\n\r\n11",
    "two crs before a newline": b"5\r\r\n7\r\n",
    "tabs and spaces": b"\t5 \n  7\t\n 9\n",
    "sign": b"0\n+7\n",
    "underscore": b"0\n1_000\n",
    "leading zeros": b"007\n0\n",
    "blank lines": b"5\n\n7\n\n\n",
    "whitespace-only lines": b"5\n   \n\r\n7\n\t\n",
    "no final newline": b"5\n7",
    "spaced header with cr": b"unit = ms\r\n5\n7\n",
    "header on line 2": b"5\nunit=ms\n7\n",
    "bad line after 10k": _GOOD_LINES + b"30001\nbad\n30004\n",
    "blank line after 10k": _GOOD_LINES + b"\n30001\n",
    "unicode digits": "\u0663\n\uff11\uff12\n5\n".encode(),
    "unicode whitespace": "\x1c5\n7\u00a0\n".encode(),
    "invalid utf-8": b"5\n\xff7\n",
    "int64 overflow": b"5\n99999999999999999999\n",
    "int64 overflow before a bad line": b"99999999999999999999\nbad\n",
    "negative": b"-5\n7\n",
    "unsorted with duplicates": b"30\n10\n20\n10\n30\n30\n",
    "19 digits at 2**63 - 1": b"5\n9223372036854775807\n",
    "19 digits at 2**63": b"5\n9223372036854775808\n",
    "cr at the end": b"5\n7\r",
    "header only": b"unit=ms\n",
    "header without a newline": b"unit=ms",
    "empty": b"",
}


@pytest.mark.parametrize("blob", _PARSE_CASES.values(), ids=_PARSE_CASES.keys())
def test_bulk_parse_matches_line_loop(tmp_path, blob):
    """The bulk parse gives the reference parse's train, or its exact
    error, from bytes and from a file alike."""
    want = _outcome(load_timestamps_by_line, blob)
    path = tmp_path / "train.txt"
    path.write_bytes(blob)
    assert _outcome(load_timestamps, blob) == want
    assert _outcome(load_timestamps, path) == want


def test_bulk_parse_error_names_its_line():
    """Pinned apart from the reference parse: the first line that breaks
    the grammar, by number, and its text unstripped."""
    with pytest.raises(ValueError, match="^line 10002: .*'bad'$"):
        load_timestamps(_PARSE_CASES["bad line after 10k"])
    with pytest.raises(ValueError, match="^line 1: .*'\u0663'$"):
        load_timestamps(_PARSE_CASES["unicode digits"])
    with pytest.raises(ValueError, match=r"^line 1: .*'5\\r'$"):
        load_timestamps(_PARSE_CASES["two crs before a newline"])
    with pytest.raises(ValueError, match="^line 2: .*'   '$"):
        load_timestamps(_PARSE_CASES["whitespace-only lines"])
    with pytest.raises(ValueError, match="^line 1: .*'99999999999999999999'$"):
        load_timestamps(_PARSE_CASES["int64 overflow before a bad line"])


_LINES_40 = b"".join(b"%d\n" % (7 * i) for i in range(40))
# blobs whose last 64-byte parse block holds lines 38 to 42, and the line
# each error names
_BLOCK_CASES = {
    "bad byte in the last block": (_LINES_40 + b"12x4\n281\n", 41),
    "bad byte in an unended last line": (_LINES_40 + b"281\n2 9", 42),
    "overflow before a bad byte": (_LINES_40 + b"9300000000000000000\n12 \n", 41),
    "too wide before an overflow": (_LINES_40 + b"1" * 20 + b"\n9300000000000000000\n", 41),
    "overflow before too wide": (_LINES_40 + b"9300000000000000000\n" + b"1" * 20, 41),
}


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("case", _BLOCK_CASES.values(), ids=_BLOCK_CASES.keys())
def test_first_bad_line_across_parse_blocks(monkeypatch, block, case):
    """Whatever the parse block size, the error names the earliest line
    that breaks the grammar, in the last block or beside another bad line
    in one block."""
    blob, lineno = case
    monkeypatch.setattr(bio, "_PARSE_BLOCK", block)
    want = _outcome(load_timestamps_by_line, blob)
    assert want[0] is ValueError and want[1].startswith(f"line {lineno}: ")
    assert _outcome(load_timestamps, blob) == want


# past 19 digits' int64 range: 19 digits above 2**63 - 1, and 20 digits
_PAST_INT64 = (10**19 - 1, 10**19, 2**64 - 1, 2**64)


def _random_line(rng) -> bytes:
    """One line body: empty; 1 to 19 random digits, leading zeros and
    all; a value within 1000 of 2**63 - 1 or of a power of ten up to
    10**18, zero-padded to as many as 21 digits; or one within 1000 of an
    edge of _PAST_INT64."""
    u = rng.random()
    if u < 0.15:
        return b""
    if u < 0.6:
        return bytes(rng.integers(48, 58, rng.integers(1, 20)).astype(np.uint8))
    if u < 0.95:
        edge = 2**63 - 1 if u < 0.75 else 10 ** int(rng.integers(19))
    else:
        edge = _PAST_INT64[rng.integers(len(_PAST_INT64))]
    text = str(max(0, edge + int(rng.integers(-1000, 1001))))
    return text.zfill(int(rng.integers(1, 22))).encode()


def _random_blob(rng) -> bytes:
    """Up to 12 lines after a unit=ms header or not, each ending in LF or
    CRLF; in about a third of the blobs the trailing line ends are cut,
    and in about a third one byte is replaced by any byte at all."""
    lines = [b"unit=ms"] if rng.random() < 0.3 else []
    lines += [_random_line(rng) for _ in range(rng.integers(13))]
    blob = b"".join(line + (b"\r\n" if rng.random() < 0.3 else b"\n") for line in lines)
    if blob and rng.random() < 0.3:
        blob = blob.rstrip(b"\r\n")
    if blob and rng.random() < 0.3:
        at = int(rng.integers(len(blob)))
        blob = blob[:at] + bytes([int(rng.integers(256))]) + blob[at + 1 :]
    return blob


@pytest.mark.parametrize("block", [1, 4, 16])
def test_bulk_parse_matches_the_line_parse_on_random_blobs(monkeypatch, block):
    """Differential ingest: on 400 seeded random blobs around the grammar's
    edges, with parse blocks of a few bytes so that lines straddle them,
    the bulk parse gives the line-by-line parse's train, or its error's
    line number and text."""
    monkeypatch.setattr(bio, "_PARSE_BLOCK", block)
    rng = np.random.default_rng(4200 + block)
    outcomes = set()
    for _ in range(400):
        blob = _random_blob(rng)
        want = _outcome(load_timestamps_by_line, blob)
        assert _outcome(load_timestamps, blob) == want, blob
        outcomes.add(want[0] if isinstance(want, tuple) else list)
    assert outcomes == {ValueError, list}


def test_bulk_parse_counts_duplicates(caplog):
    with caplog.at_level(logging.INFO, logger="burstfit.io"):
        train = load_timestamps(_PARSE_CASES["unsorted with duplicates"])
    assert train.timestamps_ms.tolist() == [10, 20, 30]
    assert [rec.getMessage() for rec in caplog.records] == ["collapsed 3 duplicate timestamp(s)"]


def test_emitted_bytes_are_frozen(tmp_path):
    path = tmp_path / "out.txt"
    save_timestamps(EventTrain(np.array([0, 7, 19, 1000], dtype=np.int64)), path)
    assert path.read_bytes() == b"unit=ms\n0\n7\n19\n1000\n"
    save_timestamps(EventTrain(np.array([], dtype=np.int64)), path)
    assert path.read_bytes() == b"unit=ms\n\n"


def test_emission_across_format_blocks(tmp_path):
    """A train spanning several format blocks writes the bytes of one
    whole-train join."""
    rng = np.random.default_rng(17)
    ts = np.cumsum(rng.integers(1, 10**9, 3 * bio._FORMAT_BLOCK + 7))
    path = tmp_path / "out.txt"
    save_timestamps(EventTrain(ts), path)
    want = "unit=ms\n" + "\n".join(map(str, ts.tolist())) + "\n"
    assert path.read_bytes() == want.encode()
    np.testing.assert_array_equal(load_timestamps(path).timestamps_ms, ts)


def test_emission_memory_stays_below_the_file(tmp_path):
    """save_timestamps streams a block of lines at a time: on a train of
    16 format blocks its traced peak stays below the size of the file it
    writes, which one whole-file string would already reach."""
    rng = np.random.default_rng(19)
    train = EventTrain(np.cumsum(rng.integers(1, 10**9, 16 * bio._FORMAT_BLOCK)))
    path = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        save_timestamps(train, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size, (peak, path.stat().st_size)


def test_ingest_memory_is_the_result_plus_one_block(tmp_path):
    """load_timestamps parses a block of lines at a time: on a blob of
    512k lines, several parse blocks, its traced peak stays below 16
    bytes a line (the parsed int64 array and the train's own copy of it)
    plus four blocks' worth of temporaries.  A list of one byte string
    per line, as a whole-blob split builds, takes about 4.5 times the
    blob."""
    rng = np.random.default_rng(23)
    ts = 1_700_000_000_000 + np.cumsum(rng.integers(1, 5000, 1 << 19))
    path = tmp_path / "big.txt"
    save_timestamps(EventTrain(ts), path)
    blob = path.read_bytes()
    assert len(blob) > 4 * bio._PARSE_BLOCK
    bound = 16 * ts.size + 4 * bio._PARSE_BLOCK
    tracemalloc.start()
    try:
        train = load_timestamps(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(train.timestamps_ms, ts)
    assert peak < bound, (peak, bound, len(blob))


def _stamps_of_every_width(widest: int) -> np.ndarray:
    """Increasing stamps with 1 to `widest` digits, a few of each width."""
    top = int(np.iinfo(np.int64).max)
    values = {0, 9, top}
    for w in range(2, widest + 1):
        values |= {10 ** (w - 1), 10 ** (w - 1) + 7, min(10**w - 1, top)}
    return np.array(sorted(v for v in values if len(str(v)) <= widest), dtype=np.int64)


@pytest.mark.parametrize("block", [1, 5, 64, None], ids=["1", "5", "64", "default"])
@pytest.mark.parametrize("widest", [18, 19])
def test_round_trip_across_widths_and_parse_blocks(tmp_path, monkeypatch, block, widest):
    """Stamps of every width from 1 to 19 digits, 2**63 - 1 the widest,
    survive save then load, with lines straddling parse blocks and a last
    line without a newline, and load alike with CRLF line ends."""
    ts = _stamps_of_every_width(widest)
    path = tmp_path / "out.txt"
    save_timestamps(EventTrain(ts), path)
    blob = path.read_bytes()
    assert blob == ("unit=ms\n" + "\n".join(map(str, ts.tolist())) + "\n").encode()
    if block is not None:
        monkeypatch.setattr(bio, "_PARSE_BLOCK", block)
    crlf = blob.replace(b"\n", b"\r\n")
    for source in (blob, blob[:-1], blob[len(b"unit=ms\n"):],
                   crlf, crlf[:-2], crlf[len(b"unit=ms\r\n"):]):
        np.testing.assert_array_equal(load_timestamps(source).timestamps_ms, ts)


# ----------------------------------------------------------------------
# intervals
# ----------------------------------------------------------------------


def test_compute_itis_basic():
    train = EventTrain(np.array([0, 150, 300], dtype=np.int64))
    itis = compute_itis(train)
    np.testing.assert_allclose(itis.intervals, [0.150, 0.150], rtol=0, atol=1e-15)


def test_compute_itis_counts():
    train = EventTrain(np.array([10, 20], dtype=np.int64))
    assert compute_itis(train).n == 1
    train = EventTrain(np.arange(0, 5000, 37, dtype=np.int64))
    assert compute_itis(train).n == train.n_events - 1


def test_compute_itis_needs_two_events():
    with pytest.raises(ValueError, match="at least 2"):
        compute_itis(EventTrain(np.array([42], dtype=np.int64)))


def test_emitted_train_reloads_to_same_intervals(tmp_path):
    params = ModelParams(a=1.2, b=1.0, c=math.log(3.0))
    train = simulate_discrete(params, seed=31, n_events=500)
    path = tmp_path / "sim.txt"
    save_timestamps(train, path)
    reloaded = load_timestamps(path)
    np.testing.assert_allclose(
        compute_itis(reloaded).intervals, train.intervals_seconds(), rtol=0, atol=1e-12
    )


# ----------------------------------------------------------------------
# histogram
# ----------------------------------------------------------------------


def test_histogram_mass_and_normalization():
    rng = np.random.default_rng(11)
    data = ItiSet(rng.lognormal(mean=-1.0, sigma=1.2, size=5000))
    hist = log_binned_histogram(data)
    assert int(hist.counts.sum()) == hist.n_total == 5000
    assert float(np.sum(hist.densities * np.diff(hist.edges))) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(hist.edges) > 0)


def test_histogram_emits_empty_bins():
    # two tight clumps three decades apart leave a swath of empty bins
    data = ItiSet(np.concatenate([np.full(50, 0.01), np.full(50, 10.0)]))
    hist = log_binned_histogram(data)
    assert np.any(hist.counts == 0)
    assert np.all(hist.densities[hist.counts == 0] == 0.0)
    assert float(np.sum(hist.densities * np.diff(hist.edges))) == pytest.approx(1.0, abs=1e-12)


def test_histogram_single_value_fallback():
    data = ItiSet(np.full(17, 0.25))
    hist = log_binned_histogram(data)
    assert hist.counts.shape == (1,)
    assert hist.counts[0] == 17
    assert hist.edges[0] < 0.25 < hist.edges[1]
    assert float(np.sum(hist.densities * np.diff(hist.edges))) == pytest.approx(1.0, abs=1e-12)


def test_histogram_spans_the_data_and_validates_bins_per_decade():
    """The bins start at the shortest interval and reach the longest.
    Bins per decade below 1 or past the row cap are refused by name,
    10**400 included, whose float conversion used to overflow first."""
    data = ItiSet(np.array([0.5, 1.0, 2.0]))
    hist = log_binned_histogram(data, bins_per_decade=4)
    assert hist.edges[0] == 0.5
    assert hist.edges[-1] >= 2.0
    for bad in (0, -3, bio._MAX_TABLE_ROWS + 1, 10**400):
        with pytest.raises(ValueError, match="bins_per_decade"):
            log_binned_histogram(data, bins_per_decade=bad)


def test_histogram_refuses_bins_past_the_row_cap():
    """One decade at the cap's bins per decade fills the cap exactly; one
    more bin per decade, or two decades at the cap's, is refused before
    any bin is allocated."""
    data = ItiSet(np.array([1.0, 10.0]))
    assert log_binned_histogram(data, bins_per_decade=bio._MAX_TABLE_ROWS).counts.size == (
        bio._MAX_TABLE_ROWS
    )
    with pytest.raises(ValueError, match=f"cap of {bio._MAX_TABLE_ROWS} table rows"):
        log_binned_histogram(data, bins_per_decade=bio._MAX_TABLE_ROWS + 1)
    with pytest.raises(ValueError, match="needs 2000000 bins"):
        log_binned_histogram(ItiSet(np.array([0.01, 0.5, 1.0])), bins_per_decade=10**6)


def test_fit_log_slope_on_exact_power_law():
    """Pareto quantiles (a deterministic stand-in for a huge sample) must
    reproduce the tail exponent to well inside the acceptance band."""
    alpha = 1.61
    x_min = 0.01
    n = 400_000
    u = (np.arange(n) + 0.5) / n
    data = ItiSet(x_min * (1.0 - u) ** (-1.0 / alpha))
    hist = log_binned_histogram(data)
    # stay well below the sample maximum, where integer bin counts are
    # large enough that rounding noise cannot tilt the fit
    slope = fit_log_slope(hist, 0.02, 1.0)
    assert slope == pytest.approx(-(alpha + 1.0), abs=0.005)


def test_fit_log_slope_needs_occupied_bins():
    data = ItiSet(np.array([0.5, 1.0, 2.0]))
    hist = log_binned_histogram(data)
    with pytest.raises(ValueError, match="occupied bins"):
        fit_log_slope(hist, 100.0, 1000.0)


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------


def test_write_atomic(tmp_path):
    path = tmp_path / "artifact.json"
    write_atomic(path, "first\n")
    assert path.read_text() == "first\n"
    write_atomic(path, "second\n")
    assert path.read_text() == "second\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "artifact.json"]
    assert leftovers == []


def test_write_atomic_leaves_nothing_when_the_content_fails(tmp_path):
    """A content iterator that raises midway leaves no temp file and the
    target as it was, and the error reaches the caller."""
    path = tmp_path / "artifact.json"
    path.write_text("kept\n")

    def lines():
        yield "partial\n"
        raise RuntimeError("content failed")

    with pytest.raises(RuntimeError, match="content failed"):
        write_atomic(path, lines())
    assert path.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_write_atomic_gives_the_mode_open_would(tmp_path, umask):
    """A new file gets 0666 less the umask, not mkstemp's 0600, and a
    rewritten file keeps its mode, as open(path, "w") leaves them."""
    old = os.umask(umask)
    try:
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x\n")
        path = tmp_path / "sim.txt"
        write_atomic(path, "x\n")
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        path.chmod(0o640)
        write_atomic(path, ["y", "\n"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_text() == "y\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_write_atomic_leaves_the_umask_alone(tmp_path, monkeypatch, umask):
    """The modes above hold with os.umask unusable: write_atomic never
    reads the umask by setting it, which would briefly give every file
    another thread creates mode 0666."""
    old = os.umask(umask)

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    try:
        path = tmp_path / "sim.txt"
        write_atomic(path, "x\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
        path.chmod(0o640)
        write_atomic(path, ["y", "\n"])
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert path.read_text() == "y\n"
    assert [p.name for p in tmp_path.iterdir()] == ["sim.txt"]


# ----------------------------------------------------------------------
# fit serialization
# ----------------------------------------------------------------------


def _synthetic_result() -> FitResult:
    kernel = RefractoryKernel.log_spaced([-0.5, 0.0, 0.1 + 0.2, 0.0, 0.0, 0.0, 0.0, math.pi / 300])
    params = ModelParams(a=0.61, b=1.0, c=math.log(9.3), kernel=kernel)
    trace = (
        ObjectiveValue(-1500.25, 0.125, -1500.375),
        ObjectiveValue(-1400.0, 0.1, -1400.1),
    )
    return FitResult(
        params_star=params,
        objective_trace=trace,
        converged=True,
        reason="gradient tolerance",
        n_projections=2,
        bic=2817.125,
        n_data=3000,
        data_digest="abcdef0123456789",
    )


def test_serialize_fit_round_trip_exact():
    result = _synthetic_result()
    text = serialize_fit(result)
    back = deserialize_fit(text)
    assert back == result
    assert back.params_star.a == result.params_star.a
    assert back.params_star.kernel.gamma == result.params_star.kernel.gamma
    assert back.objective_trace == result.objective_trace
    # serialization is byte-stable under a second pass
    assert serialize_fit(back) == text


def test_serialize_fit_of_real_fit():
    data = ItiSet(np.geomspace(0.05, 20.0, 400))
    result = fit("M1", data)
    back = deserialize_fit(serialize_fit(result))
    assert back == result


def test_deserialize_rejects_bad_documents():
    with pytest.raises(ValueError, match="JSON"):
        deserialize_fit("{not json")
    with pytest.raises(ValueError, match="format"):
        deserialize_fit(json.dumps({"version": 1}))
    doc = json.loads(serialize_fit(_synthetic_result()))
    doc["version"] = 99
    with pytest.raises(ValueError, match="version 99"):
        deserialize_fit(json.dumps(doc))
    # an int past Python's int-string digit limit is invalid JSON; where no
    # limit is set, it is past the float range and refused by name
    doc["version"], doc["bic"] = 1, "@"
    with pytest.raises(ValueError, match="^fit document is not valid JSON: |'bic'"):
        deserialize_fit(json.dumps(doc).replace('"@"', "1" + "0" * 4999))


def test_deserialize_reads_a_stall_stop():
    """Fits no longer stop on "objective stall", but a v1 artifact written
    when they did still loads, reason and converged flag as written."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    doc["reason"] = "objective stall"
    back = deserialize_fit(json.dumps(doc, indent=2) + "\n")
    assert back.reason == "objective stall" and back.converged
    assert back == dataclasses.replace(_synthetic_result(), reason="objective stall")


def test_deserialize_names_missing_field():
    doc = json.loads(serialize_fit(_synthetic_result()))
    del doc["bic"]
    with pytest.raises(ValueError, match="'bic'"):
        deserialize_fit(json.dumps(doc))
    doc = json.loads(serialize_fit(_synthetic_result()))
    del doc["params"]["gamma"]
    with pytest.raises(ValueError, match="'gamma'"):
        deserialize_fit(json.dumps(doc))


@pytest.mark.parametrize(
    "field, value",
    [
        ("converged", "false"),
        ("converged", 1),
        ("n_projections", 2.9),
        ("n_projections", True),
        ("n_projections", -1),
        ("n_data", -5),
        ("n_data", 3000.0),
        ("objective_trace", []),
        ("objective_trace", None),
        ("bic", "3.0"),
        ("variant", 3),
        ("reason", 5),
        ("params", [0.61, 1.0]),
    ],
    ids=str,
)
def test_deserialize_refuses_a_field_of_the_wrong_type(field, value):
    """A field is read as its JSON type, never coerced: "false" is not
    true, 2.9 is not 2, "3.0" is not a number, and an empty trace, which
    leaves a result without an objective, is refused."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    doc[field] = value
    with pytest.raises(ValueError, match=f"'{field}'"):
        deserialize_fit(json.dumps(doc))


def _set(doc: dict, path: tuple, value) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("params", "a"), True, "'a'"),
        (("params", "a"), "0.5", "'a'"),
        (("params", "c"), None, "'c'"),
        (("params", "gamma", 2), "0.3", "'gamma'"),
        (("params", "alpha", 0), False, "'alpha'"),
        (("objective_trace", 1, 0), "-1400.0", "'objective_trace' row 1"),
        (("objective_trace", 0), [-1500.25, 0.125], "'objective_trace' row 0"),
        (("objective_trace", 0), [-1500.25, 0.125, -1500.375, 0.0], "'objective_trace' row 0"),
        (("version",), True, "version True"),
    ],
    ids=str,
)
def test_deserialize_refuses_a_coerced_value(path, value, named):
    """Every number is a JSON int or float, never a bool nor a numeric
    string, and a trace row holds exactly three: each refusal names its
    field or row."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    _set(doc, path, value)
    with pytest.raises(ValueError, match=named):
        deserialize_fit(json.dumps(doc))


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("params", "a"), 10**400, "'a'"),
        (("params", "b"), 10**400, "'b'"),
        (("params", "c"), -(10**400), "'c'"),
        (("bic",), 10**400, "'bic'"),
        (("params", "gamma", 2), 10**400, "'gamma'"),
        (("params", "alpha", 0), 10**400, "'alpha'"),
        (("objective_trace", 1, 0), -(10**400), "'objective_trace' row 1"),
    ],
    ids=["a", "b", "c", "bic", "gamma", "alpha", "trace"],
)
def test_deserialize_refuses_an_int_past_the_float_range(path, value, named):
    """A JSON int too large for a float is refused by name, not left to
    overflow when the field is stored as a float."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    _set(doc, path, value)
    with pytest.raises(ValueError, match=named):
        deserialize_fit(json.dumps(doc))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize(
    "path, named",
    [
        (("bic",), "'bic'"),
        (("objective_trace", 1, 0), "'objective_trace' row 1"),
        (("params", "gamma", 2), "'gamma'"),
        (("params", "alpha", 0), "'alpha'"),
    ],
    ids=["bic", "trace", "gamma", "alpha"],
)
def test_deserialize_refuses_a_non_finite_number(path, named, literal):
    """NaN, Infinity and 1e400, which json reads as inf, are refused by
    name: a NaN BIC would otherwise enter compare's ordering."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    _set(doc, path, "@")
    with pytest.raises(ValueError, match=named):
        deserialize_fit(json.dumps(doc).replace('"@"', literal))


def test_deserialize_refuses_an_alpha_list_without_gamma():
    """Decay rates beside no amplitudes are a malformed kernel, not an
    empty one: they are refused, not dropped."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    doc["variant"] = "M1"
    doc["params"]["gamma"] = []
    doc["params"]["alpha"] = [20.0]
    with pytest.raises(ValueError, match="gamma and alpha"):
        deserialize_fit(json.dumps(doc))


def test_deserialize_reads_whole_numbers_as_floats():
    """A JSON int is a number: it loads as the equal float."""
    doc = json.loads(serialize_fit(_synthetic_result()))
    doc["params"]["b"] = 1
    doc["bic"] = 2817
    back = deserialize_fit(json.dumps(doc))
    assert type(back.params_star.b) is float and back.params_star.b == 1.0
    assert type(back.bic) is float and back.bic == 2817.0


def test_deserialize_reads_a_zero_count_artifact():
    """No data, no projections and one all-zero trace row, as a record of
    known parameters carries, load as written."""
    record = dataclasses.replace(
        _synthetic_result(), objective_trace=(ObjectiveValue(0.0, 0.0, 0.0),),
        n_projections=0, bic=0.0, n_data=0,
    )
    back = deserialize_fit(serialize_fit(record))
    assert back == record and back.objective == 0.0


def test_serialize_comparison_shape():
    def result(objective, n_params):
        value = ObjectiveValue(objective, 0.0, objective)
        return FitResult(
            params_star=ModelParams(a=0.7, b=1.0, c=0.0),
            objective_trace=(value,),
            converged=True,
            reason="gradient tolerance",
            n_projections=0,
            bic=math.log(1000) * n_params - 2 * objective,
            n_data=1000,
            data_digest="feedc0de",
        )

    matrix = compare({"M1": result(-900.0, 2), "M2": result(-880.0, 3)})
    doc = json.loads(serialize_comparison(matrix))
    assert doc["format"] == "burstfit-comparison"
    assert doc["version"] == 1
    assert set(doc["bic"]) == {"M1", "M2"}
    verdicts = {(row["i"], row["j"]): row["verdict"] for row in doc["preference"]}
    assert verdicts[("M2", "M1")] == "i_favored"
    assert verdicts[("M1", "M2")] == "j_favored"
