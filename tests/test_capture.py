import dataclasses
import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pulsepair import capture
from pulsepair.capture import (
    FormatError,
    IntegrityError,
    RunMetadata,
    SoftwareTimingLog,
    TransitionStream,
    _write_csv,
    dump_run_metadata,
    dump_software_log,
    dump_transition_stream,
    load_run_metadata,
    load_software_log,
    load_transition_stream,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestTransitionStreamLoad:
    def test_minimal_valid_stream(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n0.000000,1\n0.001000,0\n")
        stream = load_transition_stream(p)
        assert len(stream) == 2
        assert (stream.times_s[0], stream.levels[0]) == (0.0, 1)
        assert stream.initial_level == 0

    def test_header_only_yields_empty_stream(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n")
        stream = load_transition_stream(p)
        assert len(stream) == 0

    def test_repeated_level_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n0.0,1\n0.5,1\n")
        with pytest.raises(IntegrityError, match="repeated level"):
            load_transition_stream(p)

    def test_non_monotone_time_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n0.5,1\n0.2,0\n")
        with pytest.raises(IntegrityError, match="not strictly after"):
            load_transition_stream(p)

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n0.0,1\nnope,0\n")
        with pytest.raises(FormatError, match=":3:"):
            load_transition_stream(p)

    def test_bad_level_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n0.0,2\n")
        with pytest.raises(FormatError, match="level"):
            load_transition_stream(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "time,lvl\n0.0,1\n")
        with pytest.raises(FormatError):
            load_transition_stream(p)

    def test_leading_falling_edge_implies_high_start(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n0.001000,0\n0.002000,1\n0.003000,0\n")
        stream = load_transition_stream(p)
        assert stream.initial_level == 1
        assert len(stream) == 3

    def test_negative_time_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "time_s,level\n-0.5,1\n")
        with pytest.raises(FormatError):
            load_transition_stream(p)

    def test_order_errors_name_the_real_line(self, tmp_path):
        # empty lines are skipped, but still counted in line numbers
        p = write(tmp_path, "t.csv", "time_s,level\n0.1,1\n\n0.2,0\n\n0.2,1\n")
        with pytest.raises(IntegrityError, match=r"t\.csv:6: time 0.2 not strictly after"):
            load_transition_stream(p)
        p = write(tmp_path, "t.csv", "time_s,level\n0.1,1\n\n0.2,0\n0.3,0\n")
        with pytest.raises(IntegrityError, match=r"t\.csv:5: repeated level"):
            load_transition_stream(p)

    def test_direct_construction_uses_the_same_validator(self):
        with pytest.raises(IntegrityError, match="not strictly after"):
            TransitionStream(times_s=[0.5, 0.2])
        with pytest.raises(IntegrityError, match="finite and >= 0"):
            TransitionStream(times_s=[np.nan])

    def test_round_trip_is_byte_identical(self, tmp_path):
        stream = TransitionStream(times_s=[0.0000001, 0.0013002, 0.2013003, 1.4013004])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_transition_stream(stream, p1)
        dump_transition_stream(load_transition_stream(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def csv_text(times, levels):
    return "time_s,level\n" + "".join(f"{t:.9f},{lv}\n" for t, lv in zip(times, levels))


def load_csv_text(text):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "t.csv"
        p.write_text(text)
        return load_transition_stream(p)


@given(
    st.lists(st.integers(min_value=1, max_value=10_000_000), min_size=0, max_size=60, unique=True)
)
def test_any_accepted_stream_is_monotone_and_alternating(ticks):
    # Build a stream on a 100 ns grid from unique sample indices.
    times = sorted(t * 1e-7 for t in ticks)
    stream = load_csv_text(csv_text(times, [(i + 1) % 2 for i in range(len(times))]))
    levels = stream.levels.tolist()
    assert all(a != b for a, b in zip(levels, levels[1:]))
    ts = stream.times_s.tolist()
    assert all(a < b for a, b in zip(ts, ts[1:]))


@given(
    st.lists(st.integers(min_value=1, max_value=10_000_000), min_size=2, max_size=60, unique=True),
    st.integers(min_value=1, max_value=58),
)
def test_level_violations_always_rejected(ticks, pos):
    times = sorted(t * 1e-7 for t in ticks)
    pos = min(pos, len(times) - 1)
    levels = [(i + 1) % 2 for i in range(len(times))]
    levels[pos] = levels[pos - 1]  # break alternation
    with pytest.raises(IntegrityError):
        load_csv_text(csv_text(times, levels))


@given(
    st.lists(st.integers(min_value=1, max_value=10_000_000), min_size=0, max_size=40, unique=True)
)
def test_randomized_canonical_files_round_trip(ticks):
    import tempfile
    from pathlib import Path

    times = sorted(t * 1e-7 for t in ticks)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        dump_transition_stream(TransitionStream(times_s=times), p1)
        dump_transition_stream(load_transition_stream(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSoftwareLogLoad:
    def test_complete_log(self, tmp_path):
        body = "iteration,latency_ms\n" + "".join(f"{i},{1.2 + i * 0.001:.6f}\n" for i in range(100))
        log = load_software_log(write(tmp_path, "s.csv", body), expected=100)
        assert log.complete
        assert log.iterations.size == 100

    def test_short_log_is_valid_but_incomplete(self, tmp_path):
        body = "iteration,latency_ms\n" + "".join(f"{i},1.5\n" for i in range(87))
        log = load_software_log(write(tmp_path, "s.csv", body), expected=100)
        assert not log.complete
        assert log.iterations.size == 87

    @pytest.mark.parametrize("indices", [
        [*range(50), *range(51, 101)],  # a gap at 50, then one index past the end
        [*range(1, 101)],
    ], ids=["gap", "shifted"])
    def test_log_not_indexed_from_zero_to_n_minus_one_is_incomplete(self, tmp_path, indices):
        body = "iteration,latency_ms\n" + "".join(f"{i},1.5\n" for i in indices)
        log = load_software_log(write(tmp_path, "s.csv", body), expected=100)
        assert log.iterations.size == 100
        assert not log.complete

    def test_negative_latency_rejected(self, tmp_path):
        p = write(tmp_path, "s.csv", "iteration,latency_ms\n0,-1.0\n")
        with pytest.raises(FormatError, match="positive finite"):
            load_software_log(p, expected=1)

    def test_nan_latency_rejected(self, tmp_path):
        p = write(tmp_path, "s.csv", "iteration,latency_ms\n0,nan\n")
        with pytest.raises(FormatError):
            load_software_log(p, expected=1)

    def test_duplicate_iteration_rejected_with_location(self, tmp_path):
        p = write(tmp_path, "s.csv", "iteration,latency_ms\n0,1.0\n0,1.1\n")
        with pytest.raises(FormatError, match=":3:.*duplicate"):
            load_software_log(p, expected=2)

    def test_index_beyond_int64_is_a_located_format_error(self, tmp_path):
        p = write(tmp_path, "s.csv", "iteration,latency_ms\n0,1.0\n77777777777777777777,1.0\n")
        with pytest.raises(FormatError, match=r"s\.csv:3: bad iteration index '7{20}'"):
            load_software_log(p, expected=2)

    def test_direct_construction_uses_the_same_validator(self):
        with pytest.raises(IntegrityError, match="not strictly ascending"):
            SoftwareTimingLog(run_id="r", iterations_expected=2, iterations=[1, 0],
                              latencies_ms=[1.0, 1.0])
        with pytest.raises(IntegrityError, match="positive finite"):
            SoftwareTimingLog(run_id="r", iterations_expected=1, iterations=[0],
                              latencies_ms=[0.0])

    def test_round_trip_is_byte_identical(self, tmp_path):
        log = SoftwareTimingLog(
            run_id="r", iterations_expected=3, iterations=[0, 1, 2], latencies_ms=[1.234567, 1.2, 250.0]
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_software_log(log, p1)
        dump_software_log(load_software_log(p1, expected=3, run_id="r"), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestRunMetadata:
    def meta(self, **over):
        base = dict(
            run_id="r1",
            architecture="gpu_engine",
            condition="baseline",
            marker_width_ms=200.0,
            marker_threshold_ms=100.0,
            iterations_expected=100,
            warmup_iterations=10,
        )
        base.update(over)
        return RunMetadata(**base)

    def test_threshold_must_be_below_width(self):
        with pytest.raises(IntegrityError):
            self.meta(marker_threshold_ms=250.0)

    def test_nonpositive_sample_period_rejected(self):
        with pytest.raises(IntegrityError, match="sample_period_s"):
            self.meta(sample_period_s=0.0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(IntegrityError):
            self.meta(warmup_iterations=-1)

    def test_json_round_trip(self, tmp_path):
        meta = self.meta(gpio_line_verified_absent=True)
        p = tmp_path / "m.json"
        dump_run_metadata(meta, p)
        assert load_run_metadata(p) == meta

    @pytest.mark.parametrize("key,value", [
        ("iterations_expected", 100.9),
        ("iterations_expected", True),
        ("warmup_iterations", 2.5),
        ("warmup_iterations", False),
    ])
    def test_non_integral_count_rejected(self, tmp_path, key, value):
        raw = {**dataclasses.asdict(self.meta()), key: value}
        p = write(tmp_path, "m.json", json.dumps(raw))
        with pytest.raises(FormatError, match=f"m.json: {key} is not a valid integer"):
            load_run_metadata(p)

    def test_integral_float_count_accepted(self, tmp_path):
        raw = {**dataclasses.asdict(self.meta()), "iterations_expected": 100.0}
        p = write(tmp_path, "m.json", json.dumps(raw))
        assert load_run_metadata(p) == self.meta()

    def test_missing_key_rejected(self, tmp_path):
        p = write(tmp_path, "m.json", '{"run_id": "x"}')
        with pytest.raises(FormatError, match="missing metadata keys"):
            load_run_metadata(p)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
    def test_gpio_flag_must_be_a_json_boolean(self, tmp_path, value):
        # bool("false") is True: a quoted flag would turn class B into D
        raw = {**dataclasses.asdict(self.meta()), "gpio_line_verified_absent": value}
        p = write(tmp_path, "m.json", json.dumps(raw))
        with pytest.raises(FormatError, match="m.json: gpio_line_verified_absent must be"):
            load_run_metadata(p)

    @pytest.mark.parametrize("text", ['{"run_id": ', "5", '["run_id"]', '"run_id"', b"\xff{}"],
                             ids=["truncated", "number", "list", "string", "not_utf8"])
    def test_text_that_is_not_a_json_object_is_a_format_error(self, tmp_path, text):
        p = tmp_path / "m.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(FormatError, match=r"m\.json: "):
            load_run_metadata(p)


# ---------------------------------------------------------------------------
# The CSV writer's exactness against Python `%`, its reference


def percent_csv(path, header, columns, decimals):
    """What `_write_csv` must write: Python `%` on every cell, row by row."""
    fmt = ",".join("%d" if n is None else f"%.{n}f" for n in decimals) + "\n"
    rows = zip(*(np.asarray(col).tolist() for col in columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n" + "".join(fmt % row for row in rows))


def hard_floats(n):
    """Finite doubles, weighted to where `rint(|x|·10^n)` is hardest to get right."""
    limit = 2.0 ** 52 / 10 ** n
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),  # both signs, -0.0, subnormals, huge
        st.integers(-(2 ** 20), 2 ** 20).map(lambda k: k / 128),  # exact binary ties
        st.integers(-(10 ** 7), 10 ** 7).map(lambda k: (k + 0.5) / 10 ** n),  # decimal halves
        st.integers(0, 8).map(lambda k: math.nextafter(limit, 0) - k * math.ulp(limit)),
        st.floats(-1e-6, 1e-6),
        st.just(-0.0),
    )


@st.composite
def csv_columns(draw, plain=False):
    """(columns, decimals): one float column of N decimals beside an int64 column.

    Plain columns hold only what the reader's kernel takes: non-negative
    fields of at most 15 digits, in at most 40 rows and so in fewer runs of
    one layout than it allows.
    """
    n = draw(st.integers(0, 9))
    if plain:
        cells = st.tuples(st.floats(0, 10.0 ** (15 - n) - 1), st.integers(0, 10 ** 15 - 1))
    else:
        cells = st.tuples(hard_floats(n), st.integers(-(2 ** 63), 2 ** 63 - 1))
    rows = draw(st.lists(cells, max_size=40))
    floats = np.array([f for f, _ in rows], dtype=np.float64)
    ints = np.array([i for _, i in rows], dtype=np.int64)
    if draw(st.booleans()):
        return (floats, ints), (n, None)
    return (ints, floats), (None, n)


@settings(max_examples=300, deadline=None)
@given(csv_columns(), st.integers(1, 8))
def test_writer_matches_percent_formatting(case, chunk_rows):
    columns, decimals = case
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(capture, "_CSV_CHUNK_ROWS", chunk_rows):  # cross chunk edges
            _write_csv(got, "a,b", columns, decimals)
        percent_csv(want, "a,b", columns, decimals)
        assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writer_rejects_non_finite_values(tmp_path, bad):
    with pytest.raises(ValueError, match="non-finite"):
        _write_csv(tmp_path / "x.csv", "a,b", ([1.0, bad], [0, 1]), (6, None))


def test_writer_with_no_rows_writes_the_header_only(tmp_path):
    _write_csv(tmp_path / "x.csv", "a,b", (np.zeros(0), np.zeros(0, dtype=np.int64)), (9, None))
    assert (tmp_path / "x.csv").read_bytes() == b"a,b\n"


# ---------------------------------------------------------------------------
# The CSV reader's kernel against np.loadtxt, its reference

#: Bytes inserted into a written file: signs, exponents, spaces, CR, empty lines,
#: `.5` and `5.`, second commas, 16+ digits, leading zeros and non-ASCII bytes.
EDITS = [b"-", b"+", b"e3", b"E-2", b" ", b"\r", b"\n", b".", b",", b"0", b"000",
         b"7" * 16, b"\xc3\xa9", b"\xff"]


def read_both_ways(path, columns):
    """_read_csv's result, or its error's type and text, by the kernel and by np.loadtxt."""
    results = []
    for min_bytes in (0, math.inf):
        with mock.patch.object(capture, "_KERNEL_MIN_BYTES", min_bytes):
            try:
                results.append(capture._read_csv(path, "a,b", columns))
            except ValueError as exc:  # UnicodeDecodeError included
                results.append((type(exc), str(exc)))
    return results


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8), st.data())
def test_reader_kernel_matches_loadtxt(chunk_rows, data):
    plain = data.draw(st.booleans())
    values, decimals = data.draw(csv_columns(plain))
    columns = [(np.int64, "bad int") if n is None else (np.float64, "bad float") for n in decimals]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        _write_csv(path, "a,b", values, decimals)
        raw = path.read_bytes()
        edit = data.draw(st.sampled_from([None, b"", *EDITS]))  # b"": drop the final newline
        if edit == b"":
            raw = raw[:-1]
        elif edit is not None:
            marks = [i for i in range(len(raw) + 1)
                     if raw[i - 1:i] in (b"\n", b",") or raw[i:i + 1] in (b"\n", b",", b".")]
            at = data.draw(st.sampled_from(marks) | st.integers(0, len(raw)))
            raw = raw[:at] + edit + raw[at:]
        path.write_bytes(raw)
        if plain and edit is None:
            assert capture._fixed_layout(raw, "a,b", columns) is not None
        with mock.patch.object(capture, "_PARSE_CHUNK_ROWS", chunk_rows):  # cross chunk edges
            kernel, reference = read_both_ways(path, columns)
    if isinstance(reference[0], type):
        assert kernel == reference
        return
    assert [c.dtype for c in kernel] == [c.dtype for c in reference]
    for got, want in zip(kernel, reference):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_last_row_error_is_located_without_a_copy_of_the_file(tmp_path):
    n = 100_000
    iterations = np.arange(n)
    iterations[-1] = iterations[-2]
    path = tmp_path / "s.csv"
    _write_csv(path, capture.SOFTWARE_HEADER, (iterations, np.ones(n)), (None, 6))
    with pytest.raises(FormatError, match=rf"s\.csv:{n + 1}: duplicate iteration index"):
        load_software_log(path, expected=n)
    tracemalloc.start()
    try:
        located = capture._located(path, IntegrityError("bad", row=n - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(located) == f"{path}:{n + 1}: bad"
    assert peak < 2 * path.stat().st_size


# ---------------------------------------------------------------------------
# The reader's error messages against the whole-file scan, their reference


def whole_file_unparsable(path, columns, exc):
    """What `_unparsable` said when it held every line at once: the reference for one bad line.

    It names a wrong field count anywhere before a bad cell, so with two
    bad lines it may name the later one.
    """
    lines = np.array(path.read_text().split("\n"), dtype=str)
    lineno = np.flatnonzero(np.char.str_len(lines) > 0)[1:] + 1
    rows = lines[lineno - 1]
    fields = np.char.count(rows, ",") + 1
    if (fields != 2).any():
        bad = int(np.flatnonzero(fields != 2)[0])
        return FormatError(f"{path}:{lineno[bad]}: expected 2 fields, got {fields[bad]}")
    cells = np.char.partition(rows, ",")[:, ::2]
    found = []
    for col, (dtype, _) in enumerate(columns):
        for row, cell in enumerate(cells[:, col]):
            try:
                np.array([cell]).astype(dtype)
            except (ValueError, OverflowError):
                found.append((row, col))
                break
    if not found:
        return FormatError(f"{path}: {exc}")
    row, col = min(found)
    return FormatError(f"{path}:{lineno[row]}: {columns[col][1]} {str(cells[row, col])!r}")


def counted_located(path, exc):
    """What `_located` said when it counted lines on its own."""
    cls = FormatError if exc.malformed else IntegrityError
    with path.open() as fh:
        filled = (lineno for lineno, line in enumerate(fh, 1) if line != "\n")
        lineno = next(itertools.islice(filled, exc.row + 1, None))  # the header fills line 1
    return cls(f"{path}:{lineno}: {exc}")


#: Texts a fault puts in one cell that no loader parses, including cells that add a field.
UNPARSABLE_CELLS = ["nope", "", "1e", "0x1", "é", "1.5.2", "1,5", "1,,"]

#: Texts a fault puts in one cell that parse: values a validator rejects, and
#: "1_0", which the plain conversion takes but np.loadtxt does not.
PARSABLE_CELLS = ["-1", "2", "0", "nan", "inf", "77777777777777777777", "1_0", " "]

#: Texts a fault puts in place of a whole line.
BAD_LINES = ["x", "1", "1,2,3", " ", ",", "a,b", "\t"]


@st.composite
def faulty_csv(draw, faults=1, cells=UNPARSABLE_CELLS + PARSABLE_CELLS, repeats=True):
    """(software, text, bad line numbers): a transition or software CSV with `faults` bad lines.

    Empty lines fall anywhere after the header, lines end in LF or CRLF, and
    the last one may lack its end. A fault puts one of `cells` in a cell,
    replaces a line, or (with `repeats`) repeats the line before it, which
    repeats a level or an index.
    """
    software = draw(st.booleans())
    n = draw(st.integers(faults, 30))
    rows = [[str(i), f"{1 + i / 100:.6f}"] if software else [f"{(i + 1) / 1000:.6f}", str((i + 1) % 2)]
            for i in range(n)]
    bad = draw(st.lists(st.integers(0, n - 1), min_size=faults, max_size=faults, unique=True))
    for k in bad:
        fault = draw(st.sampled_from(["cell", "line", "repeat"] if repeats and k else ["cell", "line"]))
        if fault == "cell":
            rows[k][draw(st.integers(0, 1))] = draw(st.sampled_from(cells))
        elif fault == "line":
            rows[k] = [draw(st.sampled_from(BAD_LINES))]
        else:
            rows[k] = list(rows[k - 1])
    gaps = draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1))  # empty lines
    linenos = np.cumsum(np.add(gaps[:-1], 1)) + 1
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    header = capture.SOFTWARE_HEADER if software else capture.TRANSITION_HEADER
    text = header + "".join(eol * (gap + 1) + ",".join(row) for gap, row in zip(gaps, rows))
    text += eol * (gaps[-1] + draw(st.integers(0, 1)))
    return software, text, sorted(int(linenos[k]) for k in bad)


def load_error(text, software):
    """The type and message of the error loading a file of `text`, or None if it loads."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.csv"
        path.write_bytes(text.encode())
        try:
            if software:
                load_software_log(path, expected=1)
            else:
                load_transition_stream(path)
        except ValueError as exc:
            return type(exc), str(exc).removeprefix(str(path))
    return None


@settings(max_examples=400, deadline=None)
@given(faulty_csv(), st.integers(1, 8))
def test_one_bad_line_reads_as_the_whole_file_scan_read_it(case, block_rows):
    software, text, _ = case
    with mock.patch.object(capture, "_PARSE_CHUNK_ROWS", block_rows):  # cross block edges
        got = load_error(text, software)
    with mock.patch.object(capture, "_unparsable", whole_file_unparsable), \
            mock.patch.object(capture, "_located", counted_located):
        assert got == load_error(text, software)


@settings(max_examples=200, deadline=None)
@given(faulty_csv(faults=3, cells=UNPARSABLE_CELLS, repeats=False), st.integers(1, 8))
def test_the_first_bad_line_in_file_order_is_named(case, block_rows):
    software, text, bad = case
    with mock.patch.object(capture, "_PARSE_CHUNK_ROWS", block_rows):
        assert load_error(text, software)[1].startswith(f":{bad[0]}: ")


def test_a_bad_cell_before_a_wrong_field_count_is_named_first(tmp_path):
    p = write(tmp_path, "t.csv", "time_s,level\n0.1,1\nx,0\n0.3,1,5\n")
    with pytest.raises(FormatError, match=r"^.*t\.csv:3: bad time value 'x'$"):
        load_transition_stream(p)


def test_bytes_that_are_not_utf8_are_a_located_format_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"time_s,level\n0.1,1\n\n\xff\xfe,1\n")
    with pytest.raises(FormatError, match=r"t\.csv:4: bad time value '\\udcff\\udcfe'"):
        load_transition_stream(p)
    p.write_bytes(b"time_s,level\xff\n0.1,1\n")
    with pytest.raises(FormatError, match=r"t\.csv:1: expected header"):
        load_transition_stream(p)


def test_last_row_parse_error_holds_one_block(tmp_path):
    n = 200_000
    path = tmp_path / "s.csv"
    _write_csv(path, capture.SOFTWARE_HEADER, (np.arange(n), np.ones(n)), (None, 6))
    with path.open("a") as fh:
        fh.write("nope,1.0\n")
    with pytest.raises(FormatError, match=rf"s\.csv:{n + 2}: bad iteration index 'nope'"):
        load_software_log(path, expected=n)
    tracemalloc.start()
    try:
        error = capture._unparsable(path, capture._SOFTWARE_COLUMNS, ValueError())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(error) == f"{path}:{n + 2}: bad iteration index 'nope'"
    assert peak < 2 * path.stat().st_size  # the whole-file scan held 20 times the file
