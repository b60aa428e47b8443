"""Core domain types and file ingestion for both timing channels.

Two channels describe one capture run: an externally observed stream of
logic-level transitions (what a logic analyzer exports) and the
software-reported per-iteration latency log. Run metadata binds them
together and carries the marker configuration.

Both channels are held as columns. A transition stream is an array of
edge times whose levels are implied by alternation; a software log is an
array of iteration indices beside an array of latencies.

Wire units are seconds for transition timestamps and milliseconds for
latencies; all widths downstream are reported in milliseconds.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TRANSITION_HEADER = "time_s,level"
SOFTWARE_HEADER = "iteration,latency_ms"

#: Resolution floor for a 10 MS/s capture (100 ns per sample).
DEFAULT_SAMPLE_PERIOD_S = 1e-7

ARCH_GPU_ENGINE = "gpu_engine"
ARCH_CPU_RUNTIME = "cpu_runtime"

COND_BASELINE = "baseline"
COND_MEMORY_STRESS_LIGHT = "memory_stress_light"
COND_STORAGE_STRESS = "storage_stress"


class FormatError(ValueError):
    """A file row could not be parsed; message carries the line number."""


class IntegrityError(ValueError):
    """Parsed data violates a stream/log invariant.

    `row` is the 0-based index of the offending row. `malformed` marks a
    value that is wrong on its own rather than against its neighbours; a
    loader reports it as a FormatError, like a value it cannot parse.
    """

    def __init__(self, message: str, row: int | None = None, malformed: bool = False):
        super().__init__(message)
        self.row = row
        self.malformed = malformed


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True, eq=False)
class TransitionStream:
    """Ordered edge times, in seconds, from one external capture channel.

    Levels are implied: the line starts at `initial_level` and every edge
    flips it, so a stream whose first edge falls has `initial_level` 1.
    An empty stream is valid and meaningful: it is how a complete
    acquisition failure presents.
    """

    times_s: np.ndarray
    initial_level: int = 0

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times_s, dtype=np.float64)
        object.__setattr__(self, "times_s", times)
        if self.initial_level not in (0, 1):
            raise IntegrityError(f"initial_level must be 0 or 1, got {self.initial_level}")
        bad = _first(~(np.isfinite(times) & (times >= 0)))
        back = _first(np.diff(times, prepend=-np.inf) <= 0)
        if bad is not None and (back is None or bad <= back):
            raise IntegrityError(
                f"transition time must be finite and >= 0, got {times[bad]}", bad, malformed=True
            )
        if back is not None:
            raise IntegrityError(f"time {times[back]} not strictly after {times[back - 1]}", back)

    def __len__(self) -> int:
        return self.times_s.size

    @property
    def levels(self) -> np.ndarray:
        """The level each edge settles at."""
        return (np.arange(self.times_s.size) + 1 + self.initial_level) % 2


@dataclass(frozen=True, eq=False)
class SoftwareTimingLog:
    """Per-iteration software-reported latencies for one run, as two columns."""

    run_id: str
    iterations_expected: int
    iterations: np.ndarray
    latencies_ms: np.ndarray

    def __post_init__(self) -> None:
        its = np.ascontiguousarray(self.iterations, dtype=np.int64)
        lats = np.ascontiguousarray(self.latencies_ms, dtype=np.float64)
        object.__setattr__(self, "iterations", its)
        object.__setattr__(self, "latencies_ms", lats)
        if its.shape != lats.shape:
            raise IntegrityError(f"{its.size} iteration indices for {lats.size} latencies")
        back = _first(np.diff(its, prepend=-1) <= 0)
        bad = _first(~(np.isfinite(lats) & (lats > 0)))
        if back is not None and (bad is None or back <= bad):
            if np.any(its[:back] == its[back]):
                raise IntegrityError(f"duplicate iteration index {its[back]}", back, malformed=True)
            prev = its[back - 1] if back else -1
            raise IntegrityError(
                f"iteration index {its[back]} not strictly ascending (after {prev})", back
            )
        if bad is not None:
            raise IntegrityError(
                f"iteration {its[bad]}: latency must be positive finite, got {lats[bad]}",
                bad, malformed=True,
            )

    @property
    def complete(self) -> bool:
        """Indices are exactly 0 .. iterations_expected - 1.

        They are strictly ascending, so the count and both ends settle it.
        """
        its, n = self.iterations, self.iterations_expected
        return its.size == n and (n == 0 or (int(its[0]), int(its[-1])) == (0, n - 1))

    @property
    def rows(self) -> np.ndarray:
        """One (iteration, latency_ms) row per logged iteration."""
        return np.column_stack((self.iterations, self.latencies_ms))


@dataclass(frozen=True)
class RunMetadata:
    """Run configuration shared by both channels.

    `gpio_line_verified_absent` is a manual override recorded at setup
    when physical pin-mapping verification showed the observed line never
    toggled; it cannot be inferred from the data alone.
    """

    run_id: str
    architecture: str
    condition: str
    marker_width_ms: float
    marker_threshold_ms: float
    iterations_expected: int
    warmup_iterations: int
    sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S
    gpio_line_verified_absent: bool = False

    def __post_init__(self) -> None:
        if not self.marker_threshold_ms > 0:
            raise IntegrityError(
                f"marker_threshold_ms must be positive, got {self.marker_threshold_ms}"
            )
        if self.marker_threshold_ms >= self.marker_width_ms:
            raise IntegrityError(
                f"marker_threshold_ms ({self.marker_threshold_ms}) must be below "
                f"marker_width_ms ({self.marker_width_ms})"
            )
        if self.warmup_iterations < 0:
            raise IntegrityError("warmup_iterations must be >= 0")
        if self.iterations_expected <= 0:
            raise IntegrityError("iterations_expected must be positive")
        if not self.sample_period_s > 0:
            raise IntegrityError(f"sample_period_s must be positive, got {self.sample_period_s}")
        if not isinstance(self.gpio_line_verified_absent, bool):  # bool("false") is True
            raise IntegrityError("gpio_line_verified_absent must be true or false, got "
                                 f"{self.gpio_line_verified_absent!r}", malformed=True)


# ---------------------------------------------------------------------------
# Two-column CSV files

#: (dtype, what a cell that does not parse is called) per column.
_TRANSITION_COLUMNS = ((np.float64, "bad time value"), (np.int64, "level must be 0 or 1, got"))
_SOFTWARE_COLUMNS = ((np.int64, "bad iteration index"), (np.float64, "bad latency value"))


def _read_csv(path: Path, header: str, columns) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a two-column CSV, one array per header name.

    Empty lines are skipped; a header-only file yields no rows. A file of
    at least `_KERNEL_MIN_BYTES` is first offered to `_fixed_layout`; what
    it declines, and every smaller file, goes through np.loadtxt. Both give
    the same arrays, and only np.loadtxt raises.
    """
    dtype = [(name, t) for name, (t, _) in zip(header.split(","), columns)]
    with path.open(errors="surrogateescape") as fh:  # a byte that is not UTF-8 fails to parse
        if os.fstat(fh.fileno()).st_size >= _KERNEL_MIN_BYTES:
            parsed = _fixed_layout(fh.buffer.read(), header, columns)
            if parsed is not None:
                return parsed
            fh.seek(0)
        first = fh.readline().rstrip("\n")
        if first != header:
            raise FormatError(f"{path}:1: expected header '{header}', got {first!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise _unparsable(path, columns, exc) from None
    return rows[dtype[0][0]], rows[dtype[1][0]]


#: Smaller files skip the kernel, whose fixed cost per file makes it slower on 100 rows.
_KERNEL_MIN_BYTES = 1 << 16

#: Rows per kernel step and per block of the error scan: bounds what either holds at once.
_PARSE_CHUNK_ROWS = 1 << 12

#: The kernel declines a file with this many runs of rows of one layout or more.
_MAX_RUNS = 64

#: Digits per field, so that every field is an integer below 2**53 before its point is placed.
_MAX_DIGITS = 15


def _fixed_layout(data: bytes, header: str, columns) -> tuple[np.ndarray, np.ndarray] | None:
    """The columns np.loadtxt reads from the bytes `data`, or None if this kernel declines.

    It takes a file whose lines end in LF, the last one included, and whose
    rows fall into fewer than `_MAX_RUNS` runs of one layout. Every field
    must be `digits[.digits]` (`digits` for an int column) with at most
    `_MAX_DIGITS` digits. A run's layout comes from its first row and holds
    until a row does not fit it, where the next run begins. A field is then
    `v / 10**k` with `v` and every partial sum of the matrix product that
    builds it exact integers below 2**53, so the one division rounds as
    strtod does (Clinger's fast path). Nothing but the two columns grows
    with the file.
    """
    head = header.encode() + b"\n"
    if not (data.startswith(head) and data.endswith(b"\n")):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    n = data.count(b"\n") - 1
    out = tuple(np.empty(n, dtype=dtype) for dtype, _ in columns)
    row, start = 0, len(head)
    for _ in range(_MAX_RUNS):
        if row == n:
            return out
        line = data.index(b"\n", start) + 1 - start
        layout = _row_layout(data[start:start + line], columns)
        if layout is None:
            return None
        # Tiled over a chunk, base and limit check it in one pass over contiguous bytes.
        base, limit, weights, scales = layout
        base, limit = np.tile(base, _PARSE_CHUNK_ROWS), np.tile(limit, _PARSE_CHUNK_ROWS)
        first = row
        while row < n:
            rows = min(n - row, _PARSE_CHUNK_ROWS)
            fit = min(rows, (buf.size - start) // line)
            digits = buf[start:start + fit * line] - base[:fit * line]  # wraps below the base
            bad = digits > limit[:fit * line]
            if bad.any():  # the run ends at the first row that does not fit its layout
                fit = int(bad.reshape(-1, line).any(axis=1).argmax())
            values = digits[:fit * line].reshape(fit, line) @ weights
            for col, scale, v in zip(out, scales, values.T):
                np.divide(v, scale, out=col[row:row + fit], casting="unsafe")
            row, start = row + fit, start + fit * line
            if fit < rows:
                break
        if row == first:  # the run's first row does not fit its own layout
            return None
    return None


def _row_layout(line: bytes, columns):
    """(base, limit, weights, scales) for the lines laid out like `line`, or None.

    A line's bytes less `base` are at most `limit` (9 at a digit, 0 at the
    comma, a point and the newline) exactly when the line has this layout.
    Its digits times `weights` (a length x 2 matrix of powers of ten) are
    each field's digits read as one integer, and dividing that by `scales`
    places the point.
    """
    fields = line[:-1].split(b",")
    if len(fields) != 2:
        return None
    base = np.full(len(line), ord("0"), dtype=np.uint8)
    limit = np.full(len(line), 9, dtype=np.uint8)
    weights = np.zeros((len(line), 2))
    scales = []
    at = 0
    for col, (field, (dtype, _)) in enumerate(zip(fields, columns)):
        whole, point, frac = field.partition(b".")
        ndigits = len(whole) + len(frac)
        if not whole or (point and (not frac or dtype is not np.float64)) or ndigits > _MAX_DIGITS:
            return None
        places = at + np.r_[:len(whole), len(whole) + len(point):len(field)]
        weights[places, col] = 10 ** np.arange(ndigits - 1, -1, -1)  # exact int64 powers
        if point:
            base[at + len(whole)], limit[at + len(whole)] = ord("."), 0
        scales.append(float(10 ** len(frac)))
        at += len(field) + 1
    for sep in (len(fields[0]), -1):  # the comma and the newline
        base[sep], limit[sep] = line[sep], 0
    return base, limit, weights, scales


def _data_blocks(path: Path):
    """The data rows as (line number, text) pairs, in blocks of `_PARSE_CHUNK_ROWS`."""
    with path.open(errors="surrogateescape") as fh:  # lines counted as np.loadtxt counts them
        filled = ((n, line.rstrip("\n")) for n, line in enumerate(fh, 1) if line != "\n")
        next(filled)  # the header
        while block := tuple(itertools.islice(filled, _PARSE_CHUNK_ROWS)):
            yield block


def _first_unconvertible(cells: np.ndarray, dtype) -> int | None:
    """Index of the first cell that does not convert to dtype, found by bisection."""
    lo, hi = 0, cells.size + 1  # cells[lo:hi] holds the first bad cell; index size means none
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            cells[lo:mid].astype(dtype)
            lo = mid
        except (ValueError, OverflowError):  # an int64 cell of 20 digits overflows
            hi = mid
    return lo if lo < cells.size else None


def _unparsable(path: Path, columns, exc: ValueError) -> FormatError:
    """Name the first line np.loadtxt could not parse, and what is wrong with it."""
    for block in _data_blocks(path):
        lineno, text = zip(*block)
        cells = np.char.partition(np.array(text, dtype=str), ",")[:, ::2]
        found = [(row, col) for col, (dtype, _) in enumerate(columns)
                 if (row := _first_unconvertible(cells[:, col], dtype)) is not None]
        if found:
            row, col = min(found)
            fields = text[row].count(",") + 1  # 1 or 3+ fields leave a bad second cell
            problem = (f"expected 2 fields, got {fields}" if fields != 2
                       else f"{columns[col][1]} {str(cells[row, col])!r}")
            return FormatError(f"{path}:{lineno[row]}: {problem}")
    return FormatError(f"{path}: {exc}")  # np.loadtxt rejects a cell astype takes, such as "1_0"


def _located(path: Path, exc: IntegrityError) -> ValueError:
    """The loader's form of a validator error: prefixed by file and line."""
    block, row = divmod(exc.row, _PARSE_CHUNK_ROWS)
    lineno, _ = next(itertools.islice(_data_blocks(path), block, None))[row]
    return (FormatError if exc.malformed else IntegrityError)(f"{path}:{lineno}: {exc}")


#: Rows formatted per write: bounds the digit matrices held at once.
_CSV_CHUNK_ROWS = 1 << 14

#: The four ASCII digits of 0 .. 9999, one uint32 each, so one lookup renders four digits.
#: Built from the 100 digit pairs, so no temporary of 10^4 x 4 ints raises peak RSS at import.
_PAIRS = (np.arange(100, dtype=np.uint8)[:, None] // np.array([10, 1], np.uint8) % 10
          + ord("0")).view(np.uint16).ravel()
_QUADS = np.stack((np.repeat(_PAIRS, 100), np.tile(_PAIRS, 100)), axis=1).view(np.uint32).ravel()


def _cells(values: np.ndarray, decimals: int | None, end: str) -> tuple[np.ndarray, np.ndarray]:
    """The bytes `%.<decimals>f` (or `%d` for None) gives each value, followed by `end`.

    Returns a uint8 matrix, one right-aligned cell per row, and the mask
    of its non-blank bytes. A float is scaled to the integer `rint(|x|·10^N)`,
    which is the decimal rounding `%` makes of the binary value unless the
    product `y`'s rounding error (at most `y·2^-53`) could reach a
    half-integer: its fraction lies within `y·2^-50 + 2^-40` of 0.5. Those
    values, the exact ties and every huge value among them, take their
    text from `%` itself.
    """
    point = decimals or 0
    if decimals is None:
        neg = values < 0
        mag = np.abs(values).astype(np.uint64)  # |-2**63| wraps to -2**63, read as 2**63
        fallback = np.zeros(0, dtype=np.intp)
    else:
        neg = np.signbit(values)
        y = np.minimum(np.abs(values), 2.0 ** 60) * 10.0 ** decimals  # finite
        near = np.rint(y)
        # From y = 2**49 up the band covers every fraction: huge values fall back too.
        fallback = np.flatnonzero(np.abs(y - near) >= 0.5 - 2.0 ** -40 - y * 2.0 ** -50)
        near[fallback] = 0.0
        mag = near.astype(np.uint64)
    digits = max(len(str(mag.max(initial=0))), point + 1)  # at least "0" before the point
    quads = -(-digits // 4)
    texts = [b"%.*f" % (decimals, v) for v in values[fallback].tolist()]
    lead = digits - point
    width = max(1 + digits + (point > 0), max(map(len, texts), default=0)) + 1

    block = np.empty((values.size, quads), dtype=np.uint32)
    rest = mag
    for j in range(quads - 1, -1, -1):
        div = rest // 10_000
        block[:, j] = _QUADS.take(rest - div * 10_000)
        rest = div
    chars = block.view(np.uint8)[:, 4 * quads - digits:]
    mat = np.empty((values.size, width), dtype=np.uint8)
    mask = np.zeros((values.size, width), dtype=bool)
    tail = width - 1 - point - (point > 0)  # the column right of the units digit
    mat[:, tail - lead:tail] = chars[:, :lead]
    for k in range(1, lead):  # a digit left of the units shows when mag reaches it
        np.greater_equal(mag, 10 ** (point + k), out=mask[:, tail - 1 - k])
    mask[:, tail - 1:] = True
    if point:
        mat[:, tail] = ord(".")
        mat[:, tail + 1:-1] = chars[:, lead:]
    mat[:, -1] = ord(end)
    mat[:, 0], mask[:, 0] = ord("-"), neg
    if texts:
        padded = np.frombuffer(b"".join(t.rjust(width - 1) for t in texts), dtype=np.uint8)
        mat[fallback, :-1] = padded.reshape(len(texts), width - 1)
        mask[fallback, :-1] = mat[fallback, :-1] != ord(" ")
    return mat, mask


def _write_csv(path: str | Path, header: str, columns, decimals) -> None:
    """Write the header, then one line per row of `columns`.

    `decimals` holds one entry per column: N formats it as `%.Nf`, None
    as `%d`; the bytes are exactly what `%` writes. Non-finite floats
    raise ValueError, since no loader reads them back.
    """
    columns = [np.asarray(c, dtype=np.int64 if n is None else np.float64)
               for c, n in zip(columns, decimals)]
    for col, n in zip(columns, decimals):
        if n is not None and not np.isfinite(col).all():
            raise ValueError(f"{path}: cannot write a non-finite value")
    ends = [","] * (len(columns) - 1) + ["\n"]
    with Path(path).open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, columns[0].size, _CSV_CHUNK_ROWS):
            mats, masks = zip(*(_cells(col[start:start + _CSV_CHUNK_ROWS], n, end)
                                for col, n, end in zip(columns, decimals, ends)))
            fh.write(np.hstack(mats)[np.hstack(masks)].tobytes())


# ---------------------------------------------------------------------------
# Transition CSV


def load_transition_stream(path: str | Path) -> TransitionStream:
    """Read a `time_s,level` digital-export CSV into a TransitionStream.

    A header-only file yields an empty stream (that outcome is data, not
    an error). Malformed rows raise FormatError with the line number;
    non-monotone times or repeated levels raise IntegrityError.
    """
    path = Path(path)
    times, levels = _read_csv(path, TRANSITION_HEADER, _TRANSITION_COLUMNS)
    try:
        bad = _first((levels != 0) & (levels != 1))
        if bad is not None:
            raise IntegrityError(f"level must be 0 or 1, got {levels[bad]}", bad, malformed=True)
        repeat = _first(np.diff(levels, prepend=-1) == 0)
        if repeat is not None:
            raise IntegrityError(f"repeated level {levels[repeat]} (edges must alternate)", repeat)
        # A first edge that falls means the line was high at capture start.
        initial_level = 1 - int(levels[0]) if levels.size else 0
        return TransitionStream(times, initial_level)
    except IntegrityError as exc:
        raise _located(path, exc) from None


def dump_transition_stream(stream: TransitionStream, path: str | Path) -> None:
    """Write the canonical transition CSV (9 decimal digits of seconds)."""
    _write_csv(path, TRANSITION_HEADER, (stream.times_s, stream.levels), (9, None))


# ---------------------------------------------------------------------------
# Software timing CSV


def load_software_log(path: str | Path, expected: int, run_id: str | None = None) -> SoftwareTimingLog:
    """Read an `iteration,latency_ms` CSV into a SoftwareTimingLog.

    Completeness is a derived property, not a precondition: a short log
    loads fine and reports complete=False.
    """
    path = Path(path)
    iterations, latencies = _read_csv(path, SOFTWARE_HEADER, _SOFTWARE_COLUMNS)
    try:
        return SoftwareTimingLog(
            run_id=run_id if run_id is not None else path.stem,
            iterations_expected=expected,
            iterations=iterations,
            latencies_ms=latencies,
        )
    except IntegrityError as exc:
        raise _located(path, exc) from None


def dump_software_log(log: SoftwareTimingLog, path: str | Path) -> None:
    """Write the canonical software timing CSV (6 decimal digits of ms)."""
    _write_csv(path, SOFTWARE_HEADER, (log.iterations, log.latencies_ms), (None, 6))


# ---------------------------------------------------------------------------
# Run metadata JSON

def integer(value) -> int:
    """A count from JSON: an int, or a float with no fractional part; never a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integral number: {value!r}")
    return int(value)


#: Required metadata keys and the type each value must convert to.
_META_FIELDS = (
    ("run_id", str),
    ("architecture", str),
    ("condition", str),
    ("marker_width_ms", float),
    ("marker_threshold_ms", float),
    ("iterations_expected", integer),
    ("warmup_iterations", integer),
    ("sample_period_s", float),
)


def load_run_metadata(path: str | Path) -> RunMetadata:
    """Read metadata.json. Every error names the file, and a bad value its key too."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise FormatError(f"metadata must be a JSON object, got {type(raw).__name__}")
        missing = [k for k, _ in _META_FIELDS if k not in raw]
        if missing:
            raise FormatError(f"missing metadata keys {missing}")
        fields = {}
        for key, convert in _META_FIELDS:
            try:
                fields[key] = convert(raw[key])
            except (TypeError, ValueError):
                raise FormatError(f"{key} is not a valid {convert.__name__}: "
                                  f"{raw[key]!r}") from None
        absent = raw.get("gpio_line_verified_absent", False)
        return RunMetadata(**fields, gpio_line_verified_absent=absent)
    except IntegrityError as exc:
        raise (FormatError if exc.malformed else IntegrityError)(f"{path}: {exc}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or one of the FormatErrors above
        raise FormatError(f"{path}: {exc}") from None


def dump_run_metadata(meta: RunMetadata, path: str | Path) -> None:
    payload = {key: getattr(meta, key) for key, _ in _META_FIELDS}
    if meta.gpio_line_verified_absent:
        payload["gpio_line_verified_absent"] = True
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
