"""Time and field sweeps of the three probability curves, CSV output.

A ``SweepTable`` is a lazy view of one sweep, down to its grid: a
``_Grid`` computes any slice of the abscissas on demand, bit-equal to
numpy's ``linspace`` or ``geomspace``, and is the one place the grid's
geometry is written down. One walker evaluates its rows, the three curves
and their absolute deviations from the exact one, ``_CHUNK_ROWS`` at a
time for both ``emit_csv`` and ``first_crossings``, so neither holds more
than one chunk. Output is deterministic down to the byte for identical
inputs.

``first_crossings`` owns the divergence query: it rejects a field sweep or
a threshold that is not > 0 before it evaluates a row, skips the rows of
the time sweep that the certified deviation envelope of
``hyperfine._deviation_envelope`` proves cannot cross, as inverted by
``hyperfine._safe_time``, and stops at the first crossing.

CSV text is the bytes of ``'%.16e'`` per value, produced by a numpy kernel
over each chunk. For each value in the window 1e-11 <= |v| < 1e17 (and
zeros) it computes the 17 decimal digits exactly, with integer arithmetic
on the value's binary mantissa and round-half-to-even, and writes them into
fixed-width byte fields. A row holding any other value (nan, inf,
subnormal, tiny or huge) is formatted with ``'%.16e'`` itself. Files are
written to a temporary file beside the destination and moved into place,
once the directory has room for the smallest CSV the table could give.
"""

from __future__ import annotations

import bisect
import contextlib
import errno
import math
import numbers
import os
import shutil
import stat
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidSweepSpec, IoFailure
from .hyperfine import HyperfineConfig, PhysicalConstants, angular_rates
from .hyperfine import _deviation_envelope, _normalized_triple, _safe_time

CSV_HEADER = "x,p_exact,p_improved,p_traditional,dev_improved,dev_traditional"
_COLUMNS = tuple(CSV_HEADER.split(","))

_MODES = ("time", "field")
_SCALES = ("linear", "log")
#: rows per chunk of the walker; emit_csv measured fastest at 2,048-4,096 rows
_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep: the abscissa axis, its window, and the held-fixed value.

    ``mode`` "time" sweeps t seconds at fixed B = ``fixed_value`` tesla;
    "field" sweeps B tesla at fixed t = ``fixed_value`` seconds.
    """

    mode: str
    fixed_value: float
    start: float
    stop: float
    samples: int
    scale: str = "linear"

    def __post_init__(self):
        if self.mode not in _MODES:
            raise InvalidSweepSpec(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.scale not in _SCALES:
            raise InvalidSweepSpec(f"scale must be one of {_SCALES}, got {self.scale!r}")
        for name in ("fixed_value", "start", "stop"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSweepSpec(f"{name} must be finite")
        if not self.start < self.stop:
            raise InvalidSweepSpec(f"start must be < stop, got [{self.start}, {self.stop}]")
        count = self.samples
        whole = isinstance(count, numbers.Integral) or (
            isinstance(count, numbers.Real) and math.isfinite(count) and int(count) == count
        )
        if not whole or count < 2:
            raise InvalidSweepSpec(f"samples must be an integer >= 2, got {count}")
        if self.scale == "log" and not self.start > 0.0:
            raise InvalidSweepSpec("log scale requires start > 0")
        if self.mode == "time" and self.fixed_value < 0.0:
            raise InvalidSweepSpec("time mode holds B fixed; it must be >= 0")
        if self.mode == "field" and self.start < 0.0:
            raise InvalidSweepSpec("field sweeps need B >= 0")


class _Grid:
    """The abscissa grid of a spec, computed only where it is indexed: by a
    row, which gives a float, or by a slice, which gives an array.

    It takes numpy's own float64 steps, so every row is bit-equal to
    ``np.linspace(start, stop, samples)``, or on a log scale to
    ``np.geomspace``: row i is i * step + start, or i / div * delta + start
    where the step underflows to 0, the last row is ``stop``, and a log
    grid is 10 to the power of that over the log10 endpoints with its first
    and last rows set to ``start`` and ``stop``.
    """

    def __init__(self, spec: SweepSpec):
        self._rows = int(spec.samples)
        start, stop = np.float64(spec.start), np.float64(spec.stop)
        self._log = spec.scale == "log"
        self._exact = {self._rows - 1: stop}  # the rows numpy sets to an endpoint
        if self._log:
            self._exact[0] = start
            start, stop = np.log10(start), np.log10(stop)
        self._start, self._div = start, self._rows - 1
        self._delta = stop - start
        self._step = self._delta / self._div

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, key):
        rows = range(self._rows)[key]
        if isinstance(rows, int):
            return self._exact[rows] if rows in self._exact else self._at(np.float64(rows))
        y = self._at(np.arange(rows.start, rows.stop, rows.step, dtype=np.float64))
        for row, value in self._exact.items():
            if row in rows:
                y[rows.index(row)] = value
        return y

    def _at(self, i):
        """The grid at float64 row numbers ``i`` before numpy sets the endpoints."""
        if self._step == 0.0:
            y = i / self._div * self._delta + self._start
        else:
            y = i * self._step + self._start
        return np.power(10.0, y) if self._log else y


class SweepTable:
    """One sweep as a lazy view: the grid ``x`` and the curve parameters.

    ``x`` is a lazy grid that computes the abscissas a slice at a time;
    ``table.x[:]`` gives them as one array. ``rows(lo, hi)`` evaluates rows
    lo..hi into a (hi - lo, 6) block in CSV column order; a row depends on
    its grid value alone, so slices agree."""

    def __init__(self, x: _Grid, mode: str, fixed_value: float, constants: PhysicalConstants):
        self.x, self.mode, self.fixed_value, self.constants = x, mode, fixed_value, constants

    def __len__(self) -> int:
        return len(self.x)

    def rows(self, lo: int, hi: int) -> NDArray[np.float64]:
        k, x = self.constants, self.x[lo:hi]
        b_field, t = (self.fixed_value, x) if self.mode == "time" else (x, self.fixed_value)
        curves = _normalized_triple(k.w_ev, k.mu_e_ev_per_tesla * b_field, k.hbar_evs, t)
        return np.column_stack((x, *curves, *(np.abs(p - curves[0]) for p in curves[1:])))


def run_sweep(spec: SweepSpec, config: HyperfineConfig) -> SweepTable:
    """The sweep of ``spec`` as a lazy table; nothing is computed here.
    Only ``config.constants`` is read: a time sweep holds B at
    ``spec.fixed_value``, not at ``config.b_field``. Row count == samples."""
    return SweepTable(_Grid(spec), spec.mode, spec.fixed_value, config.constants)


def _walk(table, ranges):
    """(first row, ``table.rows`` block) per ``_CHUNK_ROWS`` slice of ``ranges``, ascending."""
    for lo, hi in ranges:
        for start in range(lo, hi, _CHUNK_ROWS):
            yield start, table.rows(start, min(start + _CHUNK_ROWS, hi))


def first_crossings(table: SweepTable, threshold: float) -> tuple[float, float]:
    """(traditional, improved): the first time where each deviation of a
    time sweep exceeds ``threshold``, scanning ascending; math.inf when none
    does. A field sweep, or a threshold that is not > 0 (nan included),
    raises InvalidSweepSpec before any row is evaluated.

    One walk serves both curves and stops once both have crossed. It skips
    the rows no open curve can cross, then resumes past a crossing's chunk
    over the other curve's rows alone.
    """
    if table.mode != "time":
        raise InvalidSweepSpec(
            f"a divergence threshold needs a time sweep, got mode {table.mode!r}"
        )
    if not threshold > 0.0:
        raise InvalidSweepSpec(f"threshold must be positive, got {threshold}")
    k = table.constants
    x_ev = k.mu_e_ev_per_tesla * table.fixed_value
    rates, floor = _deviation_envelope(k.w_ev, x_ev, k.hbar_evs)
    safe = [_safe_time(rate, floor, threshold) for rate in rates]
    crossings = [math.inf, math.inf]
    done = 0  # rows below this are settled for every open curve
    while math.inf in crossings:
        open_curves = [curve for curve in (0, 1) if crossings[curve] == math.inf]
        ranges = _unsafe_rows(table.x, min(safe[curve] for curve in open_curves))
        for start, block in _walk(table, [(max(lo, done), hi) for lo, hi in ranges]):
            for curve in open_curves:  # dev_traditional is column 5, dev_improved 4
                hits = np.flatnonzero(block[:, 5 - curve] > threshold)
                if hits.size:
                    crossings[curve] = float(block[hits[0], 0])
            if crossings.count(math.inf) < len(open_curves):
                done = start + len(block)
                break
        else:
            break
    return crossings[0], crossings[1]


def divergence_report(
    spec: SweepSpec, config: HyperfineConfig, threshold: float
) -> tuple[float, float]:
    """(t_traditional, t_improved): where each curve first strays from the
    exact one by more than ``threshold`` on the grid of a time sweep;
    ``first_crossings`` of the lazy table, which validates the query."""
    return first_crossings(run_sweep(spec, config), threshold)


def _unsafe_rows(grid, t_safe: float) -> list[tuple[int, int]]:
    """Row ranges of an ascending grid outside the run |t| <= t_safe, which
    is shrunk by one row at each edge that falls inside the grid. Two
    bisections read about 2 log2(len) rows of a lazy grid."""
    lo = bisect.bisect_left(grid, -t_safe)
    hi = bisect.bisect_right(grid, t_safe)
    if lo > 0:
        lo += 1
    if hi < len(grid):
        hi -= 1
    if hi <= lo:
        return [(0, len(grid))]
    return [(0, lo), (hi, len(grid))]


def _aliasing_phase(spec: SweepSpec, constants) -> float | None:
    """The phase (rad) the fastest curve sin^2(rate t) of a time sweep
    advances over its widest grid step, the first or the last, when that
    exceeds pi/2 and so the grid holds fewer than two samples per period;
    None otherwise."""
    if spec.mode != "time":
        return None
    grid = _Grid(spec)
    step = max(grid[1] - grid[0], grid[-1] - grid[-2])
    phase = max(abs(rate) for rate in angular_rates(constants, spec.fixed_value)) * step
    return phase if phase > math.pi / 2 else None


# The exact %.16e kernel. A finite float64 is |v| = M 2**(E - 53) with a
# 53-bit integer M. With p = 16 - floor(log10|v|) its 17 digits are
# round-half-even(M 5**p / 2**(53 - E - p)), computed exactly from a 128-bit
# product held in two uint64 words. 5**27 < 2**63 bounds the window to
# 0 <= p <= 27, i.e. 1e-11 <= |v| < 1e17: there the decimal exponent has two
# digits and the shifted product, 2 |v| 10**p < 2**62, fits one uint64.
# Other values, nan and inf take the '%' format row by row.
_MAX_P = 27
_POW5 = np.array([5**p for p in range(_MAX_P + 1)], dtype=np.uint64)
# ASCII "0000".."9999" and "e-99".."e+99" as one uint32 each
_QUADS = np.empty((10_000, 4), dtype=np.uint8)
for _place, _scale in enumerate((1000, 100, 10, 1)):
    _QUADS[:, _place] = np.arange(10_000, dtype=np.uint16) // _scale % 10 + ord("0")
_QUADS = _QUADS.view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % k for k in range(-99, 100)), dtype=np.uint32)

# One field per value: optional '-', d.dddddddddddddddd, 'e', exponent sign,
# two exponent digits, then ',' or '\n'. Sign bytes of non-negative values
# are dropped when the block is joined.
_FIELD = 24
_TEMPLATE = np.zeros((len(_COLUMNS), _FIELD), dtype=np.uint8)
_TEMPLATE[:, 0] = ord("-")
_TEMPLATE[:, 2] = ord(".")
_TEMPLATE[:, 23] = ord(",")
_TEMPLATE[-1, 23] = ord("\n")
_ROW_BYTES = len(_COLUMNS) * (_FIELD - 1)  # without minus signs


def _product_128(a, b):
    """(hi, lo) uint64 words of a * b, for a < 2**53 and b < 2**63."""
    a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
    b_lo, b_hi = b & 0xFFFFFFFF, b >> 32
    low = a_lo * b_lo
    middle = a_hi * b_lo + a_lo * b_hi  # < 2**53 + 2**63: no wrap
    lo = low + (middle << 32)
    return a_hi * b_hi + (middle >> 32) + (lo < low), lo


def _scaled_quotient(mantissa, exp2, p):
    """floor and round-half-even of |v| 10**p, for |v| = mantissa 2**(exp2 - 53)."""
    hi, lo = _product_128(mantissa, _POW5[p])
    # q2 = floor(2 |v| 10**p): the quotient and the bit below the point
    shift = 52 - exp2 - p
    right = np.maximum(shift, 0).astype(np.uint64)
    left = np.maximum(-shift, 0).astype(np.uint64)
    q2 = ((lo >> right) | (hi << (64 - right))) << left
    sticky = (lo & ((1 << right) - 1)) != 0
    truncated = q2 >> 1
    up = ((q2 & 1) != 0) & (sticky | ((truncated & 1) != 0))
    return truncated, truncated + up


def _digits_and_exponent(values):
    """17-digit integer and decimal exponent of each |value|, and a mask of
    the values outside the exact window. Zeros give (0, 0)."""
    safe = np.abs(values)
    zero = safe == 0.0
    fallback = ~np.isfinite(safe)
    safe[zero | fallback] = 1.0
    p = 16 - np.floor(np.log10(safe)).astype(np.int64)
    fraction, exp2 = np.frexp(safe)
    mantissa = (fraction * 2.0**53).astype(np.uint64)
    exp2 = exp2.astype(np.int64)
    fallback |= (p < 0) | (p > _MAX_P)
    p = np.clip(p, 0, _MAX_P)
    truncated, rounded = _scaled_quotient(mantissa, exp2, p)
    # log10 may land one decade off next to a power of ten; the truncated
    # quotient is in [1e16, 1e17) exactly when p is right
    off = np.flatnonzero(~fallback & ((truncated < 10**16) | (truncated >= 10**17)))
    if off.size:
        p[off] += np.where(truncated[off] < 10**16, 1, -1)
        outside = (p[off] < 0) | (p[off] > _MAX_P)
        fallback[off[outside]] = True
        off = off[~outside]
        rounded[off] = _scaled_quotient(mantissa[off], exp2[off], p[off])[1]
    # no double in the window rounds up to 1e17: the 14 that carry into the
    # next decade lie outside it, so the exponent is always 16 - p
    rounded[zero] = 0
    return rounded, np.where(zero, 0, 16 - p), fallback


def _format_block(block: NDArray[np.float64]) -> bytes:
    """CSV text of a (rows, 6) block, byte-identical to '%.16e' per value."""
    rows = block.shape[0]
    values = block.reshape(-1)
    digits, exponent, fallback = _digits_and_exponent(values)
    out = np.tile(_TEMPLATE, (rows, 1))
    lead = digits // 10**16
    rest = digits - lead * 10**16
    upper = rest // 10**8
    quads = np.empty((values.size, 4), dtype=np.uint32)
    for column, half in ((0, upper), (2, rest - upper * 10**8)):
        half = half.astype(np.uint32)
        top = half // 10**4
        quads[:, column] = _QUADS[top]
        quads[:, column + 1] = _QUADS[half - top * 10**4]
    out[:, 1] = lead + ord("0")
    out[:, 3:19] = quads.view(np.uint8)
    out[:, 19:23] = _EXPONENTS[exponent + 99].view(np.uint8).reshape(-1, 4)
    negative = np.signbit(values)
    if negative.any():
        keep = np.ones(out.shape, dtype=bool)
        keep[:, 0] = negative
        text = out[keep].tobytes()
    else:
        text = out[:, 1:].tobytes()
    fallback_rows = np.flatnonzero(fallback.reshape(rows, -1).any(axis=1))
    if not fallback_rows.size:
        return text
    # splice the '%' row format in for rows holding a value outside the window
    row_ends = np.cumsum(negative.reshape(rows, -1).sum(axis=1) + _ROW_BYTES)
    row_starts = np.concatenate(([0], row_ends[:-1]))
    pieces, start = [], 0
    for row in fallback_rows:
        pieces.append(text[start : row_starts[row]])
        pieces.append((",".join("%.16e" % v for v in block[row]) + "\n").encode("ascii"))
        start = row_ends[row]
    pieces.append(text[start:])
    return b"".join(pieces)


def _write_atomically(path, write, least: int) -> int:
    """Run ``write(binary_handle)`` against a temporary file beside ``path``
    and move it into place, so a failure leaves any old file as it was.
    Fails with ENOSPC before creating anything when the directory has fewer
    than ``least`` bytes free. An existing non-regular destination (a FIFO,
    /dev/stdout) is written in place, unchecked."""
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as handle:
            return write(handle)
    directory, name = os.path.split(target)
    temporary = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        free = shutil.disk_usage(directory).free
        if least > free:
            raise OSError(errno.ENOSPC, f"the CSV needs at least {least} bytes, {free} are free")
        descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the destination, not the temporary
        raise
    try:
        with open(descriptor, "wb") as handle:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            written = write(handle)
        os.replace(temporary, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
    return written


def emit_csv(table: SweepTable, destination) -> int:
    """Write a table as CSV (17 significant digits, '\\n' endings); return bytes written.

    ``table`` needs ``len`` and the walker's ``rows(lo, hi)``; ``destination``
    is a path or an open text stream. Numbers round-trip bit-exactly through
    the emitted text. Raises on an empty table before touching the
    destination, and wraps write errors in IoFailure. A path is written
    through a temporary file in the same directory, so a failed write
    leaves an existing file unchanged; it is refused up front when its
    directory cannot hold 4 bytes per value ('nan' and a separator).
    """
    count = len(table)
    if count == 0:
        raise InvalidSweepSpec("refusing to emit CSV for zero rows")

    def blocks():
        yield (CSV_HEADER + "\n").encode("ascii")
        for _, block in _walk(table, [(0, count)]):
            yield _format_block(block)

    try:
        if hasattr(destination, "write"):
            return sum(destination.write(block.decode("ascii")) for block in blocks())
        return _write_atomically(
            destination,
            lambda handle: sum(handle.write(block) for block in blocks()),
            len(CSV_HEADER) + 1 + 4 * len(_COLUMNS) * count,
        )
    except OSError as exc:
        raise IoFailure(f"CSV write failed: {exc}") from exc
