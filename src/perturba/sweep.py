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

CSV text is the bytes of ``'%.16e'`` per value, computed chunk by chunk
with exact integer arithmetic in memory each ``emit_csv`` call allocates
once; the comment above the kernel's tables states its rules. Files are
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
#: rows per chunk of the walker, for emit_csv and first_crossings alike; on
#: 50,000-row tables emit_csv ran 15-20% slower at 1,024 rows and 5-7%
#: faster at 4,096, whose buffers are twice the size
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


# The exact %.16e kernel. A finite nonzero float64 is |v| = M 2**(e - 1075)
# with the 53-bit integer M (the fraction bits and the hidden bit) and the
# biased exponent e, both read from its bits. With p = 16 - floor(log10|v|)
# its 17 digits are round-half-even(M 5**p / 2**(1075 - e - p)), computed
# exactly from a 128-bit product held in two uint64 words. 5**27 < 2**63
# bounds the window to 0 <= p <= 27, i.e. 1e-11 <= |v| < 1e17: there the
# decimal exponent has two digits and the product shifted to one bit below
# the point, 2 |v| 10**p < 2**62, fits one uint64. No double in the window
# rounds up to 1e17: the 14 that carry into the next decade lie outside it.
#
# floor(log10|v|) is the decade of 2**(e - 1023), plus one where M reaches
# _DECADE[2e], the least mantissa whose value reaches the next power of ten.
# So every per-value constant sits in a table at index 2e + that bump:
# _POW5_LO/_POW5_HI hold the multiplier 5**p, shifted left where the product
# must move up to keep one bit below the point, in 32-bit halves; _RIGHT
# holds the right shift otherwise; _EXPONENT holds the exponent text. A left
# shift occurs only at e - 1023 in 51..56, where p <= 1, so the shifted
# multiplier keeps <= 6 bits and its product with M stays in the low word.
# A zero (e = 0, M = 2**52) reads multiplier 0 and exponent e+00. An
# exponent word of 0 marks a value outside the window, a subnormal (e = 0,
# M > 2**52), nan or inf: its row takes the '%' format.
_MAX_P = 27
_FRACTION, _HIDDEN = (1 << 52) - 1, 1 << 52
_DECADE = np.full(4096, 1 << 53, dtype=np.uint64)  # 2**53: no M reaches it
_DECADE[0] = _HIDDEN + 1
_POW5_LO, _POW5_HI, _RIGHT = np.zeros((3, 4096), dtype=np.uint64)
_EXPONENT = np.zeros(4096, dtype=np.uint32)
_EXPONENT[0] = int.from_bytes(b"e+00", "little")
for _e in range(1023 - 40, 1023 + 60):  # every exponent the window touches
    _x = _e - 1023
    _decade = len(str(2**_x)) - 1 if _x >= 0 else -len(str(2**-_x))
    # the least M with M 2**(e - 1075) >= 10**(decade + 1)
    _num = 10 ** max(_decade + 1, 0) << max(1075 - _e, 0)
    _den = 10 ** max(-_decade - 1, 0) << max(_e - 1075, 0)
    _DECADE[2 * _e] = min(-(-_num // _den), 1 << 53)
    for _bump in (0, 1):
        _p, _i = 16 - _decade - _bump, 2 * _e + _bump
        if 0 <= _p <= _MAX_P:
            _shift = 1074 - _e - _p  # keeps one bit below the point
            _pow5 = 5**_p << max(-_shift, 0)
            _POW5_LO[_i], _POW5_HI[_i] = _pow5 & 0xFFFFFFFF, _pow5 >> 32
            _RIGHT[_i] = max(_shift, 0)
            _EXPONENT[_i] = int.from_bytes(b"e%+03d" % (16 - _p), "little")
# ASCII "0000".."9999" as one uint32 each
_QUADS = np.empty((10_000, 4), dtype=np.uint8)
for _place, _scale in enumerate((1000, 100, 10, 1)):
    _QUADS[:, _place] = np.arange(10_000, dtype=np.uint16) // _scale % 10 + ord("0")
_QUADS = _QUADS.view(np.uint32).ravel()

# One field per value, without its sign: d.dddddddddddddddd, 'e', the
# exponent's sign and two digits, then ',' or '\n'
_FIELD = 23
_ROW_BYTES = len(_COLUMNS) * _FIELD


class _CsvBuffers:
    """The working memory of one ``emit_csv`` call, reused for every chunk:
    sign-less text fields with '.', ',' and '\\n' written once, and the
    kernel's integer arrays."""

    def __init__(self, rows: int):
        values = rows * len(_COLUMNS)
        self.text = np.zeros((values, _FIELD), dtype=np.uint8)
        self.text[:, 1] = ord(".")
        self.text[:, -1] = ord(",")
        self.text[len(_COLUMNS) - 1 :: len(_COLUMNS), -1] = ord("\n")
        self.lead = self.text[:, 0]
        self.quads = [self._place(offset) for offset in (2, 6, 10, 14)]
        self.exponent = self._place(18)
        self.words = np.empty((6, values), dtype=np.uint64)
        self.ascii = np.empty(values, dtype=np.uint32)
        self.flags = np.empty((2, values), dtype=bool)

    def _place(self, offset: int) -> NDArray[np.uint32]:
        """The four bytes at ``offset`` of every field, as one uint32 each."""
        return np.ndarray(len(self.text), np.uint32, self.text, offset, (_FIELD,))


def _format_block(block: NDArray[np.float64], buffers: _CsvBuffers) -> bytes | NDArray[np.uint8]:
    """CSV text of a (rows, 6) block, byte-identical to '%.16e' per value;
    a view of ``buffers.text``, valid until their next use, if it needs no
    sign or '%' row."""
    rows = block.shape[0]
    values = block.reshape(-1)
    bits, n = values.view(np.uint64), values.size
    index, m, w1, w2, w3, w4 = (word[:n] for word in buffers.words)
    flags, negative = (row[:n] for row in buffers.flags)
    ascii, lookup = buffers.ascii[:n], index.view(np.int64)
    np.right_shift(bits, 51, out=index)
    np.bitwise_and(index, 0xFFE, out=index)  # 2e
    np.bitwise_and(bits, _FRACTION, out=m)
    np.bitwise_or(m, _HIDDEN, out=m)  # M
    np.take(_DECADE, lookup, out=w1, mode="clip")
    np.greater_equal(m, w1, out=flags)
    np.add(index, flags, out=index)
    # (hi, lo) = M 5**p from 32-bit halves
    np.take(_POW5_LO, lookup, out=w1, mode="clip")
    np.take(_POW5_HI, lookup, out=w2, mode="clip")
    np.bitwise_and(m, 0xFFFFFFFF, out=w3)
    np.right_shift(m, 32, out=m)
    np.multiply(w3, w1, out=w4)  # low = M_lo 5**p_lo
    np.multiply(w3, w2, out=w3)
    np.multiply(m, w1, out=w1)
    np.add(w1, w3, out=w1)  # middle < 2**53 + 2**63: no wrap
    np.multiply(m, w2, out=m)
    np.left_shift(w1, 32, out=w2)
    np.add(w2, w4, out=w2)  # lo
    np.less(w2, w4, out=flags)  # its carry
    np.right_shift(w1, 32, out=w1)
    np.add(m, w1, out=m)
    np.add(m, flags, out=m)  # hi
    # q2 = floor(2 |v| 10**p) and the sticky bits below it; a shift by 64 gives 0
    np.take(_RIGHT, lookup, out=w1, mode="clip")
    np.subtract(np.uint64(64), w1, out=w4)
    np.left_shift(w2, w4, out=w3)
    np.minimum(w3, 1, out=w3)  # sticky
    np.right_shift(w2, w1, out=w2)
    np.left_shift(m, w4, out=m)
    np.bitwise_or(w2, m, out=w2)
    # round half to even: (q2 + ((q2 >> 1 | sticky) & 1)) >> 1
    np.right_shift(w2, 1, out=w1)
    np.bitwise_or(w1, w3, out=w1)
    np.bitwise_and(w1, 1, out=w1)
    np.add(w2, w1, out=w2)
    np.right_shift(w2, 1, out=w2)  # the 17 digits
    # the lead digit, then the next 8 and the last 8 as two quads each
    np.floor_divide(w2, 10**8, out=w1)
    np.multiply(w1, 10**8, out=w3)
    np.subtract(w2, w3, out=w2)
    np.floor_divide(w1, 10**8, out=w3)
    np.add(w3, ord("0"), out=buffers.lead[:n], casting="unsafe")
    np.multiply(w3, 10**8, out=w3)
    np.subtract(w1, w3, out=w1)
    for half, places in ((w1, buffers.quads[:2]), (w2, buffers.quads[2:])):
        np.floor_divide(half, 10**4, out=w3)
        np.multiply(w3, 10**4, out=w4)
        np.subtract(half, w4, out=w4)
        for quad, place in zip((w3, w4), places):
            np.take(_QUADS, quad.view(np.int64), out=ascii, mode="clip")
            np.copyto(place[:n], ascii)
    np.take(_EXPONENT, lookup, out=ascii, mode="clip")
    np.copyto(buffers.exponent[:n], ascii)
    np.equal(ascii, np.uint32(0), out=flags)
    np.signbit(values, out=negative)
    text = buffers.text[:n].reshape(-1)
    if negative.any():
        text = np.insert(text, np.flatnonzero(negative) * _FIELD, ord("-"))
    if not flags.any():
        return text
    # splice the '%' row format in for rows holding a value outside the window
    row_ends = np.cumsum(negative.reshape(rows, -1).sum(axis=1) + _ROW_BYTES)
    row_starts = np.concatenate(([0], row_ends[:-1]))
    pieces, start = [], 0
    for row in np.flatnonzero(flags.reshape(rows, -1).any(axis=1)):
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
        buffers = _CsvBuffers(min(count, _CHUNK_ROWS))
        for _, block in _walk(table, [(0, count)]):
            yield _format_block(block, buffers)

    try:
        if hasattr(destination, "write"):
            return sum(destination.write(str(block, "ascii")) for block in blocks())
        return _write_atomically(
            destination,
            lambda handle: sum(handle.write(block) for block in blocks()),
            len(CSV_HEADER) + 1 + 4 * len(_COLUMNS) * count,
        )
    except OSError as exc:
        raise IoFailure(f"CSV write failed: {exc}") from exc
