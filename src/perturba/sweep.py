"""Time and field sweeps of the three probability curves, CSV output.

``SweepTable(spec, constants)`` is a lazy view of one sweep, down to its
grid: a ``_Grid`` computes any slice of the abscissas on demand, bit-equal
to numpy's ``linspace`` or ``geomspace``, and is the one place the grid's
geometry is written down. The table alone reads W, mu_e and hbar, refuses
phases that leave float64, and keeps the gaps it checked, which the
divergence certificate and ``aliasing_phase`` read. One walker
splits row ranges into chunks of at most ``_CHUNK_ROWS``, so neither
``emit_csv`` nor ``first_crossings`` holds more than one chunk.
``emit_csv`` takes whole chunks and evaluates each into the CSV's six
columns, the rows, the three curves and their absolute deviations from the
exact one. ``first_crossings`` starts each range it walks at
``_FIRST_CROSSING_ROWS`` and doubles, since a crossing often lies a few
rows in. Output is deterministic down to the byte for identical inputs.

``first_crossings`` owns the divergence query: it rejects a field sweep or
a threshold that is not > 0 before it evaluates a row, then walks each
curve alone over the rows of the time sweep that its certified deviation
envelope (``hyperfine._deviation_envelope`` of the table's gaps, inverted
by ``_safe_time``) leaves open, and stops at that curve's first crossing. A
curve certified on every row is never evaluated; where both are open over
the same rows, the exact curve is computed once per walk.

CSV text is the bytes of ``'%.16e'`` per value, written chunk by chunk
in one of two ways. Where every value's text has the field's width, it
goes into sign-less fields of memory each ``emit_csv`` call allocates
once: by exact integer arithmetic where 1e-11 <= |v| < 1e17 or v is
zero, the kernel whose rules the comment above its tables states, and by
``'%.16e'`` of |v| written into the field of a value outside that window,
whose text then has a two-digit exponent. A chunk holding text of another
width (nan, inf, a three-digit exponent) is ``'%.16e'`` of every value,
formatted whole. Regular files are written to a temporary file beside
the destination and moved into place, once the directory has room for the
smallest CSV the table could give. A file the rename replaces is held open
across it and closed on a daemon thread, so freeing its blocks overlaps
the caller's next work; a one-shot process frees them at exit. The rename,
its ordering after the new data, the failure paths and every byte are as
they would be without the held file.
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
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidSweepSpec, IoFailure
from .hyperfine import HyperfineConfig, PhysicalConstants
from .hyperfine import _checked_gaps, _deviation_envelope, _normalized_triple, _safe_time

CSV_HEADER = "x,p_exact,p_improved,p_traditional,dev_improved,dev_traditional"
_COLUMNS = tuple(CSV_HEADER.split(","))

_MODES = ("time", "field")
_SCALES = ("linear", "log")
#: rows per chunk of the walker: every chunk of emit_csv, and the largest of
#: first_crossings; on 50,000-row tables emit_csv ran 15-20% slower at 1,024
#: rows and 5-7% faster at 4,096, whose buffers are twice the size
_CHUNK_ROWS = 2048
#: the first chunk of each range first_crossings walks; later ones double.
#: Over 320 seeded queries on criterion 7's grid, p90 per call was 0.14-0.15
#: ms at 64 rows, 0.16-0.17 at 16, 0.16 at 256 and 0.28 at 2,048 (2-core Xeon)
_FIRST_CROSSING_ROWS = 64


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
        count, most = self.samples, sys.maxsize  # a row count must fit an index
        if not (isinstance(count, numbers.Integral) and 2 <= count <= most):
            raise InvalidSweepSpec(f"samples must be an integer >= 2 and <= {most}, got {count}")
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
    and last rows set to ``start`` and ``stop``. The geometry is held in
    Python floats, whose arithmetic is numpy's float64 arithmetic: an inner
    row read by a Python int, as ``bisect`` reads, skips the endpoint and
    range checks and is bit-equal to the slice path.
    """

    def __init__(self, spec: SweepSpec):
        self._rows = int(spec.samples)
        start, stop = float(spec.start), float(spec.stop)
        self._log = spec.scale == "log"
        self._exact = {self._rows - 1: stop}  # the rows numpy sets to an endpoint
        if self._log:
            self._exact[0] = start
            start, stop = float(np.log10(start)), float(np.log10(stop))
        self._start, self._div = start, self._rows - 1
        self._delta = stop - start
        self._step = self._delta / self._div

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, key):
        if type(key) is int and 0 < key < self._div:  # an inner row: no endpoint, no wrap
            return self._at(float(key))
        rows = range(self._rows)[key]
        if isinstance(rows, int):
            return self._exact[rows] if rows in self._exact else self._at(float(rows))
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
    """One sweep as a lazy view: its spec, its constants and its grid ``x``.

    ``rows(lo, hi)`` evaluates rows lo..hi into a (hi - lo, 6) block in CSV
    column order, ``deviation(lo, hi, curve)`` only the one deviation a
    divergence walk reads; slices agree, as a row depends on its grid value
    alone. Only the constructor reads W, mu_e, hbar and a held x = B mu_e.
    It refuses (InvalidSweepSpec) by ``hyperfine._checked_gaps``' rule at the
    spec's largest |t| and at the fields it checks, and keeps those gaps,
    the one evaluation that ``aliasing_phase`` reads in both modes: a time
    sweep checks its held field, whose gaps the divergence certificate reads,
    and a field sweep its range's ends, which hold the largest gaps (the
    improved peak 3W < exact 3.46W), and its last step."""

    def __init__(self, spec: SweepSpec, constants: PhysicalConstants = PhysicalConstants()):
        self.spec, self.constants, self.x = spec, constants, _Grid(spec)
        held, ends = (spec.fixed_value,), (spec.start, spec.stop)
        time = spec.mode == "time"
        b_fields, times = (held, ends) if time else ((spec.start, self.x[-2], spec.stop), held)
        try:
            self._gaps = _checked_gaps(constants, b_fields, max(map(abs, times)))
        except ValueError as refusal:
            raise InvalidSweepSpec(str(refusal)) from refusal
        self._w, self._mu = constants.w_ev, constants.mu_e_ev_per_tesla
        self._hbar = constants.hbar_evs
        self._held_x = self._mu * spec.fixed_value if time else None

    @property
    def aliasing_phase(self) -> float | None:
        """The phase (rad) by which one grid step advances the curves, if
        above pi/2 (under two samples per period of the fastest sin^2); else
        None. Both modes read top, the largest |gap| the table checked. For a
        time sweep it is the fastest rate top / hbar times the widest grid
        step, the first or the last. For a field sweep it bounds the phase by
        which any step advances a curve: on every step, |gap(B_i+1) -
        gap(B_i)| |t| / hbar as float64 computes it from the curves' gaps,
        exact or improved, stays below it. The traditional curve does not
        move with B.

        Where: in exact arithmetic no step advances a curve further than the
        last step advances one. Over a step of x = B mu_e a curve advances by
        the integral of its gap's slope, and on a log grid, whose steps have
        equal width in ln x, of x times that slope. The exact gap's slope
        x / sqrt(4W^2 + x^2) rises with x, and so does x times it. The
        improved gap's slope x/2W - x^3/16W^3 is positive up to z = 2 sqrt(2) W
        and there at most the exact one's, as (4 + s)(8 - s)^2 <= 256 for
        s = x^2/W^2 in [0, 8]; past z its magnitude, and x times it, rise with
        x. So the exact curve's last step outruns any step where the improved
        gap rises, the improved curve's last step any where it falls, and a
        step across z advances less than one of those.

        Rounding, with e = 2**-52 and T = 2W + x^2/4W + x^4/64W^3 at the last
        row (T is at least the exact gap, and at most 5 top, which the last
        row holds):
        - a computed row of x lies within r x_max of the exact one, r = 4e on
          a linear grid; a log grid's exponents err by 9.5 e Y, Y the larger
          |log10| of its ends, so there r = (22 Y + 4) e;
        - either slope times x_max is at most 4T, so moving a row moves a gap
          by at most 4 r T, and a computed gap errs by at most 8 e T, for
          W >= 2**-257 eV, above which no subnormal in ``_gaps`` errs more.
          Below it a subnormal x^4 or (4W)^3 may lose most of its bits, so
          no finite bound is derived and the phase is inf.
        Any step then advances at most 16 r T + 32 e T further than the last
        step: both steps' rows move, and all four gaps err. Three roundings
        each of the phase and of the bound below are covered by 8 e top, as no
        advance exceeds 2 top; so the slack 80 r top + 168 e top, at most
        512 (1 + 4 Y) e top (Y = 0 on a linear grid), is added to the last
        step's larger advance."""
        curves = [gap.tolist() for gap in self._gaps]
        top, spec = max(abs(value) for gap in curves for value in gap), self.spec
        if spec.mode == "time":
            phase = top / self._hbar * float(max(self.x[1] - self.x[0], self.x[-1] - self.x[-2]))
        elif self._w < 2.0**-257:
            phase = math.inf
        else:
            advance = max(abs(gap[-1] - gap[-2]) for gap in curves)
            decades = (max(abs(math.log10(spec.start)), abs(math.log10(spec.stop)))
                       if spec.scale == "log" else 0.0)
            slack = 512.0 * (1.0 + 4.0 * decades) * sys.float_info.epsilon * top
            phase = (advance + slack) / self._hbar * abs(spec.fixed_value)
        return phase if phase > math.pi / 2 else None

    def __len__(self) -> int:
        return len(self.x)

    def rows(self, lo: int, hi: int) -> NDArray[np.float64]:
        x = self.x[lo:hi]
        curves = self._curves(x)
        return np.column_stack((x, *curves, *(np.abs(p - curves[0]) for p in curves[1:])))

    def deviation(self, lo: int, hi: int, curve: int) -> tuple[NDArray, NDArray]:
        """The grid rows lo..hi and the absolute deviation from the exact
        curve of ``curve``, 0 the traditional curve and 1 the improved: the
        bits of ``rows``' column 5 or 4. The other curve is not evaluated."""
        x = self.x[lo:hi]
        p_exact, improved, traditional = self._curves(x, improved=curve == 1,
                                                      traditional=curve == 0)
        return x, np.abs((traditional, improved)[curve] - p_exact)

    def _curves(self, grid, **switches):
        time = self.spec.mode == "time"
        x, t = (self._held_x, grid) if time else (self._mu * grid, self.spec.fixed_value)
        return _normalized_triple(self._w, x, self._hbar, t, **switches)


def _walk(ranges, first=_CHUNK_ROWS):
    """The (lo, hi) chunks of ``ranges``, ascending: each range's chunks
    start at ``first`` rows and double up to ``_CHUNK_ROWS``."""
    for lo, hi in ranges:
        start, size = lo, first
        while start < hi:
            yield start, min(start + size, hi)
            start, size = start + size, min(2 * size, _CHUNK_ROWS)


def first_crossings(table: SweepTable, threshold: float) -> tuple[float, float]:
    """(traditional, improved): the first time where each deviation of a
    time sweep exceeds ``threshold``, scanning ascending; math.inf when none
    does. A field sweep, or a threshold that is not > 0 (nan included),
    raises InvalidSweepSpec before any row is evaluated. Each curve is
    walked alone over the rows its certificate leaves open: a curve
    certified on every row is never evaluated, and where both are open over
    the same rows the exact curve is computed once per walk.
    """
    if table.spec.mode != "time":
        raise InvalidSweepSpec(
            f"a divergence threshold needs a time sweep, got mode {table.spec.mode!r}"
        )
    if not threshold > 0.0:
        raise InvalidSweepSpec(f"threshold must be positive, got {threshold}")
    rates, floor = _deviation_envelope(table._w, table._held_x, table._hbar, table._gaps)
    return tuple(_first_crossing(table, curve, _safe_time(rate, floor, threshold), threshold)
                 for curve, rate in enumerate(rates))


def _first_crossing(table: SweepTable, curve: int, t_safe: float, threshold: float) -> float:
    """The first grid time where ``curve``'s deviation exceeds ``threshold``,
    walking the rows outside its certified run |t| <= t_safe; else math.inf."""
    for lo, hi in _walk(_unsafe_rows(table.x, t_safe), _FIRST_CROSSING_ROWS):
        x, deviation = table.deviation(lo, hi, curve)
        hits = np.flatnonzero(deviation > threshold)
        if hits.size:
            return float(x[hits[0]])
    return math.inf


def divergence_report(
    spec: SweepSpec, config: HyperfineConfig, threshold: float
) -> tuple[float, float]:
    """(t_traditional, t_improved): where each curve first strays from the
    exact one by more than ``threshold`` on the grid of a time sweep; the
    ``first_crossings`` of its table under ``config.constants`` alone."""
    return first_crossings(SweepTable(spec, config.constants), threshold)


def _unsafe_rows(grid, t_safe: float) -> list[tuple[int, int]]:
    """Row ranges of a ``_Grid`` outside the run |t| <= t_safe, which
    is shrunk by one row at each edge that falls inside the grid. Two plain
    bisections find it, each reading about log2(len) cheap inner rows."""
    lo = bisect.bisect_left(grid, -t_safe)
    hi = bisect.bisect_right(grid, t_safe)
    if lo > 0:
        lo += 1
    if hi < len(grid):
        hi -= 1
    if hi <= lo:
        return [(0, len(grid))]
    return [(0, lo), (hi, len(grid))]


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
# M > 2**52), nan or inf: its field takes '%.16e' of |v| where that text
# is 22 bytes (a two-digit exponent), else its chunk takes the '%' format.
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
#: '%.16e' of one row, for a chunk holding text of another width
_ROW_FORMAT = ",".join(["%.16e"] * len(_COLUMNS)) + "\n"


class _CsvBuffers:
    """The working memory of one ``emit_csv`` call, reused for every chunk:
    sign-less text fields with '.', ',' and '\\n' written once, the
    kernel's integer arrays, and the signed text, allocated by the first
    chunk that holds a negative value."""

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
        self._signed = None

    def signed(self, negative: NDArray[np.bool_]) -> NDArray[np.uint8]:
        """The text of the first ``len(negative)`` fields, each flagged one
        after a '-', as a view of the signed buffer."""
        if self._signed is None:
            self._signed = np.empty(self.text.size + len(self.text), dtype=np.uint8)
        n, where = negative.shape[0], np.flatnonzero(negative)
        size = n * _FIELD + where.size
        # each field moves right by the signs up to and including its own
        starts = np.repeat(np.arange(where.size + 1), np.diff(where, prepend=0, append=n))
        starts += np.arange(0, n * _FIELD, _FIELD)
        # every field as one 23-byte item, copied to its start in one fancy store
        fields = np.ndarray(size - _FIELD + 1, f"V{_FIELD}", self._signed, 0, (1,))
        fields[starts] = self.text[:n].view(f"V{_FIELD}")[:, 0]
        self._signed[where * _FIELD + np.arange(where.size)] = ord("-")
        return self._signed[:size]

    def _place(self, offset: int) -> NDArray[np.uint32]:
        """The four bytes at ``offset`` of every field, as one uint32 each."""
        return np.ndarray(len(self.text), np.uint32, self.text, offset, (_FIELD,))


def _format_block(block: NDArray[np.float64], buffers: _CsvBuffers) -> bytes | NDArray[np.uint8]:
    """CSV text of a (rows, 6) block, byte-identical to '%.16e' per value.

    The kernel writes every value in its window, and '%.16e' of |v| is
    written into the field of a value outside it; the result is a view of
    ``buffers``, valid until their next use. If any such text has another
    width (nan, inf, three exponent digits), the result is instead the
    bytes of '%.16e' of every value in the block."""
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
    if flags.any():  # '%' text of the values outside the window, in their fields
        outside = np.flatnonzero(flags)
        texts = ["%.16e" % v for v in np.abs(values[outside]).tolist()]
        if any(len(text) != _FIELD - 1 for text in texts):
            return (_ROW_FORMAT * len(block) % tuple(values.tolist())).encode("ascii")
        joined = "".join(texts).encode("ascii")
        buffers.text[outside, :-1] = np.frombuffer(joined, np.uint8).reshape(-1, _FIELD - 1)
    np.signbit(values, out=negative)
    return buffers.signed(negative) if negative.any() else buffers.text[:n].reshape(-1)


def _write_atomically(path, write, least: int) -> int:
    """Run ``write(binary_handle)`` against a temporary file beside ``path``
    and move it into place, so a failure leaves any old file as it was.
    Fails with ENOSPC before creating anything when the directory has fewer
    than ``least`` bytes free. A path that opens no regular file (a FIFO,
    /dev/stdout's pipe) is written in place, unchecked: ``os.stat`` follows
    its links, where the realpath of a pipe names nothing.

    The file the rename replaces is held open across it and closed on a
    daemon thread, so freeing its blocks overlaps the caller's next work
    instead of stalling the rename; a process that exits first frees them
    at exit. The rename still targets the existing name, so the filesystem
    still orders the new data before it; a failure closes the held file and
    leaves the old one in place. A target that cannot be held is replaced
    as it stands."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as handle:
            return write(handle)
    target = os.path.realpath(path)
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
    replaced = None  # the old file, held where POSIX lets a rename replace it open
    try:
        with open(descriptor, "wb") as handle:
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            written = write(handle)
        if mode is not None and os.name == "posix":
            with contextlib.suppress(OSError):  # never waits, should the name become a FIFO
                replaced = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
        os.replace(temporary, target)
    except BaseException:
        if replaced is not None:
            os.close(replaced)
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise
    if replaced is not None:
        try:
            threading.Thread(target=os.close, args=(replaced,), daemon=True).start()
        except RuntimeError:  # no thread to be had: free the blocks here
            os.close(replaced)
    return written


def emit_csv(table: SweepTable, destination) -> int:
    """Write a table as CSV (17 significant digits, '\\n' endings); return bytes written.

    ``table`` needs ``len`` and ``rows(lo, hi)``, called per chunk;
    ``destination`` is a path or an open text stream. Numbers round-trip
    bit-exactly through the emitted text. Raises on an empty table before
    touching the destination, and wraps write errors in IoFailure. A path is
    written through a temporary file in the same directory, so a failed write
    leaves an existing file unchanged; a FIFO, pipe or terminal is written in
    place. It is refused up front when its directory cannot hold 4 bytes per
    value ('nan' and a separator). The file it replaces is closed on a
    background thread after the rename, so the call returns before that
    file's blocks are freed.
    """
    count = len(table)
    if count == 0:
        raise InvalidSweepSpec("refusing to emit CSV for zero rows")

    def blocks():
        yield (CSV_HEADER + "\n").encode("ascii")
        buffers = _CsvBuffers(min(count, _CHUNK_ROWS))
        for lo, hi in _walk([(0, count)]):
            yield _format_block(table.rows(lo, hi), buffers)

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
