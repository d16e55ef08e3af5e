"""Command-line front end for running sweeps and deviation reports.

Usage examples:

    perturba --mode time --fixed 1e-3 --start 0 --stop 30 --samples 3000000 \\
             --threshold 0.5 --out sweep.csv
    perturba --mode field --fixed 1.0 --start 1e-4 --stop 1e-2 --samples 2001 \\
             --scale log

Constants come from a plain key/value config file (--config or the
PERTURBA_CONFIG environment variable); recognized keys are mu_e,
delta_nu_h, planck_h, elementary_charge and b_field. Flags override the
file. Exit codes: 0 success, 1 validation error (including an
allocation that does not fit in memory), 2 I/O error (including an --out
directory without room for the CSV).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import fields

from .hyperfine import PhysicalConstants
from .sweep import SweepSpec, SweepTable, emit_csv, first_crossings
from .sweep import _MODES, _SCALES

CONFIG_ENV_VAR = "PERTURBA_CONFIG"

_CONSTANT_KEYS = tuple(f.name for f in fields(PhysicalConstants))
_CONFIG_KEYS = _CONSTANT_KEYS + ("b_field",)


class _Parser(argparse.ArgumentParser):
    # argparse takes -1 but not -2e-6 or -inf for a value; no option here
    # looks like a number, so every negative spelling float() reads is one
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))$"
        )

    # argparse exits with status 2 on bad flags; route that through the
    # validation path (exit 1) instead, keeping 2 for genuine I/O trouble.
    def error(self, message):
        raise ValueError(message)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, float]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ", 1).split()
        if len(parts) != 2:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = parts
        key = key.lower()
        if key not in _CONFIG_KEYS:
            raise ValueError(
                f"{source}:{lineno}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})"
            )
        try:
            values[key] = float(value)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: {value!r} is not a number") from None
    return values


def load_config(path: str) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), source=path)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="perturba",
        description="Sweep exact/improved/traditional hyperfine transition "
        "probability curves over time or field and emit plot-ready CSV.",
    )
    parser.add_argument("--config", help=f"key/value constants file (or ${CONFIG_ENV_VAR})")
    parser.add_argument("--mode", choices=_MODES, default="time")
    parser.add_argument(
        "--fixed",
        type=float,
        help="held-fixed value: B in tesla for time mode (default: config "
        "b_field), t in seconds for field mode (required)",
    )
    parser.add_argument("--start", type=float, required=True)
    parser.add_argument("--stop", type=float, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--scale", choices=_SCALES, default="linear")
    parser.add_argument(
        "--threshold",
        type=float,
        help="also report where each curve first deviates from the exact "
        "one by more than this (time mode only)",
    )
    parser.add_argument("--out", help="CSV destination (default: stdout)")
    return parser


#: main's parser, built on its first call and reused: parse_args keeps no state
_parser = functools.cache(build_parser)


def _resolve_fixed(args, config_values) -> float:
    if args.fixed is not None:
        return args.fixed
    if args.mode == "time":
        if "b_field" in config_values:
            return config_values["b_field"]
        raise ValueError("time mode needs --fixed or a b_field config entry")
    raise ValueError("field mode needs --fixed (the time in seconds)")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)

        config_path = args.config or os.environ.get(CONFIG_ENV_VAR)
        config_values = load_config(config_path) if config_path else {}

        constants = PhysicalConstants(
            **{k: config_values[k] for k in _CONSTANT_KEYS if k in config_values}
        )
        fixed = _resolve_fixed(args, config_values)
        spec = SweepSpec(
            mode=args.mode,
            fixed_value=fixed,
            start=args.start,
            stop=args.stop,
            samples=args.samples,
            scale=args.scale,
        )
        table = SweepTable(spec, constants)
        crossings = None if args.threshold is None else first_crossings(table, args.threshold)
        phase = table.aliasing_phase
        if phase is not None:
            print(
                f"perturba: warning: one grid step advances the fastest curve by "
                f"{phase:.3g} rad > pi/2; the grid aliases the oscillation",
                file=sys.stderr,
            )

        out = None if args.out == "/dev/stdout" else args.out  # the stream: appended, not replaced
        emit_csv(table, out or sys.stdout)
        if crossings is not None:
            for curve, crossing in zip(("traditional", "improved"), crossings):
                print(f"first_crossing_{curve} = {crossing!r}",
                      file=sys.stdout if out else sys.stderr)
        return 0
    except ValueError as exc:
        print(f"perturba: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a numpy allocation that does not fit; the lazy grid itself holds no rows
        print(f"perturba: error: not enough memory for this sweep: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"perturba: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
