"""Command-line frontend: custom sweeps, bundled presets, the validation
suite, and single-point oracle reports."""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from functools import lru_cache, partial

import numpy as np

from ._version import __version__
from .channels import CHANNEL_FAMILIES, evolve
from .linalg import _finite_nonnegative, make_bell_state
from .measures import GdConvention, RAW_CONVENTION, gd_lower_bound, negativity
from .oracle import gd_exact
from .sweeps import (ConfigError, ExperimentConfig, PRESET_NAMES, SweepDataset,
                     SweepRange, preset_configs, run_preset, run_sweep)
from .validation import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

OUTDIR_ENV = "QUTRITCORR_OUTDIR"


class OutputError(Exception):
    """File output failed or was refused."""


def parse_axis(text: str, range_ok: bool = True):
    """Finite, non-negative scalar or, when range_ok, a min:max:steps range."""
    if range_ok and ":" in text:
        try:
            start, stop, steps = text.split(":")  # a count other than 3 fails too
            start, stop, steps = float(start), float(stop), int(steps)
        except ValueError:
            raise argparse.ArgumentTypeError(f"range must be min:max:steps, got {text!r}") from None
        try:
            return SweepRange(start, stop, steps)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not _finite_nonnegative(value):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text}")
    return value


def _shared(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """A help-less parser holding one option that several commands take."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(*flags, **kwargs)
    return parser


# Built once per process (about 1.7 ms); parsing leaves the parser unchanged.
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutritcorr",
        description="Negativity and geometric-discord dynamics of a qutrit pair "
                    "under local noise channels.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    seed = _shared("--seed", type=int, default=0)
    restarts = _shared("--restarts", type=int, default=32, help="oracle restarts")
    force = _shared("--force", action="store_true", help="overwrite an existing output file")
    output = _shared("--output", default="-", help="output file, or - for stdout")
    fmt = _shared("--format", choices=("csv", "json"), default="csv")
    convention = _shared("--gd-convention", choices=("paper", "raw"), default="paper")
    channels = [_shared(f"--channel-{side}", required=True, choices=CHANNEL_FAMILIES)
                for side in "ab"]

    run_p = sub.add_parser("run", help="custom sweep over time and decay rates",
                           parents=[*channels, convention, seed, restarts, fmt, output, force])
    for name, what in (("qa", "A-side decay rate"), ("qb", "B-side decay rate"),
                       ("t", "evolution time")):
        run_p.add_argument(f"--{name}", required=True, type=parse_axis,
                           metavar=f"{name[0].upper()}|MIN:MAX:STEPS",
                           help=f"{what}, scalar or range")
    run_p.add_argument("--oracle", action="store_true",
                       help="add a gd_exact column (slow)")

    preset_p = sub.add_parser("preset", help="run a bundled figure preset",
                              parents=[convention, seed, fmt, force])
    preset_p.add_argument("--name", required=True, choices=PRESET_NAMES)
    preset_p.add_argument("--outdir", default=None,
                          help=f"output directory (default ${OUTDIR_ENV} or the current dir)")

    val_p = sub.add_parser("validate", help="run the cross-module consistency suite",
                           parents=[seed, restarts])
    val_p.add_argument("--oracle-states", type=int, default=12,
                       help="random states for the bound-vs-oracle check")
    val_p.add_argument("--unnormalized-trit-flip", action="store_true",
                       help="swap in the sqrt(gamma)-weighted trit-flip variant, which "
                            "fails the completeness check")

    oracle_p = sub.add_parser("oracle", parents=[*channels, restarts, seed, output, force],
                              help="single-point report with the brute-force discord value")
    scalar = partial(parse_axis, range_ok=False)
    for name in ("qa", "qb", "t"):
        oracle_p.add_argument(f"--{name}", required=True, type=scalar)
    return parser


def _meta_value(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


# Rows per formatting chunk, whose Python floats are alive at once; chunks of
# 1,024 rows raised the peak memory of a preset sweep by about 0.5 MB.
_FORMAT_ROWS = 256


def format_dataset_csv(ds: SweepDataset) -> str:
    lines = [f"# {key}: {_meta_value(val)}" for key, val in ds.meta.items()]
    lines.append(",".join(ds.columns))
    cols = [np.asarray(col, dtype=float) for col in ds.columns.values()]
    row = ",".join(["%.12g"] * len(cols))
    for start in range(0, len(ds), _FORMAT_ROWS):
        chunk = [col[start:start + _FORMAT_ROWS].tolist() for col in cols]
        lines.extend(row % values for values in zip(*chunk))
    return "\n".join(lines) + "\n"


def format_dataset_json(ds: SweepDataset) -> str:
    columns = {name: np.asarray(col, dtype=float).tolist() for name, col in ds.columns.items()}
    return json.dumps({"meta": dict(ds.meta), "columns": columns}, indent=2) + "\n"


def _check_target(path: str, force: bool) -> None:
    if os.path.exists(path) and not force:
        raise OutputError(f"refusing to overwrite {path} (pass --force)")


def write_text(text: str, path: str, force: bool = False) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    _check_target(path, force)
    # Write beside the target and rename into place, so the target is either
    # left as it was or replaced whole.
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OutputError(f"cannot write {path}: {exc}") from exc


def write_dataset(ds: SweepDataset, fmt: str, path: str, force: bool = False) -> None:
    text = format_dataset_csv(ds) if fmt == "csv" else format_dataset_json(ds)
    write_text(text, path, force)


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        family_a=args.channel_a, family_b=args.channel_b, q_a=args.qa, q_b=args.qb, t=args.t,
        gd_convention=GdConvention(args.gd_convention),
        oracle_enabled=args.oracle, oracle_restarts=args.restarts, seed=args.seed)
    write_dataset(run_sweep(cfg), args.format, args.output, args.force)
    return EXIT_OK


def _cmd_preset(args) -> int:
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create {outdir}: {exc}") from exc
    paths = {key: os.path.join(outdir, f"{args.name}_{key}.{args.format}")
             for key in preset_configs(args.name)}
    for path in paths.values():
        _check_target(path, args.force)
    datasets = run_preset(args.name, gd_convention=GdConvention(args.gd_convention),
                          seed=args.seed)
    for key, ds in datasets.items():
        write_dataset(ds, args.format, paths[key], args.force)
        print(paths[key])
    return EXIT_OK


def _cmd_validate(args) -> int:
    checks = run_validation(seed=args.seed, restarts=args.restarts,
                            oracle_states=args.oracle_states,
                            unnormalized_trit_flip=args.unnormalized_trit_flip)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  tol {c.tolerance:<8.1e}  max dev {c.max_deviation:<12.3e}  {status}")
    failed = [c for c in checks if not c.passed]
    if failed:
        names = ", ".join(c.name for c in failed)
        print(f"failed: {names}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _cmd_oracle(args) -> int:
    rho = evolve(make_bell_state(3), args.channel_a, args.channel_b,
                 args.qa, args.qb, args.t)
    result = gd_exact(rho, restarts=args.restarts, seed=args.seed)
    payload = {
        "channel_a": args.channel_a, "channel_b": args.channel_b,
        "q_a": args.qa, "q_b": args.qb, "t": args.t,
        "negativity": negativity(rho),
        "gd_lower_paper": gd_lower_bound(rho),
        "gd_lower_raw": gd_lower_bound(rho, RAW_CONVENTION),
        "gd_exact": result.value, "gd_exact_convention": "raw", "residual": result.residual,
        "restarts": result.restarts_used, "seed": result.seed,
    }
    write_text(json.dumps(payload, indent=2) + "\n", args.output, args.force)
    return EXIT_OK


_COMMANDS = {"run": _cmd_run, "preset": _cmd_preset, "validate": _cmd_validate,
             "oracle": _cmd_oracle}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OutputError) as exc:  # ValueError includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OutputError) else EXIT_USAGE

