"""Command-line front end: width, solve, rsc, sweep, and slope subcommands.

Configs are flat ``key = value`` text files ('#' starts a comment); every
key is a field of :class:`conewidth.experiment.ExperimentConfig` and can be
overridden on the command line with trailing ``key=value`` arguments.
Every CSV is built by :mod:`conewidth.experiment`; this module only reads
the config or CSV file and writes the result to ``--out`` or standard output.

Exit codes: 0 success, 2 configuration error (message names the offending
key), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
import typing
from pathlib import Path

from .experiment import ConfigError, ExperimentConfig, prepare_sweep, run_sweep, slope_csv, solve_csv


def _int_tuple(raw: str) -> tuple:
    """A comma-separated tuple of ints; an empty value is the empty tuple."""
    raw = raw.strip()
    return tuple(int(part.strip()) for part in raw.split(",")) if raw else ()


_PARSERS = {
    key: _int_tuple if hint == tuple[int, ...] else hint
    for key, hint in typing.get_type_hints(ExperimentConfig).items()
}


def _parse_pair(line: str, source: str) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigError(line.strip(), f"expected key=value in {source}")
    key, _, raw = line.partition("=")
    return key.strip(), raw.strip()


def load_config(path: str, overrides=()) -> ExperimentConfig:
    """Parse a flat key=value config file and apply overrides, then validate."""
    text = Path(path).read_text(encoding="utf-8-sig")
    values: dict = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, raw = _parse_pair(line, "config file")
        if key in values:
            raise ConfigError(key, "duplicate key")
        values[key] = raw
    for item in overrides:
        key, raw = _parse_pair(item, "override")
        values[key] = raw
    parsed: dict = {}
    for key, raw in values.items():
        if key not in _PARSERS:
            raise ConfigError(key, "unknown key")
        try:
            parsed[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(key, f"cannot parse value {raw!r}: {exc}") from exc
    config = ExperimentConfig(**parsed)
    config.validate()
    return config


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of :func:`load_config`: a parseable key=value rendering."""
    lines = []
    for key in _PARSERS:
        value = getattr(config, key)
        if isinstance(value, tuple):
            rendered = ",".join(map(str, value))
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8", newline="\n")


def _cmd_sweep(config: ExperimentConfig, out_path: str | None) -> None:
    result = run_sweep(config)
    _write_output(result.aggregate_csv(), out_path)
    if out_path is not None:
        Path(out_path + ".trials.csv").write_text(result.trials_csv(), encoding="utf-8", newline="\n")
    print(result.status_line(), file=sys.stderr)


# the CSV text of each subcommand but sweep that reads a config
_CSV_COMMANDS = {
    "width": lambda config: prepare_sweep(config).width_csv(),
    "solve": solve_csv,
    "rsc": lambda config: prepare_sweep(config).rsc_csv(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conewidth",
        description="Constrained M-estimation over l1 balls with width-based bound certification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in (
        ("width", "estimate constraint-geometry widths for a config"),
        ("solve", "solve one instance at the first grid n"),
        ("rsc", "probe restricted strong convexity at each grid n"),
        ("sweep", "run the full rate-verification sweep"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("overrides", nargs="*", metavar="KEY=VALUE", help="config overrides")
    p = sub.add_parser("slope", help="fit log-log slopes from an aggregate sweep CSV")
    p.add_argument("--csv", required=True, help="aggregate CSV written by sweep")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    """Parse arguments, run the requested subcommand, and return an exit code."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    try:
        if ns.subcommand == "slope":
            _write_output(slope_csv(Path(ns.csv).read_text(encoding="utf-8"), ns.csv), ns.out)
        elif ns.subcommand == "sweep":
            _cmd_sweep(load_config(ns.config, ns.overrides), ns.out)
        else:
            _write_output(_CSV_COMMANDS[ns.subcommand](load_config(ns.config, ns.overrides)), ns.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - the message matters, not the type
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
