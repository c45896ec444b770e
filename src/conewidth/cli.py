"""Command-line front end: width, solve, rsc, sweep, and slope subcommands.

Configs are flat ``key = value`` text files ('#' starts a comment); every
key is a field of :class:`conewidth.experiment.ExperimentConfig` and can be
overridden on the command line with trailing ``key=value`` arguments.
Results are CSV, rendered by :func:`conewidth.experiment.render_csv` and
written to ``--out`` or standard output.

Exit codes: 0 success, 2 configuration error (message names the offending
key), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import typing
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import bounds, solver
from .experiment import (
    RSC_EPSILON,
    ConfigError,
    ExperimentConfig,
    fit_series,
    make_instance,
    prepare_sweep,
    render_csv,
    run_sweep,
    sweep_truth,
)


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


def _cmd_width(config: ExperimentConfig, out_path: str | None) -> None:
    """The sweep's widths: when matched (slack = 0) the cone row, else a localized row per t and the global row."""
    ctx = prepare_sweep(config)
    matched = config.slack == 0.0
    rows = [("cone" if matched else "localized", t, w.mean, w.stderr, w.samples) for t, w in ctx.widths.items()]
    if not matched:
        rows.append(("global", math.nan, ctx.global_width, 0.0, 0))
    _write_output(render_csv(("kind", "t", "width_mean", "width_stderr", "samples"), rows), out_path)


def _cmd_solve(config: ExperimentConfig, out_path: str | None) -> None:
    n = config.n_grid[0]
    theta, c = sweep_truth(config)
    instance = make_instance(config, theta, n, 0)
    report = solver.projected_gradient(instance, c)
    err = report.theta_hat - instance.theta_true
    row = (
        n,
        "projected_gradient",
        report.final_objective,
        float(np.linalg.norm(err)),
        float(np.sum(np.abs(err))),
        report.iterations,
        report.final_gap,
        float(np.sum(np.abs(report.theta_hat))),
    )
    columns = ("n", "method", "objective", "error_l2", "error_l1", "iterations", "final_gap", "l1_norm")
    _write_output(render_csv(columns, [row]), out_path)


def _cmd_rsc(config: ExperimentConfig, out_path: str | None) -> None:
    """The probe of each grid n's trial 0, exactly as the sweep runs it.

    ``mu_hat``, ``quantile_mu`` and ``directions`` are the minimum, the 1%
    quantile and the size of its one curvature vector.  The ``epsilon``
    column is always ``RSC_EPSILON`` and the ``alpha`` column always 1; they
    stay so that the CSV keeps its documented columns.
    """
    ctx = prepare_sweep(config)
    rows = []
    for n in config.n_grid:
        instance = make_instance(config, ctx.fset.theta_true, n, 0)
        q = bounds.rsc_estimate(instance, ctx.directions[ctx.tuned_by_n[n].t_star])
        rows.append((n, np.min(q), np.quantile(q, 0.01), ctx.mu_theoretical, q.size, RSC_EPSILON, 1))
    columns = ("n", "mu_hat", "quantile_mu", "mu_theoretical", "directions", "epsilon", "alpha")
    _write_output(render_csv(columns, rows), out_path)


def _cmd_sweep(config: ExperimentConfig, out_path: str | None) -> None:
    result = run_sweep(config)
    _write_output(result.aggregate_csv(), out_path)
    if out_path is not None:
        Path(out_path + ".trials.csv").write_text(result.trials_csv(), encoding="utf-8", newline="\n")
    print(result.status_line(), file=sys.stderr)


def _cmd_slope(csv_path: str, out_path: str | None) -> None:
    """Refit the slopes of an aggregate CSV with the rule of its footer."""
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if line and not line.startswith("#")]
    names = ("mean_error", "bound")
    try:
        header, *data = rows
        n_col, *cols = (header.index(name) for name in ("n", *names))
        ns = [int(parts[n_col]) for parts in data]
        if any(b <= a for a, b in zip([0, *ns], ns)):  # every sweep's n_grid rule
            raise ValueError(f"n must be >= 1 and strictly increasing, got {', '.join(map(str, ns))}")
        series = [[float(parts[col]) for parts in data] for col in cols]
    except (IndexError, ValueError) as exc:  # no header, a short row, a non-numeric cell or a bad n column
        raise RuntimeError(f"{csv_path} is not an aggregate sweep CSV: {exc}") from exc
    out = []
    for name, values in zip(names, series):
        fit = fit_series(ns, values)
        out.append((name, *(astuple(fit) if fit else (math.nan,) * 3)))
    _write_output(render_csv(("series", "slope", "intercept", "half_width"), out), out_path)


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
            _cmd_slope(ns.csv, ns.out)
        else:
            handlers = {"width": _cmd_width, "solve": _cmd_solve, "rsc": _cmd_rsc, "sweep": _cmd_sweep}
            handlers[ns.subcommand](load_config(ns.config, ns.overrides), ns.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - the message matters, not the type
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
