"""Command-line front end: width, solve, rsc, sweep, and slope subcommands.

Configs are flat ``key = value`` text files ('#' starts a comment); every
key is a field of :class:`conewidth.experiment.ExperimentConfig` and can be
overridden on the command line with trailing ``key=value`` arguments.
Results are CSV, written to ``--out`` or standard output.

Exit codes: 0 success, 2 configuration error (message names the offending
key), 1 runtime failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds, geometry, glm
from .experiment import (
    ConfigError,
    ExperimentConfig,
    _fmt,
    fit_loglog_slope,
    make_truth,
    prepare_sweep,
    run_sweep,
    solve,
)
from .rng import stream

SUBCOMMANDS = ("width", "solve", "rsc", "sweep", "slope")


@dataclass(frozen=True)
class CliInvocation:
    subcommand: str
    config_path: str | None
    out_path: str | None
    overrides: tuple[str, ...]
    csv_path: str | None = None


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part.strip()) for part in raw.split(","))


def _parse_float_tuple(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(float(part.strip()) for part in raw.split(","))


_PARSERS = {
    "p": int,
    "s": int,
    "trials": int,
    "mc_samples": int,
    "master_seed": int,
    "rsc_directions": int,
    "solver_max_iter": int,
    "theta_magnitude": float,
    "slack": float,
    "noise_scale": float,
    "rsc_epsilon": float,
    "rsc_alpha": float,
    "solver_gap_tol": float,
    "solver_tol": float,
    "family": str,
    "ensemble": str,
    "constraint_mode": str,
    "mu_mode": str,
    "solver": str,
    "n_grid": _parse_int_tuple,
    "t_grid": _parse_float_tuple,
}


def _parse_pair(line: str, source: str) -> tuple[str, str]:
    if "=" not in line:
        raise ConfigError(line.strip(), f"expected key=value in {source}")
    key, _, raw = line.partition("=")
    return key.strip(), raw.strip()


def load_config(path: str, overrides=()) -> ExperimentConfig:
    """Parse a flat key=value config file and apply overrides, then validate."""
    text = Path(path).read_text(encoding="utf-8")
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
            rendered = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
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
    ctx = prepare_sweep(config)
    lines = ["kind,t,width_mean,width_stderr,samples"]
    if config.constraint_mode == "matched":
        w = ctx.width_cone
        lines.append(f"cone,{_fmt(0.0)},{_fmt(w.mean)},{_fmt(w.stderr)},{w.samples}")
    else:
        for t in config.t_grid:
            w = ctx.width_by_t[float(t)]
            lines.append(f"localized,{_fmt(t)},{_fmt(w.mean)},{_fmt(w.stderr)},{w.samples}")
        w = ctx.width_global
        lines.append(f"global,{_fmt(math.nan)},{_fmt(w.mean)},{_fmt(w.stderr)},{w.samples}")
    _write_output("\n".join(lines) + "\n", out_path)


def _trial_instance(config: ExperimentConfig, n: int) -> tuple[glm.ProblemInstance, float]:
    theta = make_truth(config.p, config.s, config.theta_magnitude, stream(config.master_seed, "truth"))
    c = float(np.sum(np.abs(theta))) + config.slack
    design = glm.sample_design(n, config.p, config.ensemble, stream(config.master_seed, "design", n, 0))
    responses = glm.sample_responses(
        design, theta, config.glm_family(), stream(config.master_seed, "responses", n, 0)
    )
    return glm.ProblemInstance(design, responses, theta, config.glm_family(), config.ensemble), c


def _cmd_solve(config: ExperimentConfig, out_path: str | None) -> None:
    n = int(config.n_grid[0])
    instance, c = _trial_instance(config, n)
    report = solve(config, instance, c)
    err = report.theta_hat - instance.theta_true
    lines = [
        "n,method,objective,error_l2,error_l1,iterations,final_gap,l1_norm",
        ",".join(
            (
                str(n),
                report.method,
                _fmt(report.final_objective),
                _fmt(float(np.linalg.norm(err))),
                _fmt(float(np.sum(np.abs(err)))),
                str(report.iterations),
                _fmt(report.final_gap),
                _fmt(float(np.sum(np.abs(report.theta_hat)))),
            )
        ),
    ]
    _write_output("\n".join(lines) + "\n", out_path)


def _cmd_rsc(config: ExperimentConfig, out_path: str | None) -> None:
    lines = ["n,mu_hat,quantile_mu,mu_theoretical,directions,epsilon,alpha"]
    theta = make_truth(config.p, config.s, config.theta_magnitude, stream(config.master_seed, "truth"))
    radius = float(np.sum(np.abs(theta))) + config.slack
    mu_theory = (1.0 - config.rsc_epsilon) * glm.hessian_weight_lower_bound(config.glm_family(), radius)
    for n in config.n_grid:
        n = int(n)
        instance, c = _trial_instance(config, n)
        rng = stream(config.master_seed, "rsc", n, 0)
        if config.constraint_mode == "matched":
            directions = geometry.descent_cone(instance.theta_true)
        else:
            fset = geometry.FeasibleSet(instance.theta_true, c)
            t_probe = float(config.t_grid[0])  # smallest t: largest localized cone
            directions = lambda r, num: bounds.sample_localized_directions(fset, t_probe, num, r)
        est = bounds.rsc_estimate(
            instance,
            directions,
            config.rsc_directions,
            epsilon=config.rsc_epsilon,
            alpha=config.rsc_alpha,
            rng=rng,
        )
        lines.append(
            ",".join(
                (
                    str(n),
                    _fmt(est.mu_hat),
                    _fmt(est.quantile_mu),
                    _fmt(mu_theory),
                    str(est.directions_tested),
                    _fmt(est.epsilon),
                    _fmt(est.alpha),
                )
            )
        )
    _write_output("\n".join(lines) + "\n", out_path)


def _cmd_sweep(config: ExperimentConfig, out_path: str | None) -> None:
    result = run_sweep(config)
    _write_output(result.aggregate_csv(), out_path)
    if out_path is not None:
        Path(out_path + ".trials.csv").write_text(result.trials_csv(), encoding="utf-8", newline="\n")


def _cmd_slope(csv_path: str, out_path: str | None) -> None:
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    rows = [line for line in lines if line and not line.startswith("#")]
    header = rows[0].split(",")
    try:
        n_col = header.index("n")
        error_col = header.index("mean_error")
        bound_col = header.index("bound")
    except ValueError as exc:
        raise RuntimeError(f"{csv_path} is not an aggregate sweep CSV: {exc}") from exc
    data = [line.split(",") for line in rows[1:]]
    out = ["series,slope,intercept,half_width"]
    for name, col in (("mean_error", error_col), ("bound", bound_col)):
        points = []
        for parts in data:
            value = float(parts[col])
            if math.isfinite(value) and value > 0:
                points.append((int(parts[n_col]), value))
        if len(points) >= 3:
            fit = fit_loglog_slope(points)
            out.append(f"{name},{_fmt(fit.slope)},{_fmt(fit.intercept)},{_fmt(fit.half_width)}")
        else:
            out.append(f"{name},nan,nan,nan")
    _write_output("\n".join(out) + "\n", out_path)


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


def parse_and_dispatch(argv=None) -> int:
    """Parse arguments, run the requested subcommand, and return an exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    invocation = CliInvocation(
        subcommand=ns.subcommand,
        config_path=getattr(ns, "config", None),
        out_path=ns.out,
        overrides=tuple(getattr(ns, "overrides", ())),
        csv_path=getattr(ns, "csv", None),
    )
    try:
        if invocation.subcommand == "slope":
            _cmd_slope(invocation.csv_path, invocation.out_path)
        else:
            config = load_config(invocation.config_path, invocation.overrides)
            handler = {
                "width": _cmd_width,
                "solve": _cmd_solve,
                "rsc": _cmd_rsc,
                "sweep": _cmd_sweep,
            }[invocation.subcommand]
            handler(config, invocation.out_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - the message matters, not the type
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
