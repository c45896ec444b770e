"""Rate-verification sweeps: seeded trials, aggregation, slope fits, CSV output.

A sweep fixes a ground truth (derived from the master seed), then for each
sample size n runs independent seeded trials: draw a design and responses,
solve the constrained problem, measure the estimation error, and evaluate
the width-based bound alongside empirical restricted-convexity diagnostics.
Trials are independent work items; any execution order produces the same
records, and aggregation is order-insensitive (numpy's pairwise summation;
means are computed over records sorted by trial index).

Following the conditioning in the bound statements, a trial whose empirical
curvature falls below half the theoretical mu is flagged ``discarded``;
aggregates report both the conditioned mean (used against the bound) and the
unconditioned mean, plus the discard rate.

CSV conventions: comma separation, '.' decimal point, floats rendered with
%.17g (the documented formatting rule behind byte-identical reruns).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds, geometry, glm, solver
from .geometry import ConeModel, FeasibleSet, WidthEstimate
from .rng import seed_fingerprint, stream

THREADS_ENV_VAR = "CONEWIDTH_THREADS"
FLOAT_FORMAT = "{:.17g}"

CONSTRAINT_MODES = ("matched", "mismatched")
MU_MODES = ("empirical", "theoretical")
SOLVERS = ("projected_gradient", "frank_wolfe")

TRIAL_CSV_COLUMNS = (
    "n",
    "trial",
    "seed",
    "error_l2",
    "error_l1",
    "bound_matched",
    "bound_mismatched",
    "t_star",
    "width_mean",
    "width_stderr",
    "mu_hat",
    "mu_theoretical",
    "sigma_max",
    "solver_iters",
    "final_gap",
    "discarded",
)

AGGREGATE_CSV_COLUMNS = (
    "n",
    "mean_error",
    "stderr",
    "bound",
    "bound_closed_form",
    "naive_bound",
    "refined_bound",
    "width_mean",
    "width_stderr",
    "t_star",
    "mu_used",
    "sigma_max_mean",
    "discard_rate",
    "mean_gap",
    "mean_error_unconditioned",
    "trials_used",
)


class ConfigError(ValueError):
    """A configuration key failed validation."""

    def __init__(self, key: str, message: str):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    p: int = 0
    s: int = 0
    family: str = "gaussian"
    ensemble: str = "gaussian"
    theta_magnitude: float = 1.0
    constraint_mode: str = "matched"
    slack: float = 0.0
    noise_scale: float = 0.5
    n_grid: tuple[int, ...] = ()
    trials: int = 1
    mc_samples: int = 2000
    master_seed: int = 0
    rsc_epsilon: float = 0.5
    rsc_alpha: float = 1.0
    rsc_directions: int = 2000
    mu_mode: str = "empirical"
    solver: str = "projected_gradient"
    solver_max_iter: int = 50_000
    solver_gap_tol: float = 0.0  # 0 = automatic (1e-6 relative to f(0))
    solver_tol: float = 1e-10
    t_grid: tuple[float, ...] = ()

    def validate(self) -> None:
        if self.p < 1:
            raise ConfigError("p", "must be >= 1")
        if not 0 <= self.s <= self.p:
            raise ConfigError("s", "must satisfy 0 <= s <= p")
        if self.family not in glm.FAMILIES:
            raise ConfigError("family", f"must be one of {glm.FAMILIES}")
        if self.ensemble not in glm.ENSEMBLES:
            raise ConfigError("ensemble", f"must be one of {glm.ENSEMBLES}")
        if self.s > 0 and self.theta_magnitude <= 0:
            raise ConfigError("theta_magnitude", "must be > 0 when s > 0")
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ConfigError("constraint_mode", f"must be one of {CONSTRAINT_MODES}")
        if self.constraint_mode == "matched":
            if self.slack != 0.0:
                raise ConfigError("slack", "must be 0 in matched mode")
            if self.s < 1:
                raise ConfigError("s", "matched mode needs a nonzero ground truth (s >= 1)")
        else:
            if self.slack <= 0.0:
                raise ConfigError("slack", "must be > 0 in mismatched mode")
            if not self.t_grid:
                raise ConfigError("t_grid", "required in mismatched mode")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale", "must be >= 0")
        if not self.n_grid:
            raise ConfigError("n_grid", "must be nonempty")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid", "entries must be >= 1")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n_grid", "must be strictly increasing")
        if self.trials < 1:
            raise ConfigError("trials", "must be >= 1")
        if self.mc_samples < 2:
            raise ConfigError("mc_samples", "must be >= 2")
        if not 0.0 < self.rsc_epsilon < 1.0:
            raise ConfigError("rsc_epsilon", "must lie in (0, 1)")
        if self.rsc_alpha < 1.0:
            raise ConfigError("rsc_alpha", "must be >= 1")
        if self.rsc_directions < 100:
            raise ConfigError("rsc_directions", "must be >= 100")
        if self.mu_mode not in MU_MODES:
            raise ConfigError("mu_mode", f"must be one of {MU_MODES}")
        if self.solver not in SOLVERS:
            raise ConfigError("solver", f"must be one of {SOLVERS}")
        if self.solver_max_iter < 1:
            raise ConfigError("solver_max_iter", "must be >= 1")
        if self.solver_gap_tol < 0:
            raise ConfigError("solver_gap_tol", "must be >= 0 (0 = automatic)")
        if self.solver_tol <= 0:
            raise ConfigError("solver_tol", "must be > 0")
        if self.t_grid:
            if any(t <= 0 for t in self.t_grid):
                raise ConfigError("t_grid", "entries must be > 0")
            if any(b <= a for a, b in zip(self.t_grid, self.t_grid[1:])):
                raise ConfigError("t_grid", "must be strictly increasing")

    def glm_family(self) -> glm.GlmFamily:
        return glm.GlmFamily(self.family, self.noise_scale)


def make_truth(p: int, s: int, magnitude: float, rng: np.random.Generator) -> np.ndarray:
    """s-sparse ground truth: s random coordinates set to +-magnitude."""
    if not 0 <= s <= p:
        raise ValueError("need 0 <= s <= p")
    theta = np.zeros(p)
    if s > 0:
        support = rng.choice(p, size=s, replace=False)
        signs = 2.0 * rng.integers(0, 2, size=s).astype(float) - 1.0
        theta[support] = signs * magnitude
    return theta


@dataclass(frozen=True)
class SweepContext:
    """Per-sweep quantities shared by all trials (derived from config only)."""

    theta: np.ndarray
    c: float
    family: glm.GlmFamily
    fset: FeasibleSet
    cone: ConeModel | None
    mu_theoretical: float
    sigma_ref: float
    width_cone: WidthEstimate | None
    width_global: WidthEstimate | None
    width_by_t: dict
    tuned_by_n: dict


def prepare_sweep(config: ExperimentConfig) -> SweepContext:
    """Ground truth, constraint, and width estimates for a sweep."""
    config.validate()
    theta = make_truth(config.p, config.s, config.theta_magnitude, stream(config.master_seed, "truth"))
    c = float(np.sum(np.abs(theta))) + config.slack
    family = config.glm_family()
    fset = FeasibleSet(theta, c)
    mu_theory = (1.0 - config.rsc_epsilon) * glm.hessian_weight_lower_bound(family, c)
    sigma_ref = glm.sigma_max_upper_bound(family, c)
    if config.constraint_mode == "matched":
        cone = geometry.descent_cone(theta)
        width_cone = geometry.gaussian_width_cone(
            cone, config.mc_samples, stream(config.master_seed, "width", "cone")
        )
        return SweepContext(theta, c, family, fset, cone, mu_theory, sigma_ref, width_cone, None, {}, {})
    width_global = geometry.global_width_l1(
        fset, config.mc_samples, stream(config.master_seed, "width", "global")
    )
    width_by_t = {
        float(t): geometry.localized_width(
            fset, float(t), config.mc_samples, stream(config.master_seed, "width", i)
        )
        for i, t in enumerate(config.t_grid)
    }
    tuned_by_n = {
        int(n): bounds.optimize_t(
            lambda t: width_by_t[float(t)],
            width_global.mean,
            sigma_ref,
            mu_theory,
            int(n),
            config.t_grid,
        )
        for n in config.n_grid
    }
    return SweepContext(
        theta, c, family, fset, None, mu_theory, sigma_ref, None, width_global, width_by_t, tuned_by_n
    )


def solve(config: ExperimentConfig, instance: glm.ProblemInstance, c: float) -> solver.SolveReport:
    """Run the configured solver; ``solver_gap_tol = 0`` means the default tolerance."""
    gap_tol = None if config.solver_gap_tol == 0.0 else config.solver_gap_tol
    if config.solver == "frank_wolfe":
        return solver.frank_wolfe(instance, c, config.solver_max_iter, gap_tol)
    return solver.projected_gradient(instance, c, config.solver_max_iter, config.solver_tol, gap_tol=gap_tol)


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    seed: int
    error_l2: float = math.nan
    error_l1: float = math.nan
    bound_matched: float = math.nan
    bound_mismatched: float = math.nan
    t_star: float = math.nan
    width_mean: float = math.nan
    width_stderr: float = math.nan
    mu_hat: float = math.nan
    mu_quantile: float = math.nan
    mu_theoretical: float = math.nan
    mu_used: float = math.nan
    sigma_max: float = math.nan
    solver_iters: int = 0
    final_gap: float = math.nan
    discarded: bool = False
    grad_norm: float = math.nan
    proj_grad_norm: float = math.nan
    objective: float = math.nan
    failed: bool = False
    error_message: str = ""


def run_trial(
    config: ExperimentConfig, n: int, trial_index: int, ctx: SweepContext | None = None
) -> TrialRecord:
    """One seeded trial: generate data, solve, measure error, evaluate bounds.

    Deterministic given (master_seed, n, trial_index); the context argument
    is a pure cache of :func:`prepare_sweep` output.
    """
    if ctx is None:
        ctx = prepare_sweep(config)
    seed = seed_fingerprint(config.master_seed, "trial", n, trial_index)
    design = glm.sample_design(n, config.p, config.ensemble, stream(config.master_seed, "design", n, trial_index))
    responses = glm.sample_responses(
        design, ctx.theta, ctx.family, stream(config.master_seed, "responses", n, trial_index)
    )
    instance = glm.ProblemInstance(design, responses, ctx.theta, ctx.family, config.ensemble)

    report = solve(config, instance, ctx.c)

    err = report.theta_hat - ctx.theta
    error_l2 = float(np.linalg.norm(err))
    error_l1 = float(np.sum(np.abs(err)))

    grad0 = glm.gradient(instance, ctx.theta)
    grad_norm = float(np.linalg.norm(grad0))
    rng_rsc = stream(config.master_seed, "rsc", n, trial_index)
    if config.constraint_mode == "matched":
        t_star = 0.0
        width = ctx.width_cone
        _, proj_norm = geometry.project_onto_descent_cone(ctx.cone, -grad0)
        rsc = bounds.rsc_estimate(
            instance,
            ctx.cone,
            config.rsc_directions,
            epsilon=config.rsc_epsilon,
            alpha=config.rsc_alpha,
            rng=rng_rsc,
        )
    else:
        tuned = ctx.tuned_by_n[int(n)]
        t_star = tuned.t_star
        width = tuned.width_star
        proj_norm = float(
            geometry._sup_localized_dual_rows((-grad0)[None, :], ctx.fset, t_star)[0] / t_star
        )
        sampler = lambda rng, num: bounds.sample_localized_directions(ctx.fset, t_star, num, rng)
        rsc = bounds.rsc_estimate(
            instance,
            sampler,
            config.rsc_directions,
            epsilon=config.rsc_epsilon,
            alpha=config.rsc_alpha,
            rng=rng_rsc,
        )

    sigma_trial = glm.sigma_max(instance)
    mu_used = rsc.mu_hat if config.mu_mode == "empirical" else ctx.mu_theoretical
    discarded = rsc.mu_hat < 0.5 * ctx.mu_theoretical

    if config.constraint_mode == "matched":
        kind, bound_attr = "matched", "bound_matched"
    else:
        kind, bound_attr = "mismatched", "bound_mismatched"
    if mu_used > 0:
        bound_value = bounds.bound_report(kind, t_star, width, mu_used, sigma_trial, n).bound_value
    else:
        bound_value = math.inf
    bound_matched = bound_value if bound_attr == "bound_matched" else math.nan
    bound_mismatched = bound_value if bound_attr == "bound_mismatched" else math.nan

    return TrialRecord(
        n=n,
        trial=trial_index,
        seed=seed,
        error_l2=error_l2,
        error_l1=error_l1,
        bound_matched=bound_matched,
        bound_mismatched=bound_mismatched,
        t_star=t_star,
        width_mean=width.mean,
        width_stderr=width.stderr,
        mu_hat=rsc.mu_hat,
        mu_quantile=rsc.quantile_mu,
        mu_theoretical=ctx.mu_theoretical,
        mu_used=mu_used,
        sigma_max=sigma_trial,
        solver_iters=report.iterations,
        final_gap=report.final_gap,
        discarded=discarded,
        grad_norm=grad_norm,
        proj_grad_norm=proj_norm,
        objective=report.final_objective,
    )


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    half_width: float


def fit_loglog_slope(points) -> SlopeFit:
    """OLS fit of log(value) against log(n); half-width from residual variance."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if any(v <= 0 or n <= 0 for n, v in pts):
        raise ValueError("slope fit requires positive n and values")
    x = np.log(np.array([n for n, _ in pts]))
    y = np.log(np.array([v for _, v in pts]))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if sxx == 0:
        raise ValueError("slope fit requires at least two distinct n")
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    residuals = y - (intercept + slope * x)
    dof = len(pts) - 2
    sigma2 = float(residuals @ residuals) / dof
    half_width = 1.96 * math.sqrt(max(sigma2, 0.0) / sxx)
    return SlopeFit(slope, intercept, half_width)


@dataclass(frozen=True)
class SweepRow:
    n: int
    mean_error: float
    stderr_error: float
    bound: float
    bound_closed_form: float
    naive_bound: float
    refined_bound: float
    width_mean: float
    width_stderr: float
    t_star: float
    mu_used: float
    sigma_max_mean: float
    discard_rate: float
    mean_gap: float
    mean_error_unconditioned: float
    trials_used: int


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    context: SweepContext
    records: tuple[TrialRecord, ...]
    rows: tuple[SweepRow, ...]
    slope_error: SlopeFit | None
    slope_bound: SlopeFit | None
    slope_bound_closed_form: SlopeFit | None

    def trials_csv(self) -> str:
        lines = [",".join(TRIAL_CSV_COLUMNS)]
        for r in self.records:
            if r.failed:
                continue
            lines.append(
                ",".join(
                    (
                        str(r.n),
                        str(r.trial),
                        str(r.seed),
                        _fmt(r.error_l2),
                        _fmt(r.error_l1),
                        _fmt(r.bound_matched),
                        _fmt(r.bound_mismatched),
                        _fmt(r.t_star),
                        _fmt(r.width_mean),
                        _fmt(r.width_stderr),
                        _fmt(r.mu_hat),
                        _fmt(r.mu_theoretical),
                        _fmt(r.sigma_max),
                        str(r.solver_iters),
                        _fmt(r.final_gap),
                        "1" if r.discarded else "0",
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def aggregate_csv(self) -> str:
        lines = [",".join(AGGREGATE_CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                ",".join(
                    (
                        str(row.n),
                        _fmt(row.mean_error),
                        _fmt(row.stderr_error),
                        _fmt(row.bound),
                        _fmt(row.bound_closed_form),
                        _fmt(row.naive_bound),
                        _fmt(row.refined_bound),
                        _fmt(row.width_mean),
                        _fmt(row.width_stderr),
                        _fmt(row.t_star),
                        _fmt(row.mu_used),
                        _fmt(row.sigma_max_mean),
                        _fmt(row.discard_rate),
                        _fmt(row.mean_gap),
                        _fmt(row.mean_error_unconditioned),
                        str(row.trials_used),
                    )
                )
            )
        for name, fit in (
            ("slope_error", self.slope_error),
            ("slope_bound", self.slope_bound),
            ("slope_bound_closed_form", self.slope_bound_closed_form),
        ):
            if fit is not None:
                lines.append(
                    f"# {name} slope={_fmt(fit.slope)} intercept={_fmt(fit.intercept)} "
                    f"half_width={_fmt(fit.half_width)}"
                )
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def resolve_workers() -> int:
    """Worker count from the CONEWIDTH_THREADS environment variable (0 = auto)."""
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if workers < 0:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


_WORKER_STATE: dict = {}


def _worker_init(config: ExperimentConfig, ctx: SweepContext) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["ctx"] = ctx


def _worker_run(task: tuple[int, int]) -> TrialRecord:
    n, trial_index = task
    config = _WORKER_STATE["config"]
    ctx = _WORKER_STATE["ctx"]
    return _safe_trial(config, n, trial_index, ctx)


def _safe_trial(config: ExperimentConfig, n: int, trial_index: int, ctx: SweepContext) -> TrialRecord:
    try:
        return run_trial(config, n, trial_index, ctx)
    except (ValueError, RuntimeError, FloatingPointError) as exc:
        seed = seed_fingerprint(config.master_seed, "trial", n, trial_index)
        return TrialRecord(n=n, trial=trial_index, seed=seed, failed=True, error_message=str(exc))


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run all trials of a sweep, aggregate per n, and fit log-log slopes."""
    config.validate()
    ctx = prepare_sweep(config)
    tasks = [(int(n), j) for n in config.n_grid for j in range(config.trials)]
    workers = resolve_workers()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(config, ctx)
        ) as pool:
            records = list(pool.map(_worker_run, tasks))
    else:
        records = [_safe_trial(config, n, j, ctx) for n, j in tasks]

    rows = []
    for n in config.n_grid:
        n = int(n)
        group = [r for r in records if r.n == n]
        failed = [r for r in group if r.failed]
        if len(failed) > 0.2 * len(group):
            details = "; ".join(sorted({r.error_message for r in failed})[:3])
            raise RuntimeError(
                f"{len(failed)}/{len(group)} trials failed at n = {n}: {details}"
            )
        valid = [r for r in group if not r.failed]
        kept = [r for r in valid if not r.discarded]
        rows.append(_aggregate_row(config, ctx, n, valid, kept))

    def fit_or_none(values) -> SlopeFit | None:
        pts = [(row.n, v) for row, v in zip(rows, values) if math.isfinite(v) and v > 0]
        if len(pts) < 3:
            return None
        return fit_loglog_slope(pts)

    slope_error = fit_or_none([row.mean_error for row in rows])
    slope_bound = fit_or_none([row.bound for row in rows])
    slope_cf = fit_or_none([row.bound_closed_form for row in rows])
    return SweepResult(config, ctx, tuple(records), tuple(rows), slope_error, slope_bound, slope_cf)


def _aggregate_row(
    config: ExperimentConfig,
    ctx: SweepContext,
    n: int,
    valid: list[TrialRecord],
    kept: list[TrialRecord],
) -> SweepRow:
    def mean_over(records, attr) -> float:
        values = np.array([getattr(r, attr) for r in records])
        return float(np.mean(values)) if values.size else math.nan

    bound_attr = "bound_matched" if config.constraint_mode == "matched" else "bound_mismatched"
    errors = np.array([r.error_l2 for r in kept])
    stderr = float(np.std(errors, ddof=1) / math.sqrt(errors.size)) if errors.size >= 2 else math.nan
    if config.constraint_mode == "mismatched":
        tuned = ctx.tuned_by_n[n]
        bound_cf = tuned.bound_closed_form
        t_star = tuned.t_star
    else:
        bound_cf = math.nan
        t_star = 0.0
    mu_used_values = np.array([r.mu_used for r in kept])
    naive = [r.grad_norm / r.mu_used for r in kept if r.mu_used > 0]
    refined = [r.proj_grad_norm / r.mu_used for r in kept if r.mu_used > 0]
    return SweepRow(
        n=n,
        mean_error=mean_over(kept, "error_l2"),
        stderr_error=stderr,
        bound=mean_over(kept, bound_attr),
        bound_closed_form=bound_cf,
        naive_bound=float(np.mean(naive)) if naive else math.nan,
        refined_bound=float(np.mean(refined)) if refined else math.nan,
        width_mean=mean_over(kept, "width_mean"),
        width_stderr=mean_over(kept, "width_stderr"),
        t_star=t_star,
        mu_used=float(np.mean(mu_used_values)) if mu_used_values.size else math.nan,
        sigma_max_mean=mean_over(valid, "sigma_max"),
        discard_rate=(len(valid) - len(kept)) / len(valid) if valid else math.nan,
        mean_gap=mean_over(valid, "final_gap"),
        mean_error_unconditioned=mean_over(valid, "error_l2"),
        trials_used=len(kept),
    )
