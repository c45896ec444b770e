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
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import bounds, geometry, glm, solver
from .geometry import ConeModel, FeasibleSet
from .rng import seed_fingerprint, stream

THREADS_ENV_VAR = "CONEWIDTH_THREADS"
FLOAT_FORMAT = "{:.17g}"

MU_MODES = ("empirical", "theoretical")

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
    slack: float = 0.0  # c = ||theta*||_1 + slack: 0 is matched, > 0 mismatched
    noise_scale: float = 0.5
    n_grid: tuple[int, ...] = ()
    trials: int = 1
    mc_samples: int = 2000
    master_seed: int = 0
    rsc_directions: int = 2000
    mu_mode: str = "empirical"

    def validate(self) -> None:
        if self.p < 1:
            raise ConfigError("p", "must be >= 1")
        if not 0 <= self.s <= self.p:
            raise ConfigError("s", "must satisfy 0 <= s <= p")
        if self.family not in glm.FAMILIES:
            raise ConfigError("family", f"must be one of {glm.FAMILIES}")
        if self.ensemble not in glm.ENSEMBLES:
            raise ConfigError("ensemble", f"must be one of {glm.ENSEMBLES}")
        if not math.isfinite(self.theta_magnitude) or (self.s > 0 and self.theta_magnitude <= 0):
            raise ConfigError("theta_magnitude", "must be finite, and > 0 when s > 0")
        if not 0.0 <= self.slack < math.inf:
            raise ConfigError("slack", "must be finite and >= 0 (0 = matched, > 0 = mismatched)")
        if self.slack == 0.0 and self.s < 1:
            raise ConfigError("s", "a matched constraint (slack = 0) needs a nonzero ground truth (s >= 1)")
        # the truth has s entries of +-theta_magnitude, so its norms and F's
        # outer radius (FeasibleSet.outer_radius) follow from the keys
        magnitude = self.theta_magnitude if self.s > 0 else 0.0
        l1 = self.s * magnitude
        c = l1 + self.slack
        outer = math.sqrt(self.s * magnitude * magnitude + c * c + 2.0 * c * magnitude)
        if not (math.isfinite(c) and 0.0 < outer < math.inf):
            raise ConfigError(
                "theta_magnitude" if l1 >= self.slack else "slack",
                f"gives ||theta*||_1 = {l1:.6g}, c = {c:.6g} and the feasible set's outer radius "
                f"{outer:.6g}; each must be finite and the radius > 0",
            )
        inner = self.slack / math.sqrt(self.p)  # F's inner radius (see prepare_sweep); R_F at p = 1, s = 0
        if self.slack > 0.0 and not 0.0 < inner < outer:
            raise ConfigError(
                "s" if self.s == 0 else "slack",
                f"leaves no radius between the feasible set's inner radius slack / sqrt(p) = {inner:.6g} and "
                f"its outer radius {outer:.6g} (at p = 1 a mismatched constraint needs s = 1)",
            )
        if self.slack > 0.0 and inner < 1e-8 * magnitude:
            raise ConfigError(
                "slack",
                f"gives the inner radius slack / sqrt(p) = {inner:.6g}, below 1e-8 * theta_magnitude: "
                "the localized widths lose their accuracy at radii that far below theta*'s entries",
            )
        if not 0.0 <= self.noise_scale < math.inf:
            raise ConfigError("noise_scale", "must be finite and >= 0")
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
        if self.rsc_directions < 100:
            raise ConfigError("rsc_directions", "must be >= 100")
        if self.mu_mode not in MU_MODES:
            raise ConfigError("mu_mode", f"must be one of {MU_MODES}")

    def glm_family(self) -> glm.GlmFamily:
        return glm.GlmFamily(self.family, self.noise_scale)


def sweep_truth(config: ExperimentConfig) -> tuple[np.ndarray, float]:
    """The sweep's ground truth and its l1 radius ``c = ||theta||_1 + slack``.

    The truth is s-sparse: s coordinates drawn on stream ``"truth"`` are set
    to +-theta_magnitude.
    """
    theta = np.zeros(config.p)
    if config.s > 0:
        rng = stream(config.master_seed, "truth")
        support = rng.choice(config.p, size=config.s, replace=False)
        signs = 2.0 * rng.integers(0, 2, size=config.s).astype(float) - 1.0
        theta[support] = signs * config.theta_magnitude
    return theta, float(np.sum(np.abs(theta))) + config.slack


def make_instance(config: ExperimentConfig, theta: np.ndarray, n: int, trial_index: int) -> glm.Instance:
    """The seeded instance of one trial, from its design and responses streams.

    :func:`glm.sample_instance` chooses its form: a gaussian trial on a
    gaussian design with n > p is held by its sufficient statistics, drawn
    from their Wishart law on the design stream alone (the responses stream
    goes unused); every other trial is held by its design.
    """
    return glm.sample_instance(
        n,
        config.ensemble,
        theta,
        config.glm_family(),
        stream(config.master_seed, "design", n, trial_index),
        stream(config.master_seed, "responses", n, trial_index),
    )


@dataclass(frozen=True)
class SweepContext:
    """Per-sweep quantities shared by all trials (derived from config only).

    ``fset`` holds theta* and the l1 radius c.  ``widths`` maps each radius
    t to its width: ``{0: cone width}`` when matched, else the localized
    width at each radius from F (see :func:`prepare_sweep`), and
    ``global_width`` is the exact ``E sup_F <h, v>`` (nan when matched).
    Grid n has radius ``tuned_by_n[n].t_star``, and ``directions[t]`` is the
    RSC probe's (p, m) direction set at each distinct t*, shared by every
    trial at it, with its :func:`glm.column_sq_norms` in
    ``direction_norms[t]``.
    """

    fset: FeasibleSet
    cone: ConeModel | None
    mu_theoretical: float
    tuned_by_n: dict
    widths: dict
    global_width: float
    directions: dict
    direction_norms: dict

    def proj_grad_norm(self, g: np.ndarray, t: float) -> float:
        """``sup <g, u>`` over unit directions u of the bound's set at radius t.

        At t = 0 that is ``||P_K(g)||`` for the descent cone K; at t > 0 it is
        the localized sup ``sup {<g, v> : v in F, ||v|| <= t} / t``.
        """
        if t == 0.0:
            return geometry.project_onto_descent_cone(self.cone, g)[1]
        return float(geometry._sup_localized_dual_rows(g[None, :], self.fset, (t,))[0, 0] / t)


# The theoretical curvature is (1 - RSC_EPSILON) times the family's Hessian
# weight bound over the constraint ball.
RSC_EPSILON = 0.5

LOCALIZED_RADII = 12  # a mismatched sweep's candidate radii (see prepare_sweep)


def prepare_sweep(config: ExperimentConfig) -> SweepContext:
    """Ground truth, constraint, widths, the radius t*(n) of every grid n,
    and the RSC probe's directions at each distinct t*.

    The constraint is branched on once.  A matched one (``slack == 0``) puts
    theta* on the sphere of the l1 ball, whose tangent cone there is the
    descent cone: its one radius is t = 0, with the cone width and the cone
    directions from stream ``("rsc", "cone")``.  A mismatched one has as
    radii the ``LOCALIZED_RADII`` interior points of the geometric grid from
    F's inner radius ``r_in = slack / sqrt(p)`` to its outer radius R_F:
    for ``t <= r_in``, ``F ∩ tB = tB`` needs curvature over all of R^p, and
    for ``t >= R_F`` the set ``F \\ tB`` is empty.  It has the localized
    width at every radius, all from one draw on stream ``("width",
    "localized")``, and the exact global width, which draws nothing.  The
    rest is one path: :func:`bounds.optimize_t` picks every t*(n) among the
    radii, and a localized set is drawn for each distinct t* > 0, at the
    i-th radius from stream ``("rsc", i)``.  No direction set depends on a
    design, so each one's column norms are computed here, once.
    """
    config.validate()
    theta, c = sweep_truth(config)
    fset = FeasibleSet(theta, c)
    family = config.glm_family()
    mu_theory = (1.0 - RSC_EPSILON) * glm.hessian_weight_lower_bound(family, c)
    seed, samples = config.master_seed, config.mc_samples
    if config.slack == 0.0:
        cone = geometry.descent_cone(theta)
        widths = {0.0: geometry.gaussian_width_cone(cone, samples, stream(seed, "width", "cone"))}
        global_width = math.nan
        rng = stream(seed, "rsc", "cone")
        directions = {0.0: geometry.sample_cone_directions(cone, config.rsc_directions, rng)}
    else:
        cone = None
        global_width = geometry.global_width_l1(fset)
        r_in = config.slack / math.sqrt(config.p)
        radii = np.geomspace(r_in, fset.outer_radius, LOCALIZED_RADII + 2)[1:-1].tolist()
        localized = geometry.localized_width(fset, radii, samples, stream(seed, "width", "localized"))
        widths = dict(zip(radii, localized))
        directions = {}
    sigma_ref = glm.sigma_max_upper_bound(family, c)
    tuned_by_n = {n: bounds.optimize_t(widths, global_width, sigma_ref, mu_theory, n) for n in config.n_grid}
    for t in {tuned.t_star for tuned in tuned_by_n.values()} - directions.keys():
        rng = stream(seed, "rsc", list(widths).index(t))
        directions[t] = geometry.sample_localized_directions(fset, t, config.rsc_directions, rng)
    norms = {t: glm.column_sq_norms(E) for t, E in directions.items()}
    return SweepContext(fset, cone, mu_theory, tuned_by_n, widths, global_width, directions, norms)


@dataclass(frozen=True)
class TrialRecord:
    n: int
    trial: int
    seed: int
    error_l2: float = math.nan
    error_l1: float = math.nan
    bound: float = math.nan
    t_star: float = math.nan
    width_mean: float = math.nan
    width_stderr: float = math.nan
    mu_hat: float = math.nan
    mu_theoretical: float = math.nan
    mu_used: float = math.nan
    sigma_max: float = math.nan
    solver_iters: int = 0
    final_gap: float = math.nan
    converged: bool = False
    discarded: bool = False
    grad_norm: float = math.nan
    proj_grad_norm: float = math.nan
    failed: bool = False
    error_message: str = ""

    @property
    def bound_matched(self) -> float:
        """The bound of a matched trial (t* = 0), else nan."""
        return self.bound if self.t_star == 0.0 else math.nan

    @property
    def bound_mismatched(self) -> float:
        """The bound of a mismatched trial (t* > 0), else nan."""
        return self.bound if self.t_star > 0.0 else math.nan


def run_trial(config: ExperimentConfig, n: int, trial_index: int, ctx: SweepContext) -> TrialRecord:
    """One seeded trial: generate data, solve, measure error, evaluate bounds.

    Deterministic given (master_seed, n, trial_index); ``ctx`` is the
    :func:`prepare_sweep` output of ``config``.
    """
    seed = seed_fingerprint(config.master_seed, "trial", n, trial_index)
    theta = ctx.fset.theta_true
    instance = make_instance(config, theta, n, trial_index)

    report = solver.projected_gradient(instance, ctx.fset.radius_c)

    err = report.theta_hat - theta
    error_l2 = float(np.linalg.norm(err))
    error_l1 = float(np.sum(np.abs(err)))

    grad0 = glm.gradient(instance, theta)
    grad_norm = float(np.linalg.norm(grad0))
    t_star = ctx.tuned_by_n[n].t_star
    width = ctx.widths[t_star]
    proj_norm = ctx.proj_grad_norm(-grad0, t_star)
    mu_hat = float(np.min(probe_rsc(ctx, instance, n)))

    sigma_trial = glm.sigma_max(instance)
    mu_used = mu_hat if config.mu_mode == "empirical" else ctx.mu_theoretical
    discarded = mu_hat < 0.5 * ctx.mu_theoretical

    return TrialRecord(
        n=n,
        trial=trial_index,
        seed=seed,
        error_l2=error_l2,
        error_l1=error_l1,
        bound=bounds.bound_report(t_star, width, mu_used, sigma_trial, n),
        t_star=t_star,
        width_mean=width.mean,
        width_stderr=width.stderr,
        mu_hat=mu_hat,
        mu_theoretical=ctx.mu_theoretical,
        mu_used=mu_used,
        sigma_max=sigma_trial,
        solver_iters=report.iterations,
        final_gap=report.final_gap,
        converged=report.converged,
        discarded=discarded,
        grad_norm=grad_norm,
        proj_grad_norm=proj_norm,
    )


def probe_rsc(ctx: SweepContext, instance: glm.Instance, n: int) -> np.ndarray:
    """Restricted curvatures of one trial over the directions its bound uses.

    The directions are the sweep's set at t*(n), drawn by
    :func:`prepare_sweep` from the bound's set: the descent cone in matched
    sweeps, the localized set otherwise.  The CLI's ``rsc`` subcommand runs
    the same probe.
    """
    t = ctx.tuned_by_n[n].t_star
    return bounds.rsc_estimate(instance, ctx.directions[t], ctx.direction_norms[t])


# Student-t 0.975 quantiles t_{0.975, nu} for nu = 1, ..., 30 residual degrees of freedom
T975_TABLE = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934, 2.5705818356363146,
    2.4469118511449786, 2.364624251592784, 2.306004135204166, 2.262157162798205, 2.228138851986274,
    2.200985160091639, 2.1788128296672284, 2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245, 2.0595385527532972,
    2.0555294386428735, 2.0518305164802846, 2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)
Z975 = 1.959963984540054  # the standard normal 0.975 quantile


def t975(dof: int) -> float:
    """The Student-t 0.975 quantile on ``dof >= 1`` degrees of freedom.

    From :data:`T975_TABLE` up to 30 dof; above it, the Cornish-Fisher
    expansion around :data:`Z975` to the 1/dof^3 term, within a relative
    1e-6 of the exact quantile.
    """
    if dof <= len(T975_TABLE):
        return T975_TABLE[dof - 1]
    z, z2 = Z975, Z975 * Z975
    terms = (z * (z2 + 1) / 4, z * ((5 * z2 + 16) * z2 + 3) / 96, z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384)
    return z + sum(term / dof**k for k, term in enumerate(terms, 1))


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    half_width: float


def fit_series(ns, values) -> SlopeFit | None:
    """OLS fit of log(value) against log(n) over the finite positive values,
    with a 95% interval on the slope; None below 3 points.

    ``half_width`` is the Student-t 0.975 quantile on the k - 2 residual
    degrees of freedom of k points times the slope's standard error.  The
    rule behind the aggregate CSV's slope footer and the ``slope``
    subcommand; its ns are distinct and positive.
    """
    points = [(float(n), float(v)) for n, v in zip(ns, values) if math.isfinite(v) and v > 0]
    if len(points) < 3:
        return None
    x = np.log(np.array([n for n, _ in points]))
    y = np.log(np.array([v for _, v in points]))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    residuals = y - (intercept + slope * x)
    dof = len(points) - 2
    sigma2 = float(residuals @ residuals) / dof
    half_width = t975(dof) * math.sqrt(max(sigma2, 0.0) / sxx)
    return SlopeFit(slope, intercept, half_width)


@dataclass(frozen=True)
class SweepRow:
    """One aggregate CSV row; the fields are the columns, in order."""

    n: int
    mean_error: float
    stderr: float
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


AGGREGATE_CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepResult:
    context: SweepContext
    records: tuple[TrialRecord, ...]
    rows: tuple[SweepRow, ...]
    slope_error: SlopeFit | None
    slope_bound: SlopeFit | None
    slope_bound_closed_form: SlopeFit | None

    def trials_csv(self) -> str:
        kept = (r for r in self.records if not r.failed)
        return render_csv(TRIAL_CSV_COLUMNS, ([getattr(r, c) for c in TRIAL_CSV_COLUMNS] for r in kept))

    def aggregate_csv(self) -> str:
        footer = "".join(
            f"# {name} slope={_fmt(fit.slope)} intercept={_fmt(fit.intercept)} "
            f"half_width={_fmt(fit.half_width)}\n"
            for name, fit in (
                ("slope_error", self.slope_error),
                ("slope_bound", self.slope_bound),
                ("slope_bound_closed_form", self.slope_bound_closed_form),
            )
            if fit is not None
        )
        return render_csv(AGGREGATE_CSV_COLUMNS, map(astuple, self.rows)) + footer

    def status_line(self) -> str:
        """One line counting the trials that did not converge or failed, listing each failure.

        Neither CSV shows them: a failed trial has no row, and a row does not
        say whether its solve cleared the gap certificate.
        """
        failed = [r for r in self.records if r.failed]
        unconverged = sum(1 for r in self.records if not r.failed and not r.converged)
        line = f"sweep: {len(self.records)} trials, {unconverged} not converged, {len(failed)} failed"
        if failed:
            line += ": " + ", ".join(repr((r.n, r.trial, r.error_message)) for r in failed)
        return line


def _fmt(x: float) -> str:
    return FLOAT_FORMAT.format(float(x))


def _cell(value) -> str:
    """One CSV field: a str as itself, a bool as 1/0, an int as itself, a float with ``FLOAT_FORMAT``."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def render_csv(columns: tuple[str, ...], rows) -> str:
    """Every CSV the package writes: a header line, then one line per row of values."""
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def resolve_workers() -> int:
    """Worker count from the CONEWIDTH_THREADS environment variable.

    0 means one worker per CPU this process may run on (its affinity mask
    where the platform reports one, else ``os.cpu_count()``).
    """
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
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
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
    """Run all trials of a sweep, aggregate per n, and fit log-log slopes.

    The worker count is read before any work, so a bad ``CONEWIDTH_THREADS``
    fails at once.  The pool gets at most one worker per trial: under fork,
    ``ProcessPoolExecutor`` starts all of its workers up front.
    """
    tasks = [(n, j) for n in config.n_grid for j in range(config.trials)]
    workers = min(resolve_workers(), len(tasks))
    ctx = prepare_sweep(config)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs skip its import cost

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(config, ctx)
        ) as pool:
            records = list(pool.map(_worker_run, tasks))
    else:
        records = [_safe_trial(config, n, j, ctx) for n, j in tasks]

    rows = []
    for n in config.n_grid:
        group = [r for r in records if r.n == n]
        failed = [r for r in group if r.failed]
        if len(failed) > 0.2 * len(group):
            details = "; ".join(sorted({r.error_message for r in failed})[:3])
            raise RuntimeError(
                f"{len(failed)}/{len(group)} trials failed at n = {n}: {details}"
            )
        valid = [r for r in group if not r.failed]
        kept = [r for r in valid if not r.discarded]
        rows.append(_aggregate_row(ctx, n, valid, kept))
    ns = [row.n for row in rows]
    slope_error = fit_series(ns, [row.mean_error for row in rows])
    slope_bound = fit_series(ns, [row.bound for row in rows])
    slope_cf = fit_series(ns, [row.bound_closed_form for row in rows])
    return SweepResult(ctx, tuple(records), tuple(rows), slope_error, slope_bound, slope_cf)


def _aggregate_row(
    ctx: SweepContext, n: int, valid: list[TrialRecord], kept: list[TrialRecord]
) -> SweepRow:
    def mean_over(records, attr) -> float:
        values = np.array([getattr(r, attr) for r in records])
        return float(np.mean(values)) if values.size else math.nan

    errors = np.array([r.error_l2 for r in kept])
    stderr = float(np.std(errors, ddof=1) / math.sqrt(errors.size)) if errors.size >= 2 else math.nan
    tuned = ctx.tuned_by_n[n]
    naive = [r.grad_norm / r.mu_used for r in kept if r.mu_used > 0]
    refined = [r.proj_grad_norm / r.mu_used for r in kept if r.mu_used > 0]
    return SweepRow(
        n=n,
        mean_error=mean_over(kept, "error_l2"),
        stderr=stderr,
        bound=mean_over(kept, "bound"),
        bound_closed_form=tuned.bound_closed_form,
        naive_bound=float(np.mean(naive)) if naive else math.nan,
        refined_bound=float(np.mean(refined)) if refined else math.nan,
        width_mean=mean_over(kept, "width_mean"),
        width_stderr=mean_over(kept, "width_stderr"),
        t_star=tuned.t_star,
        mu_used=mean_over(kept, "mu_used"),
        sigma_max_mean=mean_over(valid, "sigma_max"),
        discard_rate=(len(valid) - len(kept)) / len(valid) if valid else math.nan,
        mean_gap=mean_over(valid, "final_gap"),
        mean_error_unconditioned=mean_over(valid, "error_l2"),
        trials_used=len(kept),
    )
