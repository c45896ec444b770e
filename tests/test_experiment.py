"""Sweep orchestration: truth generation, trials, aggregation, CSV, slopes."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conewidth import bounds, experiment, geometry, glm
from conewidth.cli import load_config
from conewidth.experiment import (
    Z975,
    ConfigError,
    ExperimentConfig,
    SlopeFit,
    SweepResult,
    fit_series,
    make_instance,
    prepare_sweep,
    resolve_workers,
    run_sweep,
    run_trial,
    sweep_truth,
)
from conewidth.rng import stream

from oracles import expected_abs_max, local_slopes, power_law_chi2, student_t_quantile_bisection

MATCHED_SMALL = ExperimentConfig(
    p=40,
    s=3,
    family="gaussian",
    ensemble="gaussian",
    theta_magnitude=0.5,
    noise_scale=0.5,
    n_grid=(30, 60, 120),
    trials=12,
    mc_samples=800,
    master_seed=11,
    rsc_directions=150,
)

MISMATCHED_SMALL = ExperimentConfig(
    p=30,
    s=2,
    family="gaussian",
    ensemble="gaussian",
    theta_magnitude=1.0,
    slack=1.0,
    noise_scale=0.5,
    n_grid=(40, 80, 160),
    trials=8,
    mc_samples=600,
    master_seed=12,
    rsc_directions=150,
    mu_mode="theoretical",
)

# R_F = sqrt(0.5 + 1.5^2 + 2 * 1.5 * 0.5) = 2.06; at noise 5 the bound is smallest at the largest radius
SMALL_OUTER_RADIUS = ExperimentConfig(
    p=20,
    s=2,
    theta_magnitude=0.5,
    slack=0.5,
    noise_scale=5.0,
    n_grid=(10, 20, 40),
    trials=3,
    mc_samples=300,
    master_seed=5,
    rsc_directions=120,
    mu_mode="theoretical",
)


SHIPPED_MATCHED = Path(__file__).resolve().parents[1] / "configs" / "matched.cfg"
SHIPPED_MISMATCHED = Path(__file__).resolve().parents[1] / "configs" / "mismatched.cfg"

# CI's mismatched sweeps and the traced-benchmark test, as overrides of the
# shipped config (CI's Rademacher-design sweep has the shipped geometry)
MISMATCHED_GEOMETRIES = {
    "shipped": [],
    "logistic": ["family=logistic", "ensemble=rademacher", "p=100", "s=3", "theta_magnitude=1.0", "slack=1.5"],
    "poisson": ["family=poisson", "p=100", "s=3", "theta_magnitude=0.1", "slack=0.5"],
    "mu-underflow": [
        "family=logistic", "ensemble=rademacher", "p=20", "s=2", "theta_magnitude=400", "slack=1", "rsc_directions=100"
    ],
    "perfbench-hooks": ["p=20", "s=2", "theta_magnitude=0.5", "slack=0.5", "master_seed=3", "rsc_directions=100"],
}

# CI's matched sweeps, as overrides of the shipped config
MATCHED_GEOMETRIES = {
    "shipped": [],
    "logistic": ["family=logistic", "ensemble=rademacher", "p=100", "s=3", "theta_magnitude=1.0", "rsc_directions=400"],
    "poisson": ["family=poisson", "p=100", "s=3", "theta_magnitude=0.1"],
    "mu-underflow": [
        "family=logistic", "ensemble=rademacher", "p=20", "s=2", "theta_magnitude=400", "rsc_directions=100"
    ],
    "p1": ["p=1", "s=1", "theta_magnitude=1.0", "rsc_directions=100"],
}


def trials_csv_row(ctx, record) -> dict:
    """The trials CSV row that a sweep on ``ctx`` writes for ``record``, by column."""
    header, row = SweepResult(ctx, (record,), (), None, None, None).trials_csv().splitlines()
    return dict(zip(header.split(","), map(float, row.split(","))))


class TestMakeTruth:
    def test_full_support(self):
        theta, c = sweep_truth(ExperimentConfig(p=4, s=4, master_seed=90))
        assert np.all(np.abs(theta) == 1.0) and c == 4.0

    def test_zero_sparsity(self):
        theta, c = sweep_truth(ExperimentConfig(p=10, s=0, slack=1.5, master_seed=91))
        assert np.array_equal(theta, np.zeros(10)) and c == 1.5

    def test_l1_norm_always_s_times_magnitude(self):
        rng = stream(92, "t")
        for seed in range(20):
            p = int(rng.integers(2, 30))
            s = int(rng.integers(0, p + 1))
            theta, c = sweep_truth(ExperimentConfig(p=p, s=s, theta_magnitude=0.7, slack=0.25, master_seed=seed))
            assert np.count_nonzero(theta) == s
            assert np.sum(np.abs(theta)) == pytest.approx(0.7 * s)
            assert c == pytest.approx(0.7 * s + 0.25)


class TestConfigValidation:
    def test_negative_slack_rejected(self):
        for slack in (-0.5, math.nan):
            cfg = ExperimentConfig(p=10, s=2, n_grid=(10,), trials=1, slack=slack)
            with pytest.raises(ConfigError) as err:
                cfg.validate()
            assert err.value.key == "slack"

    def test_mismatched_without_inner_radius_gap_rejected(self):
        # at p = 1, s = 0, F is the interval [-c, c]: its inner radius slack / sqrt(p) is its outer radius
        cfg = ExperimentConfig(p=1, s=0, slack=0.5, n_grid=(10,), trials=1)
        with pytest.raises(ConfigError, match="inner radius") as err:
            cfg.validate()
        assert err.value.key == "s"
        dataclasses.replace(cfg, s=1).validate()
        # a slack whose inner radius underflows to 0 leaves no geometric grid either
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, p=200, s=5, slack=5e-324).validate()
        assert err.value.key == "slack"

    def test_slack_far_below_the_truth_rejected(self):
        # every localized radius lies above slack / sqrt(p), where the root-find
        # still resolves theta*'s entries to about 1e-7 relative
        cfg = ExperimentConfig(p=200, s=5, theta_magnitude=1.0, n_grid=(10,), trials=1, slack=2.5)
        line = 1e-8 * math.sqrt(200)
        for slack in (1e-100, 1e-300, line / 2):
            with pytest.raises(ConfigError, match="1e-8 \\* theta_magnitude") as err:
                dataclasses.replace(cfg, slack=slack).validate()
            assert err.value.key == "slack"
        dataclasses.replace(cfg, slack=1.01 * line).validate()
        dataclasses.replace(cfg, s=0, slack=1e-100).validate()  # a zero truth has no entries to resolve

    def test_n_grid_strictly_increasing(self):
        cfg = ExperimentConfig(p=10, s=2, n_grid=(10, 10), trials=1)
        with pytest.raises(ConfigError, match="n_grid"):
            cfg.validate()

    def test_matched_zero_sparsity_rejected(self):
        cfg = ExperimentConfig(p=10, s=0, n_grid=(10,), trials=1)
        with pytest.raises(ConfigError, match="s"):
            cfg.validate()

    def test_error_names_key(self):
        cfg = ExperimentConfig(p=10, s=2, n_grid=(10,), trials=1, slack=0.5)
        for key, value in (
            ("theta_magnitude", math.nan),
            ("theta_magnitude", math.inf),
            ("noise_scale", math.nan),
            ("noise_scale", math.inf),
            ("slack", math.inf),
            # the rules below are checked nowhere else
            ("family", "binomial"),
            ("ensemble", "bernoulli"),
            ("p", 0),
            ("s", 11),
            ("n_grid", (0, 10)),
            ("trials", 0),
            ("mc_samples", 1),
            ("noise_scale", -1.0),
            ("mu_mode", "oracle"),
        ):
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(cfg, **{key: value}).validate()
            assert err.value.key == key, (key, value)

    def test_rsc_directions_below_100_rejected(self):
        cfg = ExperimentConfig(p=10, s=2, n_grid=(10,), trials=1, rsc_directions=99)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.key == "rsc_directions"


class TestSlopeFit:
    def test_collinear_half_slope(self):
        fit = fit_series((1, 10, 100), (1.0, 10**-0.5, 0.1))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.half_width == pytest.approx(0.0, abs=1e-9)

    def test_constant_values(self):
        fit = fit_series((10, 100, 1000), (2.0, 2.0, 2.0))
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_quarter_rate(self):
        ns = (16, 64, 256, 1024)
        assert fit_series(ns, [float(n) ** -0.25 for n in ns]).slope == pytest.approx(-0.25, abs=1e-12)

    def test_half_width_is_t_quantile_times_slope_stderr(self):
        ns = (40, 60, 90, 135, 200)
        values = [n**-0.5 * (1.0 + 0.05 * (-1) ** k) for k, n in enumerate(ns)]
        fit = fit_series(ns, values)
        x, y = np.log(ns), np.log(values)
        slope, intercept = np.polyfit(x, y, 1)
        residuals = y - (intercept + slope * x)
        stderr = math.sqrt(float(residuals @ residuals) / 3 / float(np.sum((x - x.mean()) ** 2)))
        assert fit.half_width == pytest.approx(3.1824463052837078 * stderr, rel=1e-12)

    @pytest.mark.parametrize(
        "dof, quantile",
        [
            # scipy.stats.t.ppf(0.975, dof)
            (1, 12.706204736174694),
            (2, 4.302652729749462),
            (3, 3.1824463052837078),
            (5, 2.5705818356363146),
            (10, 2.228138851986274),
            (30, 2.0422724563012378),
        ],
    )
    def test_t975_table_values(self, dof, quantile):
        assert experiment.t975(dof) == pytest.approx(quantile, rel=0, abs=1e-12)

    @pytest.mark.parametrize("dof, quantile", [(31, 2.039513446396408), (100, 1.9839715185235518)])
    def test_t975_expansion_above_table(self, dof, quantile):
        assert experiment.t975(dof) == pytest.approx(quantile, rel=1e-6)

    def test_t975_table_against_closed_form_cdf(self):
        for dof, quantile in enumerate(experiment.T975_TABLE, 1):
            assert quantile == pytest.approx(student_t_quantile_bisection(0.975, dof), rel=1e-13), dof
        assert experiment.t975(31) < experiment.T975_TABLE[-1]  # the expansion continues the table downward

    @pytest.mark.parametrize("k, seed", [(5, 11), (7, 12)])
    def test_interval_covers_true_slope_95_percent(self, k, seed):
        # gaussian noise on log(value): the 95% interval must cover the true slope about 95% of the time
        rng = np.random.default_rng(seed)
        ns = np.geomspace(64, 4096, k).round()
        covered = 0
        for noise in rng.normal(0.0, 0.1, size=(4000, k)):
            fit = fit_series(ns, np.exp(0.3 - 0.25 * np.log(ns) + noise))
            covered += abs(fit.slope + 0.25) <= fit.half_width
        assert 0.94 <= covered / 4000 <= 0.96


class TestLocalSlopes:
    NS = (64, 128, 256, 512, 1024, 2048, 4096)

    def test_exact_power_law(self):
        means = [0.3 * n**-0.37 for n in self.NS]
        stderrs = [0.02 * m for m in means]
        slopes, half_widths = local_slopes(self.NS, means, stderrs)
        assert slopes == pytest.approx(np.full(6, -0.37), rel=0, abs=1e-12)
        assert half_widths == pytest.approx(np.full(6, Z975 * math.sqrt(2) * 0.02 / math.log(2)), rel=1e-12)
        chi2, dof = power_law_chi2(self.NS, means, stderrs)
        assert chi2 < 1e-20 and dof == 5

    def test_kink_fails_the_power_law(self):
        # -0.25 up to n = 512, then -0.5, each mean known to 2%; chi2 scales as 1 / stderr^2
        means = np.array([n**-0.25 if n <= 512 else 512**0.25 * n**-0.5 for n in self.NS])
        slopes, _ = local_slopes(self.NS, means, 0.02 * means)
        assert slopes == pytest.approx([-0.25, -0.25, -0.25, -0.5, -0.5, -0.5], abs=1e-12)
        chi2, dof = power_law_chi2(self.NS, means, 0.02 * means)
        x, y = np.log(self.NS), np.log(means)
        residuals = (y - np.polyval(np.polyfit(x, y, 1, w=np.full(7, 50.0)), x)) * 50.0
        assert chi2 == pytest.approx(float(residuals @ residuals), rel=1e-9)
        # the chi2(5) 0.9999 quantile is 25.7
        assert chi2 > 20 * dof
        assert power_law_chi2(self.NS, means, 0.01 * means)[0] > 100 * dof


class TestPrepareSweep:
    def test_matched_is_t_zero(self):
        ctx = prepare_sweep(MATCHED_SMALL)
        ((t, width),) = ctx.widths.items()
        assert t == 0.0 and math.isnan(ctx.global_width)
        for n in MATCHED_SMALL.n_grid:
            tuned = ctx.tuned_by_n[n]
            assert tuned.t_star == 0.0
            assert math.isnan(tuned.bound_closed_form)

    def test_mismatched_width_rows(self):
        ctx = prepare_sweep(MISMATCHED_SMALL)
        assert len(ctx.widths) == experiment.LOCALIZED_RADII
        assert ctx.global_width == pytest.approx(ctx.fset.radius_c * expected_abs_max(MISMATCHED_SMALL.p), rel=1e-12)
        assert all(ctx.tuned_by_n[n].t_star > 0 for n in MISMATCHED_SMALL.n_grid)

    def test_t_star_stays_below_outer_radius(self):
        # the largest radius minimizes the bound at n = 10; F still has directions of that norm
        res = run_sweep(SMALL_OUTER_RADIUS)
        radius = res.context.fset.outer_radius
        assert radius == pytest.approx(math.sqrt(4.25))
        assert not any(r.failed for r in res.records)
        assert res.rows[0].t_star == max(res.context.widths)
        assert all(0.0 < row.t_star < radius for row in res.rows)

    def test_radius_check_comes_before_any_draw(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a width or direction set was drawn before the radius check")

        for module, name in (
            (geometry, "gaussian_width_cone"),
            (geometry, "global_width_l1"),
            (geometry, "localized_width"),
            (geometry, "sample_localized_directions"),
        ):
            monkeypatch.setattr(module, name, draw)
        with pytest.raises(ConfigError) as err:
            prepare_sweep(dataclasses.replace(SMALL_OUTER_RADIUS, p=1, s=0))
        assert err.value.key == "s"


class TestLocalizedRadii:
    """A mismatched sweep's radii: the interior of a geometric grid from F's inner radius to its outer one."""

    @pytest.mark.parametrize("name", sorted(MISMATCHED_GEOMETRIES))
    def test_radii_lie_inside_f_and_each_can_be_probed(self, name):
        config = load_config(str(SHIPPED_MISMATCHED), [*MISMATCHED_GEOMETRIES[name], "mc_samples=2"])
        ctx = prepare_sweep(config)
        radii = list(ctx.widths)
        r_in, r_f = config.slack / math.sqrt(config.p), ctx.fset.outer_radius
        assert radii == np.geomspace(r_in, r_f, 14)[1:-1].tolist()
        assert len(radii) == experiment.LOCALIZED_RADII == 12
        assert r_in < radii[0] and all(a < b for a, b in zip(radii, radii[1:])) and radii[-1] < r_f
        # any radius can be some n's t*, so the draw of its set must never fail, and at these
        # geometries it fills (test_blocks.py covers a set that comes up short)
        num = config.rsc_directions
        for i, t in enumerate(radii):
            E = geometry.sample_localized_directions(ctx.fset, t, num, stream(config.master_seed, "rsc", i))
            assert E.shape == (config.p, num)


class TestRadiusDispatch:
    """The t = 0 test of SweepContext: descent cone at t = 0, localized set at t > 0."""

    def test_proj_grad_norm_at_zero_is_cone_projection(self):
        ctx = prepare_sweep(MATCHED_SMALL)
        cone = geometry.descent_cone(ctx.fset.theta_true)
        rng = stream(93, "g")
        for _ in range(20):
            g = rng.standard_normal(MATCHED_SMALL.p)
            assert ctx.proj_grad_norm(g, 0.0) == geometry.project_onto_descent_cone(cone, g)[1]

    def test_proj_grad_norm_at_positive_t_is_localized_sup(self):
        ctx = prepare_sweep(MISMATCHED_SMALL)
        rng = stream(94, "g")
        for t in ctx.widths:
            g = rng.standard_normal(MISMATCHED_SMALL.p)
            expected = geometry._sup_localized_dual_rows(g[None], ctx.fset, (t,))[0, 0] / t
            assert ctx.proj_grad_norm(g, t) == expected

    def test_matched_bound_bit_for_bit(self):
        ctx = prepare_sweep(MATCHED_SMALL)
        for n in MATCHED_SMALL.n_grid:
            record = run_trial(ctx, n, 1)
            coef = bounds.coefficient(record.sigma_max, record.mu_used, n)
            assert record.bound == coef * ctx.widths[0.0].mean
            assert trials_csv_row(ctx, record)["bound_matched"] == record.bound

    def test_trial_bound_is_the_tuned_minimum(self):
        # a gaussian trial's sigma and theoretical mu are the tuning ones, so tuning and
        # the trial share one formula: the trial's bound is min_t t + C(n) omega(t) bit for bit
        ctx = prepare_sweep(MISMATCHED_SMALL)
        for n in MISMATCHED_SMALL.n_grid:
            coef = bounds.coefficient(MISMATCHED_SMALL.noise_scale, ctx.mu_theoretical, n)
            for trial in range(2):
                record = run_trial(ctx, n, trial)
                assert record.sigma_max == MISMATCHED_SMALL.noise_scale
                assert record.bound == min(t + coef * w.mean for t, w in ctx.widths.items())
                assert record.bound == record.t_star + coef * ctx.widths[record.t_star].mean
                assert trials_csv_row(ctx, record)["bound_mismatched"] == record.bound


class TestSharedDirections:
    """The probe draws one direction set per distinct t* and shares it across trials."""

    @pytest.mark.parametrize("cfg", [MATCHED_SMALL, MISMATCHED_SMALL], ids=["matched", "mismatched"])
    def test_one_draw_per_distinct_t_star(self, cfg, monkeypatch):
        drawn = []
        sampler = geometry.sample_localized_directions

        def counting(fset, t, num, rng):
            drawn.append(t)
            return sampler(fset, t, num, rng)

        monkeypatch.setattr(geometry, "sample_localized_directions", counting)
        res = run_sweep(dataclasses.replace(cfg, trials=2))
        distinct = {tuned.t_star for tuned in res.context.tuned_by_n.values()}
        # a matched t* = 0 draws at the tangent radius: theta*'s entries are +-theta_magnitude
        assert sorted(drawn) == sorted(t or cfg.theta_magnitude for t in distinct)
        assert set(res.context.directions) == distinct
        assert len(distinct) == (1 if cfg is MATCHED_SMALL else 3)

    def test_sets_come_from_their_streams(self):
        ctx = prepare_sweep(MATCHED_SMALL)
        num = MATCHED_SMALL.rsc_directions
        rng = stream(MATCHED_SMALL.master_seed, "rsc", 0)
        expected = geometry.sample_localized_directions(ctx.fset, MATCHED_SMALL.theta_magnitude, num, rng)
        assert np.array_equal(ctx.directions[0.0], expected)
        ctx = prepare_sweep(MISMATCHED_SMALL)
        for i, t in enumerate(ctx.widths):
            if t in ctx.directions:
                rng = stream(MISMATCHED_SMALL.master_seed, "rsc", i)
                expected = geometry.sample_localized_directions(ctx.fset, t, num, rng)
                assert np.array_equal(ctx.directions[t], expected)

    @pytest.mark.parametrize("name", sorted(MATCHED_GEOMETRIES))
    def test_matched_sets_fill_with_cone_directions(self, name):
        # a short set would go unreported, so every matched geometry CI sweeps must fill its set
        config = load_config(str(SHIPPED_MATCHED), [*MATCHED_GEOMETRIES[name], "mc_samples=2"])
        ctx = prepare_sweep(config)
        (E,) = ctx.directions.values()
        assert E.shape == (config.p, config.rsc_directions)
        assert np.all(np.abs(np.linalg.norm(E, axis=0) - 1.0) <= 1e-12)
        projections, _ = geometry.descent_cone(ctx.fset.theta_true).project_batch(E.T)
        assert np.max(np.abs(projections - E.T)) <= 1e-12

    def test_trials_at_one_radius_probe_one_set(self):
        # two grid n close enough to share a t*
        config = dataclasses.replace(MISMATCHED_SMALL, n_grid=(40, 41))
        ctx = prepare_sweep(config)
        t = ctx.tuned_by_n[40].t_star
        assert ctx.tuned_by_n[41].t_star == t and set(ctx.directions) == {t}
        for n in config.n_grid:
            record = run_trial(ctx, n, 0)
            instance = make_instance(config, ctx.fset.theta_true, n, 0)
            assert record.mu_hat == bounds.rsc_estimate(instance, ctx.directions[t]).min()

    @pytest.mark.parametrize(
        "path, overrides",
        [(SHIPPED_MATCHED, []), (SHIPPED_MISMATCHED, []), (SHIPPED_MISMATCHED, MISMATCHED_GEOMETRIES["logistic"])],
        ids=["matched", "mismatched", "logistic-mismatched"],
    )
    def test_sets_hold_unit_columns(self, path, overrides):
        # the probe takes each column's secant form as its curvature, undivided by its norm
        ctx = prepare_sweep(load_config(str(path), overrides))
        for E in ctx.directions.values():
            assert np.all(np.abs(np.sum(E**2, axis=0) - 1.0) <= 4 * np.finfo(float).eps)

    def test_localized_sets_lie_in_the_bound_set(self):
        ctx = prepare_sweep(MISMATCHED_SMALL)
        for t, E in ctx.directions.items():
            assert E.shape == (MISMATCHED_SMALL.p, MISMATCHED_SMALL.rsc_directions)
            l1 = np.sum(np.abs(ctx.fset.theta_true[:, None] + t * E), axis=0)
            assert np.all(l1 <= ctx.fset.radius_c + 1e-12)


NUMPY_MA_PROBE = """\
import sys

import numpy

if "numpy.ma" in sys.modules:
    print("preloaded")
    raise SystemExit
from conewidth.experiment import ExperimentConfig, run_sweep

run_sweep(ExperimentConfig(**{fields!r}))
print("loaded" if "numpy.ma" in sys.modules else "absent")
"""


@pytest.mark.parametrize("cfg", [MATCHED_SMALL, MISMATCHED_SMALL], ids=["matched", "mismatched"])
def test_sweep_does_not_import_numpy_ma(cfg):
    # numpy.ma costs about 16 ms to import, once per process and pool worker
    tiny = dataclasses.replace(cfg, trials=1, mc_samples=100, rsc_directions=100)
    code = NUMPY_MA_PROBE.format(fields=dataclasses.asdict(tiny))
    env = {k: v for k, v in os.environ.items() if k != "CONEWIDTH_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    if out.stdout.strip() == "preloaded":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out.stdout.strip() == "absent"


class TestRunTrial:
    def test_deterministic_records(self):
        a = run_trial(prepare_sweep(MATCHED_SMALL), 60, 3)
        b = run_trial(prepare_sweep(MATCHED_SMALL), 60, 3)
        assert a == b

    def test_noiseless_matched_recovery(self):
        cfg = ExperimentConfig(
            p=20,
            s=3,
            family="gaussian",
            theta_magnitude=1.0,
            noise_scale=0.0,
            n_grid=(40,),
            trials=1,
            mc_samples=400,
            master_seed=13,
            rsc_directions=150,
        )
        record = run_trial(prepare_sweep(cfg), 40, 0)
        assert record.error_l2 <= 1e-4

    def test_matched_record_fields(self):
        ctx = prepare_sweep(MATCHED_SMALL)
        record = run_trial(ctx, 30, 0)
        row = trials_csv_row(ctx, record)
        assert record.t_star == 0.0
        assert math.isnan(row["bound_mismatched"])
        assert row["bound_matched"] > 0
        assert record.final_gap >= -1e-12
        assert record.proj_grad_norm <= record.grad_norm + 1e-12

    def test_mismatched_record_fields(self):
        ctx = prepare_sweep(MISMATCHED_SMALL)
        record = run_trial(ctx, 40, 0)
        row = trials_csv_row(ctx, record)
        assert record.t_star > 0
        assert math.isnan(row["bound_matched"])
        assert row["bound_mismatched"] > record.t_star


class TestRunSweep:
    def test_reproducible_csv_bytes(self):
        res1 = run_sweep(MATCHED_SMALL)
        res2 = run_sweep(MATCHED_SMALL)
        assert res1.aggregate_csv() == res2.aggregate_csv()
        assert res1.trials_csv() == res2.trials_csv()

    def test_trials_csv_schema(self):
        res = run_sweep(MATCHED_SMALL)
        lines = res.trials_csv().strip().split("\n")
        header = lines[0].split(",")
        assert header == [
            "n", "trial", "seed", "error_l2", "error_l1", "bound_matched",
            "bound_mismatched", "t_star", "width_mean", "width_stderr",
            "mu_hat", "mu_theoretical", "sigma_max", "solver_iters",
            "final_gap", "discarded",
        ]
        assert len(lines) == 1 + len(MATCHED_SMALL.n_grid) * MATCHED_SMALL.trials

    @pytest.mark.parametrize(
        "cfg, t_star, column",
        [(MATCHED_SMALL, 0.0, "bound_matched"), (MISMATCHED_SMALL, 0.5, "bound_mismatched"),
         (MISMATCHED_SMALL, 0.0, "bound_mismatched")],
        ids=["matched", "mismatched", "mismatched-t-zero"],
    )
    def test_bound_column_follows_the_constraint(self, cfg, t_star, column):
        # the constraint, not the radius, picks the column: a mismatched sweep may tune to t* = 0
        record = experiment.TrialRecord(n=30, trial=0, seed=0, bound=1.5, t_star=t_star)
        row = trials_csv_row(prepare_sweep(cfg), record)
        other = "bound_matched" if column == "bound_mismatched" else "bound_mismatched"
        assert row[column] == 1.5 and math.isnan(row[other])
        assert row["t_star"] == t_star

    def test_aggregate_csv_schema(self):
        res = run_sweep(MATCHED_SMALL)
        lines = res.aggregate_csv().strip().split("\n")
        assert lines[0].split(",") == [
            "n", "mean_error", "stderr", "bound", "bound_closed_form",
            "naive_bound", "refined_bound", "width_mean", "width_stderr",
            "t_star", "mu_used", "sigma_max_mean", "discard_rate", "mean_gap",
            "mean_error_unconditioned", "trials_used",
        ]
        rows = [line for line in lines[1:] if not line.startswith("#")]
        assert [int(row.split(",")[0]) for row in rows] == list(MATCHED_SMALL.n_grid)

    def test_bound_validity_and_ordering(self):
        res = run_sweep(MATCHED_SMALL)
        held = sum(row.mean_error <= row.bound for row in res.rows)
        assert held >= math.ceil(0.95 * len(res.rows))
        for row in res.rows:
            assert row.naive_bound >= row.refined_bound - 1e-12

    def test_stderr_shrinks_with_more_trials(self):
        import dataclasses

        res1 = run_sweep(MATCHED_SMALL)
        res2 = run_sweep(dataclasses.replace(MATCHED_SMALL, trials=24))
        ratios = [
            b.stderr / a.stderr
            for a, b in zip(res1.rows, res2.rows)
            if a.stderr > 0
        ]
        # expect roughly 1/sqrt(2); generous window for 12-vs-24 trial noise
        assert 0.4 <= float(np.mean(ratios)) <= 1.1

    def test_mismatched_sweep_bounds_and_slopes(self):
        res = run_sweep(MISMATCHED_SMALL)
        for row in res.rows:
            assert row.mean_error <= row.bound
            assert row.bound_closed_form >= row.bound - 3 * row.width_stderr
        assert res.slope_bound_closed_form.slope == pytest.approx(-0.25, abs=1e-9)

    def test_unconditioned_mean_emitted(self):
        res = run_sweep(MATCHED_SMALL)
        for row in res.rows:
            assert math.isfinite(row.mean_error_unconditioned)

    def test_failure_rate_aborts(self):
        # poisson with a huge coefficient trips the predictor cap in sampling
        cfg = ExperimentConfig(
            p=10,
            s=1,
            family="poisson",
            ensemble="rademacher",
            theta_magnitude=50.0,
            n_grid=(20,),
            trials=5,
            mc_samples=100,
            master_seed=14,
            rsc_directions=100,
        )
        with pytest.raises(RuntimeError, match="failed"):
            run_sweep(cfg)


class TestEdgeSweeps:
    def test_one_coordinate_zero_noise(self):
        cfg = ExperimentConfig(
            p=1, s=1, noise_scale=0.0, n_grid=(1, 2, 4), trials=5, mc_samples=200, master_seed=7, rsc_directions=100
        )
        res = run_sweep(cfg)
        assert len(res.records) == 15
        for r in res.records:
            assert not r.failed and r.converged
            assert r.bound == 0.0  # sigma_max is 0 without noise
            # f(theta) - f(theta*) = mu e^2 / 2 at p = 1, where the probe's one
            # direction gives the exact curvature mu = ||A||^2 / n; the gap bounds it
            assert r.error_l2 <= math.sqrt(2.0 * r.final_gap / r.mu_hat) + 1e-12
        assert sum(r.error_l2 <= 1e-12 for r in res.records) >= 12

    @pytest.mark.parametrize("budget", (geometry.BLOCK_ELEMENTS, 8 * geometry.BLOCK_ALIGN))
    def test_poisson_predictors_at_the_cap_fail_their_trials(self, monkeypatch, budget):
        # n = 8 rows with |eta| near 11 |a_0|: trial 7 draws a predictor above
        # the cap, trial 5 passes sampling but its probe at theta + e crosses
        # it.  At t* (the largest radius) every probe direction points to F's
        # far side, where |theta_0| shrinks, so the sweep probes the reflected
        # set -E, which moves theta_0 outward.  The small budget splits the
        # probe's 100 directions into blocks.
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", budget)
        prepare = experiment.prepare_sweep

        def reflected(config):
            ctx = prepare(config)
            return dataclasses.replace(ctx, directions={t: -E for t, E in ctx.directions.items()})

        monkeypatch.setattr(experiment, "prepare_sweep", reflected)
        cfg = ExperimentConfig(
            p=2,
            s=1,
            family="poisson",
            theta_magnitude=11.0,
            slack=1.0,
            n_grid=(8,),
            trials=10,
            mc_samples=100,
            master_seed=72,
            rsc_directions=100,
            mu_mode="theoretical",
        )
        res = run_sweep(cfg)
        assert res.context.tuned_by_n[8].t_star == max(res.context.widths)
        failed = [r for r in res.records if r.failed]
        assert len(res.records) == 10
        assert [(r.n, r.trial) for r in failed] == [(8, 5), (8, 7)]
        assert all(f"exceeds cap {glm.POISSON_ETA_CAP:.6g}" in r.error_message for r in failed)
        assert "at sample" in failed[1].error_message and "at sample" not in failed[0].error_message
        line = res.status_line()
        assert line.startswith("sweep: 10 trials, ") and line.count("(8, ") == 2
        assert all(repr((r.n, r.trial, r.error_message)) in line for r in failed)
        # a failed trial has no CSV row; the others keep theirs
        rows = res.trials_csv().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == [0, 1, 2, 3, 4, 6, 8, 9]

    @pytest.mark.parametrize("mu_mode", experiment.MU_MODES)
    @pytest.mark.parametrize("slack", (0.0, 1.0))
    def test_theoretical_mu_underflow(self, slack, mu_mode):
        # sigmoid(c) rounds to 1 at c >= 800, so the theoretical mu is exactly 0:
        # every theoretical bound is infinite, and t* is the first candidate
        cfg = ExperimentConfig(
            p=20,
            s=2,
            family="logistic",
            ensemble="rademacher",
            theta_magnitude=400.0,
            slack=slack,
            n_grid=(40, 60, 90),
            trials=2,
            mc_samples=200,
            master_seed=106,
            rsc_directions=100,
            mu_mode=mu_mode,
        )
        res = run_sweep(cfg)
        assert res.context.mu_theoretical == 0.0
        assert len(res.records) == 6 and not any(r.failed for r in res.records)
        for row in res.rows:
            if slack:
                assert row.t_star == min(res.context.widths) and row.bound_closed_form == math.inf
            else:
                assert row.t_star == 0.0 and math.isnan(row.bound_closed_form)
            if mu_mode == "theoretical":
                assert row.bound == row.naive_bound == row.refined_bound == math.inf

    def test_full_support_below_p_discards_every_trial(self):
        # at s = p and n < p the descent cone is a half-space, which meets the
        # design's null space, so no trial clears half the theoretical mu
        cfg = ExperimentConfig(p=5, s=5, n_grid=(2, 3, 4), trials=4, mc_samples=200, master_seed=6, rsc_directions=200)
        res = run_sweep(cfg)
        assert not any(r.failed for r in res.records)
        for row in res.rows:
            assert row.discard_rate == 1.0
            assert row.trials_used == 0


class TestWorkers:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv("CONEWIDTH_THREADS", raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv("CONEWIDTH_THREADS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("CONEWIDTH_THREADS", "0")
        usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
        assert resolve_workers() == len(usable)
        monkeypatch.setenv("CONEWIDTH_THREADS", "junk")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_bad_thread_count_fails_before_any_work(self, monkeypatch):
        def prepare_sweep(config):
            raise AssertionError("the sweep was prepared before its worker count was read")

        monkeypatch.setattr(experiment, "prepare_sweep", prepare_sweep)
        monkeypatch.setenv("CONEWIDTH_THREADS", "abc")
        with pytest.raises(ValueError, match="CONEWIDTH_THREADS"):
            run_sweep(MATCHED_SMALL)

    def test_auto_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.setenv("CONEWIDTH_THREADS", "0")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers() == 64

    def test_pool_has_at_most_one_worker_per_trial(self, monkeypatch):
        # the recording pool runs tasks inline, so no process is started
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(experiment, "_WORKER_STATE", {})
        cfg = dataclasses.replace(MATCHED_SMALL, trials=3, n_grid=(30, 60))
        monkeypatch.delenv("CONEWIDTH_THREADS", raising=False)
        serial = run_sweep(cfg)
        for threads, expected in (("8", [6]), ("4", [6, 4])):
            monkeypatch.setenv("CONEWIDTH_THREADS", threads)
            assert run_sweep(cfg).trials_csv() == serial.trials_csv()
            assert sizes == expected
        monkeypatch.setenv("CONEWIDTH_THREADS", "8")
        run_sweep(dataclasses.replace(cfg, trials=1, n_grid=(30,)))  # one trial runs serially
        assert sizes == [6, 4]

    def test_parallel_matches_serial(self, monkeypatch):
        import dataclasses

        cfg = dataclasses.replace(MATCHED_SMALL, trials=4, n_grid=(30, 60))
        monkeypatch.delenv("CONEWIDTH_THREADS", raising=False)
        serial = run_sweep(cfg)
        monkeypatch.setenv("CONEWIDTH_THREADS", "2")
        parallel = run_sweep(cfg)
        assert serial.aggregate_csv() == parallel.aggregate_csv()
        assert serial.trials_csv() == parallel.trials_csv()

    def test_parallel_matches_serial_mismatched(self, monkeypatch):
        import dataclasses

        cfg = dataclasses.replace(MISMATCHED_SMALL, trials=2, n_grid=(40, 80))
        monkeypatch.delenv("CONEWIDTH_THREADS", raising=False)
        serial = run_sweep(cfg)
        monkeypatch.setenv("CONEWIDTH_THREADS", "2")
        parallel = run_sweep(cfg)
        assert serial.aggregate_csv() == parallel.aggregate_csv()
        assert serial.trials_csv() == parallel.trials_csv()
