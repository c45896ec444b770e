"""Sweep orchestration: truth generation, trials, aggregation, CSV, slopes."""

import math
import os

import numpy as np
import pytest

from conewidth.experiment import (
    ConfigError,
    ExperimentConfig,
    SlopeFit,
    fit_loglog_slope,
    make_truth,
    prepare_sweep,
    resolve_workers,
    run_sweep,
    run_trial,
)
from conewidth.rng import stream

MATCHED_SMALL = ExperimentConfig(
    p=40,
    s=3,
    family="gaussian",
    ensemble="gaussian",
    theta_magnitude=0.5,
    constraint_mode="matched",
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
    constraint_mode="mismatched",
    slack=1.0,
    noise_scale=0.5,
    n_grid=(40, 80, 160),
    trials=8,
    mc_samples=600,
    master_seed=12,
    rsc_directions=150,
    mu_mode="theoretical",
    t_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
)


class TestMakeTruth:
    def test_full_support(self):
        theta = make_truth(4, 4, 1.0, stream(90, "t"))
        assert np.all(np.abs(theta) == 1.0)

    def test_zero_sparsity(self):
        assert np.array_equal(make_truth(10, 0, 1.0, stream(91, "t")), np.zeros(10))

    def test_l1_norm_always_s_times_magnitude(self):
        rng = stream(92, "t")
        for _ in range(20):
            p = int(rng.integers(2, 30))
            s = int(rng.integers(0, p + 1))
            theta = make_truth(p, s, 0.7, rng)
            assert np.sum(np.abs(theta)) == pytest.approx(0.7 * s)


class TestConfigValidation:
    def test_matched_slack_rejected(self):
        cfg = ExperimentConfig(p=10, s=2, n_grid=(10,), trials=1, slack=0.5)
        with pytest.raises(ConfigError, match="slack"):
            cfg.validate()

    def test_mismatched_needs_t_grid(self):
        cfg = ExperimentConfig(p=10, s=2, constraint_mode="mismatched", slack=0.5, n_grid=(10,), trials=1)
        with pytest.raises(ConfigError, match="t_grid"):
            cfg.validate()

    def test_n_grid_strictly_increasing(self):
        cfg = ExperimentConfig(p=10, s=2, n_grid=(10, 10), trials=1)
        with pytest.raises(ConfigError, match="n_grid"):
            cfg.validate()

    def test_matched_zero_sparsity_rejected(self):
        cfg = ExperimentConfig(p=10, s=0, n_grid=(10,), trials=1)
        with pytest.raises(ConfigError, match="s"):
            cfg.validate()

    def test_error_names_key(self):
        cfg = ExperimentConfig(p=10, s=2, n_grid=(10,), trials=1, rsc_epsilon=2.0)
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        assert err.value.key == "rsc_epsilon"


class TestSlopeFit:
    def test_collinear_half_slope(self):
        fit = fit_loglog_slope([(1, 1.0), (10, 10**-0.5), (100, 0.1)])
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.half_width == pytest.approx(0.0, abs=1e-9)

    def test_constant_values(self):
        fit = fit_loglog_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_quarter_rate(self):
        points = [(n, float(n) ** -0.25) for n in (16, 64, 256, 1024)]
        assert fit_loglog_slope(points).slope == pytest.approx(-0.25, abs=1e-12)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0), (20, 0.0), (40, 1.0)])

    def test_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1.0), (20, 0.5)])


class TestRunTrial:
    def test_deterministic_records(self):
        a = run_trial(MATCHED_SMALL, 60, 3)
        b = run_trial(MATCHED_SMALL, 60, 3)
        assert a == b

    def test_noiseless_matched_recovery(self):
        cfg = ExperimentConfig(
            p=20,
            s=3,
            family="gaussian",
            theta_magnitude=1.0,
            constraint_mode="matched",
            noise_scale=0.0,
            n_grid=(40,),
            trials=1,
            mc_samples=400,
            master_seed=13,
            rsc_directions=150,
            solver_tol=1e-12,
        )
        record = run_trial(cfg, 40, 0)
        assert record.error_l2 <= 1e-4

    def test_matched_record_fields(self):
        record = run_trial(MATCHED_SMALL, 30, 0)
        assert record.t_star == 0.0
        assert math.isnan(record.bound_mismatched)
        assert record.bound_matched > 0
        assert record.final_gap >= -1e-12
        assert record.proj_grad_norm <= record.grad_norm + 1e-12

    def test_mismatched_record_fields(self):
        record = run_trial(MISMATCHED_SMALL, 40, 0)
        assert record.t_star > 0
        assert math.isnan(record.bound_matched)
        assert record.bound_mismatched > record.t_star


    def test_solver_gap_tol_reaches_projected_gradient(self, monkeypatch):
        import dataclasses

        from conewidth import solver

        seen = []
        real = solver.projected_gradient

        def spy(*args, **kwargs):
            seen.append(kwargs.get("gap_tol"))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "projected_gradient", spy)
        record = run_trial(dataclasses.replace(MATCHED_SMALL, solver_gap_tol=1e-3), 60, 0)
        default = run_trial(MATCHED_SMALL, 60, 0)
        assert seen == [1e-3, None]
        assert record.final_gap <= 1e-3
        assert record.solver_iters <= default.solver_iters


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
            b.stderr_error / a.stderr_error
            for a, b in zip(res1.rows, res2.rows)
            if a.stderr_error > 0
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
            constraint_mode="matched",
            n_grid=(20,),
            trials=5,
            mc_samples=100,
            master_seed=14,
            rsc_directions=100,
        )
        with pytest.raises(RuntimeError, match="failed"):
            run_sweep(cfg)


class TestWorkers:
    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv("CONEWIDTH_THREADS", raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv("CONEWIDTH_THREADS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("CONEWIDTH_THREADS", "0")
        assert resolve_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("CONEWIDTH_THREADS", "junk")
        with pytest.raises(ValueError):
            resolve_workers()

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
