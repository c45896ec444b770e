"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria and tolerances are fixed here; nothing is calibrated at
test time except the documented c1 calibration of criterion 9, which uses
its own seed stream separate from the verification seeds.
"""

import dataclasses
import math

import numpy as np
import pytest

from conewidth import bounds, cli, geometry, glm, solver
from conewidth.experiment import RSC_EPSILON, ExperimentConfig, run_sweep
from conewidth.geometry import FeasibleSet, descent_cone, gaussian_width_cone, localized_width
from conewidth.rng import stream

from oracles import (
    calibrate_c1,
    cone_at_pattern,
    cumulant_eval,
    fd_gradient,
    grid_min_objective_l1,
    projected_gradient_norm_at_truth,
    realized_secant_form,
    sample_size_threshold,
)

BOUND_CONSTANT = 2.0 * math.sqrt(2.0 * math.pi)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion:2d}: {status} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_and_hessian_oracles():
    rng = np.random.default_rng(101)
    families = (
        (glm.GlmFamily("gaussian", 0.5), 1e-5),
        (glm.GlmFamily("logistic"), 1e-5),
        (glm.GlmFamily("poisson"), 1e-4),
    )
    worst_fd = 0.0
    worst_identity = 0.0
    for i in range(100):
        family, tol = families[i % 3]
        n = int(rng.integers(5, 40))
        p = int(rng.integers(2, 21))
        theta = rng.normal(scale=0.4, size=p)
        if family.tag == "poisson":
            theta /= max(1.0, np.sum(np.abs(theta)))
        ensemble = "rademacher" if rng.random() < 0.5 else "gaussian"
        design = glm.sample_design(n, p, ensemble, rng)
        responses = glm.sample_responses(design, theta, family, rng)
        inst = glm.ProblemInstance(design, responses, theta, family)

        point = rng.normal(scale=0.3, size=p)
        grad = glm.gradient(inst, point)
        rel = np.linalg.norm(grad - fd_gradient(inst, point)) / max(1.0, np.linalg.norm(grad))
        worst_fd = max(worst_fd, rel / tol)

        _, b1, _ = cumulant_eval(family, design @ theta)
        identity = -design.T @ (responses - b1) / n
        worst_identity = max(worst_identity, float(np.max(np.abs(glm.gradient(inst, theta) - identity))))
    ok = worst_fd <= 1.0 and worst_identity <= 1e-12
    report(1, ok, f"worst FD ratio {worst_fd:.3g} (<=1), truth identity {worst_identity:.2e} (<=1e-12)")


def test_criterion_2_cone_geometry():
    rng = np.random.default_rng(102)
    worst_orth = 0.0
    worst_pyth = 0.0
    worst_member = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 33))
        s = int(rng.integers(1, p + 1))
        support = rng.choice(p, size=s, replace=False)
        signs = 2.0 * rng.integers(0, 2, size=s).astype(float) - 1.0
        cone = cone_at_pattern(support, signs, p)
        H = rng.normal(size=(100, p)) * rng.uniform(0.1, 5.0)
        proj, _ = cone.project_batch(H)
        polar = H - proj
        worst_orth = max(worst_orth, float(np.max(np.abs(np.einsum("ij,ij->i", proj, polar)))))
        pyth = np.einsum("ij,ij->i", H, H) - np.einsum("ij,ij->i", proj, proj) - np.einsum("ij,ij->i", polar, polar)
        worst_pyth = max(worst_pyth, float(np.max(np.abs(pyth))))
        margins = proj[:, support] @ signs + np.sum(np.abs(np.delete(proj, support, axis=1)), axis=1)
        worst_member = max(worst_member, float(np.max(margins)))

    cone2 = descent_cone(np.array([1.0, 0.0]))
    proj, norm = geometry.project_onto_descent_cone(cone2, np.array([0.0, 1.0]))
    example_err = max(abs(norm - math.sqrt(0.5)), float(np.max(np.abs(proj - np.array([-0.5, 0.5])))))
    grid_err = 0.0
    from oracles import cone_projection_angle_oracle

    for _ in range(25):
        h = rng.normal(size=2) * rng.uniform(0.3, 3.0)
        got, got_norm = geometry.project_onto_descent_cone(cone2, h)
        want, want_norm = cone_projection_angle_oracle(cone2, h)
        grid_err = max(grid_err, abs(got_norm - want_norm), float(np.linalg.norm(got - want)))
    ok = worst_orth <= 1e-8 and worst_pyth <= 1e-8 and worst_member <= 1e-9 and example_err <= 1e-4 and grid_err <= 1e-4
    report(
        2,
        ok,
        f"Moreau orth {worst_orth:.2e}, pyth {worst_pyth:.2e} (<=1e-8) on 10^4 pairs; "
        f"membership {worst_member:.2e}; p=2 oracle err {max(example_err, grid_err):.2e} (<=1e-4)",
    )


def test_criterion_3_width_estimators():
    samples = 10_000

    class Line:
        ambient_dim = 3

        def project_batch(self, H, buffers=None):
            proj = np.zeros_like(H)
            proj[:, 0] = H[:, 0]
            return proj, np.abs(H[:, 0])

    class Full:
        ambient_dim = 2

        def project_batch(self, H, buffers=None):
            return H, np.linalg.norm(H, axis=1)

    w_line = gaussian_width_cone(Line(), samples, stream(103, "line"))
    line_ok = abs(w_line.mean - math.sqrt(2 / math.pi)) <= 3 * w_line.stderr
    w_full = gaussian_width_cone(Full(), samples, stream(103, "full"))
    full_ok = abs(w_full.mean - math.sqrt(math.pi / 2)) <= 3 * w_full.stderr

    sparse_ok = True
    sparse_detail = []
    for p, s in ((100, 2), (100, 5), (200, 5)):
        theta = np.zeros(p)
        theta[:s] = 1.0
        w = gaussian_width_cone(descent_cone(theta), samples, stream(103, "cone", p, s))
        limit = 2 * s * math.log(p / s) + 1.5 * s + 4 * w.stderr * w.mean
        sparse_ok &= w.mean**2 <= limit
        sparse_detail.append(f"(p={p},s={s}): {w.mean**2:.2f}<={limit:.2f}")

    theta = np.zeros(20)
    theta[:3] = 4.0
    fset = FeasibleSet(theta, float(np.sum(np.abs(theta))))
    w_half = localized_width(fset, [0.5], samples, stream(103, "t", 1))[0]
    w_two = localized_width(fset, [2.0], samples, stream(103, "t", 2))[0]
    homog_ok = abs(w_half.mean - w_two.mean) <= 3 * math.hypot(w_half.stderr, w_two.stderr)

    ok = line_ok and full_ok and sparse_ok and homog_ok
    report(
        3,
        ok,
        f"line {w_line.mean:.4f}~{math.sqrt(2/math.pi):.4f}; full {w_full.mean:.4f}~{math.sqrt(math.pi/2):.4f}; "
        + "; ".join(sparse_detail)
        + f"; homogeneity |{w_half.mean:.4f}-{w_two.mean:.4f}|<=3se",
    )


def test_criterion_4_solver_correctness():
    rng = np.random.default_rng(104)
    families = (glm.GlmFamily("gaussian", 0.5), glm.GlmFamily("logistic"), glm.GlmFamily("poisson"))
    worst_rel = 0.0
    worst_feas = 0.0
    for family in families:
        for _ in range(50):
            n = int(rng.integers(20, 60))
            p = int(rng.integers(2, 11))
            theta = rng.normal(scale=0.4, size=p)
            design = glm.sample_design(n, p, "gaussian", rng)
            if family.tag == "poisson":
                design = np.clip(design, -2.5, 2.5)
                theta /= max(1.0, np.sum(np.abs(theta)))
            responses = glm.sample_responses(design, theta, family, rng)
            inst = glm.ProblemInstance(design, responses, theta, family)
            gap_tol = 2e-4 * max(1.0, abs(glm.loss(inst, np.zeros(p))))
            fw = solver.frank_wolfe(inst, 1.0, gap_tol=gap_tol)
            pg = solver.projected_gradient(inst, 1.0)
            worst_rel = max(worst_rel, abs(fw.final_objective - pg.final_objective) / (2 * gap_tol))
            worst_feas = max(
                worst_feas,
                float(np.sum(np.abs(fw.theta_hat))) - 1.0,
                float(np.sum(np.abs(pg.theta_hat))) - 1.0,
            )
    grid_ok = True
    for family in families:
        n = 50
        theta = np.array([0.4, -0.3])
        design = glm.sample_design(n, 2, "gaussian", rng)
        if family.tag == "poisson":
            design = np.clip(design, -2.5, 2.5)
        responses = glm.sample_responses(design, theta, family, rng)
        inst = glm.ProblemInstance(design, responses, theta, family)
        grid_value, _ = grid_min_objective_l1(inst, 1.0)
        for rep in (solver.frank_wolfe(inst, 1.0, gap_tol=1e-4), solver.projected_gradient(inst, 1.0)):
            grid_ok &= abs(glm.loss(inst, rep.theta_hat) - grid_value) <= 1e-2
    ok = worst_rel <= 1.0 and worst_feas <= 1e-9 and grid_ok
    report(
        4,
        ok,
        f"FW-PG gap ratio {worst_rel:.3f} (<=1 of 2*gap_tol) on 150 instances; "
        f"feasibility excess {worst_feas:.2e} (<=1e-9); grid match 1e-2: {grid_ok}",
    )


def test_criterion_5_sure_inequality():
    p, s, n, sigma = 100, 3, 80, 0.5
    theta = np.zeros(p)
    theta[:3] = 1.0
    cone = descent_cone(theta)
    family = glm.GlmFamily("gaussian", sigma)
    c = float(np.sum(np.abs(theta)))
    checked = 0
    worst_slack = -math.inf
    for trial in range(500):
        rng = stream(105, "trial", trial)
        design = glm.sample_design(n, p, "gaussian", rng)
        responses = glm.sample_responses(design, theta, family, rng)
        inst = glm.ProblemInstance(design, responses, theta, family)
        rep = solver.projected_gradient(inst, c)
        err = rep.theta_hat - theta
        err_norm = float(np.linalg.norm(err))
        if err_norm < 1e-12:
            continue
        lhs = realized_secant_form(inst, err) * err_norm
        rhs = projected_gradient_norm_at_truth(inst, cone) + rep.final_gap / err_norm
        worst_slack = max(worst_slack, lhs - rhs)
        checked += 1
    ok = checked >= 490 and worst_slack <= 1e-8
    report(5, ok, f"checked {checked}/500 trials, worst lhs-rhs {worst_slack:.3e} (<=1e-8)")


def test_criterion_6_matched_bound_validity_and_rate():
    cfg = ExperimentConfig(
        p=200,
        s=5,
        family="gaussian",
        ensemble="gaussian",
        theta_magnitude=0.2,  # low-signal regime where the root-n rate shows at these n
        noise_scale=0.5,
        n_grid=(40, 60, 90, 135, 200),
        trials=50,
        mc_samples=4000,
        master_seed=106,
        rsc_directions=800,
        mu_mode="empirical",
    )
    res = run_sweep(cfg)
    held = sum(row.mean_error <= row.bound for row in res.rows)
    validity_ok = held >= math.ceil(0.95 * len(res.rows))
    slope = res.slope_error.slope
    slope_ok = -0.65 <= slope <= -0.35
    report(
        6,
        validity_ok and slope_ok,
        f"bound held at {held}/{len(res.rows)} grid points; empirical slope {slope:.3f} in [-0.65,-0.35]",
    )


def test_criterion_7_glm_bound_validity():
    cfg = ExperimentConfig(
        p=100,
        s=3,
        family="logistic",
        ensemble="rademacher",
        theta_magnitude=1.0,
        n_grid=(60, 120, 240),
        trials=50,
        mc_samples=4000,
        master_seed=107,
        rsc_directions=400,
        mu_mode="theoretical",
    )
    res = run_sweep(cfg)
    c = 3.0
    sig = 1.0 / (1.0 + math.exp(-c))
    nu = sig * (1.0 - sig)
    mu_expected = nu * (1.0 - RSC_EPSILON)
    mu_ok = all(abs(row.mu_used - mu_expected) < 1e-12 for row in res.rows)
    held = all(row.mean_error <= row.bound for row in res.rows)
    report(
        7,
        held and mu_ok,
        f"mean error below nu(1-eps) bound at all {len(res.rows)} grid points "
        f"(nu={nu:.4f}, mu={mu_expected:.4f}); margins "
        + ", ".join(f"{row.bound / row.mean_error:.1f}x" for row in res.rows),
    )


def test_criterion_8_mismatched_quarter_rate():
    cfg = ExperimentConfig(
        p=200,
        s=5,
        family="gaussian",
        ensemble="gaussian",
        theta_magnitude=1.0,
        slack=2.5,  # 0.5 * ||theta||_1
        noise_scale=0.5,
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
        trials=50,
        mc_samples=1500,
        master_seed=108,
        rsc_directions=128,
        mu_mode="theoretical",
    )
    res = run_sweep(cfg)
    cf_slope = res.slope_bound_closed_form.slope
    slope_ok = abs(cf_slope + 0.25) <= 0.02
    held = sum(row.mean_error <= row.bound for row in res.rows)
    validity_ok = held >= math.ceil(0.95 * len(res.rows))
    report(
        8,
        slope_ok and validity_ok,
        f"closed-form bound slope {cf_slope:.4f} (target -0.25±0.02); "
        f"grid-optimized bound held at {held}/{len(res.rows)} points",
    )


def test_criterion_9_rsc_sample_size_threshold():
    p, s, epsilon = 50, 2, 0.5
    theta = np.zeros(p)
    theta[:s] = 1.0
    cone = descent_cone(theta)
    width = gaussian_width_cone(cone, 10_000, stream(109, "width"))
    family = glm.GlmFamily("gaussian", 1.0)

    def success(n: int, seed: int, role: str) -> bool:
        rng = stream(109, role, seed, n)
        design = glm.sample_design(n, p, "gaussian", rng)
        inst = glm.ProblemInstance(design, np.zeros(n), theta, family)
        q = bounds.rsc_estimate(inst, bounds.sample_cone_directions(cone, 400, rng))
        return q.min() >= 1.0 - epsilon

    c1 = calibrate_c1(
        width.mean,
        lambda n, seed: success(n, seed, "calibrate"),
        seeds=60,
        epsilon=epsilon,
        target_rate=0.98,
    )
    n_star = sample_size_threshold(width.mean, epsilon, 1.0, c1)
    hits = sum(success(n_star, seed, "verify") for seed in range(100))
    ok = hits >= 95
    report(9, ok, f"calibrated c1={c1:.3f}, n*={n_star}; mu_hat >= 1-eps on {hits}/100 fresh seeds (>=95)")


def test_criterion_10_sweep_determinism(tmp_path):
    config_text = (
        "family = gaussian\nensemble = gaussian\np = 40\ns = 3\n"
        "theta_magnitude = 0.5\nnoise_scale = 0.5\n"
        "n_grid = 30,60,120\ntrials = 6\nmc_samples = 600\nmaster_seed = 110\n"
        "rsc_directions = 150\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(config_text)
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    code1 = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out1)])
    code2 = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out2)])
    same_agg = out1.read_bytes() == out2.read_bytes()
    same_trials = (tmp_path / "run1.csv.trials.csv").read_bytes() == (tmp_path / "run2.csv.trials.csv").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_agg and same_trials
    report(10, ok, f"repeated sweep byte-identical: aggregate={same_agg}, trials={same_trials}")
