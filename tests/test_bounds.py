"""Bound formulas, restricted-convexity probes, and the sure inequality."""

import math
from pathlib import Path

import numpy as np
import pytest

from conewidth import bounds, geometry, glm, solver
from conewidth.cli import load_config
from conewidth.experiment import sweep_truth
from conewidth.geometry import FeasibleSet, WidthEstimate, descent_cone, gaussian_width_cone
from conewidth.rng import stream

from oracles import (
    batched_cone_directions,
    calibrate_c1,
    feasible_margin,
    projected_gradient_norm_at_truth,
    realized_secant_form,
    sample_size_threshold,
)

SHIPPED_MATCHED = Path(__file__).resolve().parents[1] / "configs" / "matched.cfg"
BOUND_CONSTANT = 2.0 * math.sqrt(2.0 * math.pi)


def gaussian_instance(rng, n, p, theta, sigma=0.5, ensemble="gaussian"):
    family = glm.GlmFamily("gaussian", sigma)
    design = glm.sample_design(n, p, ensemble, rng)
    responses = glm.sample_responses(design, theta, family, rng)
    return glm.ProblemInstance(design, responses, theta, family)


class TestRscEstimate:
    def test_identity_design_gives_inverse_n(self):
        n = 6
        theta = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        inst = glm.ProblemInstance(np.eye(n), np.zeros(n), theta, glm.GlmFamily("gaussian", 1.0))
        q = bounds.rsc_estimate(inst, geometry.sample_cone_directions(descent_cone(theta), 200, stream(70, "id")))
        assert q.shape == (200,)
        assert q == pytest.approx(np.full(200, 1.0 / n), rel=1e-12)

    def test_zero_design_gives_zero(self):
        theta = np.array([1.0, 0.0, 0.0])
        inst = glm.ProblemInstance(np.zeros((5, 3)), np.zeros(5), theta, glm.GlmFamily("gaussian", 1.0))
        q = bounds.rsc_estimate(inst, geometry.sample_cone_directions(descent_cone(theta), 150, stream(71, "z")))
        assert np.all(q == 0.0)

    def test_well_sampled_regime_clears_threshold(self):
        # gaussian design with n comfortably above the cone dimension
        rng = stream(72, "rsc")
        p, s, n = 50, 2, 300
        theta = np.zeros(p)
        theta[:s] = 1.0
        inst = gaussian_instance(rng, n, p, theta)
        q = bounds.rsc_estimate(inst, geometry.sample_cone_directions(descent_cone(theta), 500, rng))
        assert q.min() >= 0.5
        assert q.min() <= np.quantile(q, 0.01)

    def test_direction_matrix_accepted(self):
        theta = np.array([1.0, 0.0])
        inst = glm.ProblemInstance(np.eye(2), np.zeros(2), theta, glm.GlmFamily("gaussian", 1.0))
        E = np.tile(np.array([[-1.0], [0.0]]), (1, 120))
        assert bounds.rsc_estimate(inst, E) == pytest.approx(np.full(120, 0.5))


class HalfZeroCone:
    """Duck-typed cone that keeps each gaussian row whose first entry is positive."""

    ambient_dim = 7

    def project_batch(self, H, buffers=None):
        proj = np.where(H[:, :1] > 0, H, 0.0)
        return proj, np.linalg.norm(proj, axis=1)


class TestConeDirectionSampler:
    def test_matches_batched_reference_at_shipped_geometry(self):
        theta, _ = sweep_truth(load_config(str(SHIPPED_MATCHED)))
        cone = descent_cone(theta)
        for key in range(3):
            E = geometry.sample_cone_directions(cone, 800, stream(90, "rsc", key))
            reference = batched_cone_directions(cone, 800, stream(90, "rsc", key))
            assert np.array_equal(E, reference)
            assert E.strides == reference.strides  # same layout, so the same matmul rounding

    def test_zero_rows_skipped_in_stream_order(self):
        for num in (1, 300, 1500):
            E = geometry.sample_cone_directions(HalfZeroCone(), num, stream(91, "z", num))
            assert np.array_equal(E, batched_cone_directions(HalfZeroCone(), num, stream(91, "z", num)))
            assert E.shape == (7, num)
            assert np.all(E[0] > 0)
            assert np.allclose(np.linalg.norm(E, axis=0), 1.0, atol=1e-15)

    def test_all_zero_cone_raises(self):
        class ZeroCone:
            ambient_dim = 3

            def project_batch(self, H, buffers=None):
                return np.zeros_like(H), np.zeros(H.shape[0])

        with pytest.raises(ValueError, match="0 of 200 nonzero projections"):
            geometry.sample_cone_directions(ZeroCone(), 200, stream(92, "z"))


class TestLocalizedDirectionSampler:
    def test_directions_certify_membership(self):
        fset = FeasibleSet(np.array([0.5, -0.25, 0.0, 0.0]), 1.5)
        t = 0.4
        E = geometry.sample_localized_directions(fset, t, 300, stream(74, "dirs"))
        assert E.shape == (4, 300)
        norms = np.linalg.norm(E, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)
        for j in range(E.shape[1]):
            assert feasible_margin(fset, t * E[:, j]) <= 1e-9

    def test_rounds_draw_only_missing_rows(self, monkeypatch):
        fset = FeasibleSet(np.array([0.5, -0.25, 0.0, 0.0]), 1.5)
        rounds = []
        project_rows = FeasibleSet.project_rows

        def recording(self, Z):
            rounds.append(Z.shape[0])
            return project_rows(self, Z)

        monkeypatch.setattr(FeasibleSet, "project_rows", recording)
        t = 1.0  # most projected points land inside tB here, so many rounds run
        E = geometry.sample_localized_directions(fset, t, 300, stream(76, "dirs"))
        assert E.shape == (4, 300)
        assert rounds[0] == 300 and len(rounds) > 1
        assert all(b <= a for a, b in zip(rounds, rounds[1:]))

    def test_unreachable_t_errors(self):
        fset = FeasibleSet(np.array([0.5]), 1.0)
        with pytest.raises(ValueError, match="localized set"):
            geometry.sample_localized_directions(fset, 10.0, 100, stream(75, "dirs"))


class TestThresholdAndNaive:
    def test_threshold_arithmetic(self):
        assert sample_size_threshold(3.0, 0.5, 1.0, 1.0) == 36

    def test_threshold_floor(self):
        assert sample_size_threshold(0.0, 0.5, 1.0, 1.0) == 1


class TestProjectedGradientNormAtTruth:
    def test_zero_residual(self):
        theta = np.array([1.0, -0.5, 0.0, 0.0])
        design = glm.sample_design(12, 4, "gaussian", stream(76, "d"))
        inst = glm.ProblemInstance(design, design @ theta, theta, glm.GlmFamily("gaussian", 0.0))
        assert projected_gradient_norm_at_truth(inst, descent_cone(theta)) <= 1e-12

    def test_polar_gradient_annihilated(self):
        # craft responses so -grad f(theta) lies in the polar cone
        theta = np.array([1.0, 0.0, 0.0])
        n = 3
        tau = 0.7
        polar = np.array([tau, 0.3 * tau, -0.5 * tau])  # tau*sign on support, |.| <= tau off
        residual = n * polar  # -grad = (1/n) * residual
        design = np.eye(3)
        responses = design @ theta + residual
        inst = glm.ProblemInstance(design, responses, theta, glm.GlmFamily("gaussian", 1.0))
        assert projected_gradient_norm_at_truth(inst, descent_cone(theta)) <= 1e-10

    def test_matches_rejection_oracle(self):
        # residual chosen so -grad f(theta) = (0.1, 0.9, 0.8, 0.85): its cone
        # projection keeps every off-support coordinate, i.e. the maximizing
        # direction sits on a smooth face where rejection sampling converges
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        target = np.array([0.1, 0.9, 0.8, 0.85])
        design = np.eye(4)
        responses = design @ theta + 4.0 * target
        inst = glm.ProblemInstance(design, responses, theta, glm.GlmFamily("gaussian", 1.0))
        cone = descent_cone(theta)
        assert np.allclose(-glm.gradient(inst, theta), target)
        value = projected_gradient_norm_at_truth(inst, cone)
        rng = stream(77, "proj")
        best = 0.0
        kept = 0
        while kept < 100_000:
            U = rng.standard_normal((500_000, 4))
            U /= np.linalg.norm(U, axis=1, keepdims=True)
            margins = U[:, 0] + np.sum(np.abs(U[:, 1:]), axis=1)
            members = U[margins <= 0]
            kept += members.shape[0]
            if members.shape[0]:
                best = max(best, float(np.max(members @ target)))
        assert value == pytest.approx(best, rel=0.01)


class TestBoundFormulas:
    def test_matched_bound_arithmetic(self):
        value = bounds.mismatched_bound(0.0, 1.0, 3.0, 0.5, 100)
        assert value == pytest.approx(6.0 * math.sqrt(2.0 * math.pi) / 5.0, rel=1e-12)

    def test_matched_bound_root_n_scaling(self):
        assert bounds.mismatched_bound(0.0, 1.0, 3.0, 0.5, 400) == pytest.approx(
            0.5 * bounds.mismatched_bound(0.0, 1.0, 3.0, 0.5, 100)
        )

    def test_matched_bound_zero_sigma(self):
        assert bounds.mismatched_bound(0.0, 0.0, 3.0, 0.5, 100) == 0.0

    def test_mismatched_arithmetic(self):
        value = bounds.mismatched_bound(0.1, 1.0, 2.0, 1.0, 400)
        assert value == pytest.approx(0.1 + 4.0 * math.sqrt(2.0 * math.pi) / 20.0, rel=1e-12)

    def test_monotone_decreasing_in_n(self):
        values = [bounds.mismatched_bound(0.2, 1.0, 2.0, 0.5, n) for n in (50, 100, 200, 400)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("t", (0.0, 0.5))
    @pytest.mark.parametrize("mu", (0.0, -1e-300))
    def test_no_positive_curvature_is_infinite(self, t, mu):
        assert bounds.mismatched_bound(t, 1.0, 3.0, mu, 100) == math.inf


class TestOptimizeT:
    def test_closed_form_example(self):
        # constants chosen so C * global_width = 4: minimizer t* = 1, bound 2 at n = 16
        sigma = 1.0
        mu = 2.0 * math.sqrt(2.0 * math.pi) / 2.0  # makes C = 2
        widths = {t: WidthEstimate(2.0 / t, 0.0, 2) for t in (0.5, 1.0, 2.0)}
        tuned = bounds.optimize_t(widths, 2.0, sigma, mu, 16)
        assert tuned.bound_closed_form == pytest.approx(2.0)
        assert tuned.t_star == 1.0
        assert bounds.mismatched_bound(tuned.t_star, sigma, widths[1.0].mean, mu, 16) == pytest.approx(2.0)

    def test_grid_minimizer_below_closed_form(self):
        # real Monte-Carlo widths on a mismatched set; grid includes the closed-form t*
        theta = np.zeros(12)
        theta[:2] = 0.5
        fset = FeasibleSet(theta, 1.5)
        wg = geometry.global_width_l1(fset)
        sigma, mu, n = 1.0, 0.5, 64
        coef = BOUND_CONSTANT * sigma / mu
        t_cf = math.sqrt(coef * wg / math.sqrt(n))
        widths = {
            t: geometry.localized_width(fset, [t], 3000, stream(78, t))[0] for t in (0.25 * t_cf, t_cf, 4 * t_cf)
        }
        tuned = bounds.optimize_t(widths, wg, sigma, mu, n)
        mc_allowance = 3 * (BOUND_CONSTANT * sigma / (mu * math.sqrt(n))) * widths[t_cf].stderr
        bound_star = bounds.mismatched_bound(tuned.t_star, sigma, widths[tuned.t_star].mean, mu, n)
        assert bound_star <= tuned.bound_closed_form + mc_allowance

    def test_closed_form_rate_is_quarter(self):
        from conewidth.experiment import fit_series

        sigma, mu, width = 0.7, 0.4, 11.0
        ns = [2**k for k in range(6, 15)]
        closed_forms = [
            bounds.optimize_t({1.0: WidthEstimate(width, 0.0, 2)}, width, sigma, mu, n).bound_closed_form for n in ns
        ]
        fit = fit_series(ns, closed_forms)
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)

    def test_matched_candidate(self):
        # a matched sweep's one candidate: t* = 0, the matched bound, and no closed form
        w = WidthEstimate(3.0, 0.01, 1000)
        tuned = bounds.optimize_t({0.0: w}, math.nan, 0.8, 0.4, 100)
        assert tuned.t_star == 0.0
        assert math.isnan(tuned.bound_closed_form)
        assert bounds.bound_report(tuned.t_star, w, 0.4, 0.8, 100) == (
            BOUND_CONSTANT * 0.8 * 3.0 / (0.4 * 10.0)
        )

    @pytest.mark.parametrize("global_width, closed_form", [(2.0, math.inf), (math.nan, math.nan)])
    def test_zero_mu_takes_first_candidate(self, global_width, closed_form):
        # every bound is infinite, so the first radius wins even where a later one is smaller
        widths = {1.0: WidthEstimate(5.0, 0.0, 2), 0.5: WidthEstimate(1.0, 0.0, 2)}
        tuned = bounds.optimize_t(widths, global_width, 1.0, 0.0, 64)
        assert tuned.t_star == 1.0
        assert tuned.bound_closed_form == pytest.approx(closed_form, nan_ok=True)

    def test_tie_takes_first_candidate(self):
        # 0.5 + 2 and 1.5 + 1 tie exactly at C / sqrt(n) = 1
        mu = BOUND_CONSTANT / 4.0
        widths = {1.5: WidthEstimate(1.0, 0.0, 2), 0.5: WidthEstimate(2.0, 0.0, 2)}
        assert bounds.mismatched_bound(1.5, 1.0, 1.0, mu, 16) == bounds.mismatched_bound(0.5, 1.0, 2.0, mu, 16)
        assert bounds.optimize_t(widths, 1.0, 1.0, mu, 16).t_star == 1.5
        assert bounds.optimize_t(dict(reversed(widths.items())), 1.0, 1.0, mu, 16).t_star == 0.5


class TestBoundReport:
    def test_matched_report(self):
        # t = 0 adds exactly nothing, so the matched bound comes out bit for bit
        w = WidthEstimate(3.0, 0.01, 1000)
        assert bounds.bound_report(0.0, w, 0.5, 1.0, 100) == bounds.mismatched_bound(0.0, 1.0, 3.0, 0.5, 100)

    def test_mismatched_report(self):
        w = WidthEstimate(2.0, 0.01, 1000)
        assert bounds.bound_report(0.3, w, 0.5, 1.0, 100) == bounds.mismatched_bound(0.3, 1.0, 2.0, 0.5, 100)


class TestSureInequality:
    def test_holds_on_every_trial(self):
        p, s, n = 30, 3, 25
        theta = np.zeros(p)
        theta[:s] = 1.0
        cone = descent_cone(theta)
        for trial in range(20):
            rng = stream(79, "sure", trial)
            inst = gaussian_instance(rng, n, p, theta)
            c = float(np.sum(np.abs(theta)))
            report = solver.projected_gradient(inst, c)
            err = report.theta_hat - theta
            err_norm = float(np.linalg.norm(err))
            if err_norm < 1e-12:
                continue
            q_hat = realized_secant_form(inst, err)
            lhs = q_hat * err_norm
            rhs = projected_gradient_norm_at_truth(inst, cone) + report.final_gap / err_norm
            assert lhs <= rhs + 1e-8

    def test_nonexpansiveness_every_realization(self):
        p, s = 20, 2
        theta = np.zeros(p)
        theta[:s] = 1.0
        cone = descent_cone(theta)
        for trial in range(20):
            rng = stream(80, "nonexp", trial)
            inst = gaussian_instance(rng, 15, p, theta)
            grad_norm = float(np.linalg.norm(glm.gradient(inst, theta)))
            proj_norm = projected_gradient_norm_at_truth(inst, cone)
            assert proj_norm <= grad_norm + 1e-12


class TestBoundDominance:
    def test_expected_projected_norm_below_width_bound(self):
        p, s, n, sigma = 50, 3, 40, 1.0
        theta = np.zeros(p)
        theta[:s] = 1.0
        cone = descent_cone(theta)
        width = gaussian_width_cone(cone, 4000, stream(81, "w"))
        values = []
        for trial in range(200):
            rng = stream(81, "trial", trial)
            inst = gaussian_instance(rng, n, p, theta, sigma=sigma)
            values.append(projected_gradient_norm_at_truth(inst, cone))
        values = np.array(values)
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(values.size))
        bound = BOUND_CONSTANT * sigma * width.mean / math.sqrt(n)
        combined = math.hypot(3 * se, 3 * BOUND_CONSTANT * sigma * width.stderr / math.sqrt(n))
        assert mean <= bound + combined

    def test_naive_dominates_refined_pairwise(self):
        p, s = 40, 4
        theta = np.zeros(p)
        theta[:s] = -1.0
        cone = descent_cone(theta)
        mu = 0.5
        for trial in range(30):
            rng = stream(82, "pair", trial)
            inst = gaussian_instance(rng, 30, p, theta)
            grad_norm = float(np.linalg.norm(glm.gradient(inst, theta)))
            refined = projected_gradient_norm_at_truth(inst, cone) / mu
            assert grad_norm / mu >= refined - 1e-12


class TestCalibration:
    def test_grows_until_target(self):
        # deterministic synthetic success rule: passes from n = 37 upward
        calls = []

        def success(n, seed):
            calls.append(n)
            return n >= 37

        c1 = calibrate_c1(3.0, success, seeds=10, epsilon=0.5, alpha=1.0)
        assert sample_size_threshold(3.0, 0.5, 1.0, c1) >= 37
        # the previous rung of the ladder must have failed
        assert sample_size_threshold(3.0, 0.5, 1.0, c1 / 1.5) < 37

    def test_cap_raises(self):
        with pytest.raises(RuntimeError, match="calibration failed"):
            calibrate_c1(1.0, lambda n, seed: False, seeds=5, c1_cap=2.0)
