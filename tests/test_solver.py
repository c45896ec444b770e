"""Frank-Wolfe and projected gradient over the l1 ball."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewidth import glm, solver
from conewidth.rng import stream

from oracles import duality_gap, grid_min_objective_l1

GAUSSIAN = glm.GlmFamily("gaussian", 0.5)
LOGISTIC = glm.GlmFamily("logistic")
POISSON = glm.GlmFamily("poisson")


def small_instance(rng, family, n=40, p=5, magnitude=0.4):
    theta = rng.normal(scale=magnitude, size=p)
    design = glm.sample_design(n, p, "gaussian", rng)
    if family.tag == "poisson":
        design = np.clip(design, -2.5, 2.5)
    responses = glm.sample_responses(design, theta, family, rng)
    return glm.ProblemInstance(design, responses, theta, family)


class TestFrankWolfe:
    def test_axis_projection_case(self):
        inst = glm.ProblemInstance(np.eye(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]), GAUSSIAN)
        report = solver.frank_wolfe(inst, 1.0)
        assert np.linalg.norm(report.theta_hat - np.array([1.0, 0.0])) < 1e-4

    def test_interior_optimum(self):
        inst = glm.ProblemInstance(np.eye(2), np.array([0.2, 0.1]), np.array([0.2, 0.1]), GAUSSIAN)
        report = solver.frank_wolfe(inst, 1.0)
        # the unconstrained optimum is feasible; the gap certificate bounds the miss
        assert glm.loss(inst, report.theta_hat) <= glm.loss(inst, np.array([0.2, 0.1])) + report.final_gap + 1e-12

    def test_matches_grid_on_logistic_p2(self):
        rng = stream(50, "fw")
        inst = small_instance(rng, LOGISTIC, n=50, p=2)
        report = solver.frank_wolfe(inst, 1.0, gap_tol=1e-4)
        grid_value, _ = grid_min_objective_l1(inst, 1.0)
        assert glm.loss(inst, report.theta_hat) <= grid_value + report.final_gap + 1e-9
        assert abs(glm.loss(inst, report.theta_hat) - grid_value) <= 1e-2

    def test_gap_certificate_against_grid(self):
        rng = stream(51, "fw")
        for family in (GAUSSIAN, LOGISTIC):
            inst = small_instance(rng, family, n=30, p=2)
            report = solver.frank_wolfe(inst, 0.8, gap_tol=1e-4)
            grid_value, _ = grid_min_objective_l1(inst, 0.8, resolution=1601)
            assert glm.loss(inst, report.theta_hat) - grid_value <= report.final_gap + 1e-6

    def test_iterates_feasible_and_gap_nonnegative(self):
        rng = stream(52, "fw")
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            inst = small_instance(rng, family)
            report = solver.frank_wolfe(inst, 1.2, gap_tol=3e-4)
            assert np.sum(np.abs(report.theta_hat)) <= 1.2 + 1e-9
            assert report.final_gap >= -1e-10

    def test_iteration_cap_reports_not_converged(self):
        rng = stream(62, "fw")
        inst = small_instance(rng, LOGISTIC)
        report = solver.frank_wolfe(inst, 1.0, max_iter=1, gap_tol=1e-8)
        assert not report.converged
        assert report.iterations == 1
        assert report.final_gap > 1e-8
        assert solver.frank_wolfe(inst, 1.0, gap_tol=1e-4).converged

    def test_nonfinite_gradient_reports_iteration(self):
        # design/response scales chosen so the first gradient overflows
        design = np.array([[1e200, 0.0], [0.0, 1.0]])
        inst = glm.ProblemInstance(design, np.array([1e200, 0.0]), np.zeros(2), GAUSSIAN)
        with np.errstate(over="ignore"):
            with pytest.raises(solver.SolverError, match="iteration"):
                solver.frank_wolfe(inst, 1.0)


class TestProjectedGradient:
    def test_axis_projection_case(self):
        inst = glm.ProblemInstance(np.eye(2), np.array([2.0, 0.0]), np.array([1.0, 0.0]), GAUSSIAN)
        report = solver.projected_gradient(inst, 1.0)
        assert np.linalg.norm(report.theta_hat - np.array([1.0, 0.0])) < 1e-6

    def test_zero_gradient_start_returns_immediately(self):
        # responses chosen so the gradient vanishes at the origin
        inst = glm.ProblemInstance(np.eye(2), np.array([0.0, 0.0]), np.zeros(2), GAUSSIAN)
        report = solver.projected_gradient(inst, 1.0)
        assert report.iterations == 0
        assert np.allclose(report.theta_hat, 0.0)

    def test_huge_radius_matches_normal_equations(self):
        rng = stream(54, "pg")
        design = glm.sample_design(80, 6, "gaussian", rng)
        theta = rng.normal(size=6)
        y = glm.sample_responses(design, theta, GAUSSIAN, rng)
        inst = glm.ProblemInstance(design, y, theta, GAUSSIAN)
        report = solver.projected_gradient(inst, 1e6, max_iter=100_000, tol=1e-13)
        theta_ls, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.linalg.norm(report.theta_hat - theta_ls) < 1e-6

    def test_final_objective_below_origin(self):
        rng = stream(55, "pg")
        inst = small_instance(rng, LOGISTIC)
        report = solver.projected_gradient(inst, 1.0)
        assert report.final_objective <= glm.loss(inst, np.zeros(inst.p)) + 1e-15

    def test_matches_grid_on_families_p2(self):
        rng = stream(56, "pg")
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            inst = small_instance(rng, family, n=50, p=2)
            report = solver.projected_gradient(inst, 1.0)
            grid_value, _ = grid_min_objective_l1(inst, 1.0)
            assert glm.loss(inst, report.theta_hat) <= grid_value + 1e-6
            assert grid_value <= glm.loss(inst, report.theta_hat) + 1e-2


    def test_stops_on_default_certificate(self):
        rng = stream(63, "pg")
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            inst = small_instance(rng, family)
            report = solver.projected_gradient(inst, 1.0)
            assert report.converged
            assert report.final_gap <= solver.default_gap_tol(inst)

    def test_stops_on_explicit_certificate(self):
        rng = stream(64, "pg")
        inst = small_instance(rng, GAUSSIAN, n=30, p=60)
        loose = solver.projected_gradient(inst, 1.0, gap_tol=1e-2)
        tight = solver.projected_gradient(inst, 1.0, gap_tol=1e-9)
        assert loose.converged and loose.final_gap <= 1e-2
        assert tight.converged and tight.final_gap <= 1e-9
        assert loose.iterations < tight.iterations

    def test_accepted_iterates_monotone(self):
        # a run capped at k iterations returns the k-th accepted iterate;
        # near the optimum the values may differ by roundoff only
        rng = stream(66, "pg")
        for family in (GAUSSIAN, LOGISTIC):
            inst = small_instance(rng, family, n=30, p=60, magnitude=1.0)
            values = [
                solver.projected_gradient(inst, 3.0, max_iter=k, gap_tol=0.0).final_objective
                for k in range(1, 60)
            ]
            assert all(b <= a + 1e-14 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))

    def poisoned_gradients(self, monkeypatch, calls):
        """Make the listed calls of ``glm.gradient_at_predictor`` (0 is the
        one at the origin) return NaN."""
        orig, count = glm.gradient_at_predictor, [0]

        def gradient_at_predictor(instance, eta):
            grad = orig(instance, eta)
            count[0] += 1
            return np.full_like(grad, np.nan) if count[0] - 1 in calls else grad

        monkeypatch.setattr(glm, "gradient_at_predictor", gradient_at_predictor)

    @pytest.mark.parametrize("iteration", [0, 1])
    def test_nonfinite_gradient_reports_iteration(self, monkeypatch, iteration):
        # call 0 is the gradient at the origin, call 1 the one at the first accepted iterate
        inst = small_instance(stream(67, "pg"), GAUSSIAN, n=30, p=60)
        self.poisoned_gradients(monkeypatch, {iteration})
        with pytest.raises(solver.SolverError, match=f"non-finite gradient at iteration {iteration}$"):
            solver.projected_gradient(inst, 1.0)

    def test_nonfinite_extrapolated_gradient_restarts(self, monkeypatch):
        # call 2 is the first extrapolated gradient: the step is retaken from
        # the iterate instead of backtracking along a NaN direction
        inst = small_instance(stream(67, "pg"), GAUSSIAN, n=30, p=60)
        self.poisoned_gradients(monkeypatch, {2})
        report = solver.projected_gradient(inst, 1.0)
        assert report.converged and np.isfinite(report.theta_hat).all()

    def test_iteration_cap_reports_not_converged(self):
        rng = stream(65, "pg")
        inst = small_instance(rng, GAUSSIAN, n=30, p=60)
        report = solver.projected_gradient(inst, 1.0, max_iter=1)
        assert report.iterations == 1
        assert not report.converged
        assert report.final_gap > solver.default_gap_tol(inst)


class TestSolverAgreement:
    def test_objectives_agree_within_certificates(self):
        rng = stream(57, "agree")
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            for _ in range(5):
                inst = small_instance(rng, family)
                gap_tol = 3e-4 * max(1.0, abs(glm.loss(inst, np.zeros(inst.p))))
                fw = solver.frank_wolfe(inst, 1.0, gap_tol=gap_tol)
                pg = solver.projected_gradient(inst, 1.0)
                assert abs(fw.final_objective - pg.final_objective) <= fw.final_gap + pg.final_gap + 1e-12

    def test_objective_at_estimate_beats_truth(self):
        rng = stream(58, "agree")
        for family in (GAUSSIAN, LOGISTIC):
            inst = small_instance(rng, family)
            c = float(np.sum(np.abs(inst.theta_true))) + 0.3
            report = solver.projected_gradient(inst, c)
            assert report.final_objective <= glm.loss(inst, inst.theta_true) + 1e-12


class TestDualityGap:
    @pytest.mark.parametrize("family", [GAUSSIAN, LOGISTIC, POISSON], ids=lambda f: f.tag)
    def test_projected_gradient_reports_gap_at_returned_iterate(self, family):
        # the report's gap comes from the loop's last gradient; a fresh one agrees bit for bit
        inst = small_instance(stream(62, "final-gap", family.tag), family)
        c = 0.8 * float(np.sum(np.abs(inst.theta_true)))
        certified = solver.projected_gradient(inst, c)
        step_test = solver.projected_gradient(inst, c, tol=1e-2, gap_tol=1e-300)
        capped = solver.projected_gradient(inst, c, max_iter=1, gap_tol=1e-300)
        assert certified.converged
        assert 1 <= step_test.iterations < 20_000 and not step_test.converged
        assert capped.iterations == 1 and not capped.converged
        for report in (certified, step_test, capped):
            assert report.final_gap == duality_gap(inst, report.theta_hat, c)

    def test_zero_at_interior_optimum(self):
        inst = glm.ProblemInstance(np.eye(2), np.array([0.2, 0.1]), np.array([0.2, 0.1]), GAUSSIAN)
        assert duality_gap(inst, np.array([0.2, 0.1]), 1.0) <= 1e-8

    def test_upper_bounds_suboptimality_vs_grid(self):
        rng = stream(59, "gap")
        inst = small_instance(rng, LOGISTIC, n=40, p=2)
        grid_value, _ = grid_min_objective_l1(inst, 1.0)
        for _ in range(10):
            raw = rng.normal(size=2)
            theta = raw * min(1.0, 1.0 / np.sum(np.abs(raw)))
            gap = duality_gap(inst, theta, 1.0)
            assert gap >= glm.loss(inst, theta) - grid_value - 1e-6

    def test_stopped_solver_gap_below_tolerance(self):
        rng = stream(60, "gap")
        inst = small_instance(rng, GAUSSIAN)
        report = solver.frank_wolfe(inst, 1.0, gap_tol=1e-4)
        assert report.final_gap <= 1e-4
        assert duality_gap(inst, report.theta_hat, 1.0) == pytest.approx(report.final_gap, abs=1e-12)

    @settings(max_examples=80)
    @given(data=st.data())
    def test_bounds_suboptimality_at_feasible_points(self, data):
        # convexity: f* >= f(theta) + <grad f(theta), s - theta> at the LMO vertex s
        # (Jaggi 2013), so the gap is at least f(theta) - f*
        family = data.draw(st.sampled_from([GAUSSIAN, LOGISTIC]), label="family")
        n = data.draw(st.integers(3, 30), label="n")
        p = data.draw(st.integers(1, 6), label="p")
        c = data.draw(st.floats(0.05, 3.0), label="c")
        inst = small_instance(stream(67, "gap", data.draw(st.integers(0, 2**31), label="seed")), family, n, p)
        # tol=1e-300: stop on the certificate, never on a small step
        reference = solver.projected_gradient(inst, c, max_iter=200_000, tol=1e-300, gap_tol=1e-10)
        assert reference.final_gap <= 1e-10
        f_star = glm.loss(inst, reference.theta_hat)  # within 1e-10 above the true minimum
        raw = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p), label="raw"))
        radius = data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]), label="radius")
        theta = raw * (radius * c / max(np.sum(np.abs(raw)), 1e-300))
        gap = duality_gap(inst, theta, c)
        assert gap >= glm.loss(inst, theta) - f_star - 1e-12 * max(1.0, abs(f_star))

    def test_infeasible_point_rejected(self):
        rng = stream(61, "gap")
        inst = small_instance(rng, GAUSSIAN, p=3)
        with pytest.raises(ValueError, match="infeasible"):
            duality_gap(inst, np.array([2.0, 0.0, 0.0]), 1.0)
