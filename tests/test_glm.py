"""GLM family oracles: cumulants, samplers, loss/gradient/Hessian, and the Gram form of gaussian trials."""

import math

import numpy as np
import pytest

from conewidth import geometry, glm
from conewidth.rng import stream

from oracles import (
    cumulant_eval,
    fd_gradient,
    fd_hessian_quadratic_form,
    hessian_quadratic_form_batch,
    row_block_gram_instance,
)

GAUSSIAN = glm.GlmFamily("gaussian", 0.5)
LOGISTIC = glm.GlmFamily("logistic")
POISSON = glm.GlmFamily("poisson")


def random_instance(rng, family, n=None, p=None, magnitude=0.5):
    n = n or int(rng.integers(5, 40))
    p = p or int(rng.integers(2, 20))
    theta = rng.normal(scale=magnitude, size=p)
    ensemble = "rademacher" if rng.random() < 0.5 else "gaussian"
    design = glm.sample_design(n, p, ensemble, rng)
    if family.tag == "poisson":
        theta = theta / max(1.0, 0.5 * np.sum(np.abs(theta)))  # keep eta in range
    responses = glm.sample_responses(design, theta, family, rng)
    return glm.ProblemInstance(design, responses, theta, family)


class TestCumulant:
    def test_logistic_at_zero(self):
        b, b1, b2 = cumulant_eval(LOGISTIC, 0.0)
        assert b == pytest.approx(math.log(2.0), abs=1e-15)
        assert b1 == pytest.approx(0.5, abs=1e-15)
        assert b2 == pytest.approx(0.25, abs=1e-15)

    def test_gaussian_at_two(self):
        assert cumulant_eval(GAUSSIAN, 2.0) == pytest.approx((2.0, 2.0, 1.0))

    def test_poisson_at_zero(self):
        assert cumulant_eval(POISSON, 0.0) == pytest.approx((1.0, 1.0, 1.0))

    def test_logistic_stable_in_tails(self):
        b, b1, b2 = cumulant_eval(LOGISTIC, np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(b)) and np.all(np.isfinite(b1)) and np.all(np.isfinite(b2))
        assert b[1] == pytest.approx(800.0)
        assert b1[0] == pytest.approx(0.0, abs=1e-300)

    def test_poisson_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            cumulant_eval(POISSON, 31.0)

    def test_poisson_cap_rejected_on_every_oracle(self):
        # the solver's backtracking treats this ValueError as a rejected step
        theta = np.array([31.0, 0.0])
        inst = glm.ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), POISSON)
        eta = np.array([31.0, 0.0])
        E = np.array([[31.0], [0.0]])
        for call in (
            lambda: glm.loss_at_predictor(inst, theta, eta),
            lambda: glm.gradient_at_predictor(inst, eta),
            lambda: glm.loss(inst, theta),
            lambda: glm.gradient(inst, theta),
            lambda: glm.hessian_quadratic_form(inst, theta, theta),
            lambda: hessian_quadratic_form_batch(inst, theta, E),
            lambda: glm.secant_form_batch(inst, E),
            lambda: glm.sigma_max(glm.ProblemInstance(np.eye(2), np.zeros(2), theta, POISSON)),
        ):
            with pytest.raises(ValueError, match="cap"):
                call()

    def test_arrays_match_scalars(self):
        etas = np.linspace(-6.0, 6.0, 41)
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            b, b1, b2 = cumulant_eval(family, etas)
            for i, eta in enumerate(etas):
                assert cumulant_eval(family, float(eta)) == (b[i], b1[i], b2[i])

    def test_convexity_everywhere_tested(self):
        rng = np.random.default_rng(7)
        etas = rng.uniform(-8, 8, size=200)
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            _, _, b2 = cumulant_eval(family, etas)
            assert np.all(b2 >= 0)

    def test_mean_function_matches_sampler(self):
        # E[y | eta] should equal b'(eta), checked by Monte Carlo per family.
        rng = np.random.default_rng(11)
        design = np.ones((10_000, 1))
        for family, eta in ((GAUSSIAN, 0.7), (LOGISTIC, 0.3), (POISSON, 0.4)):
            theta = np.array([eta])
            y = glm.sample_responses(design, theta, family, rng)
            _, b1, b2 = cumulant_eval(family, eta)
            scale = family.noise_scale if family.tag == "gaussian" else math.sqrt(b2)
            assert abs(np.mean(y) - b1) < 4 * scale / math.sqrt(10_000)


class TestSamplers:
    def test_rademacher_support(self):
        design = glm.sample_design(2, 3, "rademacher", stream(0, "d"))
        assert np.all(np.abs(design) == 1.0)

    def test_gaussian_mean_law_of_large_numbers(self):
        design = glm.sample_design(100, 100, "gaussian", stream(1, "d"))
        assert abs(design.mean()) < 4 / math.sqrt(design.size)

    def test_design_determinism(self):
        a = glm.sample_design(20, 7, "rademacher", stream(3, "d", 5))
        b = glm.sample_design(20, 7, "rademacher", stream(3, "d", 5))
        assert np.array_equal(a, b)

    def test_gaussian_zero_noise_exact(self):
        family = glm.GlmFamily("gaussian", 0.0)
        design = glm.sample_design(30, 4, "gaussian", stream(4, "d"))
        theta = np.array([1.0, -2.0, 0.0, 0.5])
        y = glm.sample_responses(design, theta, family, stream(4, "r"))
        assert np.array_equal(y, design @ theta)

    def test_logistic_mean_at_zero(self):
        design = glm.sample_design(10_000, 3, "gaussian", stream(5, "d"))
        y = glm.sample_responses(design, np.zeros(3), LOGISTIC, stream(5, "r"))
        assert abs(np.mean(y) - 0.5) < 0.02

    def test_poisson_mean_at_zero(self):
        design = glm.sample_design(10_000, 2, "rademacher", stream(6, "d"))
        y = glm.sample_responses(design, np.zeros(2), POISSON, stream(6, "r"))
        assert abs(np.mean(y) - 1.0) < 3 * math.sqrt(1.0 / 10_000)

    def test_poisson_cap_names_offending_index(self):
        design = np.ones((4, 1))
        design[2, 0] = 2.0
        with pytest.raises(ValueError, match="sample 2"):
            glm.sample_responses(design, np.array([20.0]), POISSON, stream(7, "r"))

    def test_response_determinism(self):
        design = glm.sample_design(50, 5, "gaussian", stream(8, "d"))
        theta = np.zeros(5)
        y1 = glm.sample_responses(design, theta, GAUSSIAN, stream(8, "r"))
        y2 = glm.sample_responses(design, theta, GAUSSIAN, stream(8, "r"))
        assert np.array_equal(y1, y2)


class TestLoss:
    def test_exact_fit_least_squares_form(self):
        # Eq-form check: the least-squares objective differs from the loss by
        # a theta-independent constant, so exact fits give LS value 0.
        inst = glm.ProblemInstance(np.eye(2), np.array([1.0, 0.0]), np.array([1.0, 0.0]), GAUSSIAN)
        ls = lambda th: 0.5 * np.mean((inst.responses - inst.design @ th) ** 2)
        assert ls(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
        assert ls(np.array([0.0, 0.0])) == pytest.approx(0.25, abs=1e-15)

    def test_ls_equivalence_up_to_constant(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, GAUSSIAN)
        ls = lambda th: 0.5 * np.mean((inst.responses - inst.design @ th) ** 2)
        for _ in range(20):
            t1 = rng.normal(size=inst.p)
            t2 = rng.normal(size=inst.p)
            diff_loss = glm.loss(inst, t1) - glm.loss(inst, t2)
            diff_ls = ls(t1) - ls(t2)
            assert abs(diff_loss - diff_ls) <= 1e-10

    def test_logistic_single_observation(self):
        inst = glm.ProblemInstance(np.array([[1.0]]), np.array([1.0]), np.array([0.0]), LOGISTIC)
        assert glm.loss(inst, np.array([0.0])) == pytest.approx(math.log(2.0))


class TestGradient:
    def test_zero_residual_gives_zero_gradient(self):
        design = glm.sample_design(15, 4, "gaussian", stream(10, "d"))
        theta = np.array([0.3, -0.2, 0.0, 0.1])
        for family in (glm.GlmFamily("gaussian", 0.0), LOGISTIC, POISSON):
            _, b1, _ = cumulant_eval(family, design @ theta)
            inst = glm.ProblemInstance(design, b1, theta, family)
            assert np.max(np.abs(glm.gradient(inst, theta))) < 1e-14

    def test_logistic_single_observation(self):
        inst = glm.ProblemInstance(np.array([[1.0]]), np.array([1.0]), np.array([0.0]), LOGISTIC)
        assert glm.gradient(inst, np.array([0.0]))[0] == pytest.approx(-0.5)

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(12)
        for family, tol in ((GAUSSIAN, 1e-5), (LOGISTIC, 1e-5), (POISSON, 1e-4)):
            for _ in range(10):
                inst = random_instance(rng, family)
                theta = rng.normal(scale=0.3, size=inst.p)
                g = glm.gradient(inst, theta)
                g_fd = fd_gradient(inst, theta)
                assert np.linalg.norm(g - g_fd) <= tol * max(1.0, np.linalg.norm(g))

    def test_gradient_at_truth_identity(self):
        rng = np.random.default_rng(13)
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            inst = random_instance(rng, family)
            theta = inst.theta_true
            _, b1, _ = cumulant_eval(family, inst.design @ theta)
            identity = -inst.design.T @ (inst.responses - b1) / inst.n
            assert np.max(np.abs(glm.gradient(inst, theta) - identity)) <= 1e-12


class TestHessian:
    def test_identity_design_axis_direction(self):
        inst = glm.ProblemInstance(np.eye(2), np.zeros(2), np.zeros(2), GAUSSIAN)
        assert glm.hessian_quadratic_form(inst, np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(0.5)

    def test_zero_direction(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, LOGISTIC)
        assert glm.hessian_quadratic_form(inst, np.zeros(inst.p), np.zeros(inst.p)) == 0.0

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst = random_instance(rng, LOGISTIC)
            theta = rng.normal(scale=0.3, size=inst.p)
            v = rng.normal(size=inst.p)
            q = glm.hessian_quadratic_form(inst, theta, v)
            q_fd = fd_hessian_quadratic_form(inst, theta, v)
            assert abs(q - q_fd) <= 1e-4 * max(1.0, abs(q))

    def test_nonnegativity(self):
        rng = np.random.default_rng(16)
        for family in (GAUSSIAN, LOGISTIC, POISSON):
            inst = random_instance(rng, family)
            for _ in range(20):
                v = rng.normal(size=inst.p)
                theta = rng.normal(scale=0.2, size=inst.p)
                assert glm.hessian_quadratic_form(inst, theta, v) >= 0.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng, LOGISTIC)
        theta = rng.normal(scale=0.2, size=inst.p)
        E = rng.normal(size=(inst.p, 6))
        batch = hessian_quadratic_form_batch(inst, theta, E)
        for j in range(6):
            assert batch[j] == pytest.approx(glm.hessian_quadratic_form(inst, theta, E[:, j]))

    def test_secant_batch_matches_direct(self):
        rng = np.random.default_rng(18)
        inst = random_instance(rng, LOGISTIC)
        E = rng.normal(size=(inst.p, 4))
        secants = glm.secant_form_batch(inst, E)
        for j in range(4):
            e = E[:, j]
            direct = (glm.gradient(inst, inst.theta_true + e) - glm.gradient(inst, inst.theta_true)) @ e
            assert secants[j] == pytest.approx(direct, rel=1e-10)


class TestSigmaMax:
    def test_gaussian_returns_noise_scale(self):
        rng = np.random.default_rng(19)
        inst = random_instance(rng, glm.GlmFamily("gaussian", 0.7))
        assert glm.sigma_max(inst) == 0.7

    def test_logistic_eta_zero_row(self):
        design = np.array([[0.0, 0.0], [1.0, 1.0]])
        theta = np.array([0.4, -0.4])
        inst = glm.ProblemInstance(design, np.zeros(2), theta, LOGISTIC)
        assert glm.sigma_max(inst) == pytest.approx(0.5)

    def test_poisson_rademacher_l1_bound(self):
        rng = np.random.default_rng(20)
        design = glm.sample_design(50, 6, "rademacher", rng)
        theta = np.zeros(6)
        theta[2] = 1.0
        y = glm.sample_responses(design, theta, POISSON, rng)
        inst = glm.ProblemInstance(design, y, theta, POISSON)
        assert glm.sigma_max(inst) <= math.exp(0.5) + 1e-12

    def test_upper_bound_helper(self):
        assert glm.sigma_max_upper_bound(glm.GlmFamily("gaussian", 0.3), 5.0) == 0.3
        assert glm.sigma_max_upper_bound(LOGISTIC, 5.0) == 0.5
        assert glm.sigma_max_upper_bound(POISSON, 2.0) == pytest.approx(math.e)


class TestHessianWeightLowerBound:
    def test_gaussian(self):
        assert glm.hessian_weight_lower_bound(GAUSSIAN, 17.0) == 1.0

    def test_logistic_at_zero(self):
        assert glm.hessian_weight_lower_bound(LOGISTIC, 0.0) == pytest.approx(0.25)

    def test_poisson(self):
        assert glm.hessian_weight_lower_bound(POISSON, 1.0) == pytest.approx(math.exp(-1.0))

    def test_matches_grid_minimum(self):
        c = 2.3
        etas = np.linspace(-c, c, 20_001)
        for family in (LOGISTIC, POISSON):
            _, _, b2 = cumulant_eval(family, etas)
            assert glm.hessian_weight_lower_bound(family, c) == pytest.approx(np.min(b2), rel=1e-6)


GRAM_P = 20
GRAM_ROWS = 32  # rows of length GRAM_P per block under the small budget


def gram_twin(n, ensemble, noise_scale=0.5, seed=21, sample=glm.sample_instance):
    """One draw, twice: the sampled instance, and the design instance of the same streams drawn at once."""
    theta = np.zeros(GRAM_P)
    theta[[2, 9, 15]] = (1.0, -0.5, 0.25)
    family = glm.GlmFamily("gaussian", noise_scale)
    sampled = sample(n, ensemble, theta, family, stream(seed, "d", n), stream(seed, "r", n))
    design = glm.sample_design(n, GRAM_P, ensemble, stream(seed, "d", n))
    responses = glm.sample_responses(design, theta, family, stream(seed, "r", n))
    return sampled, glm.ProblemInstance(design, responses, theta, family)


def assert_close(a, b, rtol=1e-12):
    assert np.linalg.norm(np.subtract(a, b)) <= rtol * np.linalg.norm(b)


def assert_oracles_match(gram, design, seed):
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(GRAM_P, 3 * GRAM_ROWS + 5))
    assert_close(glm.secant_form_batch(gram, E), glm.secant_form_batch(design, E))
    for _ in range(5):
        theta = rng.normal(size=GRAM_P)
        assert_close(glm.loss(gram, theta), glm.loss(design, theta))
        assert_close(glm.gradient(gram, theta), glm.gradient(design, theta))
        v = rng.normal(size=GRAM_P)
        assert_close(glm.hessian_quadratic_form(gram, theta, v), glm.hessian_quadratic_form(design, theta, v))


# more Gram instances summed over the rows of their design streams: n = p on a
# gaussian design, and a Rademacher design at and above p (both keep their
# design in the library)
ROW_BLOCK_CASES = ((GRAM_P, "gaussian"), (GRAM_P, "rademacher"), (2 * GRAM_P + 5, "rademacher"),
                   (7 * GRAM_ROWS + 9, "rademacher"))
WISHART_NS = (GRAM_P + 1, 2 * GRAM_P + 5, 7 * GRAM_ROWS + 9)


class TestGramInstance:
    """A gaussian trial on a gaussian design with n > p is held by ``A^T A / n``
    and its shift, drawn from their Wishart law.  It shares no draw with a
    design, so the row-block oracle, whose oracles agree with the design
    instance of the same draw, stands in for it."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", GRAM_P * GRAM_ROWS)

    @pytest.mark.parametrize(
        "n, ensemble",
        [pytest.param(n, "gaussian", id=str(n)) for n in WISHART_NS[1:]]
        + [pytest.param(n, ensemble, id=f"{n}-{ensemble}") for n, ensemble in ROW_BLOCK_CASES],
    )
    def test_row_block_oracle_matches_the_design(self, n, ensemble):
        # a Wishart draw has no design; the Gram instance of one stands in for it
        gram, design = gram_twin(n, ensemble, sample=row_block_gram_instance)
        assert (gram.n, gram.p) == (n, GRAM_P)
        assert_oracles_match(gram, design, n)

    @pytest.mark.parametrize("ensemble", glm.ENSEMBLES)
    def test_gradient_at_truth_is_zero_without_noise(self, ensemble):
        # a Wishart draw on a gaussian design; a Rademacher design keeps its design
        gram, _ = gram_twin(7 * GRAM_ROWS + 9, ensemble, noise_scale=0.0)
        assert np.all(glm.gradient(gram, gram.theta_true) == 0.0)

    @pytest.mark.parametrize("ensemble", glm.ENSEMBLES)
    @pytest.mark.parametrize("n", (1, 31, 33, 64, 65, 7 * GRAM_ROWS + 9))
    def test_blocked_draws_equal_one_draw(self, ensemble, n):
        theta = np.linspace(-1.0, 1.0, GRAM_P)
        d_rng, r_rng = stream(22, "d"), stream(22, "r")
        rows = [glm.sample_design(b.stop - b.start, GRAM_P, ensemble, d_rng) for b in geometry.blocks(n, GRAM_P)]
        noise = [glm.sample_responses(A, theta, GAUSSIAN, r_rng) - A @ theta for A in rows]
        design = glm.sample_design(n, GRAM_P, ensemble, stream(22, "d"))
        responses = glm.sample_responses(design, theta, GAUSSIAN, stream(22, "r"))
        assert np.array_equal(np.vstack(rows), design)
        assert np.array_equal(np.concatenate(noise), responses - design @ theta)

    @pytest.mark.parametrize("n", WISHART_NS)
    def test_wishart_gram_is_exactly_symmetric(self, n):
        gram, _ = gram_twin(n, "gaussian")
        assert np.array_equal(gram.gram, gram.gram.T)

    def test_wishart_draw_reads_the_design_stream_alone(self):
        theta = np.linspace(-1.0, 1.0, GRAM_P)
        a = glm.sample_instance(10**6, "gaussian", theta, GAUSSIAN, stream(24, "d"), stream(24, "r"))
        b = glm.sample_instance(10**6, "gaussian", theta, GAUSSIAN, stream(24, "d"), stream(25, "r"))
        assert np.array_equal(a.gram, b.gram) and np.array_equal(a.shift, b.shift)
        assert a.loss_at_truth == b.loss_at_truth

    def test_other_trials_keep_their_design(self):
        theta = np.zeros(GRAM_P)
        theta[0] = 0.5
        for n, ensemble, family in (
            (GRAM_P - 1, "rademacher", GAUSSIAN),
            (GRAM_P, "gaussian", GAUSSIAN),
            (4 * GRAM_P, "rademacher", GAUSSIAN),
            (4 * GRAM_P, "rademacher", LOGISTIC),
            (4 * GRAM_P, "rademacher", POISSON),
        ):
            inst = glm.sample_instance(n, ensemble, theta, family, stream(23, "d"), stream(23, "r"))
            design = glm.sample_design(n, GRAM_P, ensemble, stream(23, "d"))
            assert isinstance(inst, glm.ProblemInstance) and np.array_equal(inst.design, design)
            assert np.array_equal(inst.responses, glm.sample_responses(design, theta, family, stream(23, "r")))


class TestWishartDraw:
    """The Wishart draw of a gaussian trial has the law of the row-block oracle's sums."""

    DRAWS = 3000

    @staticmethod
    def statistics(instance):
        return np.concatenate([instance.gram.ravel(), instance.shift, [instance.loss_at_truth]])

    @pytest.mark.parametrize("n", (4, 50))
    def test_moments_match_the_row_block_oracle(self, n):
        theta = np.array([1.0, -0.5, 0.25])
        draws = [
            np.array([self.statistics(sample(n, "gaussian", theta, GAUSSIAN, d_rng, r_rng)) for _ in range(self.DRAWS)])
            for sample, d_rng, r_rng in (
                (glm.sample_instance, stream(31, "w", n), stream(31, "unused", n)),
                (row_block_gram_instance, stream(31, "d", n), stream(31, "r", n)),
            )
        ]
        means = [x.mean(axis=0) for x in draws]
        variances = [x.var(axis=0, ddof=1) for x in draws]
        # stderr of a sample variance from the fourth central moment
        var_se2 = [(np.mean((x - m) ** 4, axis=0) - v**2) / self.DRAWS for x, m, v in zip(draws, means, variances)]
        mean_se = np.sqrt((variances[0] + variances[1]) / self.DRAWS)
        assert np.all(np.abs(means[0] - means[1]) <= 4 * mean_se)
        assert np.all(np.abs(variances[0] - variances[1]) <= 4 * np.sqrt(var_se2[0] + var_se2[1]))
