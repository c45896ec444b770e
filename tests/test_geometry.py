"""Cone geometry: projections, Moreau decomposition, width estimators."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conewidth import geometry
from conewidth.cli import load_config
from conewidth.geometry import (
    ConvergenceError,
    FeasibleSet,
    WidthEstimate,
    descent_cone,
    gaussian_width_cone,
    global_width_l1,
    lmo_l1_ball,
    localized_width,
    project_l1_ball,
    project_onto_descent_cone,
)
from conewidth.experiment import sweep_truth
from conewidth.rng import stream

from oracles import (
    cone_at_pattern,
    cone_margin,
    cone_projection_angle_oracle,
    cone_width_rejection_oracle,
    expected_abs_max,
    feasible_margin,
    full_width_polar_tau,
    full_width_project_batch,
    golden_section_sup_rows,
    grid_min_distance_l1_ball,
    polar_distance_sq,
    project_feasible,
    sup_linear_over_localized_set,
    sup_localized_p2_oracle,
    water_level_bisection,
)

SHIPPED_MATCHED = Path(__file__).resolve().parents[1] / "configs" / "matched.cfg"
SHIPPED_MISMATCHED = Path(__file__).resolve().parents[1] / "configs" / "mismatched.cfg"


def sup_rows(H, fset, t, **kwargs):
    """The localized root-find at the one radius t, per row of H."""
    return geometry._sup_localized_dual_rows(H, fset, (t,), **kwargs)[:, 0]


def random_cone(rng, p=None):
    p = p or int(rng.integers(2, 30))
    s = int(rng.integers(1, p + 1))
    support = rng.choice(p, size=s, replace=False)
    signs = 2.0 * rng.integers(0, 2, size=s).astype(float) - 1.0
    return cone_at_pattern(support, signs, p)


class TestProjectL1Ball:
    def test_axis_point(self):
        assert np.allclose(project_l1_ball(np.array([2.0, 0.0]), 1.0), [1.0, 0.0])

    def test_interior_point_unchanged(self):
        assert np.allclose(project_l1_ball(np.array([1.0, 1.0]), 2.0), [1.0, 1.0])

    def test_derived_example_against_grid(self):
        x = np.array([3.0, 1.0])
        proj = project_l1_ball(x, 2.0)
        oracle = grid_min_distance_l1_ball(x, 2.0)
        assert np.linalg.norm(proj - oracle) < 5e-3
        assert np.allclose(proj, [2.0, 0.0], atol=1e-12)

    def test_feasibility_and_optimality_vs_random_points(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = int(rng.integers(2, 15))
            c = float(rng.uniform(0.5, 3.0))
            x = rng.normal(scale=2.0, size=p)
            proj = project_l1_ball(x, c)
            assert np.sum(np.abs(proj)) <= c + 1e-10
            d_proj = np.linalg.norm(proj - x)
            # any feasible point must be at least as far from x
            Z = rng.normal(size=(1000, p))
            Z *= (c * rng.random(1000) / np.maximum(np.sum(np.abs(Z), axis=1), 1e-12))[:, None]
            assert np.all(np.linalg.norm(Z - x[None, :], axis=1) >= d_proj - 1e-10)

    def test_rows_variant_matches_vector(self):
        rng = np.random.default_rng(22)
        X = rng.normal(scale=2.0, size=(40, 7))
        rows = geometry.project_l1_ball_rows(X, 1.3)
        for i in range(40):
            assert np.array_equal(rows[i], project_l1_ball(X[i], 1.3))

    @settings(max_examples=300)
    @given(data=st.data())
    def test_vector_equals_rows_kernel_bit_for_bit(self, data):
        """The single-vector projection evaluates the rows kernel's formula in
        scalar arithmetic and must give its row bit for bit: at p up to 300,
        for c over six decades, on points inside the ball, on entries drawn
        from a few magnitudes (exact ties, also across signs) and on zeros."""
        p = data.draw(st.integers(1, 300), label="p")
        c = data.draw(st.floats(1e-3, 1e3), label="c")
        magnitudes = data.draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=4), label="magnitudes")
        # each entry is 0, +-one of the magnitudes, or a free draw, in proportions hypothesis picks
        weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=3, max_size=3), label="weights")) + 1e-3
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        tied = rng.choice(magnitudes, size=p) * rng.choice([-1.0, 1.0], size=p)
        free = rng.uniform(-1e3, 1e3, size=p) * 10.0 ** rng.uniform(-6, 0, size=p)
        kind = rng.choice(3, size=p, p=weights / weights.sum())
        x = np.where(kind == 0, 0.0, np.where(kind == 1, tied, free))
        norm1 = float(np.sum(np.abs(x)))
        if data.draw(st.booleans(), label="inside") and norm1 > 0:
            x = x / norm1 * (0.5 * c)
        vector = project_l1_ball(x, c)
        assert vector.tobytes() == geometry.project_l1_ball_rows(x[None, :], c)[0].tobytes()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_vector_equals_rows_kernel_on_a_nonfinite_entry(self, bad):
        # no index passes the count; the kernel's level -c/0 clips to 0
        x = np.array([0.5, bad, -2.0])
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = geometry.project_l1_ball_rows(x[None, :], 1.0)[0]
            assert project_l1_ball(x, 1.0).tobytes() == rows.tobytes()

    @settings(max_examples=500)
    @given(data=st.data())
    def test_projection_optimality(self, data):
        """Duchi et al. (2008): x is its own projection inside the ball; outside,
        P lies on the sphere ``||P||_1 = c`` and satisfies the variational
        inequality ``<x - P, z - P> <= 0`` for every z in the ball, whose
        worst case ``z = c sign(x - P)_i e_i`` gives ``c ||x - P||_inf <= <x - P, P>``.
        c ranges over [0.05, 2] ||x||_1, where the rounding of ``|x_i| - lam``
        (about eps ||x||_inf) stays below the 1e-12 c tolerance."""
        p = data.draw(st.integers(1, 12), label="p")
        x = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p), label="x"))
        norm1 = float(np.sum(np.abs(x)))
        c = data.draw(st.floats(0.05, 2.0), label="ratio") * (norm1 if norm1 > 0 else 1.0)
        proj = geometry.project_l1_ball_rows(x[None, :], c)[0]
        if norm1 <= c:
            assert np.array_equal(proj, x)
            return
        assert abs(float(np.sum(np.abs(proj))) - c) <= 1e-12 * c
        resid = x - proj
        assert c * float(np.max(np.abs(resid))) <= float(resid @ proj) + 1e-12 * c * float(np.max(np.abs(x)))


class TestLmo:
    def test_basic(self):
        assert np.allclose(lmo_l1_ball(np.array([3.0, -1.0]), 2.0), [-2.0, 0.0])

    def test_negative_entry(self):
        assert np.allclose(lmo_l1_ball(np.array([0.0, -5.0]), 1.0), [0.0, 1.0])

    def test_tie_breaks_to_lowest_index(self):
        assert np.allclose(lmo_l1_ball(np.array([1.0, 1.0]), 1.0), [-1.0, 0.0])

    def test_minimizes_linear_functional(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            g = rng.normal(size=6)
            s = lmo_l1_ball(g, 1.7)
            Z = rng.normal(size=(500, 6))
            Z *= (1.7 / np.sum(np.abs(Z), axis=1))[:, None]
            assert g @ s <= np.min(Z @ g) + 1e-12


class TestDescentCone:
    def test_membership_examples(self):
        cone = descent_cone(np.array([1.0, 0.0]))
        assert cone_margin(cone, np.array([-1.0, 0.5])) <= 0.0
        assert cone_margin(cone, np.array([0.0, 1.0])) > 0.0

    def test_signs_and_support(self):
        cone = descent_cone(np.array([-2.0, 0.0, 0.0]))
        assert cone.support.tolist() == [0]
        assert cone.signs.tolist() == [-1.0]

    @settings(max_examples=200)
    @given(st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=1, max_size=20))
    def test_pattern_of_theta(self, entries):
        """Sorted support, its signs, and an off-support that holds every other index."""
        theta = np.array(entries)
        assume(np.any(theta != 0.0))
        cone = descent_cone(theta)
        assert np.array_equal(cone.support, np.flatnonzero(theta))
        assert np.all(np.diff(cone.support) > 0)
        assert np.array_equal(cone.signs, np.sign(theta[cone.support]))
        assert np.all(np.abs(cone.signs) == 1.0)
        assert np.all(theta[cone._off_support] == 0.0)
        assert np.array_equal(np.sort(np.concatenate([cone.support, cone._off_support])), np.arange(theta.size))
        assert cone.ambient_dim == theta.size


class TestConeProjection:
    def test_polar_direction_annihilated(self):
        cone = descent_cone(np.array([1.0, 0.0]))
        proj, norm = project_onto_descent_cone(cone, np.array([1.0, 0.0]))
        assert norm == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(proj, 0.0, atol=1e-12)

    def test_cone_member_fixed(self):
        cone = descent_cone(np.array([1.0, 0.0]))
        proj, norm = project_onto_descent_cone(cone, np.array([-1.0, 0.0]))
        assert norm == pytest.approx(1.0)
        assert np.allclose(proj, [-1.0, 0.0], atol=1e-12)

    def test_derived_example(self):
        cone = descent_cone(np.array([1.0, 0.0]))
        proj, norm = project_onto_descent_cone(cone, np.array([0.0, 1.0]))
        assert np.allclose(proj, [-0.5, 0.5], atol=1e-10)
        assert norm == pytest.approx(math.sqrt(0.5), abs=1e-10)

    def test_against_angle_oracle_p2(self):
        rng = np.random.default_rng(24)
        for theta in (np.array([1.0, 0.0]), np.array([-0.5, 0.0]), np.array([2.0, -1.0])):
            cone = descent_cone(theta)
            for _ in range(15):
                h = rng.normal(size=2) * rng.uniform(0.5, 3.0)
                proj, norm = project_onto_descent_cone(cone, h)
                oracle_proj, oracle_norm = cone_projection_angle_oracle(cone, h)
                assert norm == pytest.approx(oracle_norm, abs=1e-4)
                assert np.linalg.norm(proj - oracle_proj) < 1e-4

    def test_moreau_decomposition(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            cone = random_cone(rng)
            h = rng.normal(size=cone.ambient_dim) * rng.uniform(0.1, 5.0)
            proj, norm = project_onto_descent_cone(cone, h)
            polar = h - proj
            assert abs(proj @ polar) <= 1e-8
            assert abs(h @ h - proj @ proj - polar @ polar) <= 1e-8
            # projection lands in the cone, and is optimal among cone members
            assert cone_margin(cone, proj) <= 1e-9
            assert abs((h - proj) @ proj) <= 1e-8

    @settings(max_examples=300)
    @given(data=st.data())
    def test_moreau_split_property(self, data):
        """h = P + U with P = P_K(h) in the cone, U in its polar and <P, U> = 0.

        The polar part is ``tau sign`` on the support and at most tau in
        magnitude off it, for the one tau >= 0 that the projection found.
        """
        p = data.draw(st.integers(1, 12), label="p")
        s = data.draw(st.integers(1, p), label="s")
        support = np.array(data.draw(st.permutations(range(p)), label="order")[:s])
        signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=s, max_size=s), label="signs"))
        cone = cone_at_pattern(support, signs, p)
        h = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=p, max_size=p), label="h"))
        P = cone.project_batch(h[None, :])[0][0]
        # checked in units of h's largest entry, an exact power-of-two rescaling:
        # at h ~ 1e-285 the norm and the products below would underflow to 0
        unit = 2.0 ** -np.frexp(np.max(np.abs(h)))[1]
        h, P = h * unit, P * unit
        U = h - P
        scale = float(np.linalg.norm(h))
        tol = 1e-12 * scale
        assert abs(float(P @ U)) <= tol * scale
        assert cone_margin(cone, P) <= tol
        on_support = U[support] * signs
        tau = float(on_support[0])
        assert tau >= -tol
        assert np.all(np.abs(on_support - tau) <= tol)
        off = np.delete(U, support)
        assert np.all(np.abs(off) <= tau + tol)

    def test_projection_commutes_with_power_of_two_scaling(self):
        # scaling by 2^k is exact, so a scale-free search returns the scaled projection bit for bit
        rng = np.random.default_rng(28)
        for _ in range(100):
            cone = random_cone(rng, p=int(rng.integers(1, 13)))
            H = rng.normal(size=(4, cone.ambient_dim))
            proj, norms = cone.project_batch(H)
            for scale in (2.0**-100, 2.0**-45, 2.0**60):
                scaled, scaled_norms = cone.project_batch(scale * H)
                assert np.array_equal(scaled, scale * proj)
                assert np.array_equal(scaled_norms, scale * norms)

    def test_polar_tau_is_a_minimum(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            cone = random_cone(rng, p=12)
            H = rng.normal(size=(1, 12)) * rng.uniform(0.2, 4.0)
            tau = geometry._polar_tau_batch(cone, H, geometry.BlockBuffers())
            base = polar_distance_sq(cone, H, tau)
            for delta in (1e-7, -1e-7, 1e-3, -1e-3):
                shifted = np.maximum(tau + delta, 0.0)
                assert polar_distance_sq(cone, H, shifted) >= base - 1e-12

    def test_projection_beats_cone_members(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            cone = random_cone(rng, p=6)
            h = rng.normal(size=6)
            proj, _ = project_onto_descent_cone(cone, h)
            d = np.linalg.norm(h - proj)
            # random cone members: project random vectors, keep them
            Z = rng.normal(size=(400, 6))
            members, _ = cone.project_batch(Z)
            dists = np.linalg.norm(members - h[None, :], axis=1)
            assert np.all(dists >= d - 1e-9)


def shipped_matched_cone():
    theta, _ = sweep_truth(load_config(str(SHIPPED_MATCHED)))
    return descent_cone(theta)


class TestWaterLevel:
    @settings(max_examples=400)
    @given(data=st.data())
    def test_against_bisection(self, data):
        """The kernel in the three forms its callers use: offset 0 with a scalar
        target below 0 (the l1 ball), a scalar support size with a target per
        row (the polar tau), and a count per row, 0 included, with a target
        per row (the localized threshold).  Entries tie and include exact
        zeros; a row may have one column."""
        rows = data.draw(st.integers(1, 4), label="rows")
        q = data.draw(st.integers(1, 10), label="columns")
        entries = st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 10.0)
        a = np.array(data.draw(st.lists(entries, min_size=rows * q, max_size=rows * q), label="a"))
        a = -np.sort(-a.reshape(rows, q), axis=1)
        top = a[:, 0]
        # target = fraction * max(a) <= offset * max(a), so the root lies in [0, max(a)]
        fractions = st.floats(-2.0 * (q + 1), 1.0)
        form = data.draw(st.sampled_from(["ball", "cone", "localized"]), label="form")
        if form == "ball":
            offset = 0
            target = -data.draw(st.floats(0.05, 2.0 * (q + 1)), label="c") * max(float(top.max()), 1.0)
        elif form == "cone":
            offset = data.draw(st.integers(1, 6), label="support")
            target = np.array(data.draw(st.lists(fractions, min_size=rows, max_size=rows), label="t"))[:, None]
            target = target * top[:, None]
        else:
            offset = np.array(data.draw(st.lists(st.integers(0, 6), min_size=rows, max_size=rows), label="k"))[:, None]
            t = np.array(data.draw(st.lists(fractions, min_size=rows, max_size=rows), label="t"))[:, None]
            target = np.where(offset == 0, -(np.abs(t) + 0.05) * np.maximum(top[:, None], 1.0), t * top[:, None])
        level = geometry._water_level(a.copy(), offset, target)
        offsets, targets = np.broadcast_to(offset, (rows, 1))[:, 0], np.broadcast_to(target, (rows, 1))[:, 0]
        for row, off, tgt, x in zip(a, offsets, targets, level):
            assert abs(x - water_level_bisection(row, off, tgt)) <= 1e-12 * row[0]


class TestPolarTauCount:
    """The counted tau against the self-consistent segment search, bit for bit."""

    def assert_same_as_full_width(self, cone, H):
        tau = geometry._polar_tau_batch(cone, H, geometry.BlockBuffers())
        assert np.array_equal(tau, full_width_polar_tau(cone, H))
        proj, norms = cone.project_batch(H)
        ref_proj, ref_norms = full_width_project_batch(cone, H)
        assert np.array_equal(proj, ref_proj)
        assert np.array_equal(norms, ref_norms)
        return tau

    def test_matches_full_width_at_large_p(self):
        self.assert_same_as_full_width(shipped_matched_cone(), stream(80, "H").standard_normal((3000, 200)))
        rng = np.random.default_rng(81)
        for p in (100, 150, 400):
            cone = random_cone(rng, p=p)
            H = rng.standard_normal((500, p)) * rng.uniform(0.1, 10.0, size=(500, 1))
            self.assert_same_as_full_width(cone, H)

    def test_rows_past_the_window(self):
        cone = shipped_matched_cone()
        H = stream(82, "H").standard_normal((400, 200))
        # on-support entries against the sign pull tau below the 64th magnitude,
        # where many segments lie above the one the count picks
        H[:, cone.support] = -cone.signs * stream(82, "depth").uniform(15.0, 30.0, size=(400, 1))
        tau = self.assert_same_as_full_width(cone, H)
        magnitudes = np.sort(np.abs(H[:, cone._off_support]), axis=1)[:, ::-1]
        past = (tau > 0) & (tau < magnitudes[:, 63])
        assert np.count_nonzero(past) >= 300

    def test_rows_with_zero_tau(self):
        cone = shipped_matched_cone()
        H = stream(83, "H").standard_normal((200, 200))
        H[:, cone.support] = -cone.signs * 1e3
        tau = self.assert_same_as_full_width(cone, H)
        assert np.all(tau == 0.0)
        proj, _ = cone.project_batch(H)  # these rows lie in the cone
        assert np.array_equal(proj, H)

    def test_every_window_position(self):
        # one row per segment index: tau lands in segment k of a known sort
        cone = cone_at_pattern([0], [1.0], 101)
        a = np.linspace(10.0, 0.1, 100)
        rows = []
        for k in range(101):
            lower = a[k] if k < 100 else 0.0
            upper = a[k - 1] if k > 0 else 20.0
            target = 0.5 * (lower + upper)
            rows.append(np.concatenate([[target * (1 + k) - a[:k].sum()], a]))
        H = np.array(rows)
        tau = self.assert_same_as_full_width(cone, H)
        segment = np.sum(a[None, :] > tau[:, None], axis=1)
        assert np.array_equal(segment, np.arange(101))

    @settings(max_examples=400)
    @given(data=st.data())
    def test_ties_on_a_coarse_grid(self, data):
        """h on a 1/3 grid, so magnitudes tie and tau can sit exactly on a breakpoint.

        There the count can pick the segment after the one the segment
        search picks; both give the same tau in exact arithmetic, so the two
        agree to rounding, and tau still minimizes the polar distance and
        gives the Moreau split.
        """
        p = data.draw(st.integers(1, 12), label="p")
        s = data.draw(st.integers(1, p), label="s")
        support = np.array(data.draw(st.permutations(range(p)), label="order")[:s])
        signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=s, max_size=s), label="signs"))
        cone = cone_at_pattern(support, signs, p)
        steps = data.draw(st.lists(st.integers(-6, 6), min_size=p, max_size=p), label="h")
        H = np.array(steps, dtype=float)[None, :] / 3.0
        scale = float(np.max(np.abs(H)))
        eps = np.finfo(float).eps
        tau = geometry._polar_tau_batch(cone, H, geometry.BlockBuffers())
        assert abs(tau[0] - full_width_polar_tau(cone, H)[0]) <= 2.0 * eps * scale
        # a convex piecewise quadratic: no breakpoint and no nearby tau does better
        candidates = np.concatenate([[0.0], np.abs(H[0]), np.maximum(tau + [-1e-6, 1e-6], 0.0)])
        distances = polar_distance_sq(cone, np.repeat(H, candidates.size, axis=0), candidates)
        assert polar_distance_sq(cone, H, tau)[0] <= np.min(distances) + 1e-12 * max(1.0, scale**2)
        P = cone.project_batch(H)[0][0]
        U = H[0] - P
        tol = 4.0 * eps * max(1.0, scale) * p
        assert abs(float(P @ U)) <= tol * max(1.0, scale)
        assert cone_margin(cone, P) <= tol
        assert np.all(np.abs(U[support] * signs - tau[0]) <= tol)
        assert np.all(np.abs(np.delete(U, support)) <= tau[0] + tol)



def same_bits(a, b):
    """Equal bit for bit, so that -0.0 differs from 0.0 and a NaN equals the same NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestConeKernelSpecialValues:
    """The cone kernel on tied magnitudes, signed zeros, infinities and NaN.

    The kernel sorts the off-support magnitudes into a contiguous descending
    array by negating, sorting and negating back, so a NaN sorts last,
    below every magnitude (a reversed ascending sort put it first).  Such a
    row still gets a finite tau from its other entries, and its projection
    and norm are NaN.
    """

    cone = cone_at_pattern([1, 4, 7], [1.0, -1.0, 1.0], 12)

    def finite_block(self, seed):
        rng = stream(85, "special", seed)
        # magnitudes tie on a half-integer grid, where rounding also leaves -0.0
        H = np.round(rng.standard_normal((300, 12)) * 2.0) / 2.0
        H[rng.random(H.shape) < 0.1] = -0.0
        H[rng.random(H.shape) < 0.1] = 0.0
        H[:5] = 0.0
        H[5:10] = -0.0
        return H

    @pytest.mark.parametrize("seed", range(3))
    def test_ties_and_signed_zeros_keep_the_oracle_bits(self, seed):
        H = self.finite_block(seed)
        assert np.any(H.view(np.int64) == np.float64(-0.0).view(np.int64))
        proj, norms = self.cone.project_batch(H)
        ref_proj, ref_norms = full_width_project_batch(self.cone, H)
        assert same_bits(proj, ref_proj)
        assert same_bits(norms, ref_norms)
        tau = geometry._polar_tau_batch(self.cone, H, geometry.BlockBuffers())
        assert same_bits(tau, full_width_polar_tau(self.cone, H))

    @pytest.mark.parametrize("special", [math.inf, -math.inf, math.nan])
    def test_non_finite_rows_leave_the_others_alone(self, special):
        H = self.finite_block(7)
        bad = np.zeros(H.shape[0], dtype=bool)
        bad[::7] = True
        cols = stream(86, "special", "cols").integers(0, 12, size=H.shape[0])
        H[bad, cols[bad]] = special
        # support entries of opposite signs make <h_S, sign> = inf - inf, a NaN tau
        H[3::14, [1, 4]] = special
        bad[3::14] = True
        with np.errstate(invalid="ignore"):
            proj, norms = self.cone.project_batch(H)
            ref_proj, ref_norms = full_width_project_batch(self.cone, H)
        assert same_bits(proj, ref_proj)
        assert same_bits(norms, ref_norms)
        # a non-finite entry gives a non-finite norm, never a finite stand-in
        assert not np.any(np.isfinite(norms[bad]))
        if math.isnan(special):
            assert np.all(np.isnan(norms[bad]))

    def test_nan_off_the_support_sorts_last(self):
        # the NaN takes no part in the count, so tau is that of the row without its coordinate
        rng = stream(87, "special", "nan")
        for _ in range(200):
            h = np.round(rng.standard_normal(12) * 2.0) / 2.0
            j = int(rng.choice(self.cone._off_support))
            h[j] = math.nan
            keep = np.delete(np.arange(12), j)
            smaller = cone_at_pattern([int(np.flatnonzero(keep == i)[0]) for i in (1, 4, 7)], [1.0, -1.0, 1.0], 11)
            tau = geometry._polar_tau_batch(self.cone, h[None, :], geometry.BlockBuffers())
            assert np.isfinite(tau[0])
            assert same_bits(tau, geometry._polar_tau_batch(smaller, h[None, keep], geometry.BlockBuffers()))
            with np.errstate(invalid="ignore"):
                assert math.isnan(self.cone.project_batch(h[None, :])[1][0])


class TestConeKernelBuffers:
    """Buffers shared across a call's blocks change no bit, and never the caller's rows."""

    def test_shared_buffers_give_the_fresh_bits(self):
        cone = shipped_matched_cone()
        rng = stream(88, "buffers")
        buffers = geometry.BlockBuffers()
        # the third block is longer than the first two, so the buffers grow once
        for rows in (320, 160, 351, 1):
            H = rng.standard_normal((rows, 200))
            before = H.copy()
            proj, norms = cone.project_batch(H, buffers)
            fresh_proj, fresh_norms = cone.project_batch(H)
            ref_proj, ref_norms = full_width_project_batch(cone, H)
            assert same_bits(H, before)
            assert same_bits(proj, fresh_proj) and same_bits(norms, fresh_norms)
            assert same_bits(proj, ref_proj) and same_bits(norms, ref_norms)

    def test_projection_leaves_the_gradient_alone(self):
        cone = shipped_matched_cone()
        g = stream(89, "gradient").standard_normal(200)
        before = g.copy()
        proj, norm = project_onto_descent_cone(cone, g)
        assert same_bits(g, before)
        assert not np.shares_memory(proj, g)
        ref_proj, ref_norms = full_width_project_batch(cone, g[None, :])
        assert same_bits(proj, ref_proj[0]) and norm == ref_norms[0]

    def test_buffers_reuse_and_grow(self):
        buffers = geometry.BlockBuffers()
        first = buffers.take("a", 4, 5)
        assert first.shape == (4, 5) and first.flags.c_contiguous
        assert np.shares_memory(buffers.take("a", 2, 3), first)
        assert np.shares_memory(buffers.take("a", 4, 5), first)
        assert not np.shares_memory(buffers.take("b", 4, 5), first)
        grown = buffers.take("a", 5, 5)
        assert grown.shape == (5, 5) and not np.shares_memory(grown, first)


def _gaussian_tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def l1_descent_dimension_bound(p, s, tau):
    """``J(tau) = E dist^2(g, tau * subdiff ||.||_1)`` at an s-sparse point of R^p."""
    density = math.exp(-0.5 * tau * tau) / math.sqrt(2.0 * math.pi)
    return s * (1.0 + tau * tau) + 2.0 * (p - s) * ((1.0 + tau * tau) * _gaussian_tail(tau) - tau * density)


class TestStatisticalDimension:
    def test_mean_square_projection_in_band(self):
        # Amelunxen, Lotz, McCoy & Tropp 2014, Thm 4.3:
        # delta <= inf_tau J(tau) <= delta + 2 sqrt(p) / (||theta||_1 / ||theta||_2)
        theta, _ = sweep_truth(load_config(str(SHIPPED_MATCHED)))
        p, s = theta.size, int(np.count_nonzero(theta))
        lo, hi = 0.0, 10.0  # J is convex in tau
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if l1_descent_dimension_bound(p, s, m1) <= l1_descent_dimension_bound(p, s, m2):
                hi = m2
            else:
                lo = m1
        inf_j = l1_descent_dimension_bound(p, s, 0.5 * (lo + hi))
        slack = 2.0 * math.sqrt(p) / (np.sum(np.abs(theta)) / np.linalg.norm(theta))
        _, norms = descent_cone(theta).project_batch(stream(84, "delta").standard_normal((20_000, p)))
        squares = norms**2
        mean = float(np.mean(squares))
        se = float(np.std(squares, ddof=1) / math.sqrt(squares.size))
        assert inf_j - slack - 3.0 * se <= mean <= inf_j + 3.0 * se


class TestWidthEstimators:
    def test_line_cone(self):
        class Line:
            ambient_dim = 4

            def project_batch(self, H, buffers=None):
                proj = np.zeros_like(H)
                proj[:, 0] = H[:, 0]
                return proj, np.abs(H[:, 0])

        w = gaussian_width_cone(Line(), 20_000, stream(27, "w"))
        assert abs(w.mean - math.sqrt(2.0 / math.pi)) <= 3 * w.stderr

    def test_full_space_p2(self):
        class Full:
            ambient_dim = 2

            def project_batch(self, H, buffers=None):
                return H, np.linalg.norm(H, axis=1)

        w = gaussian_width_cone(Full(), 20_000, stream(28, "w"))
        assert abs(w.mean - math.sqrt(math.pi / 2.0)) <= 3 * w.stderr

    def test_descent_cone_vs_rejection_oracle_p2(self):
        cone = descent_cone(np.array([1.0, 0.0]))
        w = gaussian_width_cone(cone, 20_000, stream(29, "w"))
        rng = np.random.default_rng(30)
        sups = cone_width_rejection_oracle(cone, 20_000, 4000, rng)
        oracle_mean = float(np.mean(sups))
        oracle_stderr = float(np.std(sups, ddof=1) / math.sqrt(sups.size))
        assert abs(w.mean - oracle_mean) <= 3 * math.hypot(w.stderr, oracle_stderr)

    def test_scale_freeness(self):
        theta = np.array([0.0, 1.5, 0.0, -0.2, 0.0])
        cone, scaled = descent_cone(theta), descent_cone(3.0 * theta)
        assert np.array_equal(cone.support, scaled.support) and np.array_equal(cone.signs, scaled.signs)
        w1 = gaussian_width_cone(cone, 5000, stream(31, "w"))
        w2 = gaussian_width_cone(scaled, 5000, stream(31, "w"))
        assert w1 == w2

    def test_sparsity_width_bound(self):
        rng = stream(32, "w")
        p, s = 100, 2
        theta = np.zeros(p)
        theta[:s] = 1.0
        w = gaussian_width_cone(descent_cone(theta), 8000, rng)
        limit = 2 * s * math.log(p / s) + 1.5 * s + 4 * w.stderr * w.mean
        assert w.mean**2 <= limit

    def test_width_estimate_validation(self):
        w = WidthEstimate.from_samples(np.array([1.0, 2.0, 3.0]))
        assert w.stderr >= 0.0 and w.samples == 3


class TestFeasibleSet:
    def test_outer_radius_is_farthest_vertex(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            p = int(rng.integers(1, 12))
            theta = rng.normal(size=p) * (rng.random(p) < 0.5)
            c = float(np.sum(np.abs(theta))) + float(rng.uniform(0.0, 2.0)) + 0.1
            fset = FeasibleSet(theta, c)
            vertices = np.concatenate([c * np.eye(p), -c * np.eye(p)]) - theta
            assert fset.outer_radius == pytest.approx(np.max(np.linalg.norm(vertices, axis=1)), rel=1e-12)
            points = fset.project_rows(rng.normal(scale=3.0 * c, size=(200, p)))
            assert np.all(np.linalg.norm(points, axis=1) <= fset.outer_radius * (1 + 1e-12))

    def test_projection_into_set(self):
        fset = FeasibleSet(np.array([0.5, -0.5]), 2.0)
        rng = np.random.default_rng(33)
        for _ in range(20):
            v = project_feasible(fset, rng.normal(scale=3.0, size=2))
            assert feasible_margin(fset, v) <= 1e-10


class TestSupLinearLocalized:
    def test_interval_cases(self):
        fset = FeasibleSet(np.array([0.0]), 1.0)
        assert sup_linear_over_localized_set(np.array([1.0]), fset, 0.5) == pytest.approx(0.5, abs=1e-8)
        fset2 = FeasibleSet(np.array([0.8]), 1.0)
        assert sup_linear_over_localized_set(np.array([1.0]), fset2, 0.5) == pytest.approx(0.2, abs=1e-8)

    def test_against_p2_boundary_oracle(self):
        rng = np.random.default_rng(34)
        fset = FeasibleSet(np.array([0.6, -0.2]), 1.4)
        for _ in range(6):
            h = rng.normal(size=2)
            t = float(rng.uniform(0.2, 1.5))
            value = sup_linear_over_localized_set(h, fset, t)
            oracle = sup_localized_p2_oracle(h, fset, t, angles=40_000)
            assert value == pytest.approx(oracle, abs=1e-3)

    def test_dual_matches_pga(self):
        rng = np.random.default_rng(35)
        fset = FeasibleSet(np.array([0.5, 0.0, -0.25, 0.0, 0.0]), 1.0)
        H = rng.normal(size=(10, 5))
        for t in (0.3, 1.1):
            dual = sup_rows(H, fset, t)
            pga = np.array([sup_linear_over_localized_set(h, fset, t) for h in H])
            assert np.max(np.abs(dual - pga)) < 1e-6

    def test_monotone_nondecreasing_in_iterations(self):
        fset = FeasibleSet(np.array([0.3, 0.1, 0.0]), 1.0)
        h = np.array([0.7, -1.2, 0.4])
        values = [sup_linear_over_localized_set(h, fset, 0.8, max_iter=k) for k in (1, 3, 10, 50)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_dykstra_nonconvergence_reports_residual(self):
        fset = FeasibleSet(np.array([0.3, 0.1]), 1.0)
        with pytest.raises(ConvergenceError, match="residual"):
            sup_linear_over_localized_set(np.array([1.0, 1.0]), fset, 0.5, dykstra_max_iter=1)

    def test_invalid_t(self):
        fset = FeasibleSet(np.array([0.3]), 1.0)
        with pytest.raises(ValueError):
            sup_linear_over_localized_set(np.array([1.0]), fset, 0.0)


@pytest.fixture(scope="module")
def shipped_mismatched():
    """The shipped mismatched config and its feasible set (p = 200, s = 5, slack 2.5)."""
    config = load_config(str(SHIPPED_MISMATCHED))
    return config, FeasibleSet(*sweep_truth(config))


class TestLocalizedSupRootFind:
    def test_matches_golden_section_at_shipped_geometry(self, shipped_mismatched):
        config, fset = shipped_mismatched
        # the first rows of the shipped width draw, at every radius of the sweep
        H = stream(config.master_seed, "width", "localized").standard_normal((100, config.p))
        radii = np.geomspace(config.slack / math.sqrt(config.p), fset.outer_radius, 14)[1:-1]
        sups = geometry._sup_localized_dual_rows(H, fset, radii)
        for j, t in enumerate(radii):
            np.testing.assert_allclose(sups[:, j], golden_section_sup_rows(H, fset, t), rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "case",
        ["dense-mismatched", "dense-matched", "zero-truth", "p1-dense", "p1-zero", "large-c", "ties-and-zeros"],
    )
    def test_edge_geometries_match_golden_section(self, case):
        """Truths with an empty support or an empty off-support part, p = 1,
        c on the scale of 1e4, and rows whose |h| has ties and exact zeros."""
        rng = np.random.default_rng(48)
        p = {"p1-dense": 1, "p1-zero": 1, "large-c": 30, "ties-and-zeros": 12}.get(case, 6)
        theta = np.zeros(p)
        if case.startswith("dense") or case == "p1-dense":
            theta = rng.choice([-1.0, 1.0], size=p) * rng.uniform(0.5, 1.5, size=p)
        elif case == "large-c":
            theta[rng.choice(p, size=5, replace=False)] = rng.choice([-1.0, 1.0], size=5) * rng.uniform(1e4, 2e4, size=5)
        elif case == "ties-and-zeros":
            theta[[1, 4, 7]] = [1.0, -2.0, 0.5]
        c = math.fsum(np.abs(theta)) + (0.0 if case in ("dense-matched", "large-c") else 0.8)
        fset = FeasibleSet(theta, c)
        H = rng.normal(size=(60, p))
        if case == "ties-and-zeros":
            H = np.round(H)  # magnitudes 0, 1, 2, 3: ties on and off the support
        for frac in (0.02, 0.2, 0.5, 0.8, 0.97):
            t = frac * fset.outer_radius
            sups = sup_rows(H, fset, t)
            np.testing.assert_allclose(sups, golden_section_sup_rows(H, fset, t), rtol=1e-10, atol=0)

    def test_rows_at_their_vertex_radius_match_golden_section(self):
        rng = np.random.default_rng(49)
        theta = np.array([0.0, 0.7, 0.0, -0.4, 0.0, 0.0, 0.2, 0.0])
        fset = FeasibleSet(theta, 2.0)
        for h in rng.normal(size=(30, theta.size)):
            i = int(np.argmax(np.abs(h)))
            vertex = -theta.copy()
            vertex[i] += 2.0 * np.sign(h[i])
            radius = float(np.linalg.norm(vertex))
            for t in (radius, np.nextafter(radius, 0.0)):
                np.testing.assert_allclose(
                    sup_rows(h[None, :], fset, t), golden_section_sup_rows(h, fset, t), rtol=1e-10, atol=0
                )

    def test_inner_radius_ball_lies_in_f(self, shipped_mismatched):
        # for t <= r_in = slack / sqrt(p), ||theta + v||_1 <= ||theta||_1 + sqrt(p) ||v|| <= c
        # puts all of tB in F, so the sup is t ||h||
        config, fset = shipped_mismatched
        r_in = config.slack / math.sqrt(config.p)
        H = stream(config.master_seed, "width", "localized").standard_normal((200, config.p))
        sups = geometry._sup_localized_dual_rows(H, fset, (r_in, r_in / 2))
        for j, t in enumerate((r_in, r_in / 2)):
            np.testing.assert_allclose(sups[:, j] / t, np.linalg.norm(H, axis=1), rtol=1e-12, atol=0)

    def test_matched_equals_cone_section(self):
        # for t <= min |theta_S|, F ∩ tB = K ∩ tB, whose sup is t ||P_K(h)||; the
        # smallest radius a config allows, 1e-8 ||theta*||_inf, still resolves
        # the support step theta_S + s h_S to about 1e-7 relative
        rng = np.random.default_rng(46)
        theta = np.zeros(30)
        support = rng.choice(30, size=4, replace=False)
        theta[support] = rng.choice([-1.0, 1.0], size=4) * rng.uniform(1.0, 2.0, size=4)
        fset = FeasibleSet(theta, float(np.sum(np.abs(theta))))
        H = rng.normal(size=(300, 30))
        _, cone_norms = descent_cone(theta).project_batch(H)
        for t, rtol in ((0.05, 1e-10), (0.4, 1e-10), (float(np.min(np.abs(theta[support]))), 1e-10),
                        (1e-8 * float(np.max(np.abs(theta))), 1e-6)):
            sups = sup_rows(H, fset, t)
            np.testing.assert_allclose(sups / t, cone_norms, rtol=rtol, atol=1e-10)

    def test_vertex_radius_and_zero_rows(self):
        rng = np.random.default_rng(47)
        fset = FeasibleSet(np.array([0.5, -0.25, 0.0, 0.0, 0.1]), 1.5)
        H = rng.normal(size=(40, 5))
        H[3] = 0.0
        g0 = 1.5 * np.max(np.abs(H), axis=1) - H @ fset.theta_true
        for k, h in enumerate(H):
            i = int(np.argmax(np.abs(h)))
            vertex = -fset.theta_true.copy()
            vertex[i] += 1.5 * np.sign(h[i])
            radius = float(np.linalg.norm(vertex))
            assert sup_rows(h[None, :], fset, 2.0 * radius)[0] == g0[k]
            at_radius = sup_rows(h[None, :], fset, radius)[0]
            assert at_radius == pytest.approx(g0[k], rel=1e-12, abs=0)
        assert np.array_equal(sup_rows(np.zeros((2, 5)), fset, 0.3), np.zeros(2))
        assert sup_rows(H, fset, 0.3)[3] == 0.0

    def test_collapsed_brackets_terminate_below_cap(self, shipped_mismatched):
        """Some rows of this draw at t = 5.84 have their root near s = 1.8e4,
        where ||v(s)||^2 - t^2 stays near 1e-11 at neighbouring floats: a
        residual stop never fires there, the certificate or the collapsed
        bracket must."""
        config, fset = shipped_mismatched
        H = stream(config.master_seed, "width", 10).standard_normal((config.mc_samples, config.p))
        sups = sup_rows(H, fset, 5.84, max_iter=20)
        np.testing.assert_allclose(sups, golden_section_sup_rows(H, fset, 5.84), rtol=1e-10, atol=0)

    def test_iteration_cap_raises(self, shipped_mismatched):
        config, fset = shipped_mismatched
        H = stream(config.master_seed, "width", 0).standard_normal((20, config.p))
        with pytest.raises(ConvergenceError, match="not certified"):
            sup_rows(H, fset, 0.25, max_iter=1)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_value_between_primal_and_dual(self, data):
        p = data.draw(st.integers(1, 8), label="p")
        vec = st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p).map(np.array)
        theta, h, x = data.draw(vec, label="theta"), data.draw(vec, label="h"), data.draw(vec, label="x")
        c = float(np.sum(np.abs(theta))) + data.draw(st.floats(0.0, 2.0), label="slack")
        assume(c >= 1e-3)
        t = data.draw(st.floats(1e-3, 6.0), label="t")
        lam = data.draw(st.floats(1e-3, 1e3), label="lam")
        fset = FeasibleSet(theta, c)
        value = sup_rows(h[None, :], fset, t)[0]
        tol = 1e-10 * max(1.0, float(np.linalg.norm(h)) * t)
        # weak duality: every multiplier gives an upper bound
        v = project_feasible(fset, h / (2.0 * lam))
        assert value <= h @ v - lam * (v @ v) + lam * t * t + tol
        # any point of F scaled into the t-ball is feasible (0 lies in F)
        w = project_feasible(fset, x)
        w_norm = float(np.linalg.norm(w))
        if w_norm > t:
            w *= t / w_norm
        assert value >= h @ w - tol


class TestLocalizedSupAllRadii:
    """One root-find over every (row, radius) pair, each row's sorted path shared by its radii."""

    def test_pairs_match_one_radius_calls(self):
        rng = np.random.default_rng(50)
        theta = np.zeros(40)
        theta[[2, 9, 17, 30]] = (0.8, -0.5, 0.3, -1.1)
        fset = FeasibleSet(theta, 4.0)
        H = rng.normal(size=(40, 40))
        H[5] = 0.0
        i_star = np.argmax(np.abs(H), axis=1)
        vertices = np.tile(-theta, (H.shape[0], 1))
        vertices[np.arange(H.shape[0]), i_star] += 4.0 * np.sign(H[np.arange(H.shape[0]), i_star])
        vertex_radius = np.linalg.norm(vertices, axis=1)
        # two rows exactly at their vertex radius, and radii at and past the outer radius
        outer = fset.outer_radius
        radii = sorted({0.05, 0.4, 1.5, 3.0, float(vertex_radius[0]), float(vertex_radius[1]), outer, 1.5 * outer})
        assert np.any(vertex_radius[:, None] <= radii) and np.any(vertex_radius[:, None] > radii)
        joint = geometry._sup_localized_dual_rows(H, fset, radii)
        assert joint.shape == (H.shape[0], len(radii))
        for j, t in enumerate(radii):
            single = np.array([sup_rows(h[None, :], fset, t)[0] for h in H])
            np.testing.assert_allclose(joint[:, j], single, rtol=1e-12, atol=0)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_nondecreasing_and_concave_in_radius(self, data):
        """Per row, ``phi(r) = r omega_h(r)`` is a sup over the growing convex sets F ∩ rB."""
        p = data.draw(st.integers(1, 8), label="p")
        vec = st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p).map(np.array)
        theta = data.draw(vec, label="theta")
        H = np.array(data.draw(st.lists(vec, min_size=1, max_size=4), label="H"))
        c = float(np.sum(np.abs(theta))) + data.draw(st.floats(0.0, 2.0), label="slack")
        assume(c >= 1e-3)
        radii = sorted(set(data.draw(st.lists(st.floats(1e-3, 8.0), min_size=3, max_size=8), label="radii")))
        assume(len(radii) >= 3)
        phi = geometry._sup_localized_dual_rows(H, FeasibleSet(theta, c), radii)
        tol = 1e-10 * max(1.0, float(np.max(np.linalg.norm(H, axis=1))) * radii[-1])
        assert np.all(np.diff(phi, axis=1) >= -tol)
        r = np.array(radii)
        # each middle value lies on or above the chord through its neighbours
        chord = ((r[2:] - r[1:-1]) * phi[:, :-2] + (r[1:-1] - r[:-2]) * phi[:, 2:]) / (r[2:] - r[:-2])
        assert np.all(phi[:, 1:-1] >= chord - tol)


class TestLocalizedWidth:
    def test_interval_case(self):
        fset = FeasibleSet(np.array([0.0]), 1.0)
        w = localized_width(fset, [0.5], 20_000, stream(36, "w"))[0]
        assert abs(w.mean - math.sqrt(2.0 / math.pi)) <= 3 * w.stderr

    def test_matched_cone_homogeneity(self):
        # magnitude well above the largest t keeps the localized sets conic
        theta = np.zeros(10)
        theta[:3] = 4.0
        fset = FeasibleSet(theta, float(np.sum(np.abs(theta))))
        w_half = localized_width(fset, [0.5], 6000, stream(37, "a"))[0]
        w_two = localized_width(fset, [2.0], 6000, stream(37, "b"))[0]
        assert abs(w_half.mean - w_two.mean) <= 3 * math.hypot(w_half.stderr, w_two.stderr)
        cone_w = gaussian_width_cone(descent_cone(theta), 6000, stream(37, "c"))
        assert abs(w_half.mean - cone_w.mean) <= 3 * math.hypot(w_half.stderr, cone_w.stderr)

    def test_inner_radius_width_is_lambda_p(self, shipped_mismatched):
        # at t = r_in the width is E ||h|| = sqrt(2) Gamma((p + 1) / 2) / Gamma(p / 2), 14.1245 at p = 200
        config, fset = shipped_mismatched
        p = config.p
        lambda_p = math.sqrt(2.0) * math.exp(math.lgamma((p + 1) / 2) - math.lgamma(p / 2))
        rng = stream(config.master_seed, "width", "localized")
        w = localized_width(fset, [config.slack / math.sqrt(p)], 4000, rng)[0]
        assert abs(w.mean - lambda_p) <= 3 * w.stderr

    def test_mismatched_p2_against_oracle_mc(self):
        fset = FeasibleSet(np.array([0.4, -0.3]), 1.2)
        t = 0.6
        w = localized_width(fset, [t], 4000, stream(38, "w"))[0]
        rng = np.random.default_rng(39)
        values = np.array([sup_localized_p2_oracle(h, fset, t, angles=8_000) for h in rng.normal(size=(150, 2))]) / t
        om = float(np.mean(values))
        ose = float(np.std(values, ddof=1) / math.sqrt(values.size))
        assert abs(w.mean - om) <= 3 * math.hypot(w.stderr, ose)

    def test_pga_method_agrees(self):
        fset = FeasibleSet(np.array([0.4, -0.3, 0.0]), 1.2)
        w_dual = localized_width(fset, [0.7], 40, stream(40, "w"))[0]
        H = stream(40, "w").standard_normal((40, 3))
        pga_mean = float(np.mean([sup_linear_over_localized_set(h, fset, 0.7) for h in H])) / 0.7
        assert w_dual.mean == pytest.approx(pga_mean, abs=1e-6)


class TestGlobalWidth:
    def test_interval_case(self):
        # c E|h| = 2 sqrt(2/pi), and theta* does not move it
        for theta in (0.0, 1.5):
            fset = FeasibleSet(np.array([theta]), 2.0)
            assert global_width_l1(fset) == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-5)

    def test_closed_forms_at_p1_and_p2(self):
        # E|h| = sqrt(2/pi); E max(|h1|, |h2|) = 2/sqrt(pi).  Only p = 1 has a nonzero slope at 0.
        one, two = FeasibleSet(np.zeros(1), 1.0), FeasibleSet(np.zeros(2), 1.0)
        assert abs(global_width_l1(one) / math.sqrt(2.0 / math.pi) - 1.0) <= 1e-5
        assert abs(global_width_l1(two) / (2.0 / math.sqrt(math.pi)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", (3, 30, 200))
    def test_matches_density_quadrature(self, p):
        fset = FeasibleSet(np.zeros(p), 0.7)
        assert global_width_l1(fset) == pytest.approx(0.7 * expected_abs_max(p), rel=1e-11)

    def test_matches_monte_carlo_at_p200(self):
        # 100,000 rows of E sup_F <h, v> = E [c ||h||_inf - <h, theta*>], in blocks of 10,000
        theta = np.zeros(200)
        theta[:5] = [1.0, -1.0, 1.0, -1.0, 1.0]
        fset = FeasibleSet(theta, 7.5)
        rng = stream(44, "w")
        values = []
        for _ in range(10):
            H = rng.standard_normal((10_000, 200))
            values.append(fset.radius_c * np.max(np.abs(H), axis=1) - H @ theta)
        mc = WidthEstimate.from_samples(np.concatenate(values))
        assert mc.samples == 100_000
        assert abs(global_width_l1(fset) - mc.mean) <= 3 * mc.stderr

    def test_vertex_enumeration_identity_p2(self):
        # per-sample the sup over the shifted ball equals the max over vertices
        fset = FeasibleSet(np.array([0.2, 0.3]), 1.0)
        rng = np.random.default_rng(42)
        H = rng.normal(size=(500, 2))
        vertices = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        by_vertices = np.max(H @ vertices.T, axis=1) - H @ fset.theta_true
        direct = fset.radius_c * np.max(np.abs(H), axis=1) - H @ fset.theta_true
        assert np.allclose(by_vertices, direct, atol=1e-12)

    def test_dominates_localized(self):
        fset = FeasibleSet(np.array([0.4, -0.3, 0.1, 0.0]), 1.5)
        wg = global_width_l1(fset)
        for t in (0.3, 0.8, 1.6):
            wl = localized_width(fset, [t], 4000, stream(43, t))[0]
            assert wg >= wl.mean * t - 3 * t * wl.stderr
