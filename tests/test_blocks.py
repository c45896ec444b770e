"""Blocked Monte-Carlo and probe kernels: the same bits as one draw, in bounded memory.

The widths, the direction sampler and the secant probe work on blocks of
about ``geometry.BLOCK_ELEMENTS`` values.  With the budget shrunk so that
p = 20 spans many blocks, each kernel must equal its single-draw form in
``tests/oracles.py`` bit for bit at sample counts of one block minus one,
exactly one block, one block plus one (which joins the block before it) and
several blocks.  At the shipped budget, the traced peak of each kernel must
not grow with its sample count, nor that of a gaussian trial with its n.
"""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conewidth import experiment, geometry, glm, solver

P = 20
ROWS = 64  # rows of length P per block under the small budget
N = 40  # design rows of the probe tests
COLS = 32  # probe columns per block at N under the small budget
T = 0.3

THETA = np.zeros(P)
THETA[[3, 11]] = (0.5, -0.5)
CONE = geometry.descent_cone(THETA)
FSET = geometry.FeasibleSet(THETA, 1.5)
# Localized radii, the last two at and past FSET's outer radius 2.06.  The
# root-find's largest temporary holds 4 radii x |S| 2 x (isqrt(18) + 1) = 40
# values per row, which sizes its blocks.
RADII = (T, 0.9, FSET.outer_radius, 2.5)
PAIR_VALUES = 40


@pytest.fixture
def small_budget(monkeypatch):
    monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", P * ROWS)
    assert [b.stop for b in geometry.blocks(5 * ROWS + 40, P)] == [64, 128, 192, 256, 320, 360]
    assert [b.stop for b in geometry.blocks(COLS * 3, N)] == [32, 64, 96]


def counts(block):
    return (block - 1, block, block + 1, 3 * block + 5, 5 * block + 40)


class TestBlockRanges:
    step = 640  # rows of width 200 per block under a budget of 200 * 650 values

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", 200 * 650)

    def test_cover_in_order_with_aligned_starts(self):
        for total in (0, 1, 31, 32, 33, 655, 671, 672, 4000, 40_000):
            slices = list(geometry.blocks(total, 200))
            assert [b.start for b in slices[1:]] == [b.stop for b in slices[:-1]]
            assert sum(b.stop - b.start for b in slices) == total
            assert all(b.start % geometry.BLOCK_ALIGN == 0 for b in slices)
            assert all(b.stop - b.start < self.step + geometry.BLOCK_ALIGN for b in slices)

    def test_no_lone_trailing_row(self):
        # numpy hands a one-row product to a different BLAS routine than a block's
        assert [(b.start, b.stop) for b in geometry.blocks(641, 200)] == [(0, 641)]
        assert [(b.start, b.stop) for b in geometry.blocks(672, 200)] == [(0, 640), (640, 672)]

    def test_wide_items_get_one_aligned_block(self):
        assert [(b.start, b.stop) for b in geometry.blocks(100, 10**7)] == [(0, 32), (32, 64), (64, 100)]


class TestSingleDrawIdentity:
    @pytest.mark.parametrize("samples", counts(ROWS))
    def test_cone_width(self, small_budget, samples):
        blocked = geometry.gaussian_width_cone(CONE, samples, np.random.default_rng(samples))
        assert blocked == oracles.single_draw_width_cone(CONE, samples, np.random.default_rng(samples))

    @pytest.mark.parametrize("samples", counts(ROWS))
    def test_localized_width(self, small_budget, monkeypatch, samples):
        # ROWS rows per block at the root-find's count; sized by P, blocks would be twice as long
        monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", PAIR_VALUES * ROWS)
        block_rows = []
        kernel = geometry._sup_localized_dual_rows

        def recording_kernel(H, *args):
            block_rows.append(H.shape[0])
            return kernel(H, *args)

        monkeypatch.setattr(geometry, "_sup_localized_dual_rows", recording_kernel)
        blocked = geometry.localized_width(FSET, RADII, samples, np.random.default_rng(samples))
        assert max(block_rows) < ROWS + geometry.BLOCK_ALIGN
        assert blocked == oracles.single_draw_width_localized(FSET, RADII, samples, np.random.default_rng(samples))

    @pytest.mark.parametrize("samples", counts(ROWS))
    def test_row_values_per_row(self, small_budget, samples):
        def row_values(H):
            return CONE.project_batch(H)[1]

        blocked = geometry._gaussian_row_values(samples, P, np.random.default_rng(1), row_values)
        single = row_values(np.random.default_rng(1).standard_normal((samples, P)))
        assert np.array_equal(blocked, single)

    @pytest.mark.parametrize("num", counts(ROWS))
    def test_localized_directions(self, small_budget, num):
        blocked = geometry.sample_localized_directions(FSET, T, num, np.random.default_rng(num))
        single = oracles.single_draw_localized_directions(FSET, T, num, np.random.default_rng(num))
        assert np.array_equal(blocked, single)
        assert blocked.flags.f_contiguous and single.flags.f_contiguous

    def test_localized_directions_short_of_num(self, small_budget):
        # t near the outer radius accepts few draws, so the sampler returns fewer than num
        t = 0.97 * FSET.outer_radius
        blocked = geometry.sample_localized_directions(FSET, t, 3 * ROWS, np.random.default_rng(5))
        single = oracles.single_draw_localized_directions(FSET, t, 3 * ROWS, np.random.default_rng(5))
        assert blocked.shape[1] < 3 * ROWS
        assert np.array_equal(blocked, single)


class TestShippedBudget:
    """Blocked equals single draw at the default budget and the shipped matched sizes."""

    theta = np.zeros(200)
    theta[:5] = 0.2
    cone = geometry.descent_cone(theta)

    def test_block_split(self):
        # 4,000 width samples of p = 200: 12 blocks of 320 rows and a last one of 160
        sizes = [b.stop - b.start for b in geometry.blocks(4_000, 200)]
        assert sizes == [320] * 12 + [160]
        assert [b.stop - b.start for b in geometry.blocks(800, 200)] == [320, 320, 160]

    def test_cone_width(self):
        blocked = geometry.gaussian_width_cone(self.cone, 4_000, np.random.default_rng(4000))
        assert blocked == oracles.single_draw_width_cone(self.cone, 4_000, np.random.default_rng(4000))

    def test_localized_directions_at_tangent_radius(self):
        # a matched sweep's set: 800 directions at theta*'s smallest magnitude
        fset = geometry.FeasibleSet(self.theta, 1.0)
        blocked = geometry.sample_localized_directions(fset, 0.2, 800, np.random.default_rng(800))
        single = oracles.single_draw_localized_directions(fset, 0.2, 800, np.random.default_rng(800))
        assert np.array_equal(blocked, single)


def probe_instance(family):
    rng = np.random.default_rng(7)
    ensemble = "rademacher" if family == "logistic" else "gaussian"
    design = glm.sample_design(N, P, ensemble, rng)
    fam = glm.GlmFamily(family, 0.5)
    return glm.ProblemInstance(design, glm.sample_responses(design, THETA, fam, rng), THETA, fam)


class TestSecantFormIdentity:
    @pytest.mark.parametrize("family", glm.FAMILIES)
    @pytest.mark.parametrize("m", (COLS - 1, COLS, COLS + 1, 4 * COLS))
    def test_matches_single_call(self, small_budget, family, m):
        instance = probe_instance(family)
        E = oracles.single_draw_cone_directions(CONE, m, np.random.default_rng(m))
        for directions in (E, np.ascontiguousarray(E)):
            single = oracles.single_call_secant_form(instance, directions)
            assert np.array_equal(glm.secant_form_batch(instance, directions), single)

    @pytest.mark.parametrize("family", glm.FAMILIES)
    def test_unaligned_tail(self, small_budget, family):
        # BLAS may round the last m mod 8 columns of a product differently
        # when they are the tail of a smaller call; the columns before them
        # keep their bits
        m = 3 * COLS + 5
        instance = probe_instance(family)
        E = oracles.single_draw_cone_directions(CONE, m, np.random.default_rng(m))
        blocked = glm.secant_form_batch(instance, E)
        single = oracles.single_call_secant_form(instance, E)
        assert np.array_equal(blocked[: m - m % 8], single[: m - m % 8])
        np.testing.assert_allclose(blocked, single, rtol=1e-13, atol=0)


CAP_BYTES = 12 * 2**20


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Each kernel's traced peak stays under a few blocks, whatever its sample count."""

    theta = np.zeros(200)
    theta[:5] = 1.0

    @pytest.mark.parametrize("samples", (4_000, 40_000))
    def test_cone_width(self, samples):
        cone = geometry.descent_cone(self.theta)
        assert traced_peak(lambda: geometry.gaussian_width_cone(cone, samples, np.random.default_rng(0))) < CAP_BYTES

    def test_localized_width(self):
        fset = geometry.FeasibleSet(self.theta, 7.5)
        assert traced_peak(lambda: geometry.localized_width(fset, [0.64], 1_500, np.random.default_rng(0))) < CAP_BYTES

    def test_localized_width_shipped_radii(self):
        # the shipped mismatched geometry's size: 1,500 samples at its 12 radii
        fset = geometry.FeasibleSet(self.theta, 7.5)
        radii = np.geomspace(2.5 / math.sqrt(200), fset.outer_radius, 14)[1:-1]
        assert traced_peak(lambda: geometry.localized_width(fset, radii, 1_500, np.random.default_rng(0))) < CAP_BYTES

    def test_secant_form(self):
        rng = np.random.default_rng(0)
        design = rng.standard_normal((4096, 200))
        family = glm.GlmFamily("gaussian", 0.5)
        instance = glm.ProblemInstance(design, glm.sample_responses(design, self.theta, family, rng), self.theta, family)
        E = oracles.single_draw_cone_directions(geometry.descent_cone(self.theta), 800, rng)
        assert traced_peak(lambda: glm.secant_form_batch(instance, E)) < CAP_BYTES

    @pytest.mark.parametrize("n", (4096, 40_960))
    def test_gaussian_trial(self, n):
        # a 40,960 x 200 design alone would take 62.5 MiB
        config = experiment.ExperimentConfig(p=200, s=5, slack=2.5, noise_scale=0.5, n_grid=(n,), master_seed=7)
        theta, c = experiment.sweep_truth(config)

        def trial():
            instance = experiment.make_instance(config, theta, n, 0)
            assert solver.projected_gradient(instance, c).converged

        assert traced_peak(trial) < CAP_BYTES
