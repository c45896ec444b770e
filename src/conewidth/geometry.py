"""Feasible sets, descent cones, and Gaussian-width estimators.

Geometry conventions used throughout:

* The constraint set is the l1 ball ``{theta : ||theta||_1 <= c}``.  The
  feasible set at the true parameter is its translate ``F = G - theta_true``.
* The descent cone of the l1 norm at a boundary point with support S and
  sign pattern s is ``K = {v : sum_{i in S} s_i v_i + sum_{i not in S} |v_i| <= 0}``.
* Its polar is the conic hull of the l1 subdifferential:
  ``K° = {u : u_i = tau * s_i on S, |u_i| <= tau off S, tau >= 0}``.
  Projecting onto K° reduces to a one-dimensional convex problem in tau, and
  the projection onto K follows from the Moreau decomposition
  ``h = P_K(h) + P_K°(h)`` with the two parts orthogonal.
* Per-sample width statistics use ``||P_K(h)||_2``, i.e. a sup over the unit
  sphere section that would be negative is recorded as zero.
* Localized widths maximize over the intersection with the l2 *ball* of
  radius t rather than the sphere; the ball version upper-bounds the sphere
  version and keeps the inner problem convex.
* The Monte-Carlo kernels, the direction samplers and the curvature probe
  work on blocks of about ``BLOCK_ELEMENTS`` float64 values (see
  :func:`blocks`), so their memory does not grow with the sample count.
* A width draws every block into one buffer, and the cone kernels also
  project them in one set of :class:`BlockBuffers`, allocated at the first
  block and freed when the call returns.  Fresh arrays per block cost page
  faults: glibc hands the freed top of its heap back to the OS, so each
  block faulted the same pages in again (a shipped ``matched.cfg`` sweep
  took 14,544 minor faults with fresh arrays and takes 8,122 with the
  buffers).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

# Element budget of one block: 512 KiB of float64.  With 1 MiB blocks the
# allocator handed a matched sweep's freed blocks back to the OS between
# trials, so its trials took ten times the minor page faults and ran 8%
# slower (glibc, shipped matched.cfg).  For the same reason a kernel call
# keeps its block-sized arrays in one BlockBuffers across its blocks: glibc
# trims the freed top of the heap, and the next block would fault it in again.
BLOCK_ELEMENTS = 1 << 16
# A block spans a multiple of this many rows or columns, and a remainder
# shorter than it joins the block before it.  BLAS kernels then see each
# block's rows or columns in the tiles they would have in one call over the
# whole array, and never a lone row or column (which numpy hands to a
# different BLAS routine), so blocked products keep one call's bits.  (The
# one exception seen: the last m mod 8 columns of a product whose m columns
# span several blocks can round differently.)
BLOCK_ALIGN = 32


class ConvergenceError(RuntimeError):
    """An iterative routine did not certify its result within its iteration cap."""


def blocks(total: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(total)``, for items of ``width`` values each.

    A block holds ``BLOCK_ELEMENTS // width`` items rounded down to a
    multiple of ``BLOCK_ALIGN`` (at least ``BLOCK_ALIGN``); the last one
    absorbs a remainder shorter than ``BLOCK_ALIGN``.
    """
    step = max(BLOCK_ALIGN, BLOCK_ELEMENTS // max(width, 1) // BLOCK_ALIGN * BLOCK_ALIGN)
    start = 0
    while start < total:
        stop = start + step if total - start >= step + BLOCK_ALIGN else total
        yield slice(start, stop)
        start = stop


class BlockBuffers:
    """Scratch arrays that one kernel call reuses across its blocks.

    ``take(name, rows, cols)`` returns a C-contiguous (rows, cols) float64
    array.  The first request for a name allocates it; later requests reuse
    its memory, and reallocate only for a larger size (the last block of a
    call can be a little longer than the first).  A kernel call makes its own
    and drops it on return, so the buffers live for one call.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, rows: int, cols: int) -> np.ndarray:
        flat = self._flat.get(name)
        if flat is None or flat.size < rows * cols:
            flat = self._flat[name] = np.empty(rows * cols)
        return flat[: rows * cols].reshape(rows, cols)


def _gaussian_row_values(
    rows: int, p: int, rng: np.random.Generator, row_values, shape: tuple = (), width: int = 0
) -> np.ndarray:
    """``row_values(H)`` of ``rows`` standard gaussian rows of length p, drawn and evaluated block by block.

    Every block is drawn into one buffer by ``Generator.standard_normal(out=...)``,
    which fills in C order, so the blocks hold the rows that one draw of the
    whole (rows, p) array would; ``row_values`` must compute each row's
    value, of the given shape, from that row alone, and must not keep H.
    Blocks are sized by ``max(p, width)`` values per row, so ``width``
    budgets a kernel whose temporaries outgrow its rows.
    """
    out = np.empty((rows,) + shape)
    draw = BlockBuffers()
    for block in blocks(rows, max(p, width)):
        H = rng.standard_normal(out=draw.take("draw", block.stop - block.start, p))
        out[block] = row_values(H)
    return out


def _water_level(a: np.ndarray, offset, target, prefix: np.ndarray | None = None) -> np.ndarray:
    """Per row, the level ``x >= 0`` where ``sum_j (a_j - x)_+ = offset x - target``, else 0.

    The one soft threshold of the batched callers, the row-wise l1-ball
    projection (offset 0, target ``-c``), a descent cone's polar scale
    (:func:`_polar_tau_batch`) and the localized path's threshold
    (:meth:`_OffSupportPath.sums`), found by one sort and one count (Duchi,
    Shalev-Shwartz, Singer & Chandra 2008).  :func:`project_l1_ball`, the
    solver's single-vector projection, evaluates the same formula in scalar
    arithmetic; a property test pins it to this kernel bit for bit.  The
    rows of ``a`` are nonnegative and sorted in descending order, and are
    overwritten, as is ``prefix``, a (rows, q + 1) scratch array when given.
    ``offset`` (a count) and ``target`` are scalars or (rows, 1) columns,
    with ``offset > 0 or target < 0`` in every row.

    The left side minus the right, f(x), is nonincreasing.  With
    ``A_j = sum_{i<j} a_i``, ``f(a_j) < 0`` iff ``(offset + j) a_j - A_j >
    target``, and since ``f(a_j)`` is nondecreasing in j the j that pass form
    a prefix; the precondition makes j = 0 pass when offset is 0, so their
    count k has ``offset + k >= 1``.  As ``f(a_{k-1}) < 0 <= f(a_k)`` (read
    ``a_q`` as 0), the root lies on the piece where exactly k terms are
    positive, ``x = (target + A_k) / (offset + k)``; it is negative only
    when ``f(0) <= 0``, and then the level is 0.
    """
    rows, q = a.shape
    if prefix is None:
        prefix = np.empty((rows, q + 1))
    prefix[:, 0] = 0.0
    np.cumsum(a, axis=1, out=prefix[:, 1:])
    a *= offset + np.arange(q)
    a -= prefix[:, :q]
    k = (a > target).sum(axis=1, keepdims=True)
    return np.maximum((target + prefix[np.arange(rows)[:, None], k]) / (offset + k), 0.0)[:, 0]


@dataclass(frozen=True)
class WidthEstimate:
    """Monte-Carlo width estimate with its standard error."""

    mean: float
    stderr: float
    samples: int

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "WidthEstimate":
        """Mean and standard error of an array of at least 2 samples."""
        m = values.size
        return cls(float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(m)), m)


@dataclass(frozen=True, eq=False)
class ConeModel:
    """Descent cone of the l1 norm at a nonzero point, as built by :func:`descent_cone`.

    Membership: ``v in K  iff  sum_{i in S} sign_i v_i + sum_{i not in S} |v_i| <= 0``.
    """

    support: np.ndarray
    signs: np.ndarray
    ambient_dim: int
    _off_support: np.ndarray = field(repr=False)

    def project_batch(self, H: np.ndarray, buffers: BlockBuffers | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Project the rows of H onto the cone; returns (projections, norms).

        H is never written.  The projections and every block-sized temporary
        live in ``buffers`` (fresh ones when None), so a caller that passes the
        same buffers for each block of a call allocates them once, and each
        call overwrites the projections of the one before.
        """
        if buffers is None:
            buffers = BlockBuffers()
        rows, p = H.shape
        tau = _polar_tau_batch(self, H, buffers)[:, None]
        # the polar part clips off the support and is tau * sign on it
        proj = np.clip(H, -tau, tau, out=buffers.take("proj", rows, p))
        np.subtract(H, proj, out=proj)
        proj[:, self.support] = H[:, self.support] - tau * self.signs[None, :]
        # np.linalg.norm's own sum of squares, in the buffer the magnitudes used
        squares = np.multiply(proj, proj, out=buffers.take("scratch", rows, p))
        return proj, np.sqrt(np.add.reduce(squares, axis=1))


def descent_cone(theta_true: np.ndarray) -> ConeModel:
    """Descent cone of the l1 norm at a nonzero theta_true."""
    support = np.flatnonzero(theta_true)
    return ConeModel(support, np.sign(theta_true[support]), theta_true.size, np.flatnonzero(theta_true == 0))


def _polar_tau_batch(cone: ConeModel, H: np.ndarray, buffers: BlockBuffers) -> np.ndarray:
    """Per-row minimizer over tau >= 0 of the distance to the polar slice.

    Its stationarity equation is ``sum_{i not in S} (|h_i| - tau)_+ =
    |S| tau - <h_S, sign>``, solved by :func:`_water_level` on the
    off-support magnitudes, sorted into a contiguous descending array by
    negating, sorting and negating back.  A NaN sorts last that way, below
    every magnitude, so a row with a NaN off the support still gets a finite
    tau from its other entries (its projection and norm are NaN all the same).
    """
    rows, q = H.shape[0], cone._off_support.size
    on_target = H[:, cone.support] @ cone.signs
    # mode="clip" writes straight into the buffer; the default mode buffers the copy
    a = np.take(H, cone._off_support, axis=1, out=buffers.take("scratch", rows, q), mode="clip")
    np.abs(a, out=a)
    np.negative(a, out=a)
    a.sort(axis=1)
    np.negative(a, out=a)
    return _water_level(a, cone.support.size, on_target[:, None], buffers.take("prefix", rows, q + 1))


def project_onto_descent_cone(cone: ConeModel, h: np.ndarray) -> tuple[np.ndarray, float]:
    """Euclidean projection of h onto the cone, with its norm."""
    proj, norms = cone.project_batch(h[None, :])
    return proj[0], float(norms[0])


# ---------------------------------------------------------------------------
# l1-ball primitives
# ---------------------------------------------------------------------------


def project_l1_ball(x: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto ``{v : ||v||_1 <= c}`` by soft thresholding.

    :func:`_water_level`'s count with offset 0 and target ``-c``, on one
    vector: with ``u`` the magnitudes in descending order and ``A_j = sum_{i<j}
    u_i``, the k indices with ``j u_j - A_j > -c`` give the level
    ``max((A_k - c) / k, 0)``.  It runs the kernel's operations in the same
    order, so it equals ``project_l1_ball_rows(x[None], c)[0]`` bit for bit,
    without the rows kernel's 2-D bookkeeping (the solver projects once per
    candidate).
    """
    absx = np.abs(x)
    if absx.sum() <= c:
        return x.copy()
    u = np.sort(absx)[::-1]
    prefix = np.zeros(u.size + 1)
    np.cumsum(u, out=prefix[1:])
    k = int(np.count_nonzero(u * np.arange(u.size) - prefix[:-1] > -c))
    # k is 0 only on a non-finite entry, where the kernel's level -c/0 clips to 0
    lam = max((float(prefix[k]) - c) / k, 0.0) if k else 0.0
    return np.sign(x) * np.maximum(absx - lam, 0.0)


def project_l1_ball_rows(X: np.ndarray, c: float) -> np.ndarray:
    """Row-wise l1-ball projection (vectorized soft thresholding)."""
    absX = np.abs(X)
    inside = absX.sum(axis=1) <= c
    if inside.all():
        return X.copy()
    lam = _water_level(np.sort(absX, axis=1)[:, ::-1], 0, -c)
    lam[inside] = 0.0  # the prefix sums can round a row inside the ball to a level above 0
    return np.sign(X) * np.maximum(absX - lam[:, None], 0.0)


def lmo_l1_ball(grad: np.ndarray, c: float) -> np.ndarray:
    """Linear minimization oracle over the l1 ball.

    Returns ``-c * sign(grad_i*) e_i*`` with ``i* = argmax |grad_i|``; ties
    break to the lowest index, and a zero entry counts as positive sign.
    """
    i = int(np.argmax(np.abs(grad)))
    out = np.zeros_like(grad)
    out[i] = -c if grad[i] >= 0 else c
    return out


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibleSet:
    """The translated constraint set ``F = {v : ||theta_true + v||_1 <= c}``.

    Callers pass c > 0 and ``||theta_true||_1 <= c``, so F contains 0.
    """

    theta_true: np.ndarray
    radius_c: float

    @property
    def ambient_dim(self) -> int:
        return self.theta_true.size

    def project_rows(self, X: np.ndarray) -> np.ndarray:
        shifted = X + self.theta_true[None, :]
        return project_l1_ball_rows(shifted, self.radius_c) - self.theta_true[None, :]

    @property
    def outer_radius(self) -> float:
        """``max_{v in F} ||v||_2``, reached at a vertex ``c sign e_i - theta_true``:
        ``sqrt(||theta||_2^2 + c^2 + 2 c ||theta||_inf)``."""
        theta, c = self.theta_true, self.radius_c
        return math.sqrt(float(theta @ theta) + c * c + 2.0 * c * float(np.max(np.abs(theta))))


# ---------------------------------------------------------------------------
# Width estimators
# ---------------------------------------------------------------------------


def gaussian_width_cone(cone, samples: int, rng: np.random.Generator) -> WidthEstimate:
    """Monte-Carlo width of a cone: mean of ``||P_K(h)||`` over gaussian h.

    ``cone`` is anything with ``ambient_dim`` and ``project_batch`` (normally
    a :class:`ConeModel`).  When the projection is nonzero its norm equals
    the sup of ``<h, v>`` over unit cone members; a zero projection
    contributes 0.
    """
    buffers = BlockBuffers()
    norms = _gaussian_row_values(samples, cone.ambient_dim, rng, lambda H: cone.project_batch(H, buffers)[1])
    return WidthEstimate.from_samples(norms)


def _sup_localized_dual_rows(
    H: np.ndarray, fset: FeasibleSet, radii, max_iter: int = 100
) -> np.ndarray:
    """``sup {<h, v> : v in F, ||v|| <= t}`` for each row h of the 2-D H and each t in radii, as a (rows, radii) array.

    With multiplier ``1 / (2 s)`` on the squared-norm constraint, the inner
    maximizer over F is ``v(s) = P_F(s h)``: a soft threshold of
    ``theta + s h``, so piecewise linear in s, with ``||v(s)||``
    nondecreasing because 0 lies in F.  The supremum is ``<h, v(s_t)>`` at
    the s where ``||v(s_t)|| = t``.  When t reaches the vertex
    ``c sign(h_i) e_i - theta`` at ``i = argmax |h_i|``, which maximizes
    ``<h, v>`` over all of F, the supremum is ``c ||h||_inf - <h, theta>``.

    Every other (row, radius) pair is one root-find, and all of them run
    together: each row's path is sorted once (:class:`_OffSupportPath`) and
    shared by its pairs.  Each step evaluates the sums it needs of v and of
    its slope on the current linear piece without forming either, and moves
    s to that piece's root of ``||v + delta dv/ds||^2 = t^2``.  A step that
    leaves the bracket ``[lo, hi]`` (``lo = t / ||h||`` since P_F is
    nonexpansive) is replaced by geometric bisection, or by doubling while
    hi is unknown.  Every evaluation yields a dual value
    ``<h, v> - (||v||^2 - t^2) / (2 s)``, an upper bound, and a feasible
    primal ``<h, v> min(1, t / ||v||)``.  A pair stops when the two agree to
    a relative 1e-12, or when its bracket is a few ulps wide (there rounding
    in v, not the choice of s, sets the residual); it returns its best dual
    value.  Pairs still open after ``max_iter`` steps raise
    :class:`ConvergenceError`.
    """
    theta, c = fset.theta_true, fset.radius_c
    radii = np.asarray(radii, dtype=float)
    rows = np.arange(H.shape[0])
    absH = np.abs(H)
    i_star = np.argmax(absH, axis=1)
    g0 = c * absH[rows, i_star] - H @ theta
    vertex_sq = theta @ theta - theta[i_star] ** 2 + (c - np.sign(H[rows, i_star]) * theta[i_star]) ** 2
    inside = vertex_sq[:, None] > radii * radii
    out = np.where(inside, 0.0, g0[:, None])
    hnorm = np.linalg.norm(H, axis=1)
    row, col = np.nonzero(inside & (hnorm[:, None] > 0))
    path = _OffSupportPath(H, theta)
    path.take(row)
    t = radii[col]
    lo = t / hnorm[row]
    hi = np.full(row.size, np.inf)
    s = lo.copy()
    dual = g0[row]  # the multiplier-0 dual value
    primal = np.zeros(row.size)
    iterations = 0
    while row.size:
        if iterations == max_iter:
            raise ConvergenceError(
                f"localized supremum not certified for {row.size} (row, radius) pairs within {max_iter} "
                f"iterations at t = {', '.join(f'{x:.6g}' for x in np.unique(t))}"
            )
        iterations += 1
        hv, r_sq, a, b = path.sums(s, c)
        resid = r_sq - t * t
        dual = np.minimum(dual, hv - resid / (2.0 * s))
        primal = np.maximum(primal, hv * t / np.sqrt(np.maximum(r_sq, t * t)))
        below = resid <= 0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        done = (dual - primal <= 1e-12 * primal) | (hi <= lo * (1.0 + 4.0 * np.finfo(float).eps))
        out[row[done], col[done]] = dual[done]

        with np.errstate(divide="ignore", invalid="ignore"):
            # root of a d^2 + 2 b d + resid nearest 0, in the stable form
            s_next = s - resid / (b + np.sqrt(b * b - a * resid))
        fallback = np.where(np.isfinite(hi), np.sqrt(lo * hi), 2.0 * lo)
        s = np.where((s_next > lo) & (s_next < hi), s_next, fallback)
        keep = ~done
        path.take(keep)
        row, col, t, s, lo, hi, dual, primal = (x[keep] for x in (row, col, t, s, lo, hi, dual, primal))
    return out


class _OffSupportPath:
    """Sums along ``v(s) = P_F(s h)`` for a set of rows, from one sort per row.

    Off the support S of theta, ``|theta_i + s h_i| = s a_i`` with
    ``a = |h_i|``, so the descending order of those magnitudes is the same
    for every s.  One sort per row, with a trailing 0, and the cumulative
    sums ``E_j = sum_{i<j} (a_i - a_j)`` and ``D_j = sum_{i<j} (a_i - a_j)^2``
    (sums of nonnegative terms, so free of cancellation) give every
    off-support quantity a step needs in closed form; the support columns
    are evaluated explicitly.  A step costs O(|S| sqrt(p)) per point instead
    of a sort of all p coordinates.

    :meth:`sums` evaluates one point s per entry of ``base`` and ``h_s``,
    which start as one entry per row; :meth:`take` selects or repeats
    entries, so that the radii of one row share its sorted path.
    """

    def __init__(self, H: np.ndarray, theta: np.ndarray) -> None:
        support = np.flatnonzero(theta)
        self.theta_s = theta[support]
        self.h_s = H[:, support]
        rows, m = H.shape[0], theta.size - support.size
        # columns padded to whole blocks of about sqrt(m) for the two-pass search
        block = math.isqrt(m) + 1
        width = block * (m // block + 1)
        magnitudes = np.abs(H)
        magnitudes[:, support] = -1.0  # sorts below every off-support magnitude
        magnitudes.sort(axis=1)
        a, E, D = np.zeros((rows, width)), np.zeros((rows, width)), np.zeros((rows, width))
        a[:, :m] = magnitudes[:, : -m - 1 : -1]
        gap = np.subtract(a[:, :m], a[:, 1 : m + 1], out=magnitudes[:, :m])  # a_{j-1} - a_j >= 0
        step = gap * np.arange(1, m + 1)
        np.cumsum(step, axis=1, out=E[:, 1 : m + 1])
        step += E[:, :m]
        step += E[:, :m]
        step *= gap
        np.cumsum(step, axis=1, out=D[:, 1 : m + 1])
        self.a, self.E, self.D = a.ravel(), E.ravel(), D.ravel()
        self.base = np.arange(rows) * width
        self.m, self.block = m, block
        self.ends = np.arange(block - 1, width, block)[:, None]
        self.in_block = np.arange(block)[:, None]

    def take(self, index: np.ndarray) -> None:
        self.h_s, self.base = self.h_s[index], self.base[index]

    def _count_below(self, cols: np.ndarray, b_over_s: np.ndarray, c_over_s: np.ndarray) -> np.ndarray:
        """Per entry, how many of the columns ``j < m`` in cols have ``g(s a_j) < c``.

        cols is (columns, entries), or (columns, 1) when every entry searches
        the same columns: the entries run along the innermost axis, which
        keeps numpy's inner loops long.
        """
        at = cols + self.base
        excess = b_over_s[:, None, :] - self.a[at]  # support x columns x entries
        np.maximum(excess, 0.0, out=excess)
        g = excess.sum(axis=0)
        g += self.E[at]
        return ((g < c_over_s) & (cols < self.m)).sum(axis=0)

    def sums(self, s: np.ndarray, c: float) -> tuple[np.ndarray, ...]:
        """``<h, v>``, ``||v||^2``, ``||dv/ds||^2`` and ``<v, dv/ds>`` at each entry's s."""
        h_s, base = self.h_s, self.base
        y_s = self.theta_s + s[:, None] * h_s
        b = np.abs(y_s)
        # The threshold lam solves g(lam) = c, g(lam) = sum_i (|y_i| - lam)_+.
        # Exactly k = #{j : g(s a_j) < c} off-support magnitudes lie above it,
        # and g(s a_j) / s = sum_S (b / s - a_j)_+ + E_j is nondecreasing in
        # j: count whole blocks by their last column, then within the block.
        b_over_s, c_over_s = np.ascontiguousarray(b.T / s), c / s
        first = self.block * self._count_below(self.ends, b_over_s, c_over_s)
        k = first + self._count_below(first + self.in_block, b_over_s, c_over_s)
        # On that piece the off-support part of g is s A1 - k lam, A1 the sum
        # of the k largest a, so lam is the support magnitudes' water level
        # with offset k and target s A1 - c (A1 = 0 when k = 0, so the
        # target is then -c < 0).  Inside the ball that level is 0.
        top = base + np.maximum(k - 1, 0)
        a_top, E_top, D_top = self.a[top], self.E[top], self.D[top]
        A1 = E_top + k * a_top
        lam = _water_level(np.sort(b, axis=1)[:, ::-1], k[:, None], (s * A1 - c)[:, None])

        # support columns, explicitly
        on = b > lam[:, None]
        sign_s = np.sign(y_s)
        v_s = sign_s * np.maximum(b - lam[:, None], 0.0) - self.theta_s
        # outside the ball, the threshold grows at the mean of sign * h over the active set
        slope = (lam > 0.0) * ((on * sign_s * h_s).sum(axis=1) + A1) / np.maximum(on.sum(axis=1) + k, 1)
        dv_s = np.where(on, h_s - sign_s * slope[:, None], 0.0)
        # off-support columns in closed form: over the k largest a, v_i =
        # sign(h_i) s x_i and dv_i/ds = sign(h_i) (x_i + w), with x_i = a_i - mu,
        # mu = lam / s and w = mu - slope; x_i = (a_i - a_{k-1}) + e
        mu = lam / s
        e = a_top - mu
        sum_x = E_top + k * e
        sum_x2 = D_top + e * (2.0 * E_top + k * e)
        w = mu - slope
        hv = np.einsum("ij,ij->i", h_s, v_s) + s * (sum_x2 + mu * sum_x)
        r_sq = np.einsum("ij,ij->i", v_s, v_s) + s * s * sum_x2
        dd = np.einsum("ij,ij->i", dv_s, dv_s) + sum_x2 + w * (2.0 * sum_x + k * w)
        vd = np.einsum("ij,ij->i", v_s, dv_s) + s * (sum_x2 + w * sum_x)
        return hv, r_sq, dd, vd


def localized_width(fset: FeasibleSet, radii, samples: int, rng: np.random.Generator) -> list[WidthEstimate]:
    """Monte-Carlo estimates of ``E sup {<h, v> : v in F ∩ tB} / t``, one per t in radii, from one draw.

    Every radius sees the same gaussian rows, through one root-find per
    block (:func:`_sup_localized_dual_rows`), so per sample
    ``t -> sup {<h, v> : v in F ∩ tB}`` is nondecreasing and concave across
    the radii, and differences between radii carry no sampling noise of
    their own.  Blocks are sized by the root-find's largest temporary,
    ``|S| x pairs x (isqrt(|Z|) + 1)`` values for S the support of
    theta_true, Z its zeros and ``len(radii)`` pairs per row.

    For matched constraints and t no larger than the smallest nonzero entry
    of theta_true, the localized set coincides with the descent cone's
    t-ball section, so the estimate agrees with :func:`gaussian_width_cone`
    and is independent of t.
    """
    radii = np.asarray(radii, dtype=float)
    support = int(np.count_nonzero(fset.theta_true))
    pair_values = radii.size * max(support, 1) * (math.isqrt(fset.ambient_dim - support) + 1)
    values = _gaussian_row_values(
        samples,
        fset.ambient_dim,
        rng,
        lambda H: _sup_localized_dual_rows(H, fset, radii) / radii,
        radii.shape,
        pair_values,
    )
    return [WidthEstimate.from_samples(column) for column in values.T]


def global_width_l1(fset: FeasibleSet) -> float:
    """The unlocalized width ``E sup_{v in F} <h, v> = c E ||h||_inf``, exactly.

    The sup is ``c ||h||_inf - <h, theta_true>`` (at a vertex of the ball),
    whose second term has mean 0.  ``E ||h||_inf = int_0^inf (1 - erf(x /
    sqrt 2)^p) dx`` by the trapezoid rule with 2400 steps on [0, 12], past
    which the integrand is below ``p 1e-32``: relative error 2e-6 at p = 1,
    whose integrand has slope ``-sqrt(2/pi)`` at 0, about 1e-12 for p >= 2.
    """
    step = 12.0 / 2400
    values = [1.0 - math.erf(k * step / math.sqrt(2.0)) ** fset.ambient_dim for k in range(2401)]
    return fset.radius_c * step * (math.fsum(values) - 0.5 * (values[0] + values[-1]))
