"""Feasible sets, descent cones, and Monte-Carlo Gaussian-width estimators.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MATCHED_TOL = 1e-12

# Segments of the descending off-support sort that the polar tau search
# tries before it searches them all.  At p = 200, s = 5 a gaussian row's
# segment had median 20 and was at most 45 in 100,000 rows.
POLAR_TAU_WINDOW = 64


class ConvergenceError(RuntimeError):
    """An iterative routine did not certify its result within its iteration cap."""


@dataclass(frozen=True)
class WidthEstimate:
    """Monte-Carlo width estimate with its standard error."""

    mean: float
    stderr: float
    samples: int

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "WidthEstimate":
        values = np.asarray(values, dtype=float)
        m = values.size
        if m < 2:
            raise ValueError("need at least 2 samples for a width estimate")
        return cls(float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(m)), m)


@dataclass(frozen=True, eq=False)
class ConeModel:
    """Descent cone of the l1 norm at a sparse boundary point.

    Membership: ``v in K  iff  sum_{i in S} sign_i v_i + sum_{i not in S} |v_i| <= 0``.
    """

    support: np.ndarray
    signs: np.ndarray
    ambient_dim: int
    _off_support: np.ndarray = field(init=False, repr=False, compare=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConeModel):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.signs, other.signs)
        )

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=int)
        signs = np.asarray(self.signs, dtype=float)
        p = int(self.ambient_dim)
        if support.ndim != 1 or signs.shape != support.shape:
            raise ValueError("support and signs must be 1-D arrays of equal length")
        if support.size == 0:
            raise ValueError("support must be nonempty")
        if np.unique(support).size != support.size:
            raise ValueError("support indices must be distinct")
        if np.any(support < 0) or np.any(support >= p):
            raise ValueError("support indices out of range")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "signs", signs)
        mask = np.ones(p, dtype=bool)
        mask[support] = False
        object.__setattr__(self, "_off_support", np.nonzero(mask)[0])

    def margin(self, v: np.ndarray) -> float:
        """Membership margin; nonpositive iff v lies in the cone."""
        v = np.asarray(v, dtype=float)
        return float(self.signs @ v[self.support] + np.sum(np.abs(v[self._off_support])))

    def contains(self, v: np.ndarray, tol: float = 0.0) -> bool:
        return self.margin(v) <= tol

    def project_batch(self, H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project the rows of H onto the cone; returns (projections, norms)."""
        H = np.atleast_2d(np.asarray(H, dtype=float))
        tau = _polar_tau_batch(self, H)[:, None]
        # the polar part clips off the support and is tau * sign on it
        proj = H - np.clip(H, -tau, tau)
        proj[:, self.support] = H[:, self.support] - tau * self.signs[None, :]
        return proj, np.linalg.norm(proj, axis=1)


def descent_cone(theta_true: np.ndarray) -> ConeModel:
    """Descent cone of the l1 norm at theta_true (which must be nonzero)."""
    theta_true = np.asarray(theta_true, dtype=float)
    support = np.nonzero(theta_true)[0]
    if support.size == 0:
        raise ValueError(
            "descent cone at zero is the whole space; use the mismatched machinery instead"
        )
    return ConeModel(support, np.sign(theta_true[support]), theta_true.size)


def _polar_distance_sq(cone: ConeModel, H: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Squared distance from each row of H to the tau-slice of the polar cone."""
    on = (H[:, cone.support] - tau[:, None] * cone.signs[None, :]) ** 2
    total = on.sum(axis=1)
    off = cone._off_support
    if off.size:
        excess = np.maximum(np.abs(H[:, off]) - tau[:, None], 0.0)
        total = total + (excess**2).sum(axis=1)
    return total


def _polar_tau_batch(cone: ConeModel, H: np.ndarray) -> np.ndarray:
    """Per-row minimizer over tau >= 0 of the polar slice distance.

    The squared distance is convex and piecewise quadratic in tau with
    breakpoints at the off-support magnitudes, so the minimizer is found
    exactly: on the segment where the k largest off-support magnitudes
    exceed tau, the stationary point averages the on-support targets with
    those k magnitudes, and exactly one segment contains its own stationary
    point (otherwise the minimizer is tau = 0).

    The first ``POLAR_TAU_WINDOW`` segments of the descending sort are
    searched first; only rows with no self-consistent segment among them
    search all of them again.  Both searches evaluate the same formulas,
    so the window never changes tau.
    """
    s_count = cone.support.size
    on_target = H[:, cone.support] @ cone.signs
    off = cone._off_support
    if off.size == 0:
        return np.maximum(on_target / s_count, 0.0)
    a = np.sort(np.abs(H[:, off]), axis=1)[:, ::-1]
    if off.size < POLAR_TAU_WINDOW:
        tau, found = _first_segment_tau(on_target, a, s_count, complete=True)
    else:
        tau, found = _first_segment_tau(on_target, a[:, :POLAR_TAU_WINDOW], s_count, complete=False)
        rest = np.flatnonzero(~found)
        if rest.size:
            tau[rest], found[rest] = _first_segment_tau(on_target[rest], a[rest], s_count, complete=True)
    # no self-consistent segment means the unconstrained root is negative
    return np.where(found, np.maximum(tau, 0.0), 0.0)


def _first_segment_tau(
    on_target: np.ndarray, a: np.ndarray, s_count: int, complete: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary tau of each row's first self-consistent segment, and whether one exists.

    ``a`` holds the leading off-support magnitudes in descending order.
    Segment k lies between ``a[k - 1]`` (infinity for k = 0) and ``a[k]``.
    With ``complete`` the columns are all of them and the last segment
    reaches down to 0; otherwise the last column only closes the segment
    above it.
    """
    m = a.shape[0]
    lower = np.concatenate([a, np.zeros((m, 1))], axis=1) if complete else a
    segments = lower.shape[1]
    above = a[:, : segments - 1]
    prefix = np.concatenate([np.zeros((m, 1)), np.cumsum(above, axis=1)], axis=1)
    counts = s_count + np.arange(segments, dtype=float)
    tau_k = (on_target[:, None] + prefix) / counts[None, :]
    upper = np.concatenate([np.full((m, 1), np.inf), above], axis=1)
    feasible = (tau_k <= upper * (1.0 + 1e-12) + 1e-12) & (tau_k >= lower * (1.0 - 1e-12) - 1e-12)
    return tau_k[np.arange(m), np.argmax(feasible, axis=1)], feasible.any(axis=1)


def project_onto_descent_cone(cone: ConeModel, h: np.ndarray) -> tuple[np.ndarray, float]:
    """Euclidean projection of h onto the cone, with its norm."""
    proj, norms = cone.project_batch(np.asarray(h, dtype=float)[None, :])
    return proj[0], float(norms[0])


# ---------------------------------------------------------------------------
# l1-ball primitives
# ---------------------------------------------------------------------------


def project_l1_ball(x: np.ndarray, c: float) -> np.ndarray:
    """Euclidean projection onto ``{v : ||v||_1 <= c}`` by soft thresholding."""
    if c <= 0:
        raise ValueError("c must be > 0")
    x = np.asarray(x, dtype=float)
    return project_l1_ball_rows(x[None, :], c)[0]


def project_l1_ball_rows(X: np.ndarray, c: float) -> np.ndarray:
    """Row-wise l1-ball projection (vectorized soft thresholding)."""
    if c <= 0:
        raise ValueError("c must be > 0")
    X = np.asarray(X, dtype=float)
    absX = np.abs(X)
    inside = absX.sum(axis=1) <= c
    if np.all(inside):
        return X.copy()
    u = np.sort(absX, axis=1)[:, ::-1]
    cs = np.cumsum(u, axis=1)
    ranks = np.arange(1, X.shape[1] + 1)
    positive = u - (cs - c) / ranks > 0
    k = positive.sum(axis=1) - 1  # last prefix index with a positive gap
    lam = (cs[np.arange(X.shape[0]), k] - c) / (k + 1)
    lam = np.where(inside, 0.0, np.maximum(lam, 0.0))
    return np.sign(X) * np.maximum(absX - lam[:, None], 0.0)


def lmo_l1_ball(grad: np.ndarray, c: float) -> np.ndarray:
    """Linear minimization oracle over the l1 ball.

    Returns ``-c * sign(grad_i*) e_i*`` with ``i* = argmax |grad_i|``; ties
    break to the lowest index, and a zero entry counts as positive sign.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    grad = np.asarray(grad, dtype=float)
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

    ``classification`` is derived: matched iff ``||theta_true||_1 == c`` to
    within ``MATCHED_TOL * max(1, c)``, a relative tolerance for large c,
    where the l1 norm's summation order alone moves it by several ulps.
    """

    theta_true: np.ndarray
    radius_c: float
    classification: str = field(init=False)

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta_true, dtype=float)
        object.__setattr__(self, "theta_true", theta)
        norm1 = float(np.sum(np.abs(theta)))
        if self.radius_c <= 0:
            raise ValueError("radius_c must be > 0")
        tol = MATCHED_TOL * max(1.0, self.radius_c)
        if norm1 > self.radius_c + tol:
            raise ValueError(
                f"theta_true is infeasible: ||theta||_1 = {norm1:.6g} > c = {self.radius_c:.6g}"
            )
        matched = abs(norm1 - self.radius_c) <= tol
        object.__setattr__(self, "classification", "matched" if matched else "mismatched")

    @property
    def ambient_dim(self) -> int:
        return self.theta_true.size

    def contains(self, v: np.ndarray, tol: float = 0.0) -> bool:
        v = np.asarray(v, dtype=float)
        return float(np.sum(np.abs(self.theta_true + v))) <= self.radius_c + tol

    def project(self, x: np.ndarray) -> np.ndarray:
        """Projection onto F (a shifted l1-ball projection)."""
        shifted = np.asarray(x, dtype=float) + self.theta_true
        return project_l1_ball(shifted, self.radius_c) - self.theta_true

    def project_rows(self, X: np.ndarray) -> np.ndarray:
        shifted = np.asarray(X, dtype=float) + self.theta_true[None, :]
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
    if samples < 2:
        raise ValueError("samples must be >= 2")
    H = rng.standard_normal((samples, cone.ambient_dim))
    _, norms = cone.project_batch(H)
    return WidthEstimate.from_samples(norms)


def _sup_localized_dual_rows(
    H: np.ndarray, fset: FeasibleSet, t: float, max_iter: int = 100
) -> np.ndarray:
    """Row-wise ``sup {<h, v> : v in F, ||v|| <= t}`` by a root-find on the projection path.

    With multiplier ``1 / (2 s)`` on the squared-norm constraint, the inner
    maximizer over F is ``v(s) = P_F(s h)``: a soft threshold of
    ``theta + s h``, so piecewise linear in s, with ``||v(s)||``
    nondecreasing because 0 lies in F.  The supremum is ``<h, v(s_t)>`` at
    the s where ``||v(s_t)|| = t``.  When t reaches the vertex
    ``c sign(h_i) e_i - theta`` at ``i = argmax |h_i|``, which maximizes
    ``<h, v>`` over all of F, the supremum is ``c ||h||_inf - <h, theta>``.

    Each step costs one sort: it gives v and its slope on the current
    linear piece, and moves s to that piece's root of
    ``||v + delta dv/ds||^2 = t^2``.  A step that leaves the bracket
    ``[lo, hi]`` (``lo = t / ||h||`` since P_F is nonexpansive) is replaced
    by geometric bisection, or by doubling while hi is unknown.  Every
    evaluation yields a dual value ``<h, v> - (||v||^2 - t^2) / (2 s)``,
    an upper bound, and a feasible primal ``<h, v> min(1, t / ||v||)``.
    A row stops when the two agree to a relative 1e-12, or when its bracket
    is a few ulps wide (there rounding in v, not the choice of s, sets the
    residual); it returns its best dual value.  Rows still open after
    ``max_iter`` steps raise :class:`ConvergenceError`.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    theta, c = fset.theta_true, fset.radius_c
    rows = np.arange(H.shape[0])
    absH = np.abs(H)
    i_star = np.argmax(absH, axis=1)
    g0 = c * absH[rows, i_star] - H @ theta
    vertex_sq = theta @ theta - theta[i_star] ** 2 + (c - np.sign(H[rows, i_star]) * theta[i_star]) ** 2
    out = np.where(vertex_sq <= t * t, g0, 0.0)
    hnorm = np.linalg.norm(H, axis=1)
    idx = np.flatnonzero((vertex_sq > t * t) & (hnorm > 0))
    Hl = H[idx]
    lo = t / hnorm[idx]
    hi = np.full(idx.size, np.inf)
    s = lo.copy()
    dual = g0[idx]  # the multiplier-0 dual value
    primal = np.zeros(idx.size)
    iterations = 0
    while idx.size:
        if iterations == max_iter:
            raise ConvergenceError(
                f"localized supremum not certified for {idx.size} rows within {max_iter} "
                f"iterations at t = {t:.6g}"
            )
        iterations += 1
        Y = theta + s[:, None] * Hl
        P = project_l1_ball_rows(Y, c)
        V = P - theta
        active = P != 0.0
        signs = np.sign(Y)
        # outside the ball, the threshold grows at the mean of sign * h over the active set
        slope_lam = np.where(
            np.abs(Y).sum(axis=1) > c,
            np.einsum("ij,ij->i", active * signs, Hl) / np.maximum(active.sum(axis=1), 1),
            0.0,
        )
        dV = np.where(active, Hl - signs * slope_lam[:, None], 0.0)
        hv = np.einsum("ij,ij->i", Hl, V)
        r_sq = np.einsum("ij,ij->i", V, V)
        resid = r_sq - t * t
        dual = np.minimum(dual, hv - resid / (2.0 * s))
        primal = np.maximum(primal, hv * t / np.sqrt(np.maximum(r_sq, t * t)))
        below = resid <= 0
        lo = np.where(below, s, lo)
        hi = np.where(below, hi, s)
        done = (dual - primal <= 1e-12 * primal) | (hi <= lo * (1.0 + 4.0 * np.finfo(float).eps))
        out[idx[done]] = dual[done]

        a = np.einsum("ij,ij->i", dV, dV)
        b = np.einsum("ij,ij->i", V, dV)
        with np.errstate(divide="ignore", invalid="ignore"):
            # root of a d^2 + 2 b d + resid nearest 0, in the stable form
            s_next = s - resid / (b + np.sqrt(b * b - a * resid))
        fallback = np.where(np.isfinite(hi), np.sqrt(lo * hi), 2.0 * lo)
        s = np.where((s_next > lo) & (s_next < hi), s_next, fallback)
        keep = ~done
        idx, Hl, s, lo, hi, dual, primal = (x[keep] for x in (idx, Hl, s, lo, hi, dual, primal))
    return out


def localized_width(fset: FeasibleSet, t: float, samples: int, rng: np.random.Generator) -> WidthEstimate:
    """Monte-Carlo estimate of ``E sup {<h, v> : v in F ∩ tB} / t``.

    For matched constraints and t no larger than the smallest nonzero entry
    of theta_true, the localized set coincides with the descent cone's
    t-ball section, so the estimate agrees with :func:`gaussian_width_cone`
    and is independent of t.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if t <= 0:
        raise ValueError("t must be > 0")
    H = rng.standard_normal((samples, fset.ambient_dim))
    return WidthEstimate.from_samples(_sup_localized_dual_rows(H, fset, t) / t)


def global_width_l1(fset: FeasibleSet, samples: int, rng: np.random.Generator) -> WidthEstimate:
    """Monte-Carlo estimate of the unlocalized width ``E sup_{v in F} <h, v>``."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    H = rng.standard_normal((samples, fset.ambient_dim))
    values = fset.radius_c * np.max(np.abs(H), axis=1) - H @ fset.theta_true
    return WidthEstimate.from_samples(values)
