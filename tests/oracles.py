"""Independent reference computations used by the test suite.

Everything here evaluates the quantity under test by a different route than
the library (finite differences, dense grids, rejection sampling, vertex
enumeration, projected ascent, golden-section search, Gauss-Legendre
quadrature of a density, bisection of a closed-form distribution function)
so that agreement is meaningful.  It also holds
the helpers that only tests use (membership margins, the cumulant triple,
the duality gap at an arbitrary point, the c1 calibration of acceptance
criterion 9, the local slopes and power-law chi2 of an error curve), which
the package does not carry, the single-draw forms of
the library's blocked Monte-Carlo kernels, which draw and evaluate every
row or column in one array, and the row-block
Gram instance of a gaussian design, whose law the library's Wishart draw
reproduces.
"""

from __future__ import annotations

import math

import numpy as np

from conewidth import glm
from conewidth.experiment import Z975
from conewidth.geometry import (
    CONE_SAMPLE_MAX_ROUNDS,
    LOCALIZED_SAMPLE_MAX_BATCHES,
    ConvergenceError,
    WidthEstimate,
    _sup_localized_dual_rows,
    blocks,
    descent_cone,
    lmo_l1_ball,
    project_onto_descent_cone,
)

FEASIBILITY_TOL = 1e-9


def cumulant_eval(family, eta):
    """Return ``(b(eta), b'(eta), b''(eta))`` elementwise from the library's three cumulant oracles.

    Accepts scalars or arrays; scalar input gives scalar output.  Poisson
    input above ``glm.POISSON_ETA_CAP`` raises instead of overflowing.
    """
    eta_arr = np.asarray(eta, dtype=float)
    values = tuple(f(family, eta_arr) for f in (glm._cumulant, glm._cumulant_d1, glm._cumulant_d2))
    if np.ndim(eta) == 0:
        return tuple(float(v) for v in values)
    return values


def cone_at_pattern(support, signs, p):
    """The descent cone at the point of R^p with ``theta[support] = signs`` and zeros elsewhere."""
    theta = np.zeros(p)
    theta[np.asarray(support)] = signs
    return descent_cone(theta)


def cone_margin(cone, V):
    """Descent-cone membership margin of each vector along V's last axis; nonpositive iff in the cone."""
    V = np.asarray(V, dtype=float)
    return V[..., cone.support] @ cone.signs + np.sum(np.abs(V[..., cone._off_support]), axis=-1)


def feasible_margin(fset, V):
    """``||theta_true + v||_1 - c`` for each v along V's last axis; nonpositive iff v lies in F."""
    V = np.asarray(V, dtype=float)
    return np.sum(np.abs(fset.theta_true + V), axis=-1) - fset.radius_c


def project_feasible(fset, x):
    """Projection of one vector onto F, through the library's row projection."""
    return fset.project_rows(np.asarray(x, dtype=float)[None, :])[0]


def polar_distance_sq(cone, H, tau):
    """Squared distance from each row of H to the tau-slice of the polar cone."""
    on = (H[:, cone.support] - tau[:, None] * cone.signs[None, :]) ** 2
    excess = np.maximum(np.abs(H[:, cone._off_support]) - tau[:, None], 0.0)
    return on.sum(axis=1) + (excess**2).sum(axis=1)


def fd_gradient(instance, theta, h=1e-6):
    """Central finite differences of the empirical loss."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (glm.loss(instance, theta + e) - glm.loss(instance, theta - e)) / (2 * h)
    return out


def fd_hessian_quadratic_form(instance, theta, v, h=1e-6):
    """v^T H v via central differences of the analytic gradient."""
    theta = np.asarray(theta, dtype=float)
    v = np.asarray(v, dtype=float)
    gp = glm.gradient(instance, theta + h * v)
    gm = glm.gradient(instance, theta - h * v)
    return float(v @ (gp - gm)) / (2 * h)


def hessian_quadratic_form_batch(instance, theta, directions):
    """Hessian quadratic form at one base point for many directions (columns)."""
    b2 = cumulant_eval(instance.family, instance.design @ np.asarray(theta, dtype=float))[2]
    av = instance.design @ directions
    return np.mean(b2[:, None] * av**2, axis=0)


def realized_secant_form(instance, e):
    """Secant curvature ``<grad f(theta + e) - grad f(theta), e> / ||e||^2``."""
    e = np.asarray(e, dtype=float)
    return float(glm.secant_form_batch(instance, instance.theta_true, e[:, None])[0])


def projected_gradient_norm_at_truth(instance, cone):
    """``||P_K(-grad f_n(theta_true))||`` for a matched descent cone."""
    grad = glm.gradient(instance, instance.theta_true)
    _, norm = project_onto_descent_cone(cone, -grad)
    return norm


def grid_min_distance_l1_ball(x, c, resolution=1201):
    """Distance minimizer over the l1 ball by dense grid search (p = 2 only)."""
    x = np.asarray(x, dtype=float)
    assert x.size == 2
    grid = np.linspace(-c, c, resolution)
    V1, V2 = np.meshgrid(grid, grid, indexing="ij")
    feasible = np.abs(V1) + np.abs(V2) <= c + 1e-12
    d2 = (V1 - x[0]) ** 2 + (V2 - x[1]) ** 2
    d2[~feasible] = np.inf
    i, j = np.unravel_index(np.argmin(d2), d2.shape)
    return np.array([V1[i, j], V2[i, j]])


def cone_projection_angle_oracle(cone, h, angles=200_000):
    """Projection of h onto a p = 2 cone via a dense sweep of unit directions.

    For each unit direction u in the cone, the best scaled member is
    ``max(0, <h, u>) u``; the projection norm is the largest such inner
    product clipped at zero.
    """
    h = np.asarray(h, dtype=float)
    assert h.size == 2
    phi = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    U = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    members = U[cone_margin(cone, U) <= 1e-12]
    if members.size == 0:
        return np.zeros(2), 0.0
    scores = members @ h
    best = float(np.max(scores))
    if best <= 0:
        return np.zeros(2), 0.0
    u = members[int(np.argmax(scores))]
    return best * u, best


def cone_width_rejection_oracle(cone, samples, sphere_points, rng):
    """Width via rejection sampling: uniform sphere directions kept in the cone."""
    p = cone.ambient_dim
    U = rng.standard_normal((sphere_points, p))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    members = U[cone_margin(cone, U) <= 0.0]
    assert members.shape[0] >= 100, "rejection oracle needs more sphere points"
    H = rng.standard_normal((samples, p))
    sups = np.maximum(np.max(H @ members.T, axis=1), 0.0)
    return sups


def expected_abs_max(p, nodes=200):
    """``E ||h||_inf`` for a standard gaussian h in R^p, as the mean of its density.

    ``||h||_inf`` has density ``p erf(x/sqrt 2)^(p-1) sqrt(2/pi) exp(-x^2/2)``
    on x >= 0; its first moment is taken by Gauss-Legendre on [0, 12], not
    by the library's trapezoid rule on the tail ``1 - erf(x/sqrt 2)^p``.
    Relative error about 1e-14 for p up to a few hundred.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x = 6.0 * (x + 1.0)
    density = np.array([p * math.erf(v / math.sqrt(2.0)) ** (p - 1) * math.exp(-v * v / 2.0) for v in x])
    return 6.0 * math.sqrt(2.0 / math.pi) * float(np.dot(w, x * density))


def student_t_central_mass(t, dof):
    """``P(|T| <= t)`` for Student's t on an integer ``dof >= 1``, in closed form.

    With ``a = atan(t / sqrt(dof))``: for odd dof, ``(2/pi)(a + sin a (cos a
    + (2/3) cos^3 a + ... + (2·4···(dof-3))/(1·3···(dof-2)) cos^(dof-2) a))``,
    the sum empty at dof = 1; for even dof, ``sin a (1 + (1/2) cos^2 a + ...
    + (1·3···(dof-3))/(2·4···(dof-2)) cos^(dof-2) a)`` (Abramowitz & Stegun
    26.7.3-4).
    """
    a = math.atan(t / math.sqrt(dof))
    cos2 = math.cos(a) ** 2
    if dof % 2:
        term, series = math.cos(a), 0.0
        for k in range(1, (dof - 1) // 2 + 1):
            series += term
            term *= cos2 * (2 * k) / (2 * k + 1)
        return 2.0 / math.pi * (a + math.sin(a) * series)
    term, series = 1.0, 0.0
    for k in range(1, dof // 2 + 1):
        series += term
        term *= cos2 * (2 * k - 1) / (2 * k)
    return math.sin(a) * series


def student_t_quantile_bisection(prob, dof):
    """The Student-t ``prob`` quantile (``prob > 1/2``) on integer ``dof``, by bisecting
    :func:`student_t_central_mass` to the last float."""
    target = 2.0 * prob - 1.0
    lo, hi = 0.0, 1.0
    while student_t_central_mass(hi, dof) < target:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if student_t_central_mass(mid, dof) < target:
            lo = mid
        else:
            hi = mid


def local_slopes(ns, means, stderrs):
    """Log-log slope of each adjacent pair of grid points, with its delta-method 95% half-width.

    Between points i and j the slope is ``Δlog m / Δlog n`` and the
    half-width ``Z975 sqrt((se_i/m_i)^2 + (se_j/m_j)^2) / Δlog n``: the
    standard error of log m is about se/m, and the two means are independent.
    Returns two arrays of length k - 1.
    """
    m = np.asarray(means, dtype=float)
    rel = np.asarray(stderrs, dtype=float) / m
    dx = np.diff(np.log(np.asarray(ns, dtype=float)))
    return np.diff(np.log(m)) / dx, Z975 * np.sqrt(rel[:-1] ** 2 + rel[1:] ** 2) / dx


def power_law_chi2(ns, means, stderrs):
    """``(chi2, dof)`` of a weighted power-law fit: log m against log n by least
    squares with weights ``(m/se)^2``, on ``dof = k - 2``.

    Near dof when the means follow one power law within their stderrs; far
    above it when the local slopes change along the grid.
    """
    m = np.asarray(means, dtype=float)
    x, y = np.log(np.asarray(ns, dtype=float)), np.log(m)
    w = (m / np.asarray(stderrs, dtype=float)) ** 2
    xbar, ybar = np.sum(w * x) / np.sum(w), np.sum(w * y) / np.sum(w)
    slope = np.sum(w * (x - xbar) * (y - ybar)) / np.sum(w * (x - xbar) ** 2)
    residuals = y - ybar - slope * (x - xbar)
    return float(np.sum(w * residuals**2)), x.size - 2


def sup_localized_p2_oracle(h, fset, t, angles=100_000):
    """sup of <h, v> over F ∩ tB at p = 2 via boundary parameterization.

    The maximum of a linear functional over a convex compact set lies on the
    boundary; along each unit direction u the boundary radius is
    ``min(t, r_F(u))`` with r_F found by bisection on the piecewise-linear
    one-dimensional feasibility function.
    """
    h = np.asarray(h, dtype=float)
    theta = fset.theta_true
    c = fset.radius_c
    phi = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    U = np.stack([np.cos(phi), np.sin(phi)], axis=1)

    def feasible(r):
        return np.sum(np.abs(theta[None, :] + r[:, None] * U), axis=1) <= c + 1e-14

    lo = np.zeros(angles)
    hi = np.full(angles, float(t))
    ok_at_t = feasible(hi)
    lo[ok_at_t] = t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        good = feasible(mid)
        lo = np.where(good, mid, lo)
        hi = np.where(good, hi, mid)
    r = np.where(ok_at_t, t, lo)
    return float(np.max(r * (U @ h)))


def duality_gap(instance, theta, c):
    """Frank-Wolfe gap ``<grad f(theta), theta - s>`` at a feasible theta, from a fresh gradient."""
    theta = np.asarray(theta, dtype=float)
    if np.sum(np.abs(theta)) > c + FEASIBILITY_TOL:
        raise ValueError(f"theta is infeasible: ||theta||_1 = {np.sum(np.abs(theta)):.12g} > c = {c:.12g}")
    grad = glm.gradient(instance, theta)
    s = lmo_l1_ball(grad, c)
    return float(grad @ (theta - s))


def grid_min_objective_l1(instance, c, resolution=801):
    """Dense grid minimum of the loss over the l1 ball (p = 2 only)."""
    assert instance.p == 2
    grid = np.linspace(-c, c, resolution)
    V1, V2 = np.meshgrid(grid, grid, indexing="ij")
    keep = (np.abs(V1) + np.abs(V2)) <= c + 1e-12
    thetas = np.stack([V1[keep], V2[keep]], axis=1)
    eta = instance.design @ thetas.T
    b, _, _ = cumulant_eval(instance.family, eta)
    values = np.mean(b - instance.responses[:, None] * eta, axis=0)
    i = int(np.argmin(values))
    return float(values[i]), thetas[i]


def dykstra_project(x0, project_a, project_b, tol=1e-8, max_iter=5000):
    """Dykstra's alternating projections onto the intersection of two sets.

    The convergence residual is the size of the correction increments
    (``x_k - y_k`` and ``y_k - x_{k+1}``), not the change in the iterate:
    the iterate can sit still for several cycles while the corrections are
    still being built up.
    """
    x = np.asarray(x0, dtype=float).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    residual = math.inf
    for _ in range(max_iter):
        y = project_a(x + p)
        p = x + p - y
        x_new = project_b(y + q)
        q = y + q - x_new
        residual = float(max(np.max(np.abs(x - y)), np.max(np.abs(y - x_new))))
        x = x_new
        if residual <= tol:
            return x
    raise ConvergenceError(
        f"Dykstra projection did not converge within {max_iter} iterations "
        f"(last residual {residual:.3e}, tolerance {tol:.1e})"
    )


def sup_linear_over_localized_set(h, fset, t, max_iter=500, dykstra_tol=1e-8, dykstra_max_iter=20_000):
    """Maximize ``<h, v>`` over ``F ∩ tB`` by projected ascent.

    Each ascent step projects onto the intersection of the shifted l1 ball
    and the l2 ball with Dykstra's alternating projections.  The objective is
    linear, so the iteration is monotone and converges to the supremum; the
    step is a generous multiple of the set radius (a fixed-step ascent on a
    linear objective has value gap on the order of diameter^2 / (step *
    iterations)), and the loop exits once improvements stall.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    h = np.asarray(h, dtype=float)
    hnorm = float(np.linalg.norm(h))
    if hnorm == 0.0:
        return 0.0

    def project_ball(x):
        nx = float(np.linalg.norm(x))
        return x if nx <= t else x * (t / nx)

    step = 64.0 * t / hnorm
    v = np.zeros_like(h)
    best = 0.0
    stall_tol = 1e-11 * max(1.0, t * hnorm)
    stalls = 0
    for _ in range(max_iter):
        v = dykstra_project(
            v + step * h, lambda x: project_feasible(fset, x), project_ball, dykstra_tol, dykstra_max_iter
        )
        value = float(h @ v)
        if value > best + stall_tol:
            stalls = 0
        else:
            stalls += 1
        best = max(best, value)
        if stalls >= 3:
            break
    return best


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_sup_rows(H, fset, t):
    """Row-wise ``sup {<h, v> : v in F, ||v|| <= t}`` by golden section on the dual.

    With multiplier ``lam >= 0`` on the squared-norm constraint, the inner
    maximizer over F is ``P_F(h / (2 lam))``, so each dual evaluation
    ``g(lam) = <h, v*> - lam ||v*||^2 + lam t^2`` costs one shifted l1-ball
    projection.  g is convex with its minimizer in ``[0, ||h|| / (2t)]``
    (because 0 lies in F), and strong duality makes the minimum equal the
    primal supremum.  Golden-section search shrinks the bracket to 1e-12 of
    its span; the closed form ``g(0) = sup_F <h, v>`` is an endpoint
    candidate.  About 60 projections per row, against a handful for the
    library's root-find.

    Evaluations at tiny lam lose about ``eps ||h||^2 / (2 lam)`` to rounding
    in the shifted projection and can fall below the supremum.  So the case
    lam = 0 is decided exactly: it holds when the face of F that maximizes
    ``<h, .>`` meets the t-ball (:func:`max_face_distance`), and then the
    value is g(0).
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    out = np.zeros(H.shape[0])
    hnorm = np.linalg.norm(H, axis=1)
    live = hnorm > 0
    if not np.any(live):
        return out
    Hl = H[live]

    def g(lam):
        lam_safe = np.maximum(lam, 1e-300)
        V = fset.project_rows(Hl / (2.0 * lam_safe[:, None]))
        return np.einsum("ij,ij->i", Hl, V) - lam * np.einsum("ij,ij->i", V, V) + lam * t * t

    lo = np.zeros(Hl.shape[0])
    hi = hnorm[live] / (2.0 * t)
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = g(x1), g(x2)
    best = np.minimum(f1, f2)
    for _ in range(2 + int(math.ceil(math.log(1e-12) / math.log(_INVPHI)))):
        take_low = f1 <= f2
        hi = np.where(take_low, x2, hi)
        lo = np.where(take_low, lo, x1)
        x_keep = np.where(take_low, x1, x2)
        f_keep = np.where(take_low, f1, f2)
        x_eval = np.where(take_low, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        f_eval = g(x_eval)
        best = np.minimum(best, f_eval)
        x1 = np.where(take_low, x_eval, x_keep)
        f1 = np.where(take_low, f_eval, f_keep)
        x2 = np.where(take_low, x_keep, x_eval)
        f2 = np.where(take_low, f_keep, f_eval)
    g0 = fset.radius_c * np.max(np.abs(Hl), axis=1) - Hl @ fset.theta_true
    face_in_ball = np.array([max_face_distance(h, fset) <= t for h in Hl])
    out[live] = np.where(face_in_ball, g0, np.maximum(np.minimum(best, g0), 0.0))
    return out


def max_face_distance(h, fset):
    """Distance from 0 to the face of F on which ``<h, .>`` is largest.

    That face is ``{c sum_T w_j sign(h_j) e_j - theta : w in the simplex}``
    over the ties T of ``max |h_j|``, so its nearest point to 0 has
    ``w = P_simplex(sign(h_T) theta_T / c)`` (sort-based simplex projection).
    """
    theta, c = fset.theta_true, fset.radius_c
    top = np.abs(h) == np.max(np.abs(h))
    target = np.sign(h[top]) * theta[top] / c
    u = np.sort(target)[::-1]
    excess = np.cumsum(u) - 1.0
    rho = np.flatnonzero(u - excess / np.arange(1, u.size + 1) > 0)[-1]
    w = np.maximum(target - excess[rho] / (rho + 1), 0.0)
    return math.sqrt(float(np.sum((c * w - c * target) ** 2) + np.sum(theta[~top] ** 2)))


def water_level_bisection(a, offset, target):
    """The root ``x >= 0`` of ``sum_j (a_j - x)_+ = offset x - target`` by bisection, or 0 when there is none.

    a is one row in any order; needs ``target <= offset max(a)`` (and
    ``target < 0`` when offset is 0), so the root lies in ``[0, max(a)]``.
    """
    a = np.asarray(a, dtype=float)

    def excess(x):
        return float(np.sum(np.maximum(a - x, 0.0))) - (offset * x - target)

    top = float(np.max(a))
    lo, hi = 0.0, top
    if excess(lo) <= 0.0:
        return 0.0
    assert excess(hi) <= 0.0
    mid = 0.5 * top
    while hi - lo > 1e-15 * top and lo < mid < hi:
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def full_width_polar_tau(cone, H):
    """Polar tau of each row of H by a search for its self-consistent segment.

    Every one of the ``p - s + 1`` segments of the descending off-support
    sort gets its stationary point, and the first segment that contains its
    own (to within 1e-12 of the row's largest magnitude) gives tau.  The
    library instead counts the magnitudes above tau; both evaluate the same
    expression on the segment they pick.  A row where no segment contains
    its stationary point gets 0, or its first NaN stationary point if it has
    one: an infinity on the support meets another infinity (``inf - inf``),
    and the library's count gives that NaN too.
    """
    m = H.shape[0]
    s_count = cone.support.size
    on_target = H[:, cone.support] @ cone.signs
    off = cone._off_support
    if off.size == 0:
        return np.maximum(on_target / s_count, 0.0)
    a = np.sort(np.abs(H[:, off]), axis=1)[:, ::-1]
    q = a.shape[1]
    prefix = np.concatenate([np.zeros((m, 1)), np.cumsum(a, axis=1)], axis=1)
    counts = s_count + np.arange(q + 1, dtype=float)
    tau_k = (on_target[:, None] + prefix) / counts[None, :]
    upper = np.concatenate([np.full((m, 1), np.inf), a], axis=1)
    lower = np.concatenate([a, np.zeros((m, 1))], axis=1)
    tol = 1e-12 * np.maximum(a[:, 0], np.max(np.abs(H[:, cone.support]), axis=1))[:, None]
    feasible = (tau_k <= upper + tol) & (tau_k >= lower - tol)
    found = feasible.any(axis=1)
    tau = tau_k[np.arange(m), np.argmax(feasible, axis=1)]
    nan_k = np.isnan(tau_k)
    fallback = np.where(nan_k.any(axis=1), tau_k[np.arange(m), np.argmax(nan_k, axis=1)], 0.0)
    return np.where(found, np.maximum(tau, 0.0), fallback)


def full_width_project_batch(cone, H):
    """Cone projection of the rows of H by subtracting an assembled polar part."""
    H = np.atleast_2d(np.asarray(H, dtype=float))
    tau = full_width_polar_tau(cone, H)
    polar = np.zeros_like(H)
    polar[:, cone.support] = tau[:, None] * cone.signs[None, :]
    off = cone._off_support
    if off.size:
        polar[:, off] = np.clip(H[:, off], -tau[:, None], tau[:, None])
    proj = H - polar
    return proj, np.linalg.norm(proj, axis=1)


def batched_cone_directions(cone, num, rng, batch=512):
    """Unit cone directions drawn in fixed batches of ``batch`` gaussian rows.

    The library draws only the rows still missing; both keep the first
    ``num`` nonzero projections of the stream.
    """
    collected = []
    have = 0
    while have < num:
        H = rng.standard_normal((batch, cone.ambient_dim))
        proj, norms = cone.project_batch(H)
        keep = norms > 1e-12
        if np.any(keep):
            unit = proj[keep] / norms[keep, None]
            collected.append(unit)
            have += unit.shape[0]
    return np.concatenate(collected, axis=0)[:num].T


# ---------------------------------------------------------------------------
# Single-draw forms of the blocked kernels: one (samples, p) gaussian draw,
# one design product.  The library's blocked kernels must equal them bit for bit.
# ---------------------------------------------------------------------------


def single_draw_width_cone(cone, samples, rng):
    H = rng.standard_normal((samples, cone.ambient_dim))
    return WidthEstimate.from_samples(cone.project_batch(H)[1])


def single_draw_width_localized(fset, radii, samples, rng):
    H = rng.standard_normal((samples, fset.ambient_dim))
    values = _sup_localized_dual_rows(H, fset, radii) / np.asarray(radii)
    return [WidthEstimate.from_samples(column) for column in values.T]


def single_draw_cone_directions(cone, num, rng, max_rounds=CONE_SAMPLE_MAX_ROUNDS):
    """Each round draws all ``num - have`` missing rows in one array."""
    collected = []
    have = 0
    for _ in range(max_rounds):
        if have == num:
            break
        proj, norms = cone.project_batch(rng.standard_normal((num - have, cone.ambient_dim)))
        keep = norms > 1e-12
        collected.append(proj[keep] / norms[keep, None])
        have += int(np.count_nonzero(keep))
    return np.concatenate(collected, axis=0).T


def single_draw_localized_directions(fset, t, num, rng, max_rounds=LOCALIZED_SAMPLE_MAX_BATCHES):
    """Each round draws its scales, then all of its missing gaussian rows in one array."""
    collected = []
    have = 0
    for _ in range(max_rounds):
        if have == num:
            break
        missing = num - have
        magnitudes = fset.radius_c * 10.0 ** rng.uniform(-1.5, 0.5, size=missing)
        X = fset.project_rows(rng.standard_normal((missing, fset.ambient_dim)) * magnitudes[:, None])
        norms = np.linalg.norm(X, axis=1)
        keep = norms >= t
        collected.append(X[keep] / norms[keep, None])
        have += int(np.count_nonzero(keep))
    return np.concatenate(collected, axis=0).T


def single_call_secant_form(instance, base, directions):
    """The secant form from one n x m design product."""
    eta0 = instance.design @ np.asarray(base, dtype=float)
    ae = instance.design @ directions
    b1_shift = glm._cumulant_d1(instance.family, eta0[:, None] + ae)
    b1_base = glm._cumulant_d1(instance.family, eta0)
    sq = np.sum(directions**2, axis=0)
    sq = np.where(sq > 0, sq, 1.0)
    return np.mean((b1_shift - b1_base[:, None]) * ae, axis=0) / sq


def row_block_gram_instance(n, ensemble, theta_true, family, design_rng, responses_rng):
    """A gaussian trial's Gram instance summed over the row blocks of its design.

    The rows and the noise come from the two generators in order, so the sums
    are those of the design and responses that ``glm.sample_design`` and
    ``glm.sample_responses`` would draw at once on the same streams.  For a
    gaussian design with n > p, the library draws the same statistics from
    their Wishart law instead; this construction is the oracle for that law.
    """
    p = theta_true.shape[0]
    gram = np.zeros((p, p))
    shift = np.zeros(p)
    loss_sum = 0.0
    for rows in blocks(n, p):
        design = glm.sample_design(rows.stop - rows.start, p, ensemble, design_rng)
        responses = glm.sample_responses(design, theta_true, family, responses_rng)
        eta = design @ theta_true
        gram += design.T @ design
        shift += (responses - eta) @ design
        loss_sum += float(np.sum(0.5 * eta**2 - responses * eta))
    return glm.GramInstance(gram / n, shift / n, loss_sum / n, theta_true, family, n)


def sample_size_threshold(width1, epsilon, alpha, c1):
    """Smallest n clearing ``sqrt(n) >= c1 alpha^2 width1 / epsilon`` (floored at 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if alpha < 1.0:
        raise ValueError("alpha must be >= 1")
    if c1 <= 0:
        raise ValueError("c1 must be > 0")
    if width1 < 0:
        raise ValueError("width1 must be >= 0")
    return max(1, int(math.ceil((c1 * alpha**2 * width1 / epsilon) ** 2)))


def calibrate_c1(
    width1,
    success,
    seeds=100,
    epsilon=0.5,
    alpha=1.0,
    c1_start=0.25,
    growth=1.5,
    target_rate=0.95,
    c1_cap=64.0,
):
    """Grow c1 until the RSC success rate at the threshold sample size clears the target.

    ``success(n, seed)`` must report whether the restricted-convexity check
    passed for one seeded draw at sample size n.  The theory guarantees only
    that some constant works; this pins a concrete, reproducible value.
    """
    c1 = c1_start
    while c1 <= c1_cap:
        n = sample_size_threshold(width1, epsilon, alpha, c1)
        hits = sum(1 for seed in range(seeds) if success(n, seed))
        if hits >= target_rate * seeds:
            return c1
        c1 *= growth
    raise RuntimeError(
        f"calibration failed: success rate below {target_rate:.0%} even at c1 = {c1_cap}"
    )
