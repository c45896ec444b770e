"""Constrained solvers over the l1 ball: projected gradient and Frank-Wolfe.

Accelerated projected gradient is the solver: the sweep and ``conewidth
solve`` call :func:`projected_gradient`, and no config selects another.  It
stops on the Frank-Wolfe duality-gap certificate: for convex f and feasible
theta, ``gap = <grad f(theta), theta - s>`` with s the linear minimization
oracle's output upper-bounds ``f(theta) - min f``.  Frank-Wolfe, which
touches the constraint set only through that oracle, stays as the reference
solver of acceptance criterion 4's cross-check.  Every report carries the
gap at its final iterate and whether it cleared the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import glm
from .geometry import lmo_l1_ball, project_l1_ball

# projected gradient's first trial step; backtracking halves it as needed
INITIAL_STEP = 1.0

# steps a solve may take before it stops uncertified
MAX_ITER = 50_000


class SolverError(RuntimeError):
    """A solve failed (non-finite values or a step-size underflow)."""


@dataclass(frozen=True)
class SolveReport:
    theta_hat: np.ndarray
    iterations: int
    final_gap: float
    final_objective: float
    converged: bool


def default_gap_tol(instance: glm.Instance) -> float:
    """Default certificate tolerance: an absolute 1e-6 on the duality gap.

    It does not depend on ``instance``.  The loss at the origin is the
    cumulant ``b(0)``, which is 0, log 2 or 1 for the gaussian, logistic and
    poisson families, so a tolerance of ``1e-6 max(1, |f(0)|)`` is this
    constant for every family.
    """
    return 1e-6


def frank_wolfe(
    instance: glm.Instance,
    c: float,
    max_iter: int = MAX_ITER,
    gap_tol: float | None = None,
) -> SolveReport:
    """Frank-Wolfe from the origin, stopping when the gap certificate is at
    most ``gap_tol`` (default :func:`default_gap_tol`, an absolute 1e-6).

    Every step is line-searched: the gaussian family takes the exact
    quadratic step, the other families start from the curvature-matched step
    and backtrack.  The report counts the steps taken, at most ``max_iter``.
    """
    if gap_tol is None:
        gap_tol = default_gap_tol(instance)
    theta = np.zeros(instance.p)
    value = glm.loss(instance, theta)
    gap = np.inf
    k = 0
    while k < max_iter:
        grad = glm.gradient(instance, theta)
        if not np.all(np.isfinite(grad)):
            raise SolverError(f"non-finite gradient at iteration {k}")
        s = lmo_l1_ball(grad, c)
        direction = s - theta
        gap = float(grad @ (theta - s))
        if gap <= gap_tol:
            break
        curvature = glm.hessian_quadratic_form(instance, theta, direction)
        gamma = 1.0 if curvature <= 0 else min(1.0, gap / curvature)
        if instance.family.tag != "gaussian":
            # curvature varies along the segment; backtrack until the
            # quadratic-model decrease is realized
            while gamma > 1e-15:
                try:
                    candidate = glm.loss(instance, theta + gamma * direction)
                except ValueError:
                    candidate = np.inf
                if candidate <= value - 0.5 * gamma * gap + 1e-15 * max(1.0, abs(value)):
                    break
                gamma *= 0.5
            else:
                raise SolverError(f"line search underflow at iteration {k}")
        theta = theta + gamma * direction
        value = glm.loss(instance, theta)
        if not np.isfinite(value):
            raise SolverError(f"non-finite objective at iteration {k}")
        k += 1
    else:
        # iteration cap hit after a step: refresh the certificate at the iterate
        grad = glm.gradient(instance, theta)
        gap = float(grad @ (theta - lmo_l1_ball(grad, c)))
    gap = max(gap, 0.0)
    return SolveReport(theta, k, gap, value, gap <= gap_tol)


def projected_gradient(
    instance: glm.Instance,
    c: float,
    max_iter: int = MAX_ITER,
    tol: float = 1e-10,
    gap_tol: float | None = None,
) -> SolveReport:
    """Accelerated projected gradient (FISTA) with backtracking and restart.

    Each step is a backtracked projected-gradient step from the extrapolated
    point ``z = theta + beta (theta - theta_prev)``.  When that step would
    raise the objective, the momentum is dropped and the step is retaken
    from ``theta`` (function-value restart), so accepted iterates are
    monotone.  The solve stops once the Frank-Wolfe gap at the iterate is at
    most ``gap_tol`` (default :func:`default_gap_tol`, an absolute 1e-6), or
    when an accepted step is below ``tol`` relative to ``||theta||``.

    Predictors (:func:`glm.predictor`, ``A theta`` on a design) are cached
    per accepted iterate and the extrapolated predictor is the same
    combination of cached ones, so a candidate costs one predictor product
    for its loss (an n x p matvec on a design, p x p on a Gram instance);
    gradients are taken from cached predictors.  The report's ``final_gap``
    is the gap at the final iterate, from the gradient the loop already
    holds there.
    """
    if gap_tol is None:
        gap_tol = default_gap_tol(instance)
    theta = np.zeros(instance.p)
    eta = glm.predictor(instance, theta)
    value = glm.loss_at_predictor(instance, theta, eta)
    grad = glm.gradient_at_predictor(instance, eta)
    theta_prev, eta_prev = theta, eta
    momentum = 1.0
    step = INITIAL_STEP
    k = 0
    stalled = False
    while True:
        gap = float(grad @ (theta - lmo_l1_ball(grad, c)))
        if gap <= gap_tol or stalled or k >= max_iter:
            break
        if not np.isfinite(grad).all():
            raise SolverError(f"non-finite gradient at iteration {k}")
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        accepted = None
        if beta > 0.0:
            z = theta + beta * (theta - theta_prev)
            eta_z = eta + beta * (eta - eta_prev)
            try:
                z_value = glm.loss_at_predictor(instance, z, eta_z)
                z_grad = glm.gradient_at_predictor(instance, eta_z)
            except ValueError:  # extrapolated poisson predictor past its cap
                z_value = np.inf
            if np.isfinite(z_value) and np.isfinite(z_grad).all():
                accepted = _backtrack(instance, c, z, z_value, z_grad, step, k)
                if accepted[2] > value:
                    accepted = None
        if accepted is None:  # first step, or restart: no momentum
            momentum_next = 0.5 * (1.0 + math.sqrt(5.0))
            accepted = _backtrack(instance, c, theta, value, grad, step, k)
        candidate, cand_eta, cand_value, step = accepted
        move = candidate - theta
        step_size = math.sqrt(move @ move)
        theta_prev, eta_prev = theta, eta
        theta, eta, value = candidate, cand_eta, cand_value
        grad = glm.gradient_at_predictor(instance, eta)
        momentum = momentum_next
        step *= 1.5
        k += 1
        stalled = step_size <= tol * max(1.0, math.sqrt(theta @ theta))
    return SolveReport(theta, k, gap, value, gap <= gap_tol)


def _backtrack(instance, c, point, value, grad, step, k):
    """Projected-gradient step from ``point``, halving ``step`` until the
    proximal sufficient-decrease condition holds.

    Returns ``(candidate, its predictor, loss, step)``.
    """
    while True:
        candidate = project_l1_ball(point - step * grad, c)
        cand_eta = glm.predictor(instance, candidate)
        try:
            cand_value = glm.loss_at_predictor(instance, candidate, cand_eta)
        except ValueError:
            cand_value = np.inf
        diff = candidate - point
        model = value + float(grad @ diff) + float(diff @ diff) / (2.0 * step)
        if cand_value <= model + 1e-15 * max(1.0, abs(value)):
            return candidate, cand_eta, cand_value, step
        step *= 0.5
        if step < 1e-18:
            raise SolverError(f"backtracking step underflow at iteration {k}")
