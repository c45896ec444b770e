"""Constrained solvers over the l1 ball: Frank-Wolfe and projected gradient.

Frank-Wolfe touches the constraint set only through the linear minimization
oracle and carries a duality-gap certificate: for convex f and feasible
theta, ``gap = <grad f(theta), theta - s>`` with s the oracle output
upper-bounds ``f(theta) - min f``.  Accelerated projected gradient is the
default solver and stops on the same certificate.  Every report carries the
gap at its final iterate and whether it cleared the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import glm
from .geometry import lmo_l1_ball, project_l1_ball

FEASIBILITY_TOL = 1e-9


class SolverError(RuntimeError):
    """A solve failed (non-finite values or a step-size underflow)."""


@dataclass(frozen=True)
class SolveReport:
    theta_hat: np.ndarray
    iterations: int
    final_gap: float
    final_objective: float
    method: str
    converged: bool


def default_gap_tol(instance: glm.ProblemInstance) -> float:
    """Default certificate tolerance: 1e-6 relative to the starting objective."""
    return 1e-6 * max(1.0, abs(glm.loss_at_predictor(instance, np.zeros(instance.n))))


def duality_gap(instance: glm.ProblemInstance, theta: np.ndarray, c: float) -> float:
    """Frank-Wolfe gap ``<grad f(theta), theta - s>`` at a feasible theta."""
    theta = np.asarray(theta, dtype=float)
    if np.sum(np.abs(theta)) > c + FEASIBILITY_TOL:
        raise ValueError(f"theta is infeasible: ||theta||_1 = {np.sum(np.abs(theta)):.12g} > c = {c:.12g}")
    grad = glm.gradient(instance, theta)
    s = lmo_l1_ball(grad, c)
    return float(grad @ (theta - s))


def frank_wolfe(
    instance: glm.ProblemInstance,
    c: float,
    max_iter: int = 50_000,
    gap_tol: float | None = None,
    line_search: bool = True,
) -> SolveReport:
    """Frank-Wolfe from the origin, stopping when the gap certificate clears.

    With ``line_search`` the gaussian family takes the exact quadratic step;
    the other families start from the curvature-matched step and backtrack.
    Without it the classic ``2 / (k + 2)`` schedule is used.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    if gap_tol is None:
        gap_tol = default_gap_tol(instance)
    theta = np.zeros(instance.p)
    value = glm.loss(instance, theta)
    gap = np.inf
    k = 0
    for k in range(max_iter):
        grad = glm.gradient(instance, theta)
        if not np.all(np.isfinite(grad)):
            raise SolverError(f"non-finite gradient at iteration {k}")
        s = lmo_l1_ball(grad, c)
        direction = s - theta
        gap = float(grad @ (theta - s))
        if gap <= gap_tol:
            break
        if line_search:
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
        else:
            gamma = 2.0 / (k + 2.0)
        theta = theta + gamma * direction
        value = glm.loss(instance, theta)
        if not np.isfinite(value):
            raise SolverError(f"non-finite objective at iteration {k}")
    else:
        # iteration cap hit after a step: refresh the certificate at the iterate
        grad = glm.gradient(instance, theta)
        gap = float(grad @ (theta - lmo_l1_ball(grad, c)))
    gap = max(gap, 0.0)
    return SolveReport(theta, k, gap, value, "frank_wolfe", gap <= gap_tol)


def projected_gradient(
    instance: glm.ProblemInstance,
    c: float,
    max_iter: int = 20_000,
    tol: float = 1e-10,
    step0: float = 1.0,
    gap_tol: float | None = None,
) -> SolveReport:
    """Accelerated projected gradient (FISTA) with backtracking and restart.

    Each step is a backtracked projected-gradient step from the extrapolated
    point ``z = theta + beta (theta - theta_prev)``.  When that step would
    raise the objective, the momentum is dropped and the step is retaken
    from ``theta`` (function-value restart), so accepted iterates are
    monotone.  The solve stops once the Frank-Wolfe gap at the iterate is at
    most ``gap_tol`` (default :func:`default_gap_tol`), or when an accepted
    step is below ``tol`` relative to ``||theta||``.

    Predictors ``A theta`` are cached per accepted iterate and the
    extrapolated predictor is the same combination of cached ones, so a
    candidate costs one design matvec for its loss; gradients are taken
    from cached predictors.  The report's ``final_gap`` is
    :func:`duality_gap` at the final iterate.
    """
    if c <= 0:
        raise ValueError("c must be > 0")
    if gap_tol is None:
        gap_tol = default_gap_tol(instance)
    theta = np.zeros(instance.p)
    eta = np.zeros(instance.n)  # instance.design @ theta
    value = glm.loss_at_predictor(instance, eta)
    grad = glm.gradient_at_predictor(instance, eta)
    theta_prev, eta_prev = theta, eta
    momentum = 1.0
    step = step0
    k = 0
    while k < max_iter:
        if not np.all(np.isfinite(grad)):
            raise SolverError(f"non-finite gradient at iteration {k}")
        if float(grad @ (theta - lmo_l1_ball(grad, c))) <= gap_tol:
            break
        momentum_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum * momentum))
        beta = (momentum - 1.0) / momentum_next
        accepted = None
        if beta > 0.0:
            z = theta + beta * (theta - theta_prev)
            eta_z = eta + beta * (eta - eta_prev)
            try:
                z_value = glm.loss_at_predictor(instance, eta_z)
                z_grad = glm.gradient_at_predictor(instance, eta_z)
            except ValueError:  # extrapolated poisson predictor past its cap
                z_value = np.inf
            if np.isfinite(z_value) and np.all(np.isfinite(z_grad)):
                accepted = _backtrack(instance, c, z, z_value, z_grad, step, k)
                if accepted[2] > value:
                    accepted = None
        if accepted is None:  # first step, or restart: no momentum
            momentum_next = 0.5 * (1.0 + math.sqrt(5.0))
            accepted = _backtrack(instance, c, theta, value, grad, step, k)
        candidate, cand_eta, cand_value, step = accepted
        step_size = float(np.linalg.norm(candidate - theta))
        theta_prev, eta_prev = theta, eta
        theta, eta, value = candidate, cand_eta, cand_value
        grad = glm.gradient_at_predictor(instance, eta)
        momentum = momentum_next
        step *= 1.5
        k += 1
        if step_size <= tol * max(1.0, float(np.linalg.norm(theta))):
            break
    gap = duality_gap(instance, theta, c)
    return SolveReport(theta, k, gap, value, "projected_gradient", gap <= gap_tol)


def _backtrack(instance, c, point, value, grad, step, k):
    """Projected-gradient step from ``point``, halving ``step`` until the
    proximal sufficient-decrease condition holds.

    Returns ``(candidate, design @ candidate, loss, step)``.
    """
    while True:
        candidate = project_l1_ball(point - step * grad, c)
        cand_eta = instance.design @ candidate
        try:
            cand_value = glm.loss_at_predictor(instance, cand_eta)
        except ValueError:
            cand_value = np.inf
        diff = candidate - point
        model = value + float(grad @ diff) + float(diff @ diff) / (2.0 * step)
        if cand_value <= model + 1e-15 * max(1.0, abs(value)):
            return candidate, cand_eta, cand_value, step
        step *= 0.5
        if step < 1e-18:
            raise SolverError(f"backtracking step underflow at iteration {k}")
