"""Error-bound evaluation: the restricted-convexity probe, the bound formulas and t-tuning.

The core chain: restricted strong convexity with parameter mu on the
feasible cone gives the sure inequality
``mu ||theta_hat - theta_true|| <= ||P_K(-grad f_n(theta_true))||``, and in
expectation the projected gradient norm is controlled by the cone's Gaussian
width.  With ``C(n) = 2 sqrt(2 pi) sigma_max / (mu sqrt(n))`` from
:func:`coefficient`, ``E ||theta_hat - theta_true|| <= t + C(n) omega_1(t)``:
the matched bound at t = 0 and the mismatched one at t > 0.  Tuning t
against the unlocalized width yields the ``n^{-1/4}`` closed-form rate.

mu itself is never observable; :func:`rsc_estimate` returns the restricted
curvature at the truth of each unit direction that :mod:`geometry` sampled
from the bound's set (the localized set, drawn at the tangent radius for
the cone), whose minimum a sweep uses as mu-hat, and the theoretical values
(``1 - eps`` for the gaussian model, ``nu (1 - eps)`` for bounded-curvature
GLMs) are available alongside.  The sampled minimum overstates the set's
infimum and is no certificate: at n = 40 on the shipped matched config it
averages 0.460, and a search over the cone found 0.046 (ROADMAP item 2).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import glm
from .geometry import WidthEstimate

BOUND_CONSTANT = 2.0 * math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class TunedBound:
    """Result of minimizing the bound over the candidate radii.

    A matched sweep's only candidate is t = 0, and its closed-form bound is nan.
    """

    t_star: float
    bound_closed_form: float


def rsc_estimate(instance: glm.Instance, E: np.ndarray) -> np.ndarray:
    """The restricted curvature of each sampled unit direction, shape (m,).

    ``E`` is a (p, m) array whose columns are unit directions of the bound's
    set; per column e the curvature is the secant form ``<grad f(theta* + e)
    - grad f(theta*), e>`` at the truth (:func:`glm.secant_form_batch`).  A
    finite sample cannot certify an infimum: a sweep keeps the minimum as
    mu-hat, and ``conewidth rsc`` also prints the 1% quantile.
    """
    return glm.secant_form_batch(instance, E)


def coefficient(sigma_max: float, mu: float, n: int) -> float:
    """The bound's coefficient ``C(n) = 2 sqrt(2 pi) sigma_max / (mu sqrt(n))``, and inf unless mu > 0.

    The RSC chain bounds nothing without positive curvature, so a mu that is 0,
    negative or nan gives inf, for the tuning mu and each trial's mu alike.
    """
    if not mu > 0:
        return math.inf
    return BOUND_CONSTANT * sigma_max / (mu * math.sqrt(n))


# perfbench/tracing.py spans this name as ``bounds.bound``
def bound_report(t: float, width: WidthEstimate, coef: float) -> float:
    """The bound ``t + C(n) omega_1(t)`` at t with the width estimate's mean; t = 0 is the matched bound."""
    return t + coef * width.mean


def optimize_t(widths: Mapping[float, WidthEstimate], global_width: float, coef: float) -> TunedBound:
    """Minimize ``t + coef omega_1(t)`` over the radii t >= 0, for ``coef = C(n)`` of :func:`coefficient`.

    ``widths`` maps each candidate t to its width estimate, ``{0: cone
    width}`` for a matched constraint.  The first of tied candidates wins,
    so at ``coef = inf`` (mu <= 0), where every bound is infinite, it does.

    Also reports the closed-form relaxation with the localized width replaced
    by ``global_width / t``, for the exact ``global_width = E sup_F <h, v>``:
    ``t + C(n) global_width / t`` is minimized at ``t* = sqrt(C(n)
    global_width)`` with value ``2 t*``, which decays like ``n^{-1/4}``; nan
    for a matched sweep's nan ``global_width``.
    """
    t_star = min(widths, key=lambda t: t + coef * widths[t].mean)
    return TunedBound(t_star, 2.0 * math.sqrt(coef * global_width))
