"""Error-bound evaluation: the restricted-convexity probe, the bound formulas and t-tuning.

The core chain: restricted strong convexity with parameter mu on the
feasible cone gives the sure inequality
``mu ||theta_hat - theta_true|| <= ||P_K(-grad f_n(theta_true))||``, and in
expectation the projected gradient norm is controlled by the cone's Gaussian
width, giving ``E ||theta_hat - theta_true|| <= 2 sqrt(2 pi) sigma_max
omega_1 / (mu sqrt(n))`` for matched constraints and the t-localized
analogue ``t + 2 sqrt(2 pi) sigma_max omega_1(t) / (mu sqrt(n))`` for
mismatched ones.  Tuning t against the unlocalized width yields the
``n^{-1/4}`` closed-form rate.

mu itself is never observable; :func:`rsc_estimate` returns the restricted
curvature of each direction that :mod:`geometry` sampled from the bound's
set (the cone, or the localized set), whose minimum a sweep uses as mu-hat,
and the theoretical values (``1 - eps`` for the gaussian model, ``nu (1 -
eps)`` for bounded-curvature GLMs) are available alongside.  The sampled
minimum overstates the set's infimum and is no certificate: at n = 40 on the
shipped matched config it reads 0.502 where a search finds 0.046 (ROADMAP
item 2).
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


def rsc_estimate(instance: glm.Instance, E: np.ndarray, sq_norms: np.ndarray | None = None) -> np.ndarray:
    """The restricted curvature of each sampled unit direction, shape (m,).

    ``E`` is a (p, m) array whose columns are unit directions of the bound's
    set, and ``sq_norms`` their :func:`glm.column_sq_norms` (computed per
    call when None; a sweep passes the ones it keeps).  Per direction e the
    probed curvature is the secant form ``<grad f(theta + e) - grad f(theta),
    e>`` at the truth theta.  A finite sample cannot certify an infimum: a
    sweep keeps the minimum as mu-hat, and ``conewidth rsc`` also prints the
    1% quantile.
    """
    return glm.secant_form_batch(instance, instance.theta_true, E, sq_norms)


def mismatched_bound(t: float, sigma_max: float, localized_width1: float, mu: float, n: int) -> float:
    """``t + 2 sqrt(2 pi) sigma_max omega_1(t) / (mu sqrt(n))``, and inf unless mu > 0.

    At t = 0 this is the matched bound ``2 sqrt(2 pi) sigma_max omega_1 / (mu sqrt(n))``
    bit for bit, since ``0.0 + x == x``.  The RSC chain bounds nothing
    without positive curvature, so a mu that is 0, negative or nan gives inf.
    """
    if not mu > 0:
        return math.inf
    return t + BOUND_CONSTANT * sigma_max * localized_width1 / (mu * math.sqrt(n))


# perfbench/tracing.py spans this name as ``bounds.bound``
def bound_report(t: float, width: WidthEstimate, mu: float, sigma_max: float, n: int) -> float:
    """The mismatched bound at t with the width estimate's mean; t = 0 is the matched bound."""
    return mismatched_bound(t, sigma_max, width.mean, mu, n)


def optimize_t(
    widths: Mapping[float, WidthEstimate], global_width: float, sigma_max: float, mu: float, n: int
) -> TunedBound:
    """Minimize ``t + 2 sqrt(2 pi) sigma_max omega_1(t) / (mu sqrt(n))`` over the radii t >= 0.

    ``widths`` maps each candidate t to its width estimate, ``{0: cone
    width}`` for a matched constraint.  The first of tied candidates wins,
    so at ``mu <= 0``, where every bound is infinite, the first one does.

    Also reports the closed-form relaxation obtained by replacing the
    localized width with ``global_width / t``, for the exact ``global_width
    = E sup_F <h, v>``: the bound ``t + C global_width / (t sqrt(n))`` with
    ``C = 2 sqrt(2 pi) sigma_max / mu`` is minimized at ``t* = sqrt(C
    global_width / sqrt(n))`` with value ``2 t*``, which decays like
    ``n^{-1/4}``; nan for a matched sweep's nan ``global_width``.
    """
    t_star = min(widths, key=lambda t: mismatched_bound(t, sigma_max, widths[t].mean, mu, n))
    coef = BOUND_CONSTANT * sigma_max / mu if mu > 0 else math.inf
    t_cf = math.sqrt(coef * global_width / math.sqrt(n))
    return TunedBound(t_star, 2.0 * t_cf)
