"""Error-bound evaluation: restricted-convexity probes and width-based bounds.

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
curvature of each sampled direction, whose minimum a sweep uses as mu-hat,
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

from . import geometry, glm
from .geometry import ConeModel, FeasibleSet, WidthEstimate

BOUND_CONSTANT = 2.0 * math.sqrt(2.0 * math.pi)

# A descent cone's polar lies in the half-space {u : <u, theta> >= 0}, so a
# gaussian projects to zero with probability at most 1/2, and a slot is
# still empty after R rounds with probability at most 2^-R.
CONE_SAMPLE_MAX_ROUNDS = 100

# The localized sampler gives up after this many rounds of drawing the rows
# still missing.
LOCALIZED_SAMPLE_MAX_BATCHES = 200


@dataclass(frozen=True)
class TunedBound:
    """Result of minimizing the bound over the candidate radii.

    A matched sweep's only candidate is t = 0, and its closed-form bound is nan.
    """

    t_star: float
    bound_closed_form: float


def sample_cone_directions(cone: ConeModel, num: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions in the cone: project gaussians, drop zeros, normalize.

    Each round draws as many rows as are still missing, block by block
    (:func:`geometry.blocks`), so the kept directions are the first ``num``
    nonzero projections of one gaussian stream.  Every block is drawn into,
    and projected through, one set of :class:`geometry.BlockBuffers`, and the
    kept rows are copied straight into the result.  Returns an array of shape
    (p, num) with unit columns; raises ``ValueError`` after
    ``CONE_SAMPLE_MAX_ROUNDS`` rounds that leave some missing.
    """
    p = cone.ambient_dim
    out = np.empty((num, p))
    have = 0
    buffers = geometry.BlockBuffers()
    for _ in range(CONE_SAMPLE_MAX_ROUNDS):
        if have == num:
            break
        for block in geometry.blocks(num - have, p):
            H = rng.standard_normal(out=buffers.take("draw", block.stop - block.start, p))
            proj, norms = cone.project_batch(H, buffers)
            keep = norms > 1e-12
            kept = out[have : have + int(np.count_nonzero(keep))]
            np.compress(keep, proj, axis=0, out=kept)
            kept /= norms[keep, None]
            have += kept.shape[0]
    if have < num:
        raise ValueError(
            f"could not sample directions from the cone: {have} of {num} nonzero projections "
            f"after {CONE_SAMPLE_MAX_ROUNDS} rounds"
        )
    return out.T


def sample_localized_directions(
    fset: FeasibleSet, t: float, num: int, rng: np.random.Generator
) -> np.ndarray:
    """Unit directions in the cone of ``F \\ tB``.

    Draws points of F (projections of gaussians at several scales), keeps
    those with norm at least t, and normalizes.  Because F is star-shaped
    around the origin, each kept direction e satisfies ``t e in F`` and
    therefore lies in the conic hull of ``F \\ tB``.

    Each round draws scales and gaussians only for the rows still missing,
    as :func:`sample_cone_directions` does: first the round's scales, then
    its gaussian rows block by block.  Returns an array of shape
    (p, m) with unit columns, ``m = num`` unless ``LOCALIZED_SAMPLE_MAX_BATCHES``
    rounds end short; raises ``ValueError`` if fewer than
    ``max(2, num // 20)`` were accepted by then.
    """
    p = fset.ambient_dim
    out = np.empty((num, p))
    have = 0
    scale = fset.radius_c
    for _ in range(LOCALIZED_SAMPLE_MAX_BATCHES):
        if have == num:
            break
        magnitudes = scale * 10.0 ** rng.uniform(-1.5, 0.5, size=num - have)
        for block in geometry.blocks(magnitudes.size, p):
            Z = rng.standard_normal((block.stop - block.start, p)) * magnitudes[block, None]
            X = fset.project_rows(Z)
            norms = np.linalg.norm(X, axis=1)
            keep = norms >= t
            kept = int(np.count_nonzero(keep))
            out[have : have + kept] = X[keep] / norms[keep, None]
            have += kept
    if have < max(2, num // 20):
        raise ValueError(
            f"could not sample directions from the localized set at t = {t:.6g}; "
            f"accepted {have} of {num} requested (is t larger than the set radius?)"
        )
    return out[:have].T


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
