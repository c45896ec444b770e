"""Canonical GLM families: data generation and loss/gradient/Hessian oracles.

The per-sample loss is ``b(eta) - y * eta`` with linear predictor
``eta = <a, theta>`` and a fixed convex cumulant per family:

* gaussian:  b(eta) = eta^2 / 2
* logistic:  b(eta) = log(1 + e^eta)
* poisson:   b(eta) = e^eta   (predictor capped at ``POISSON_ETA_CAP``)

The empirical loss ``f_n(theta)`` averages this over the n rows of the
design.  Its gradient at the true parameter is ``-(1/n) A^T (y - b'(A theta))``,
which is the identity the bound calculators depend on; everything downstream
(solvers, restricted-convexity probes, bound evaluation) goes through the
functions in this module.

A trial's instance comes in one of two forms, and only this module tells
them apart.  :class:`ProblemInstance` holds the design and the responses.
:class:`GramInstance` holds the sufficient statistics of a gaussian trial
on a gaussian design with n > p, whose loss depends on the data only
through ``A^T A / n`` and ``A^T y / n``; :func:`sample_instance` picks the
form, and draws those statistics from their Wishart law without any design
(:func:`sample_wishart_instance`).  The solvers work on an affine
*predictor* of theta (:func:`predictor`): ``A theta`` for a design,
``G (theta - theta*)`` for a Gram instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import blocks

FAMILIES = ("gaussian", "logistic", "poisson")
ENSEMBLES = ("gaussian", "rademacher")

# Largest poisson linear predictor: evaluation and sampling refuse to
# exponentiate past it instead of overflowing silently.
POISSON_ETA_CAP = 30.0


@dataclass(frozen=True)
class GlmFamily:
    """A canonical GLM family.

    ``noise_scale`` is the sigma of the gaussian linear model
    ``y = <a, theta> + sigma * w`` and is ignored by the other families.
    """

    tag: str
    noise_scale: float = 1.0


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # Stable on both tails: exp is only taken of non-positive arguments.
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_eta_cap(eta: np.ndarray) -> None:
    if eta.size and np.max(eta) > POISSON_ETA_CAP:
        raise ValueError(f"poisson linear predictor {np.max(eta):.6g} exceeds cap {POISSON_ETA_CAP:.6g}")


def _cumulant(family: GlmFamily, eta: np.ndarray) -> np.ndarray:
    """``b(eta)`` of an array."""
    if family.tag == "gaussian":
        return 0.5 * eta**2
    if family.tag == "logistic":
        return np.logaddexp(0.0, eta)
    _check_eta_cap(eta)
    return np.exp(eta)


def _cumulant_d1(family: GlmFamily, eta: np.ndarray) -> np.ndarray:
    """``b'(eta)`` of an array: the mean response."""
    if family.tag == "gaussian":
        return eta
    if family.tag == "logistic":
        return _sigmoid(eta)
    _check_eta_cap(eta)
    return np.exp(eta)


def _cumulant_d2(family: GlmFamily, eta: np.ndarray) -> np.ndarray:
    """``b''(eta)`` of an array: the response variance."""
    if family.tag == "gaussian":
        return np.ones_like(eta)
    if family.tag == "logistic":
        s = _sigmoid(eta)
        return s * (1.0 - s)
    _check_eta_cap(eta)
    return np.exp(eta)


@dataclass(frozen=True)
class ProblemInstance:
    """A regression problem: design, responses, ground truth, family."""

    design: np.ndarray
    responses: np.ndarray
    theta_true: np.ndarray
    family: GlmFamily

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class GramInstance:
    """A gaussian regression problem on a gaussian design with n > p, held by
    its sufficient statistics (:func:`sample_wishart_instance`).

    With the residual ``w = y - A theta*`` at the truth, it keeps
    ``gram = A^T A / n``, ``shift = A^T w / n`` and ``loss_at_truth =
    f_n(theta*)``.  In ``d = theta - theta*`` the gaussian loss is then
    ``f_n(theta) = f_n(theta*) - <shift, d> + d^T gram d / 2``, with gradient
    ``gram d - shift``.  Centred on the truth, the gradient there is exactly 0
    at zero noise, as on the design, and the loss near the optimum avoids the
    cancellation of ``theta^T G theta / 2 - <A^T y / n, theta>``.
    """

    gram: np.ndarray
    shift: np.ndarray
    loss_at_truth: float
    theta_true: np.ndarray
    family: GlmFamily
    n: int

    @property
    def p(self) -> int:
        return self.theta_true.shape[0]


Instance = ProblemInstance | GramInstance


def sample_design(n: int, p: int, ensemble: str, rng: np.random.Generator) -> np.ndarray:
    """Draw an n-by-p design with i.i.d. standard gaussian or Rademacher entries."""
    if ensemble == "gaussian":
        return rng.standard_normal((n, p))
    return 2.0 * rng.integers(0, 2, size=(n, p)).astype(float) - 1.0


def sample_responses(
    design: np.ndarray,
    theta_true: np.ndarray,
    family: GlmFamily,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw responses from the family's conditional law at ``eta = A theta``."""
    eta = design @ theta_true
    if family.tag == "gaussian":
        return eta + family.noise_scale * rng.standard_normal(eta.shape[0])
    if family.tag == "logistic":
        return (rng.random(eta.shape[0]) < _sigmoid(eta)).astype(float)
    over = eta > POISSON_ETA_CAP
    if np.any(over):
        idx = int(np.argmax(over))
        raise ValueError(
            f"poisson linear predictor {eta[idx]:.6g} at sample {idx} exceeds cap {POISSON_ETA_CAP:.6g}"
        )
    return rng.poisson(np.exp(eta)).astype(float)


def sample_wishart_instance(n: int, theta_true: np.ndarray, family: GlmFamily, rng: np.random.Generator) -> GramInstance:
    """A gaussian trial on an n x p gaussian design, n > p, drawn by its sufficient statistics.

    With the noise ``z = (y - A theta*) / sigma``, ``W = [A | z]^T [A | z]``
    is ``Wishart_{p+1}(n, I)``.  Bartlett's decomposition draws it as
    ``W = L L^T``: L is lower triangular with ``L_ii = sqrt(chi2_{n-i})`` for
    i = 0..p and standard normals below the diagonal.  The draw order is
    fixed: the p + 1 chi-squares first, then the normals of the strict lower
    triangle row by row.  ``L @ L.T`` is one symmetric rank-k update, so W
    is exactly symmetric.  Then ``gram = W[:p, :p] / n``, ``shift = sigma
    W[:p, p] / n`` and ``f_n(theta*) = -theta*^T gram theta* / 2 - <theta*,
    shift>``, all in O(p^2) draws whatever n.
    """
    p = theta_true.shape[0]
    factor = np.zeros((p + 1, p + 1))
    np.fill_diagonal(factor, np.sqrt(rng.chisquare(n - np.arange(p + 1))))
    # a boolean mask fills in C order: the strict lower triangle row by row
    factor[np.tri(p + 1, k=-1, dtype=bool)] = rng.standard_normal(p * (p + 1) // 2)
    wishart = factor @ factor.T
    gram = wishart[:p, :p] / n
    shift = family.noise_scale * wishart[:p, p] / n
    loss_at_truth = float(-0.5 * (theta_true @ gram @ theta_true) - theta_true @ shift)
    return GramInstance(gram, shift, loss_at_truth, theta_true, family, n)


def sample_instance(
    n: int,
    ensemble: str,
    theta_true: np.ndarray,
    family: GlmFamily,
    design_rng: np.random.Generator,
    responses_rng: np.random.Generator,
) -> Instance:
    """One trial's instance: its design from ``design_rng``, its responses from ``responses_rng``.

    A gaussian family on a gaussian design with n > p gets the
    :class:`GramInstance` that :func:`sample_wishart_instance` draws from
    ``design_rng`` alone; ``responses_rng`` goes unused.  Every other trial
    gets its :class:`ProblemInstance`, whose design and responses are one
    draw of :func:`sample_design` and :func:`sample_responses`.
    """
    p = theta_true.shape[0]
    if family.tag == "gaussian" and ensemble == "gaussian" and n > p:
        return sample_wishart_instance(n, theta_true, family, design_rng)
    design = sample_design(n, p, ensemble, design_rng)
    return ProblemInstance(design, sample_responses(design, theta_true, family, responses_rng), theta_true, family)


def predictor(instance: Instance, theta: np.ndarray) -> np.ndarray:
    """The affine predictor of theta that the loss and the gradient are taken from.

    It is ``A theta`` on a design and ``G (theta - theta*)`` on a Gram
    instance.  Being affine, the predictor of ``theta + beta (theta -
    theta')`` is the same combination of the predictors of theta and theta'.
    """
    if isinstance(instance, GramInstance):
        return instance.gram @ (theta - instance.theta_true)
    return instance.design @ theta


def loss_at_predictor(instance: Instance, theta: np.ndarray, eta: np.ndarray) -> float:
    """Empirical loss at theta given its predictor ``eta``.

    On a design that is ``(1/n) sum_i [b(eta_i) - y_i eta_i]``, which needs
    eta alone; on a Gram instance it is the quadratic in ``theta - theta*``.
    """
    if isinstance(instance, GramInstance):
        d = theta - instance.theta_true
        return float(instance.loss_at_truth - instance.shift @ d + 0.5 * (d @ eta))
    b = _cumulant(instance.family, eta)
    return float((b - instance.responses * eta).sum() / instance.n)


def gradient_at_predictor(instance: Instance, eta: np.ndarray) -> np.ndarray:
    """Gradient given the predictor ``eta``: ``(1/n) A^T (b'(eta) - y)``, or
    ``eta - shift`` on a Gram instance."""
    if isinstance(instance, GramInstance):
        return eta - instance.shift
    b1 = _cumulant_d1(instance.family, eta)
    return instance.design.T @ (b1 - instance.responses) / instance.n


def loss(instance: Instance, theta: np.ndarray) -> float:
    """Empirical loss ``(1/n) sum_i [b(eta_i) - y_i eta_i]``."""
    return loss_at_predictor(instance, theta, predictor(instance, theta))


def gradient(instance: Instance, theta: np.ndarray) -> np.ndarray:
    """Gradient ``(1/n) A^T (b'(A theta) - y)``."""
    return gradient_at_predictor(instance, predictor(instance, theta))


def hessian_quadratic_form(instance: Instance, theta: np.ndarray, v: np.ndarray) -> float:
    """Quadratic form ``v^T Hess f_n(theta) v = (1/n) sum_i b''(eta_i) <a_i, v>^2``."""
    if isinstance(instance, GramInstance):
        return float(v @ (instance.gram @ v))
    b2 = _cumulant_d2(instance.family, instance.design @ theta)
    av = instance.design @ v
    return float(np.mean(b2 * av**2))


def secant_form_batch(instance: Instance, directions: np.ndarray) -> np.ndarray:
    """Per-column secant form ``<grad f(theta* + e_j) - grad f(theta*), e_j>`` at the truth theta*.

    The columns are unit directions, so this is each one's restricted
    curvature.  They go through in blocks (:func:`geometry.blocks`), so each
    n x m temporary (p x m on a Gram instance, where the form is ``e^T G e``)
    holds about one block.  A poisson predictor above ``POISSON_ETA_CAP``
    raises with the largest predictor of the first block that has one.
    """
    out = np.empty(directions.shape[1])
    if isinstance(instance, GramInstance):
        for cols in blocks(directions.shape[1], instance.p):
            E = directions[:, cols]
            ge = instance.gram @ E
            ge *= E
            out[cols] = np.sum(ge, axis=0)
        return out
    eta0 = instance.design @ instance.theta_true
    b1_base = _cumulant_d1(instance.family, eta0)[:, None]
    for cols in blocks(directions.shape[1], instance.n):
        E = directions[:, cols]
        ae = instance.design @ E
        q = _cumulant_d1(instance.family, eta0[:, None] + ae)
        q -= b1_base
        q *= ae
        out[cols] = np.mean(q, axis=0)
    return out


def sigma_max(instance: Instance) -> float:
    """Largest response standard deviation ``max_i sqrt(var y_i)``.

    Computed from the model, never estimated from the drawn sample: the
    gaussian family returns its noise scale, the others ``max_i sqrt(b''(eta_i))``.
    """
    if instance.family.tag == "gaussian":
        return float(instance.family.noise_scale)
    b2 = _cumulant_d2(instance.family, instance.design @ instance.theta_true)
    return float(np.sqrt(np.max(b2)))


def sigma_max_upper_bound(family: GlmFamily, c: float) -> float:
    """Model-level upper bound on sigma_max when ``|eta| <= c`` holds.

    Valid for Rademacher designs with an l1 constraint of radius c, where
    ``|<a_i, theta>| <= ||a_i||_inf ||theta||_1 <= c``.
    """
    if family.tag == "gaussian":
        return float(family.noise_scale)
    if family.tag == "logistic":
        return 0.5
    return float(np.exp(0.5 * min(c, POISSON_ETA_CAP)))


def hessian_weight_lower_bound(family: GlmFamily, c: float) -> float:
    """Smallest cumulant curvature over ``|eta| <= c``: ``min b''``.

    gaussian -> 1; logistic -> sigmoid(c)(1 - sigmoid(c)); poisson -> e^{-c}.
    """
    if family.tag == "gaussian":
        return 1.0
    if family.tag == "logistic":
        s = float(_sigmoid(np.asarray(c, dtype=float)))
        return s * (1.0 - s)
    return float(np.exp(-c))
