"""Canonical GLM families: data generation and loss/gradient/Hessian oracles.

The per-sample loss is ``b(eta) - y * eta`` with linear predictor
``eta = <a, theta>`` and a fixed convex cumulant per family:

* gaussian:  b(eta) = eta^2 / 2
* logistic:  b(eta) = log(1 + e^eta)
* poisson:   b(eta) = e^eta   (predictor capped; see ``GlmFamily.eta_cap``)

The empirical loss ``f_n(theta)`` averages this over the n rows of the
design.  Its gradient at the true parameter is ``-(1/n) A^T (y - b'(A theta))``,
which is the identity the bound calculators depend on; everything downstream
(solvers, restricted-convexity probes, bound evaluation) goes through the
functions in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FAMILIES = ("gaussian", "logistic", "poisson")
ENSEMBLES = ("gaussian", "rademacher")

DEFAULT_POISSON_ETA_CAP = 30.0


@dataclass(frozen=True)
class GlmFamily:
    """A canonical GLM family.

    ``noise_scale`` is the sigma of the gaussian linear model
    ``y = <a, theta> + sigma * w`` and is ignored by the other families.
    ``eta_cap`` bounds the poisson linear predictor; evaluation and sampling
    refuse to exponentiate past it instead of overflowing silently.
    """

    tag: str
    noise_scale: float = 1.0
    eta_cap: float = DEFAULT_POISSON_ETA_CAP

    def __post_init__(self) -> None:
        if self.tag not in FAMILIES:
            raise ValueError(f"unknown family tag {self.tag!r}; expected one of {FAMILIES}")
        if not np.isfinite(self.noise_scale) or self.noise_scale < 0:
            raise ValueError("noise_scale must be finite and >= 0")


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    # Stable on both tails: exp is only taken of non-positive arguments.
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def cumulant_eval(family: GlmFamily, eta):
    """Return ``(b(eta), b'(eta), b''(eta))`` elementwise.

    Accepts scalars or arrays; scalar input gives scalar output.  Poisson
    input above ``family.eta_cap`` raises instead of overflowing.
    """
    eta_arr = np.asarray(eta, dtype=float)
    if family.tag == "gaussian":
        b = 0.5 * eta_arr**2
        b1 = eta_arr
        b2 = np.ones_like(eta_arr)
    elif family.tag == "logistic":
        b = np.logaddexp(0.0, eta_arr)
        b1 = _sigmoid(eta_arr)
        b2 = b1 * (1.0 - b1)
    else:
        if eta_arr.size and np.max(eta_arr) > family.eta_cap:
            raise ValueError(
                f"poisson linear predictor {np.max(eta_arr):.6g} exceeds cap {family.eta_cap:.6g}"
            )
        b = np.exp(eta_arr)
        b1 = b
        b2 = b
    if np.isscalar(eta) or np.ndim(eta) == 0:
        return float(b), float(b1), float(b2)
    return b, b1, b2


@dataclass(frozen=True)
class ProblemInstance:
    """A regression problem: design, responses, ground truth, family."""

    design: np.ndarray
    responses: np.ndarray
    theta_true: np.ndarray
    family: GlmFamily
    ensemble: str = "gaussian"

    def __post_init__(self) -> None:
        design = np.asarray(self.design, dtype=float)
        responses = np.asarray(self.responses, dtype=float)
        theta_true = np.asarray(self.theta_true, dtype=float)
        if design.ndim != 2:
            raise ValueError("design must be a 2-D array")
        n, p = design.shape
        if responses.shape != (n,):
            raise ValueError(f"responses must have shape ({n},), got {responses.shape}")
        if theta_true.shape != (p,):
            raise ValueError(f"theta_true must have shape ({p},), got {theta_true.shape}")
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}; expected one of {ENSEMBLES}")
        if self.ensemble == "rademacher" and not np.all(np.abs(design) == 1.0):
            raise ValueError("rademacher design must have all entries in {+1, -1}")
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "responses", responses)
        object.__setattr__(self, "theta_true", theta_true)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


def sample_design(n: int, p: int, ensemble: str, rng: np.random.Generator) -> np.ndarray:
    """Draw an n-by-p design with i.i.d. standard gaussian or Rademacher entries."""
    if n < 1 or p < 1:
        raise ValueError("n and p must be >= 1")
    if ensemble == "gaussian":
        return rng.standard_normal((n, p))
    if ensemble == "rademacher":
        return 2.0 * rng.integers(0, 2, size=(n, p)).astype(float) - 1.0
    raise ValueError(f"unknown ensemble {ensemble!r}; expected one of {ENSEMBLES}")


def sample_responses(
    design: np.ndarray,
    theta_true: np.ndarray,
    family: GlmFamily,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw responses from the family's conditional law at ``eta = A theta``."""
    eta = np.asarray(design, dtype=float) @ np.asarray(theta_true, dtype=float)
    if family.tag == "gaussian":
        return eta + family.noise_scale * rng.standard_normal(eta.shape[0])
    if family.tag == "logistic":
        return (rng.random(eta.shape[0]) < _sigmoid(eta)).astype(float)
    over = eta > family.eta_cap
    if np.any(over):
        idx = int(np.argmax(over))
        raise ValueError(
            f"poisson linear predictor {eta[idx]:.6g} at sample {idx} exceeds cap {family.eta_cap:.6g}"
        )
    return rng.poisson(np.exp(eta)).astype(float)


def simulate_instance(
    n: int,
    p: int,
    theta_true: np.ndarray,
    family: GlmFamily,
    ensemble: str,
    rng: np.random.Generator,
) -> ProblemInstance:
    """Sample a design, then responses, from a single stream."""
    design = sample_design(n, p, ensemble, rng)
    responses = sample_responses(design, theta_true, family, rng)
    return ProblemInstance(design, responses, theta_true, family, ensemble)


def _check_theta(instance: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (instance.p,):
        raise ValueError(f"theta must have shape ({instance.p},), got {theta.shape}")
    return theta


def loss_at_predictor(instance: ProblemInstance, eta: np.ndarray) -> float:
    """Empirical loss ``(1/n) sum_i [b(eta_i) - y_i eta_i]`` given ``eta = A theta``."""
    b, _, _ = cumulant_eval(instance.family, eta)
    return float(np.mean(b - instance.responses * eta))


def gradient_at_predictor(instance: ProblemInstance, eta: np.ndarray) -> np.ndarray:
    """Gradient ``(1/n) A^T (b'(eta) - y)`` given ``eta = A theta``."""
    _, b1, _ = cumulant_eval(instance.family, eta)
    return instance.design.T @ (b1 - instance.responses) / instance.n


def loss(instance: ProblemInstance, theta: np.ndarray) -> float:
    """Empirical loss ``(1/n) sum_i [b(eta_i) - y_i eta_i]``."""
    return loss_at_predictor(instance, instance.design @ _check_theta(instance, theta))


def gradient(instance: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """Gradient ``(1/n) A^T (b'(A theta) - y)``."""
    return gradient_at_predictor(instance, instance.design @ _check_theta(instance, theta))


def hessian_quadratic_form(instance: ProblemInstance, theta: np.ndarray, v: np.ndarray) -> float:
    """Quadratic form ``v^T Hess f_n(theta) v = (1/n) sum_i b''(eta_i) <a_i, v>^2``."""
    theta = _check_theta(instance, theta)
    v = _check_theta(instance, v)
    eta = instance.design @ theta
    _, _, b2 = cumulant_eval(instance.family, eta)
    av = instance.design @ v
    return float(np.mean(b2 * av**2))


def hessian_quadratic_form_batch(
    instance: ProblemInstance, theta: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """Hessian quadratic form at one base point for many directions (columns)."""
    theta = _check_theta(instance, theta)
    _, _, b2 = cumulant_eval(instance.family, instance.design @ theta)
    av = instance.design @ directions
    return np.mean(b2[:, None] * av**2, axis=0)


def segment_quadratic_form_batch(
    instance: ProblemInstance, base: np.ndarray, directions: np.ndarray, step: float
) -> np.ndarray:
    """Per-column quadratic form at ``base + step * e_j`` in direction ``e_j``.

    Unlike :func:`hessian_quadratic_form_batch` the evaluation point moves with
    the direction, which is what the segment condition of the restricted
    convexity probe needs.
    """
    base = _check_theta(instance, base)
    eta0 = instance.design @ base
    ae = instance.design @ directions
    _, _, b2 = cumulant_eval(instance.family, eta0[:, None] + step * ae)
    return np.mean(b2 * ae**2, axis=0)


def secant_form_batch(instance: ProblemInstance, base: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Per-column secant form ``<grad f(base + e_j) - grad f(base), e_j> / ||e_j||^2``."""
    base = _check_theta(instance, base)
    eta0 = instance.design @ base
    ae = instance.design @ directions
    _, b1_shift, _ = cumulant_eval(instance.family, eta0[:, None] + ae)
    _, b1_base, _ = cumulant_eval(instance.family, eta0)
    sq = np.sum(directions**2, axis=0)
    sq = np.where(sq > 0, sq, 1.0)
    return np.mean((b1_shift - b1_base[:, None]) * ae, axis=0) / sq


def sigma_max(instance: ProblemInstance) -> float:
    """Largest response standard deviation ``max_i sqrt(var y_i)``.

    Computed from the model, never estimated from the drawn sample: the
    gaussian family returns its noise scale, the others ``max_i sqrt(b''(eta_i))``.
    """
    if instance.family.tag == "gaussian":
        return float(instance.family.noise_scale)
    eta = instance.design @ instance.theta_true
    _, _, b2 = cumulant_eval(instance.family, eta)
    return float(np.sqrt(np.max(b2)))


def sigma_max_upper_bound(family: GlmFamily, c: float) -> float:
    """Model-level upper bound on sigma_max when ``|eta| <= c`` holds.

    Valid for Rademacher designs with an l1 constraint of radius c, where
    ``|<a_i, theta>| <= ||a_i||_inf ||theta||_1 <= c``.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    if family.tag == "gaussian":
        return float(family.noise_scale)
    if family.tag == "logistic":
        return 0.5
    return float(np.exp(0.5 * min(c, family.eta_cap)))


def hessian_weight_lower_bound(family: GlmFamily, c: float) -> float:
    """Smallest cumulant curvature over ``|eta| <= c``: ``min b''``.

    gaussian -> 1; logistic -> sigmoid(c)(1 - sigmoid(c)); poisson -> e^{-c}.
    """
    if c < 0:
        raise ValueError("c must be >= 0")
    if family.tag == "gaussian":
        return 1.0
    if family.tag == "logistic":
        s = float(_sigmoid(np.asarray(c, dtype=float)))
        return s * (1.0 - s)
    return float(np.exp(-c))
