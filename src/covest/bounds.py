"""Error-scale diagnostics for the masked covariance estimator.

The estimator's entrywise deviations concentrate at a rate set by a matrix of
per-entry scale factors: each diagonal scale is the coordinate variance
divided by its observation probability, and each off-diagonal scale is the
geometric mean of the two variances divided by the probability product. An
entrywise norm of that matrix, times a dimension- and confidence-dependent
rate, upper-bounds the estimation error with high probability. The constant
in front is exposed as ``gamma`` (default 1) and can be calibrated by
simulation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import estimate_cov
from .linalg import check_square, psd_sqrt_factor
from .sampling import MaskDistribution, child_rng, mask_batch

__all__ = [
    "BoundReport",
    "error_scale_matrix",
    "entrywise_norm",
    "effective_rank",
    "error_bound",
    "error_scale_norm_bound",
    "bound_report",
    "calibrate_gamma",
]


def error_scale_matrix(cov: np.ndarray, p: MaskDistribution, sigma_ratio: float = 1.0) -> np.ndarray:
    """Per-entry scale factors governing the estimator's deviations.

    cov is the true (or surrogate) covariance, p the observation
    probabilities, and sigma_ratio the factor relating each coordinate's
    sub-Gaussian norm to the square root of its variance (1 covers the
    Gaussian case up to an absolute constant).
    """
    cov = check_square(cov, "covariance")
    if cov.shape[0] != p.n:
        raise ValueError("covariance dimension does not match distribution")
    if sigma_ratio <= 0:
        raise ValueError("sigma_ratio must be positive")
    d = np.diag(cov)
    if np.any(d < 0):
        raise ValueError("covariance diagonal must be nonnegative")
    root = np.sqrt(d)
    scale = sigma_ratio**2 * np.outer(root, root) / np.outer(p.p, p.p)
    # diagonal decays with 1/p_i, not 1/p_i^2: a diagonal entry needs only
    # one coordinate to be observed
    np.fill_diagonal(scale, sigma_ratio**2 * d / p.p)
    return scale


def entrywise_norm(matrix: np.ndarray, q: float) -> float:
    """q-norm of the matrix flattened to a vector: (sum |m_ij|^q)^(1/q)."""
    if q < 1:
        raise ValueError("entrywise norm requires q >= 1")
    matrix = np.asarray(matrix, dtype=float)
    return float(np.sum(np.abs(matrix) ** q) ** (1.0 / q))


def effective_rank(cov: np.ndarray, tol: float = 1e-8) -> float:
    """Trace over spectral norm of a nonzero PSD matrix.

    Lies in [1, n], stays put when the matrix is rescaled, and never exceeds
    the rank. Eigenvalues below -tol (relative to the largest magnitude)
    raise; smaller dips are treated as numerical noise.
    """
    cov = check_square(cov, "covariance")
    w = np.linalg.eigvalsh(cov)
    scale = max(abs(w[0]), abs(w[-1]))
    if scale == 0.0:
        raise ValueError("effective rank of the zero matrix is undefined")
    if w[0] < -tol * scale:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return float(np.sum(w) / w[-1])


def error_bound(scale_norm: float, dim: int, samples: int, eta: float, gamma: float = 1.0) -> float:
    """High-probability error bound for the masked estimator.

    With probability at least 1 - 2/eta the chosen entrywise norm of the
    estimation error is at most scale_norm * max(sqrt(r), r) where
    r = gamma * (2*log(dim) + log(eta)) / samples. The square-root branch is
    the large-sample regime; the linear branch takes over when samples are few
    relative to the confidence level.
    """
    if samples < 1:
        raise ValueError("samples must be a positive integer")
    if eta <= 1:
        raise ValueError("eta must exceed 1")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if scale_norm < 0:
        raise ValueError("scale_norm must be nonnegative")
    rate = gamma * (2.0 * math.log(dim) + math.log(eta)) / samples
    return float(scale_norm * max(math.sqrt(rate), rate))


def error_scale_norm_bound(
    cov: np.ndarray, p: MaskDistribution, sigma_ratio: float = 1.0, q: float = 2.0
) -> float:
    """Upper bound on the scale-matrix q-norm that needs only summary spectra.

    Equals 2 * sigma_ratio^2 * effective_rank(cov) * ||cov|| / p_min^2, so the
    error bound can be stated from the effective rank and the worst
    observation probability alone. Valid for q >= 2.
    """
    if q < 2:
        raise ValueError("the effective-rank bound requires q >= 2")
    cov = check_square(cov, "covariance")
    erank = effective_rank(cov)
    top = float(np.linalg.eigvalsh(cov)[-1])
    value = 2.0 * sigma_ratio**2 * erank * top / p.p_min**2
    # cheap self-check: the summary bound must dominate the exact norm
    if not entrywise_norm(error_scale_matrix(cov, p, sigma_ratio), q) <= value:
        raise RuntimeError("effective-rank bound fell below the exact scale-matrix norm")
    return float(value)


@dataclass(frozen=True)
class BoundReport:
    """Everything needed to audit one error-bound evaluation."""

    scale_matrix: np.ndarray
    scale_norm: float
    q: float
    erank: float
    bound: float
    eta: float
    gamma: float
    samples: int
    sigma_ratio: float

    def to_dict(self, include_matrix: bool = True) -> dict:
        out = {
            "scale_norm": self.scale_norm,
            "q": self.q,
            "erank": self.erank,
            "bound": self.bound,
            "eta": self.eta,
            "gamma": self.gamma,
            "samples": self.samples,
            "sigma_ratio": self.sigma_ratio,
        }
        if include_matrix:
            out["scale_matrix"] = self.scale_matrix.tolist()
        return out


def bound_report(
    cov: np.ndarray,
    p: MaskDistribution,
    samples: int,
    eta: float,
    gamma: float = 1.0,
    q: float = 2.0,
    sigma_ratio: float = 1.0,
) -> BoundReport:
    """Assemble the scale matrix, its norm, the effective rank, and the bound."""
    return _bound_report(cov, p, samples, eta, gamma, q, sigma_ratio, effective_rank(cov))


def _bound_report(cov, p, samples, eta, gamma, q, sigma_ratio, erank: float) -> BoundReport:
    # bound_report with the effective rank of cov supplied by a caller that
    # reports on one covariance under many designs
    scale = error_scale_matrix(cov, p, sigma_ratio)
    norm = entrywise_norm(scale, q)
    return BoundReport(
        scale_matrix=scale,
        scale_norm=norm,
        q=q,
        erank=erank,
        bound=error_bound(norm, p.n, samples, eta, gamma),
        eta=eta,
        gamma=gamma,
        samples=int(samples),
        sigma_ratio=sigma_ratio,
    )


def _implied_gamma(err: float, scale_norm: float, rate_per_gamma: float) -> float:
    # smallest gamma whose bound covers err: the bound is increasing in gamma,
    # with the sqrt branch active while gamma * rate_per_gamma <= 1
    ratio = err / scale_norm
    if ratio <= 1.0:
        return ratio**2 / rate_per_gamma
    return ratio / rate_per_gamma


def calibrate_gamma(
    cov: np.ndarray,
    p: MaskDistribution,
    samples: int,
    eta: float,
    trials: int = 1000,
    q: float = 2.0,
    sigma_ratio: float = 1.0,
    seed: int = 0,
) -> float:
    """Smallest gamma whose bound covers a (1 - 2/eta) share of Gaussian trials.

    Draws ``trials`` independent masked Gaussian experiments with the given
    covariance, inverts the bound for each observed error (closed form since
    the bound is monotone in gamma), and returns the conservative empirical
    quantile. Calibration, not proof: the guarantee is exact on the simulated
    trials and approximate off them.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    if eta <= 1:
        raise ValueError("eta must exceed 1")
    cov = check_square(cov, "covariance")
    scale_norm = entrywise_norm(error_scale_matrix(cov, p, sigma_ratio), q)
    rate_per_gamma = (2.0 * math.log(p.n) + math.log(eta)) / samples
    factor = psd_sqrt_factor(cov)
    implied = np.empty(trials)
    for r in range(trials):
        rng = child_rng(seed, r)
        xs = rng.standard_normal((samples, p.n)) @ factor.T
        est = estimate_cov(mask_batch(xs, p, rng), p)
        err = entrywise_norm(est.matrix - cov, q)
        implied[r] = _implied_gamma(err, scale_norm, rate_per_gamma)
    # conservative quantile: at most floor(2/eta * trials) trials may exceed
    implied.sort()
    keep = min(trials, max(1, math.ceil((1.0 - 2.0 / eta) * trials)))
    return float(implied[keep - 1])
