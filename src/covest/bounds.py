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
from dataclasses import asdict, dataclass

import numpy as np

from .data import SyntheticModel
from .estimator import estimate_cov
from .linalg import _check_count, _check_finite, check_psd_spectrum, check_square, check_symmetric
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
    Gaussian case up to an absolute constant). Only the diagonal of cov
    enters. The bounds in this module take the matrix's entrywise norm in
    O(n) from that diagonal and never build it; call this for the n x n
    matrix itself.
    """
    cov = check_square(cov, "cov")
    d = _scale_diagonal(cov, p, sigma_ratio)
    return _check_finite("error scale matrix", _scale_matrix(d, p.p, sigma_ratio))


def _scale_diagonal(cov: np.ndarray, p: MaskDistribution, sigma_ratio: float) -> np.ndarray:
    # the diagonal of a square cov, checked with sigma_ratio against p
    if cov.shape[0] != p.n:
        raise ValueError("covariance dimension does not match distribution")
    _check_finite("sigma_ratio", sigma_ratio, gt=0)
    return _check_finite("diagonal of cov", np.diag(cov), ge=0)


def _scale_matrix(d: np.ndarray, p: np.ndarray, sigma_ratio: float) -> np.ndarray:
    # error_scale_matrix from the checked diagonal d; a tiny p overflows an
    # entry, which the caller judges
    root = np.sqrt(d)
    with np.errstate(divide="ignore", over="ignore"):
        scale = sigma_ratio**2 * np.outer(root, root) / np.outer(p, p)
        # diagonal decays with 1/p_i, not 1/p_i^2: a diagonal entry needs only
        # one coordinate to be observed
        np.fill_diagonal(scale, sigma_ratio**2 * d / p)
    return scale


def _scale_norm(d: np.ndarray, p: np.ndarray, sigma_ratio: float, q: float) -> float:
    """Entrywise q-norm of _scale_matrix(d, p, sigma_ratio) in O(n).

    Off the diagonal s_ij = sigma_ratio^2 * u_i * u_j with u = sqrt(d) / p.
    Every entry is divided by the largest one, top, so nothing overflows.
    With w = (u / u_max)^q the off-diagonal sum of (s_ij / top)^q is
    2 * c * sum_i w_i * sum_{j<i} w_j, where c = (sigma_ratio^2 * u_max^2 / top)^q.
    The inner sum is an exclusive prefix: cumsum(w) - w would cancel where
    one w dominates the ones before it. Where top or the result is not
    finite, the norm comes from the matrix, whose check names an entry that
    overflows; a norm past float range raises too.
    """
    s2 = sigma_ratio**2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.sqrt(d) / p
        diag = s2 * d / p
        u_max = u.max()
        top = diag.max()
        if u.size > 1:
            top = max(top, s2 * u_max * np.partition(u, -2)[-2])
        if top == 0.0:
            return 0.0
        if top < np.inf:
            w = (u / u_max) ** q
            prefix = np.concatenate(([0.0], np.cumsum(w)[:-1]))
            c = (s2 * u_max / top * u_max) ** q
            norm = top * (2.0 * c * np.dot(w, prefix) + np.sum((diag / top) ** q)) ** (1.0 / q)
            if np.isfinite(norm):
                return float(norm)
        norm = _entrywise_norm(_check_finite("error scale matrix", _scale_matrix(d, p, sigma_ratio)), q)
    if not norm < np.inf:
        raise ValueError(f"error scale matrix norm must be finite, got {norm}")
    return norm


def entrywise_norm(matrix: np.ndarray, q: float) -> float:
    """q-norm of the matrix flattened to a vector: (sum |m_ij|^q)^(1/q)."""
    _check_finite("q", q, ge=1)
    return _entrywise_norm(_check_finite("matrix", matrix), q)


def _entrywise_norm(matrix: np.ndarray, q: float) -> float:
    # entrywise_norm of a checked finite matrix; every entry is divided by the
    # largest, so the sum neither overflows nor underflows
    size = np.abs(matrix)
    top = size.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return float(top * np.sum((size / top) ** q) ** (1.0 / q))


def effective_rank(cov: np.ndarray) -> float:
    """Trace over spectral norm of a nonzero symmetric PSD matrix.

    Lies in [1, n], stays put when the matrix is rescaled, and never exceeds
    the rank. cov must pass linalg.check_symmetric, and its eigenvalues
    linalg.check_psd_spectrum.
    """
    return _rank_and_top(check_symmetric(cov, "cov"))[0]


def _rank_and_top(cov: np.ndarray) -> tuple[float, float]:
    # effective_rank of a checked matrix, and its top eigenvalue, from one eigvalsh
    w = np.linalg.eigvalsh(cov)
    if w[0] == w[-1] == 0.0:
        raise ValueError("effective rank of the zero matrix is undefined")
    check_psd_spectrum(w)
    return _erank(w, w[-1]), float(w[-1])


def _erank(values: np.ndarray, top: float) -> float:
    # sum(values) / top, for eigenvalues or a diagonal. Both are first divided
    # by the power of two just above top, which is exact short of underflow:
    # the result is the plain quotient wherever the plain sum is finite, and
    # stays finite near the float limit, where that sum overflows
    shift = -np.frexp(top)[1]
    return float(np.sum(np.ldexp(values, shift)) / np.ldexp(top, shift))


def error_bound(scale_norm: float, dim: int, samples: int, eta: float, gamma: float = 1.0) -> float:
    """High-probability error bound for the masked estimator.

    With probability at least 1 - 2/eta the chosen entrywise norm of the
    estimation error is at most scale_norm * max(sqrt(r), r) where
    r = gamma * (2*log(dim) + log(eta)) / samples. The square-root branch is
    the large-sample regime; the linear branch takes over when samples are few
    relative to the confidence level.
    """
    samples = _check_count("samples", samples, ge=1)
    _check_finite("eta", eta, gt=1)
    _check_finite("gamma", gamma, gt=0)
    dim = _check_count("dim", dim, ge=1)
    _check_finite("scale_norm", scale_norm, ge=0)
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
    _check_finite("q", q, ge=2)
    cov = check_symmetric(cov, "cov")
    norm = _scale_norm(_scale_diagonal(cov, p, sigma_ratio), p.p, sigma_ratio, q)
    erank, top = _rank_and_top(cov)
    value = 2.0 * sigma_ratio**2 * erank * top / p.p_min**2
    # cheap self-check: the summary bound must dominate the exact norm
    if not norm <= value:
        raise RuntimeError("effective-rank bound fell below the exact scale-matrix norm")
    return float(value)


@dataclass(frozen=True)
class BoundReport:
    """Everything needed to audit one error-bound evaluation.

    The n x n scale matrix is neither built nor kept; error_scale_matrix
    builds it on request.
    """

    scale_norm: float
    q: float
    erank: float
    bound: float
    eta: float
    gamma: float
    samples: int
    sigma_ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


def bound_report(
    cov: np.ndarray,
    p: MaskDistribution,
    samples: int,
    eta: float,
    gamma: float = 1.0,
    q: float = 2.0,
    sigma_ratio: float = 1.0,
) -> BoundReport:
    """Assemble the scale-matrix norm, the effective rank, and the bound.

    The norm is computed in O(n) from the diagonal of cov; the scale matrix
    itself is not built. cov must pass linalg.check_symmetric with a
    nonnegative diagonal, and its eigenvalues linalg.check_psd_spectrum.
    """
    _check_finite("q", q, ge=1)  # error_bound checks samples, eta and gamma
    cov = check_symmetric(cov, "cov")
    erank = _rank_and_top(cov)[0]
    return _bound_report(_scale_diagonal(cov, p, sigma_ratio), p, samples, eta, gamma, q,
                         sigma_ratio, erank)


def _bound_report(d, p, samples, eta, gamma, q, sigma_ratio, erank: float) -> BoundReport:
    # bound_report from the covariance's diagonal d and its effective rank,
    # for a caller that reports on one covariance under many designs
    norm = _scale_norm(d, p.p, sigma_ratio, q)
    return BoundReport(
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
    trials and approximate off them. The rows come from one
    ``data.SyntheticModel(cov)``, so a diagonal cov is drawn without an eigh.
    """
    samples = _check_count("samples", samples, ge=1)
    _check_finite("eta", eta, gt=1)
    trials = _check_count("trials", trials, ge=1)
    _check_finite("q", q, ge=1)
    seed = _check_count("seed", seed, ge=0)
    cov = check_symmetric(cov, "cov")
    if not np.any(cov):
        raise ValueError("cov must be nonzero")
    scale_norm = _scale_norm(_scale_diagonal(cov, p, sigma_ratio), p.p, sigma_ratio, q)
    rate_per_gamma = (2.0 * math.log(p.n) + math.log(eta)) / samples
    model = SyntheticModel(cov)
    implied = np.empty(trials)
    for r in range(trials):
        rng = child_rng(seed, r)
        xs = model.stream(rng).draw(samples)
        est = estimate_cov(mask_batch(xs, p, rng), p)
        err = _entrywise_norm(est.matrix - cov, q)
        implied[r] = _implied_gamma(err, scale_norm, rate_per_gamma)
    # conservative quantile: at most floor(2/eta * trials) trials may exceed
    implied.sort()
    keep = min(trials, max(1, math.ceil((1.0 - 2.0 / eta) * trials)))
    return float(implied[keep - 1])
