"""Unbiased covariance estimation from Bernoulli-masked samples."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_finite, check_symmetric
from .sampling import MaskDistribution, MaskedBatch

__all__ = [
    "CovarianceEstimate",
    "estimate_cov",
    "merge_estimates",
    "relative_frobenius_error",
]


@dataclass(frozen=True)
class CovarianceEstimate:
    """A symmetric estimate and the number of samples behind it.

    sample_count is the merge weight: merging averages estimates in
    proportion to their sample counts.
    """

    matrix: np.ndarray
    sample_count: int

    def __post_init__(self):
        matrix = check_symmetric(self.matrix, "matrix")
        _check_finite("sample_count", self.sample_count, ge=0)
        if self.sample_count == 0 and np.any(matrix != 0.0):
            raise ValueError("an estimate from zero samples must be the zero matrix")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def zero(cls, n: int) -> "CovarianceEstimate":
        """Empty accumulator: merging a batch into it returns the batch."""
        return cls(np.zeros((n, n)), sample_count=0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _stack_observed(samples, n: int) -> np.ndarray:
    if not isinstance(samples, MaskedBatch):
        raise TypeError("samples must be a MaskedBatch")
    if samples.n != n:
        raise ValueError(f"batch dimension {samples.n} does not match distribution ({n})")
    return samples.observed


def _check_reweighting(p: np.ndarray) -> None:
    """Reject p whose largest reweighting factor overflows, in O(n).

    That factor is 1/(p_i p_j) for the two smallest entries, or 1/p_0 when n = 1.
    """
    smallest = np.partition(p, 1)[:2] if p.size > 1 else p
    if not float(np.prod(smallest)) * np.finfo(float).max >= 1.0:
        raise ValueError("entrywise inverse requires strictly positive entries: 1/(p_i p_j) overflows")


def _reweighted_gram(observed: np.ndarray, p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """obs^T obs times the inverse mask second moment, without an n x n weight matrix.

    With a = obs/p (observed is scaled in place), a^T a holds obs_i obs_j /
    (p_i p_j); its diagonal times p holds obs_i^2 / p_i. a^T a is exactly symmetric.
    """
    observed /= p
    gram = np.matmul(observed.T, observed, out=out)
    gram[np.diag_indices_from(gram)] *= p
    return gram


def estimate_cov(samples, p: MaskDistribution) -> CovarianceEstimate:
    """Unbiased covariance estimate from masked samples.

    Averages the outer products of the observed vectors, reweighted entrywise
    by the reciprocal of the mask second moment: 1/(p_i p_j) off the diagonal,
    1/p_i on it, computed as (obs/p)^T (obs/p) with its diagonal times p. That
    exactly cancels the expected attenuation from masking, so the estimate is
    unbiased for the true covariance no matter how few coordinates each sample
    reveals. The price is that the output is symmetric but need not be
    positive semidefinite.
    """
    observed = _stack_observed(samples, p.n)
    count = observed.shape[0]
    if count == 0:
        raise ValueError("cannot estimate from an empty sample collection")
    _check_reweighting(p.p)
    matrix = _reweighted_gram(observed.copy(), p.p)
    matrix /= count
    return CovarianceEstimate(matrix=matrix, sample_count=count)


def merge_estimates(prev: CovarianceEstimate, batch: CovarianceEstimate) -> CovarianceEstimate:
    """Fold one more batch into a running estimate, weighted by sample count.

    With n_prev and n_b samples behind the two estimates, the batch enters
    with weight n_b / (n_prev + n_b) and the running estimate keeps the rest,
    so merging batches of any sizes reproduces the estimate of their union
    (the streaming update of Chan, Golub & LeVeque, 1979). Each batch is
    unbiased under its own design and the weights are fixed, so the merge
    stays unbiased. Merging into the zero accumulator returns the batch
    unchanged; a batch of zero samples is rejected.
    """
    if prev.dim != batch.dim:
        raise ValueError("cannot merge estimates of different dimensions")
    if batch.sample_count == 0:
        raise ValueError("cannot merge a batch of zero samples")
    total = prev.sample_count + batch.sample_count
    matrix = batch.matrix / (total / batch.sample_count) + prev.matrix * (prev.sample_count / total)
    return CovarianceEstimate(matrix=matrix, sample_count=total)


def _check_truth(truth, shape: tuple) -> tuple[np.ndarray, float]:
    """A finite, nonzero reference of the given shape, and its Frobenius norm."""
    truth = _check_finite("truth", truth)
    if truth.shape != shape:
        raise ValueError("estimate and reference must share a shape")
    norm = float(np.linalg.norm(truth))
    if norm == 0.0:
        raise ValueError("reference matrix must be nonzero")
    return truth, norm


def relative_frobenius_error(estimate, truth: np.ndarray) -> float:
    """Frobenius-norm error of an estimate relative to a nonzero reference."""
    matrix = estimate.matrix if isinstance(estimate, CovarianceEstimate) else _check_finite("estimate", estimate)
    truth, denom = _check_truth(truth, matrix.shape)
    return float(np.linalg.norm(matrix - truth) / denom)
