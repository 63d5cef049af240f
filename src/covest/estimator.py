"""Unbiased covariance estimation from Bernoulli-masked samples."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import MaskDistribution, MaskedBatch

__all__ = [
    "CovarianceEstimate",
    "estimate_cov",
    "merge_estimates",
    "relative_frobenius_error",
]


@dataclass(frozen=True)
class CovarianceEstimate:
    """A symmetric estimate plus the bookkeeping the batch loop needs.

    iterations counts how many batches were merged into this estimate. The
    merge rule weighs by iteration count, which coincides with weighing by
    sample count exactly when all batches share a size.
    """

    matrix: np.ndarray
    sample_count: int
    iterations: int = 1

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("estimate matrix must be square")
        tol = 1e-12 * max(1.0, float(np.abs(matrix).max()))
        if np.abs(matrix - matrix.T).max() > tol:
            raise ValueError("estimate matrix must be symmetric")
        if self.sample_count < 0 or self.iterations < 0:
            raise ValueError("sample_count and iterations must be nonnegative")
        if self.sample_count == 0 and np.any(matrix != 0.0):
            raise ValueError("an estimate from zero samples must be the zero matrix")
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def zero(cls, n: int) -> "CovarianceEstimate":
        """Empty accumulator: the starting point of the batch loop."""
        return cls(np.zeros((n, n)), sample_count=0, iterations=0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _stack_observed(samples, n: int) -> np.ndarray:
    if not isinstance(samples, MaskedBatch):
        raise TypeError("samples must be a MaskedBatch")
    if samples.n != n:
        raise ValueError(f"batch dimension {samples.n} does not match distribution ({n})")
    return samples.observed


def _inverse_mask_moment(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reweighting matrix: 1/(p_i p_j) off the diagonal and 1/p_i on it.

    The same floating-point operations as
    ``hadamard_inverse(mask_second_moment(p))``, written into ``out`` when it
    is given. Entries of p are positive, so a product p_i p_j that underflows
    to zero is the only way to a nonpositive entry; checking the two smallest
    entries finds it in O(n).
    """
    if p.size > 1:
        two_smallest = np.partition(p, 1)[:2]
        if two_smallest[0] * two_smallest[1] <= 0.0:
            raise ValueError("entrywise inverse requires strictly positive entries")
    # einsum forms the same products as np.outer, about twice as fast
    weights = np.einsum("i,j->ij", p, p, out=out)
    np.fill_diagonal(weights, p)
    return np.divide(1.0, weights, out=weights)


def estimate_cov(samples, p: MaskDistribution) -> CovarianceEstimate:
    """Unbiased covariance estimate from masked samples.

    Averages the outer products of the observed vectors, then multiplies each
    entry by the reciprocal of the mask second moment. That reweighting exactly
    cancels the expected attenuation from masking, so the estimate is unbiased
    for the true covariance no matter how few coordinates each sample reveals.
    The price is that the output is symmetric but need not be positive
    semidefinite.
    """
    observed = _stack_observed(samples, p.n)
    count = observed.shape[0]
    if count == 0:
        raise ValueError("cannot estimate from an empty sample collection")
    second = observed.T @ observed / count
    matrix = second * _inverse_mask_moment(p.p)
    return CovarianceEstimate(matrix=matrix, sample_count=count, iterations=1)


def merge_estimates(prev: CovarianceEstimate, batch: CovarianceEstimate) -> CovarianceEstimate:
    """Fold one more batch into a running estimate.

    The new batch enters with weight 1/(t+1) and the running estimate keeps
    t/(t+1), where t is the running estimate's iteration count. Merging into a
    zero-iteration accumulator returns the batch unchanged. The batch argument
    counts as a single unit regardless of how it was produced.
    """
    if prev.dim != batch.dim:
        raise ValueError("cannot merge estimates of different dimensions")
    t = prev.iterations
    matrix = batch.matrix / (t + 1) + prev.matrix * (t / (t + 1))
    return CovarianceEstimate(
        matrix=matrix,
        sample_count=prev.sample_count + batch.sample_count,
        iterations=t + 1,
    )


def relative_frobenius_error(estimate, truth: np.ndarray) -> float:
    """Frobenius-norm error of an estimate relative to a nonzero reference."""
    matrix = estimate.matrix if isinstance(estimate, CovarianceEstimate) else np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if matrix.shape != truth.shape:
        raise ValueError("estimate and reference must share a shape")
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ValueError("reference matrix must be nonzero")
    return float(np.linalg.norm(matrix - truth) / denom)
