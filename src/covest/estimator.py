"""Unbiased covariance estimation from Bernoulli-masked samples."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _check_count, _check_finite, check_symmetric
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
        sample_count = _check_count("sample_count", self.sample_count, ge=0)
        if sample_count == 0 and np.any(matrix != 0.0):
            raise ValueError("an estimate from zero samples must be the zero matrix")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "sample_count", sample_count)

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


# rows of the running sum folded per BLAS call; on active784, panels of 64,
# 128 and 256 rows timed within noise of one another (BENCH_panel_gram.json)
_PANEL = 128


def _panels(n: int) -> list:
    """Row panels [i0, i1) of _PANEL rows, the last one shorter, covering range(n)."""
    return [(i0, min(i0 + _PANEL, n)) for i0 in range(0, n, _PANEL)]


def _panel_buffer(n: int) -> np.ndarray:
    """Scratch for _fold_gram: the first panel, min(n, _PANEL) x n floats, is the largest."""
    return np.empty(min(n, _PANEL) * n)


def _fold_gram(observed: np.ndarray, p: np.ndarray, gram_sum: np.ndarray, buffer: np.ndarray,
               truth: np.ndarray | None = None, samples: int = 1) -> float:
    """Add the batch's reweighted Gram matrix to the upper triangle of gram_sum.

    With a = obs/p (observed is scaled in place), a^T a holds obs_i obs_j /
    (p_i p_j); its diagonal times p holds obs_i^2 / p_i. Row panel [i0, i1)
    is a[:, i0:i1]^T a[:, i0:], computed in buffer and added to
    gram_sum[i0:i1, i0:], so each entry on or above the diagonal blocks is
    touched once; _estimate_from_sum mirrors and divides the sum where a
    caller reads it whole. With truth, each panel of gram_sum / samples is
    scored while it is in cache, and the squared Frobenius error against
    truth is returned (0.0 without truth): the panel's part right of its
    diagonal block stands for itself and its mirror image. For n <= _PANEL
    there is one panel, and the calls are a^T a (syrk) and one dot.
    """
    observed /= p
    n = p.shape[0]
    sq = 0.0
    for i0, i1 in _panels(n):
        rows, width = i1 - i0, n - i0
        panel = np.matmul(observed[:, i0:i1].T, observed[:, i0:],
                          out=buffer[:rows * width].reshape(rows, width))
        panel.reshape(-1)[::width + 1] *= p[i0:i1]  # the diagonal, a view of the contiguous panel
        block = gram_sum[i0:i1, i0:]
        block += panel
        if truth is not None:
            np.divide(block, samples, out=panel)
            panel -= truth[i0:i1, i0:]
            flat = panel.reshape(-1)
            total = flat.dot(flat)
            if rows == width:
                sq += total
            else:
                diag_block = panel[:, :rows]
                sq += 2.0 * total - np.einsum("ij,ij->", diag_block, diag_block)
    return sq


def _estimate_from_sum(gram_sum: np.ndarray, samples: int) -> CovarianceEstimate:
    """The estimate gram_sum / samples of a sum _fold_gram built.

    Its upper blocks are mirrored below in place first; later folds leave those alone.
    """
    for i0, i1 in _panels(gram_sum.shape[0])[:-1]:
        gram_sum[i1:, i0:i1] = gram_sum[i0:i1, i1:].T
    return CovarianceEstimate(gram_sum / samples, samples)


def _batch_estimate(observed: np.ndarray, p: np.ndarray) -> CovarianceEstimate:
    """The estimate of one batch of masked rows: a copy folded into a zero sum."""
    n = p.shape[0]
    gram_sum = np.zeros((n, n))
    _fold_gram(observed.copy(), p, gram_sum, _panel_buffer(n))
    return _estimate_from_sum(gram_sum, observed.shape[0])


def estimate_cov(samples, p: MaskDistribution) -> CovarianceEstimate:
    """Unbiased covariance estimate from masked samples.

    Averages the outer products of the observed vectors, reweighted entrywise
    by the reciprocal of the mask second moment: 1/(p_i p_j) off the diagonal,
    1/p_i on it, computed as (obs/p)^T (obs/p) with its diagonal times p. That
    exactly cancels the expected attenuation from masking, so the estimate is
    unbiased for the true covariance no matter how few coordinates each sample
    reveals. The price is that the output is symmetric but need not be
    positive semidefinite. The product is folded into a zero sum by
    _fold_gram, the batch loop's kernel, in row panels of min(n, 128) x n
    floats, and mirrored once.
    """
    observed = _stack_observed(samples, p.n)
    count = observed.shape[0]
    if count == 0:
        raise ValueError("cannot estimate from an empty sample collection")
    _check_reweighting(p.p)
    return _batch_estimate(observed, p.p)


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
