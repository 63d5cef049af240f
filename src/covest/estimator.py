"""Unbiased covariance estimation from Bernoulli-masked samples."""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .linalg import _blas_threads, _check_count, _check_finite, check_symmetric
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
    truth is returned (0.0 without truth), the panels' parts added in panel
    order. For n <= _PANEL there is one panel, and the calls are a^T a (syrk)
    and one dot. This is a _Fold on the calling thread alone; a batch
    loop's _folding holds one such buffer per folding thread.
    """
    fold = _Fold(gram_sum, truth, [buffer])
    fold.start(observed, p, samples)
    return fold.finish()


def _fold_panel(a, p, gram_sum, buffer, i0, i1, truth, samples) -> float:
    """Fold row panel [i0, i1) of the scaled rows a; return its part of the squared error."""
    rows, width = i1 - i0, p.shape[0] - i0
    panel = np.matmul(a[:, i0:i1].T, a[:, i0:], out=buffer[:rows * width].reshape(rows, width))
    panel.reshape(-1)[::width + 1] *= p[i0:i1]  # the diagonal, a view of the contiguous panel
    block = gram_sum[i0:i1, i0:]
    block += panel
    if truth is None:
        return 0.0
    np.divide(block, samples, out=panel)
    panel -= truth[i0:i1, i0:]
    flat = panel.reshape(-1)
    total = flat.dot(flat)
    if rows == width:
        return total
    # the part right of the diagonal block stands for itself and its mirror image
    diag_block = panel[:, :rows]
    return 2.0 * total - np.einsum("ij,ij->", diag_block, diag_block)


class _Fold:
    """_fold_gram in two halves, each batch's panels shared with one helper per buffer past the first.

    start() hands the panels to the helpers and returns; finish() folds the
    panels left on the calling thread, waits for the helpers and sums the
    squared error in panel order, whichever thread folded which panel.
    """

    def __init__(self, gram_sum, truth, buffers: list, pool=None):
        self._gram_sum, self._truth, self._buffers, self._pool = gram_sum, truth, buffers, pool
        self._panels = _panels(gram_sum.shape[0])
        self._lock = threading.Lock()

    def start(self, observed: np.ndarray, p: np.ndarray, samples: int) -> None:
        observed /= p
        self._batch = (observed, p, samples)
        self._todo = iter(range(len(self._panels)))
        self._parts = [0.0] * len(self._panels)
        self._helping = [self._pool.submit(self._work, buffer) for buffer in self._buffers[1:]]

    def finish(self) -> float:
        self._work(self._buffers[0])
        for helper in self._helping:
            helper.result()
        sq = 0.0
        for part in self._parts:
            sq += part
        return sq

    def _work(self, buffer: np.ndarray) -> None:
        observed, p, samples = self._batch
        while True:
            with self._lock:
                k = next(self._todo, None)
            if k is None:
                return
            i0, i1 = self._panels[k]
            self._parts[k] = _fold_panel(observed, p, self._gram_sum, buffer, i0, i1, self._truth, samples)


# threads a batch loop folds on, its own included; experiment._init_worker
# gives each pool worker its share
_cores = os.cpu_count() or 1


def _fold_helpers(n: int) -> int:
    """Helper threads of a batch loop at dimension n: none for one panel or one core."""
    return min(len(_panels(n)), _cores) - 1


@contextmanager
def _folding(gram_sum: np.ndarray, truth: np.ndarray | None = None):
    """A _Fold into gram_sum with _fold_helpers(n) helpers, joined on exit, also on an error.

    BLAS runs at one thread meanwhile, so each product runs in the thread
    that calls it and rounds as in a serial fold.
    """
    n = gram_sum.shape[0]
    helpers = _fold_helpers(n)
    # an executor starts its threads on the first submit: with no helpers, none starts
    with _blas_threads(1), ThreadPoolExecutor(max(helpers, 1)) as pool:
        yield _Fold(gram_sum, truth, [_panel_buffer(n) for _ in range(1 + helpers)], pool)


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
    with _blas_threads(1):
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
    floats, and mirrored once. BLAS runs at one thread meanwhile, so the
    estimate does not depend on its thread count.
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
