import numpy as np
import pytest

from covest.estimator import (
    CovarianceEstimate,
    estimate_cov,
    merge_estimates,
    relative_frobenius_error,
)
from covest.linalg import psd_sqrt_factor
from covest.sampling import (
    MaskDistribution,
    MaskedBatch,
    child_rng,
    hadamard_inverse,
    mask_batch,
    mask_second_moment,
)

from helpers import rand_psd


def test_single_sample_reweighting():
    # one sample, one observed coordinate: the observed diagonal cell is
    # scaled by 1/p_i, everything else stays zero
    p = MaskDistribution(np.array([0.5, 0.5]))
    batch = MaskedBatch(masks=np.array([[1.0, 0.0]]), observed=np.array([[1.0, 0.0]]))
    est = estimate_cov(batch, p)
    assert np.array_equal(est.matrix, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert est.sample_count == 1
    assert est.iterations == 1


def test_full_observation_is_plain_sample_covariance():
    rng = child_rng(21)
    for n in (1, 7, 50):
        xs = rng.standard_normal((30, n))
        p = MaskDistribution(np.ones(n))
        batch = MaskedBatch(masks=np.ones_like(xs), observed=xs)
        est = estimate_cov(batch, p)
        assert np.abs(est.matrix - xs.T @ xs / 30).max() <= 1e-12


def test_estimate_errors():
    p = MaskDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        estimate_cov(MaskedBatch(masks=np.zeros((0, 2)), observed=np.zeros((0, 2))), p)
    bad = MaskedBatch(masks=np.array([[1.0, 0.0, 0.0]]), observed=np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        estimate_cov(bad, p)
    with pytest.raises(TypeError):
        estimate_cov([np.ones(2)], p)


def test_output_is_symmetric():
    p = MaskDistribution(np.array([0.3, 0.9, 0.7, 0.5]))
    batch = mask_batch(child_rng(6).standard_normal((40, 4)), p, child_rng(7))
    m = estimate_cov(batch, p).matrix
    assert np.array_equal(m, m.T)


def test_single_run_unbiased_within_mc_error():
    # one long run; per-entry standard error estimated from the same run
    n, total = 4, 50_000
    cov = np.diag([10.0, 1.0, 1.0, 1.0]) + 2.5 * np.eye(n)
    factor = psd_sqrt_factor(cov)
    p = MaskDistribution(np.full(n, 0.5))
    rng = child_rng(31)
    xs = rng.standard_normal((total, n)) @ factor.T
    batch = mask_batch(xs, p, rng)
    est = estimate_cov(batch, p)
    weights = hadamard_inverse(mask_second_moment(p))
    terms = batch.observed[:, :, None] * batch.observed[:, None, :] * weights
    se = terms.std(axis=0, ddof=1) / np.sqrt(total)
    assert np.all(np.abs(est.matrix - cov) <= 5 * se)


def test_unbiased_on_dense_covariance_across_trials():
    # dense truth exercises the off-diagonal reweighting path
    n, trials, per_trial = 5, 3000, 20
    cov = rand_psd(np.random.default_rng(8), n, scale=4.0)
    factor = psd_sqrt_factor(cov)
    p = MaskDistribution(np.array([0.3, 0.9, 0.5, 0.7, 0.4]))
    stack = np.empty((trials, n, n))
    for r in range(trials):
        rng = child_rng(77, r)
        xs = rng.standard_normal((per_trial, n)) @ factor.T
        stack[r] = estimate_cov(mask_batch(xs, p, rng), p).matrix
    se = stack.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(stack.mean(axis=0) - cov) <= 5 * se)


def test_estimate_rejects_underflowing_weights():
    # each p_i is valid, but p_0 * p_1 underflows to zero
    p = MaskDistribution(np.array([1e-200, 1e-200, 0.5]))
    batch = mask_batch(np.ones((2, 3)), p, child_rng(0))
    with pytest.raises(ValueError, match="strictly positive"):
        estimate_cov(batch, p)


def test_estimate_weights_match_hadamard_inverse():
    p = MaskDistribution(child_rng(4).uniform(0.01, 1.0, size=30))
    xs = child_rng(5).standard_normal((7, 30))
    batch = mask_batch(xs, p, child_rng(6))
    expected = batch.observed.T @ batch.observed / 7 * hadamard_inverse(mask_second_moment(p))
    assert np.array_equal(estimate_cov(batch, p).matrix, expected)


def test_merge_first_batch_passes_through():
    batch = estimate_cov(
        mask_batch(child_rng(1).standard_normal((9, 3)), MaskDistribution(np.full(3, 0.8)), child_rng(2)),
        MaskDistribution(np.full(3, 0.8)),
    )
    merged = merge_estimates(CovarianceEstimate.zero(3), batch)
    assert np.array_equal(merged.matrix, batch.matrix)
    assert merged.sample_count == batch.sample_count
    assert merged.iterations == 1


def test_merge_equal_batches_matches_concatenation():
    p = MaskDistribution(np.array([0.4, 0.8, 0.6]))
    xs = child_rng(12).standard_normal((60, 3))
    batch_all = mask_batch(xs, p, child_rng(13))
    whole = estimate_cov(batch_all, p)
    running = CovarianceEstimate.zero(3)
    for k in range(6):
        part = MaskedBatch(masks=batch_all.masks[10 * k : 10 * (k + 1)],
                           observed=batch_all.observed[10 * k : 10 * (k + 1)])
        running = merge_estimates(running, estimate_cov(part, p))
    assert running.sample_count == 60
    assert running.iterations == 6
    scale = np.abs(whole.matrix).max()
    assert np.abs(running.matrix - whole.matrix).max() <= 1e-10 * max(1.0, scale)


def test_merge_weights_by_iteration_not_samples():
    a = CovarianceEstimate(np.eye(2) * 3.0, sample_count=30, iterations=1)
    b = CovarianceEstimate(np.eye(2) * 9.0, sample_count=3, iterations=1)
    merged = merge_estimates(a, b)
    # equal weights despite unequal sample counts
    assert np.allclose(merged.matrix, np.eye(2) * 6.0)
    assert merged.sample_count == 33


def test_merge_dimension_mismatch():
    with pytest.raises(ValueError):
        merge_estimates(CovarianceEstimate.zero(2), CovarianceEstimate.zero(3))


def test_zero_estimate_invariant():
    z = CovarianceEstimate.zero(4)
    assert z.sample_count == 0 and z.iterations == 0
    assert np.all(z.matrix == 0.0)
    with pytest.raises(ValueError):
        CovarianceEstimate(np.eye(2), sample_count=0, iterations=0)
    with pytest.raises(ValueError):
        CovarianceEstimate(np.array([[1.0, 2.0], [0.0, 1.0]]), sample_count=1)


def test_relative_frobenius_error():
    truth = np.diag([3.0, 4.0])
    assert relative_frobenius_error(truth, truth) == 0.0
    off = truth + np.eye(2)
    assert relative_frobenius_error(off, truth) == pytest.approx(np.sqrt(2) / 5.0)
    est = CovarianceEstimate(off, sample_count=1)
    assert relative_frobenius_error(est, truth) == pytest.approx(np.sqrt(2) / 5.0)
    with pytest.raises(ValueError):
        relative_frobenius_error(truth, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        relative_frobenius_error(truth, np.zeros((3, 3)))
