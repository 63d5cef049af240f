import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covest.estimator import (
    _PANEL,
    CovarianceEstimate,
    _estimate_from_sum,
    _folding,
    _panels,
    estimate_cov,
    merge_estimates,
    relative_frobenius_error,
)
from covest.linalg import psd_sqrt_factor
from covest.sampling import (
    MaskDistribution,
    MaskedBatch,
    child_rng,
    mask_batch,
)

from helpers import mask_second_moment, rand_psd, reweighted_estimate


def test_single_sample_reweighting():
    # one sample, one observed coordinate: the observed diagonal cell is
    # scaled by 1/p_i, everything else stays zero
    p = MaskDistribution(np.array([0.5, 0.5]))
    batch = MaskedBatch(masks=np.array([[1.0, 0.0]]), observed=np.array([[1.0, 0.0]]))
    est = estimate_cov(batch, p)
    assert np.array_equal(est.matrix, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert est.sample_count == 1


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
    weights = 1.0 / mask_second_moment(p)
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
    # a subnormal product, or a lone subnormal p_0, leaves an infinite weight
    for tiny in ([1e-160, 1e-160, 0.5], [1e-310]):
        p = MaskDistribution(np.array(tiny))
        batch = MaskedBatch(masks=np.ones((1, p.n)), observed=np.ones((1, p.n)))
        with pytest.raises(ValueError, match="strictly positive"):
            estimate_cov(batch, p)


def test_estimate_matches_reference_reweighting():
    # the fold (obs/p)^T (obs/p), diagonal times p, rounds differently from
    # obs^T obs / count divided by the mask second moment: a few ulp per term
    p = MaskDistribution(child_rng(4).uniform(0.01, 1.0, size=30))
    xs = child_rng(5).standard_normal((7, 30))
    batch = mask_batch(xs, p, child_rng(6))
    expected = reweighted_estimate(batch.observed, p)
    scale = np.abs(expected).max()
    assert np.abs(estimate_cov(batch, p).matrix - expected).max() <= 4 * 7 * np.finfo(float).eps * scale


def test_reweighting_inverts_second_moment():
    # every coordinate observed with value 1: the estimate is the reweighting
    # itself, the entrywise inverse of the mask second moment
    half = MaskDistribution(np.array([0.5, 0.5]))
    ones = MaskedBatch(masks=np.ones((1, 2)), observed=np.ones((1, 2)))
    assert np.array_equal(estimate_cov(ones, half).matrix, np.array([[2.0, 4.0], [4.0, 2.0]]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        p = MaskDistribution(rng.uniform(0.01, 1.0, n))
        ones = MaskedBatch(masks=np.ones((1, n)), observed=np.ones((1, n)))
        weights = estimate_cov(ones, p).matrix
        assert np.abs(weights * mask_second_moment(p) - 1.0).max() <= 1e-12


def test_merge_first_batch_passes_through():
    batch = estimate_cov(
        mask_batch(child_rng(1).standard_normal((9, 3)), MaskDistribution(np.full(3, 0.8)), child_rng(2)),
        MaskDistribution(np.full(3, 0.8)),
    )
    merged = merge_estimates(CovarianceEstimate.zero(3), batch)
    assert np.array_equal(merged.matrix, batch.matrix)
    assert merged.sample_count == batch.sample_count


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
    scale = np.abs(whole.matrix).max()
    assert np.abs(running.matrix - whole.matrix).max() <= 1e-10 * max(1.0, scale)


def test_merge_weights_by_samples():
    a = CovarianceEstimate(np.eye(2) * 3.0, sample_count=30)
    b = CovarianceEstimate(np.eye(2) * 9.0, sample_count=3)
    merged = merge_estimates(a, b)
    assert np.allclose(merged.matrix, np.eye(2) * (30 * 3.0 + 3 * 9.0) / 33)
    assert merged.sample_count == 33


def test_merge_rejects_a_zero_sample_batch():
    with pytest.raises(ValueError, match="zero samples"):
        merge_estimates(CovarianceEstimate(np.eye(2), sample_count=4), CovarianceEstimate.zero(2))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    p=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_of_unequal_split_equals_whole_estimate(n, sizes, p, seed):
    # merging the estimates of any split reproduces the estimate of the whole,
    # so the sample-weighted merge is exactly as unbiased as estimate_cov
    dist = MaskDistribution(np.array(p[:n]))
    rng = child_rng(seed)
    xs = rng.standard_normal((sum(sizes), n)) + rng.standard_normal(n)
    batch_all = mask_batch(xs, dist, rng)
    whole = estimate_cov(batch_all, dist)
    running = CovarianceEstimate.zero(n)
    bounds = np.cumsum([0] + sizes)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = MaskedBatch(masks=batch_all.masks[lo:hi], observed=batch_all.observed[lo:hi])
        running = merge_estimates(running, estimate_cov(part, dist))
    assert running.sample_count == whole.sample_count
    scale = max(1.0, float(np.abs(whole.matrix).max()))
    assert np.abs(running.matrix - whole.matrix).max() <= 1e-10 * scale


def test_merge_dimension_mismatch():
    with pytest.raises(ValueError):
        merge_estimates(CovarianceEstimate.zero(2), CovarianceEstimate.zero(3))


def test_zero_estimate_invariant():
    z = CovarianceEstimate.zero(4)
    assert z.sample_count == 0
    assert np.all(z.matrix == 0.0)
    with pytest.raises(ValueError):
        CovarianceEstimate(np.eye(2), sample_count=0)
    with pytest.raises(ValueError):
        CovarianceEstimate(np.array([[1.0, 2.0], [0.0, 1.0]]), sample_count=1)


def test_symmetry_check_allocates_one_temporary():
    # |M - M^T| and |M| each allocated an n x n array on top of M - M^T:
    # 2.0 buffers per wrapped matrix
    n = 200
    matrix = rand_psd(np.random.default_rng(4), n)
    tracemalloc.start()
    try:
        CovarianceEstimate(matrix, sample_count=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * n * 8
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceEstimate(matrix + np.triu(np.full((n, n), 1e-9), 1), sample_count=1)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_relative_frobenius_error_past_a_squared_overflow():
    # the difference's sum of squares overflows, its norm does not: this read
    # inf, after an overflow warning in the norm
    estimate = np.array([[1e200, -3e200], [-3e200, 2e200]])
    expected = np.sqrt(1 + 9 + 9 + 4) * 1e200 / np.sqrt(2)
    assert relative_frobenius_error(estimate, np.eye(2)) == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError, match="^estimate is too far from truth to score"):
        relative_frobenius_error(estimate, 1e-150 * np.eye(2))
    with pytest.raises(ValueError, match="^estimate is too far from truth to score"):
        relative_frobenius_error(1.5e308 * np.array([[1.0, -1.0], [-1.0, 1.0]]), -np.eye(2))


def test_panels_cover_every_row():
    for n in range(1, 20001):
        panels = _panels(n)
        # consecutive, nonempty panels of at most _PANEL rows cover range(n)
        assert [i0 for i0, _ in panels] == [0] + [i1 for _, i1 in panels[:-1]]
        assert panels[-1][1] == n
        assert all(0 < i1 - i0 <= _PANEL for i0, i1 in panels)


def _folded_gram(rows, p, order="C"):
    """The batch's reweighted Gram matrix, folded into a zero sum of the given layout and mirrored."""
    n = p.shape[0]
    gram = np.zeros((n, n), order=order)
    with _folding(gram) as fold:
        fold(rows, p, 1)
    return _estimate_from_sum(gram, 1).matrix


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(1, 6), st.sampled_from([_PANEL + 1, 2 * _PANEL + 3])),
    count=st.integers(1, 8),
    p=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6),
    entries=st.lists(st.floats(-1e100, 1e100), min_size=48, max_size=48),
)
def test_fold_gram_diagonal_is_nonnegative(n, count, p, entries):
    # each diagonal entry is a sum of obs_i^2 / p_i, so the batch loop's
    # variance profile needs no clamp before the redesign
    rows = np.resize(np.array(entries), (count, n))
    gram = _folded_gram(rows, np.resize(np.array(p), n))
    assert np.all(np.diagonal(gram) >= 0)


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(1, 6), st.sampled_from([_PANEL + 1, 2 * _PANEL + 3])),
    count=st.integers(1, 8),
    p=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6),
    entries=st.lists(st.floats(-1e3, 1e3), min_size=48, max_size=48),
    order=st.sampled_from(["C", "F"]),
)
# a product that underflows to -0.0: the gemm of two arrays keeps the sign, the
# syrk of one array added into a +0.0 sum gives +0.0
@example(n=3, count=5, p=[1.0] * 6,
         entries=[0.0] * 13 + [3.681912737284931e-248, -4.049235767361456e-280] + [0.0] * 33,
         order="C")
def test_fold_gram_scales_the_diagonal_of_every_panel(n, count, p, entries, order):
    # the strided diagonal view of each contiguous panel does the multiplies
    # np.diag_indices_from does on the whole product, into a running sum of
    # either memory layout; in one panel the sum is the product bit for bit,
    # up to the sign of a zero (adding +0.0 turns -0.0 into +0.0 and changes
    # nothing else)
    rows = np.resize(np.array(entries), (count, n))
    p = np.resize(np.array(p), n)
    expected = (rows / p).T @ (rows / p)
    expected[np.diag_indices_from(expected)] *= p
    gram = _folded_gram(rows.copy(), p, order)
    if n <= _PANEL:
        assert (gram + 0.0).tobytes(order="C") == (expected + 0.0).tobytes()
    else:
        assert np.array_equal(gram, gram.T)
        assert np.abs(gram - expected).max() <= 4 * n * np.finfo(float).eps * np.abs(expected).max()
