import numpy as np
import pytest

from covest.sampling import (
    MaskDistribution,
    MaskedBatch,
    child_rng,
    derive_seed,
    draw_mask,
    mask_batch,
)

from helpers import mask_second_moment


def test_mask_distribution_validates_range():
    MaskDistribution(np.array([0.1, 1.0]))
    with pytest.raises(ValueError):
        MaskDistribution(np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        MaskDistribution(np.array([0.5, 1.1]))
    with pytest.raises(ValueError):
        MaskDistribution(np.array([]))
    # NaN fails both range comparisons, so a test for p <= 0 or p > 1 lets it through
    with pytest.raises(ValueError):
        MaskDistribution(np.array([0.5, np.nan]))


def test_mask_distribution_budget_and_uniform():
    p = MaskDistribution(np.array([0.2, 0.3, 0.5]))
    assert p.n == 3
    assert p.m == pytest.approx(1.0, abs=1e-12)
    u = MaskDistribution.uniform(4, 2.0)
    assert np.all(u.p == 0.5)
    assert MaskDistribution.uniform(5, 5.0).p_min == 1.0


def test_mask_distribution_is_immutable():
    p = MaskDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        p.p[0] = 0.9


def test_second_moment_values():
    p = MaskDistribution(np.array([0.5, 0.5]))
    expected = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert np.array_equal(mask_second_moment(p), expected)
    ones = MaskDistribution(np.ones(3))
    assert np.array_equal(mask_second_moment(ones), np.ones((3, 3)))


def test_draw_mask_full_budget_and_determinism():
    p = MaskDistribution(np.ones(4))
    assert np.all(draw_mask(p, child_rng(3), size=100) == 1.0)
    a = draw_mask(MaskDistribution.uniform(6, 3.0), child_rng(42, 1), size=10)
    b = draw_mask(MaskDistribution.uniform(6, 3.0), child_rng(42, 1), size=10)
    assert np.array_equal(a, b)


def test_draw_mask_marginals_and_pair_moments():
    # empirical moments against the second-moment matrix, 4 binomial SEs
    p = MaskDistribution(np.array([0.15, 0.4, 0.75, 0.95]))
    draws = draw_mask(p, child_rng(7), size=200_000)
    count = draws.shape[0]
    freq = draws.mean(axis=0)
    se = np.sqrt(p.p * (1 - p.p) / count)
    assert np.all(np.abs(freq - p.p) <= 4 * se + 1e-12)
    moment = mask_second_moment(p)
    pair = draws.T @ draws / count
    pair_se = np.sqrt(moment * (1 - moment) / count)
    assert np.all(np.abs(pair - moment) <= 4 * pair_se + 1e-12)


def test_draw_mask_coordinates_uncorrelated():
    p = MaskDistribution(np.full(5, 0.5))
    draws = draw_mask(p, child_rng(11), size=100_000)
    corr = np.corrcoef(draws.T)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.abs(off).max() <= 4 / np.sqrt(draws.shape[0])


def test_mask_batch_shapes_and_validation():
    p = MaskDistribution(np.full(3, 0.8))
    xs = child_rng(1).standard_normal((10, 3))
    batch = mask_batch(xs, p, child_rng(2))
    assert len(batch) == 10 and batch.n == 3
    assert batch.observed_count == int(batch.masks.sum())
    with pytest.raises(ValueError):
        mask_batch(xs[:, :2], p, child_rng(2))
    with pytest.raises(ValueError):
        MaskedBatch(masks=np.array([[1.0, 0.0]]), observed=np.array([[1.0, 2.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            MaskedBatch(masks=np.array([[1.0, 1.0]]), observed=np.array([[1.0, bad]]))


def test_child_rng_streams_are_independent_and_reproducible():
    a = child_rng(5, 0, 1).standard_normal(4)
    b = child_rng(5, 0, 1).standard_normal(4)
    c = child_rng(5, 0, 2).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_seed_is_deterministic():
    assert derive_seed(9, 1, 2) == derive_seed(9, 1, 2)
    assert derive_seed(9, 1, 2) != derive_seed(9, 2, 1)
