"""Tests of the benchmark's own output checks, span accounting and input generator.

    python3 -m pytest perfbench -q

The estimator here is a plain numpy re-implementation of the masked,
reweighted second moment, so these tests do not depend on covest.
"""
import numpy as np
import pytest

import checks
import digits
import spans

N = 8
SIGMA = np.diag([50.0, 50.0] + [1.0] * (N - 2)) + 0.5 * np.eye(N)
BATCH, BATCHES, TRIALS = 50, 20, 50
CHECKPOINTS = BATCH * np.arange(1, BATCHES + 1)


def _errors(p, transform, seed=0):
    """(trials, checkpoints) relative Frobenius errors of running estimates."""
    rng = np.random.default_rng(seed)
    factor = np.linalg.cholesky(SIGMA)
    x = rng.standard_normal((TRIALS, BATCHES, BATCH, N)) @ factor.T
    y = x * (rng.random(x.shape) < p)
    second = np.cumsum(np.einsum("rbki,rbkj->rbij", y, y), axis=1) / CHECKPOINTS[None, :, None, None]
    weights = np.outer(p, p)
    np.fill_diagonal(weights, p)
    est = transform(second, weights)
    return np.linalg.norm(est - SIGMA, axis=(2, 3)) / np.linalg.norm(SIGMA)


def _reweighted(second, weights):
    return second / weights


# designs on which 50 trials resolve a 10% scale error: uniform, spike-weighted, full
DESIGNS = [np.full(N, 0.5), np.linspace(0.9, 0.2, N), np.ones(N)]


@pytest.mark.parametrize("p", DESIGNS)
def test_exact_mse_accepts_the_unbiased_estimator(p):
    assert checks.check_exact_mse(_errors(p, _reweighted), CHECKPOINTS, SIGMA, p) == []


@pytest.mark.parametrize("p", DESIGNS)
def test_exact_mse_rejects_an_estimate_scaled_by_1_1(p):
    errors = _errors(p, lambda s, w: 1.1 * s / w)
    assert checks.check_exact_mse(errors, CHECKPOINTS, SIGMA, p) != []


@pytest.mark.parametrize("p", DESIGNS[:2])
def test_exact_mse_rejects_the_unreweighted_second_moment(p):
    errors = _errors(p, lambda s, w: s)
    assert checks.check_exact_mse(errors, CHECKPOINTS, SIGMA, p) != []


def test_exact_mse_matches_full_observation_formula():
    # with p = 1 the estimator is the sample second moment: Wishart variances
    d = np.diag(SIGMA)
    wishart = (np.outer(d, d) + SIGMA**2).sum() / (SIGMA**2).sum()
    assert checks.per_sample_rel_mse(SIGMA, np.ones(N)) == pytest.approx(wishart)


def test_design_check_accepts_a_feasible_design_and_rejects_a_missed_budget():
    p = np.full(N, 0.5)
    assert checks.check_design(p, 4.0, 1e-3) == []
    assert checks.check_design(0.9 * p, 4.0, 1e-3) != []
    assert checks.check_design(np.r_[1e-4, np.full(N - 1, (4.0 - 1e-4) / (N - 1))], 4.0, 1e-3) != []
    assert checks.check_design(np.r_[1.5, np.full(N - 1, 2.5 / (N - 1))], 4.0, 1e-3) != []


def _design_by_alternation(diag, m, eps):
    """Joint (p, rho) minimizer by alternation with the grid projection."""
    s = np.sqrt(diag)
    rho = m / s.sum()
    for _ in range(40):
        p = checks.grid_projection(rho * s, m, eps, step=1e-6)
        rho = p @ s / (s @ s)
    return p


def test_designed_check_accepts_the_optimum_and_rejects_a_perturbed_design():
    diag = np.array([9.0, 4.0, 1.0, 1.0, 0.25, 0.01])
    p = _design_by_alternation(diag, 2.0, 1e-3)
    assert checks.check_designed(p, diag, 2.0, 1e-3) == []
    shifted = p + np.array([0.05, -0.05, 0, 0, 0, 0])
    assert checks.check_designed(shifted, diag, 2.0, 1e-3) != []
    assert checks.check_designed(np.full(6, 2.0 / 6), diag, 2.0, 1e-3) != []


def test_orderings():
    good = {("full", 1.0): 0.07, ("uniform", 0.25): 0.25, ("uniform", 0.5): 0.14,
            ("active", 0.25): 0.2, ("active", 0.5): 0.1}
    assert checks.check_orderings(good) == []
    assert checks.check_orderings({**good, ("full", 1.0): 0.12}) != []
    assert checks.check_orderings({**good, ("active", 0.5): 0.21}) != []


def test_active_band():
    rng = np.random.default_rng(1)
    p_u = np.full(N, 0.25 * N / N)
    p_d = np.sqrt(np.diag(SIGMA)) / np.sqrt(np.diag(SIGMA)).sum() * p_u.sum()
    lo = np.sqrt(checks.per_sample_rel_mse(SIGMA, p_d) / 5000)
    hi = np.sqrt(checks.per_sample_rel_mse(SIGMA, p_u) / 5000)
    inside = 0.5 * (lo + hi) + 1e-4 * rng.standard_normal(5)
    assert lo < hi
    assert checks.check_active_band(inside, 5000, SIGMA, p_d, p_u) == []
    assert checks.check_active_band(inside + (hi - lo), 5000, SIGMA, p_d, p_u) != []
    assert checks.check_active_band(inside - (hi - lo), 5000, SIGMA, p_d, p_u) != []


def test_layer_metrics_self_time_subtracts_direct_children():
    rows = [
        ["active.run_active", 0.0, 10.0, -1, 1, None],
        ["estimator.estimate_cov", 1.0, 4.0, 0, 1, {"bytes": 80}],
        ["design.design_probabilities", 5.0, 9.0, 0, 1,
         {"iterations": 3, "converged": True, "kkt": 1e-9}],
        ["design.project_box_simplex", 6.0, 7.0, 2, 1, None],
    ]
    m = spans.layer_metrics(rows)
    assert m["active.self_s"] == pytest.approx(3.0)
    assert m["estimator.self_s"] == pytest.approx(3.0)
    assert m["design.self_s"] == pytest.approx(4.0)
    assert m["design.project_box_simplex.calls"] == 1
    assert m["design.iterations"] == 3 and m["design.converged"] == 1
    assert m["estimator.matrix_bytes"] == 80


def test_digit_generator_is_seeded_and_balanced():
    images, labels = digits.make_digits(5, per_class=4)
    again, _ = digits.make_digits(5, per_class=4)
    other, _ = digits.make_digits(6, per_class=4)
    assert images.shape == (40, 28, 28) and images.dtype == np.uint8
    assert np.array_equal(np.bincount(labels), np.full(10, 4))
    assert np.array_equal(images, again)
    assert not np.array_equal(images, other)
    header = digits.idx_bytes(labels)[:8]
    assert header == bytes([0, 0, 8, 1, 0, 0, 0, 40])
