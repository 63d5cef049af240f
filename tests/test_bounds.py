import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covest.bounds
from covest.bounds import (
    _implied_gamma,
    _scale_norm,
    bound_report,
    calibrate_gamma,
    effective_rank,
    entrywise_norm,
    error_bound,
    error_scale_matrix,
    error_scale_norm_bound,
)
from covest.data import SyntheticModel, make_spiked_model
from covest.estimator import estimate_cov
from covest.linalg import psd_sqrt_factor
from covest.sampling import MaskDistribution, child_rng, mask_batch

from helpers import count_decompositions, rand_psd


def test_error_scale_matrix_example():
    cov = np.diag([4.0, 1.0])
    p = MaskDistribution(np.array([0.5, 0.5]))
    scale = error_scale_matrix(cov, p)
    assert np.array_equal(scale, np.array([[8.0, 8.0], [8.0, 2.0]]))


def test_error_scale_matrix_sigma_ratio_scaling():
    cov = rand_psd(np.random.default_rng(0), 4)
    p = MaskDistribution(np.array([0.2, 0.9, 0.5, 0.4]))
    base = error_scale_matrix(cov, p, sigma_ratio=1.0)
    assert np.allclose(error_scale_matrix(cov, p, sigma_ratio=2.0), 4.0 * base)


def test_error_scale_matrix_errors():
    p = MaskDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        error_scale_matrix(np.eye(3), p)
    with pytest.raises(ValueError):
        error_scale_matrix(np.diag([1.0, -2.0]), p)
    with pytest.raises(ValueError):
        error_scale_matrix(np.eye(2), p, sigma_ratio=0.0)


def test_entrywise_norm_values():
    m = np.array([[8.0, 8.0], [8.0, 2.0]])
    assert entrywise_norm(m, 2) == pytest.approx(14.0)
    assert entrywise_norm(m, 1) == pytest.approx(26.0)
    assert entrywise_norm(np.array([[-3.0, 4.0]]), 2) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        entrywise_norm(m, 0.5)


def test_entrywise_norm_scales_by_the_largest_entry():
    # scaled only where the sum overflowed: small entries underflowed to 0.0,
    # and a rounded 1/q put the root of a single entry 9 ulp low
    assert entrywise_norm(np.full((2, 2), 1e-100), 4.0) == 1.4142135623730953e-100
    assert entrywise_norm([[2258646351887685.5]], 1.5) == 2258646351887685.5
    assert entrywise_norm(np.full((2, 2), 1e300), 2.0) == 2e300
    assert entrywise_norm(np.zeros((2, 3)), 3.0) == 0.0


def test_effective_rank_values():
    assert effective_rank(np.diag([2.0, 1.0, 1.0])) == pytest.approx(2.0)
    assert effective_rank(np.eye(6)) == pytest.approx(6.0)
    cov = rand_psd(np.random.default_rng(3), 5)
    assert effective_rank(17.0 * cov) == pytest.approx(effective_rank(cov))
    assert 1.0 <= effective_rank(cov) <= np.linalg.matrix_rank(cov) + 1e-9


def test_effective_rank_near_the_float_limit():
    # the eigenvalues sum past the float range; scaled to the largest first, they do not
    assert effective_rank(np.diag([1e308, 1e308])) == 2.0


def test_truth_erank_near_the_float_limit():
    # the truth effective rank divided trace(sigma), which is inf here, by the top eigenvalue
    model = make_spiked_model(4, 4, 1e308)
    truth_erank = covest.bounds._erank(np.diagonal(model.sigma), model.top_eigenvalue)
    assert truth_erank == 4.0 == effective_rank(model.sigma)


def test_erank_is_the_plain_quotient_where_the_sum_is_finite():
    # scaling by a power of two rounds nothing, so no finite effective rank moves
    rng = np.random.default_rng(4)
    for _ in range(200):
        values = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 50))) * 10.0 ** rng.integers(-200, 200)
        top = values.max() * rng.uniform(1.0, 2.0)
        assert covest.bounds._erank(values, top) == np.sum(values) / top


def test_effective_rank_errors():
    with pytest.raises(ValueError):
        effective_rank(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        effective_rank(np.diag([1.0, -1.0]))


def test_error_bound_branch_boundary():
    # rate exactly 1: both branches agree and the bound is the norm itself
    assert error_bound(1.0, 1, 2, math.e**2) == pytest.approx(1.0)


def test_error_bound_sample_scaling():
    # sqrt regime: quadrupling samples halves the bound
    b1 = error_bound(3.0, 10, 10_000, 100.0)
    b4 = error_bound(3.0, 10, 40_000, 100.0)
    assert b1 == pytest.approx(2.0 * b4)
    assert b1 == pytest.approx(3.0 * math.sqrt((2 * math.log(10) + math.log(100)) / 10_000))
    # linear regime: few samples, the rate itself multiplies the norm
    rate = (2 * math.log(10) + math.log(100.0)) / 2
    assert error_bound(3.0, 10, 2, 100.0) == pytest.approx(3.0 * rate)


def test_error_bound_gamma_scaling():
    base = error_bound(1.0, 10, 10_000, 100.0, gamma=1.0)
    assert error_bound(1.0, 10, 10_000, 100.0, gamma=4.0) == pytest.approx(2.0 * base)


def test_error_bound_errors():
    with pytest.raises(ValueError):
        error_bound(1.0, 10, 0, 100.0)
    with pytest.raises(ValueError):
        error_bound(1.0, 10, 5, 1.0)
    with pytest.raises(ValueError):
        error_bound(1.0, 10, 5, 100.0, gamma=0.0)
    with pytest.raises(ValueError):
        error_bound(1.0, 0, 5, 100.0)
    with pytest.raises(ValueError):
        error_bound(-1.0, 10, 5, 100.0)
    # NaN passed each of these checks and came back as a NaN bound
    with pytest.raises(ValueError, match="eta"):
        error_bound(1.0, 10, 5, np.nan)
    with pytest.raises(ValueError, match="gamma"):
        error_bound(1.0, 10, 5, 100.0, gamma=np.nan)
    with pytest.raises(ValueError, match="scale_norm"):
        error_bound(np.nan, 10, 5, 100.0)


def test_scale_norm_bound_example():
    cov = np.diag([4.0, 1.0])
    p = MaskDistribution(np.array([0.5, 0.5]))
    # erank 5/4, top eigenvalue 4, worst probability 0.5
    assert error_scale_norm_bound(cov, p) == pytest.approx(40.0)
    assert entrywise_norm(error_scale_matrix(cov, p), 2) == pytest.approx(14.0)


def test_scale_norm_bound_rejects_small_q():
    with pytest.raises(ValueError):
        error_scale_norm_bound(np.eye(2), MaskDistribution(np.array([0.5, 0.5])), q=1.5)


def test_scale_norm_bound_dominates_randomly():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        cov = rand_psd(rng, n, scale=float(rng.uniform(0.1, 10)))
        probs = MaskDistribution(rng.uniform(0.05, 1.0, size=n))
        sr = float(rng.uniform(0.5, 3.0))
        q = float(rng.choice([2.0, 3.0, 4.0]))
        bound = error_scale_norm_bound(cov, probs, sigma_ratio=sr, q=q)
        exact = entrywise_norm(error_scale_matrix(cov, probs, sr), q)
        assert exact <= bound * (1 + 1e-12)


def test_scale_norm_bound_takes_one_spectrum(monkeypatch):
    # erank and the top eigenvalue come from one eigvalsh, bit for bit as
    # from effective_rank and a second eigvalsh
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(20):
        n = int(rng.integers(1, 9))
        cov = rand_psd(rng, n, scale=float(rng.uniform(0.1, 10)))
        probs = MaskDistribution(rng.uniform(0.05, 1.0, size=n))
        sr = float(rng.uniform(0.5, 3.0))
        top = float(np.linalg.eigvalsh(cov)[-1])
        cases.append((cov, probs, sr, 2.0 * sr**2 * effective_rank(cov) * top / probs.p_min**2))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    for cov, probs, sr, expected in cases:
        assert error_scale_norm_bound(cov, probs, sigma_ratio=sr) == expected
    assert len(calls) == len(cases)


def test_bound_report_survives_a_scale_norm_past_float_range():
    # the scale matrix's largest entry is 2e200, so the sum of squares
    # overflows; the norm is 3e200 and the bound finite
    rep = bound_report(np.eye(2), MaskDistribution([1e-200, 0.5]), 100, 100.0)
    assert rep.scale_norm == pytest.approx(3e200)
    assert rep.bound == pytest.approx(3e200 * math.sqrt((2.0 * math.log(2) + math.log(100.0)) / 100))
    # where the scale matrix itself overflows, the message names it
    with pytest.raises(ValueError, match="error scale matrix must be finite, got inf at"):
        bound_report(np.eye(2), MaskDistribution([1e-200, 1e-200]), 100, 100.0)


def _count_trials(monkeypatch) -> list:
    # calibrate_gamma's trial estimates, appended to the returned list
    trials = []
    estimate = covest.bounds.estimate_cov
    monkeypatch.setattr(covest.bounds, "estimate_cov",
                        lambda batch, p: trials.append(batch) or estimate(batch, p))
    return trials


def test_a_scale_norm_past_float_range_raises_before_any_trial(monkeypatch):
    # every entry of the scale matrix is 1e308, but its 2-norm is 2e308:
    # error_scale_norm_bound returned inf, bound_report named its internal
    # scale_norm, and calibrate_gamma failed inside its first trial
    cov, p = np.diag([1e308, 1e308]), MaskDistribution(np.array([1.0, 1.0]))
    trials = _count_trials(monkeypatch)
    for call in (lambda: error_scale_norm_bound(cov, p), lambda: bound_report(cov, p, 10, 100.0),
                 lambda: calibrate_gamma(cov, p, 10, 100.0, trials=5)):
        with pytest.raises(ValueError, match=r"^error scale matrix norm must be finite, got inf$"):
            call()
    assert trials == []


EPS = np.finfo(float).eps


def _matrix_norm(d, p, sigma_ratio, q):
    # entrywise_norm of the built scale matrix, divided first by its largest
    # entry: entrywise_norm raises the sum to a rounded 1/q, which alone is
    # off by about ln(sum) * eps / 2, tens of eps for entries near 1e30
    scale = error_scale_matrix(np.diag(d), MaskDistribution(p), sigma_ratio)
    top = scale.max()
    return top * entrywise_norm(scale / top, q) if top > 0 else 0.0


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), st.floats(EPS, 1.0)),
        min_size=1, max_size=64,
    ),
    q=st.floats(1.0, 4.0),
    sigma_ratio=st.floats(0.1, 10.0),
)
def test_scale_norm_matches_the_built_matrix(entries, q, sigma_ratio):
    d, p = (np.array(column) for column in zip(*entries))
    expected = _matrix_norm(d, p, sigma_ratio, q)
    got = _scale_norm(d, p, sigma_ratio, q)
    assert abs(got - expected) <= 4 * len(d) * EPS * expected


@pytest.mark.parametrize("order", [[0, 1, 2], [1, 2, 0]], ids=["dominant-first", "dominant-last"])
def test_scale_norm_of_a_dominant_coordinate(order):
    # u = sqrt(d) / p is 1e6 at the dominant coordinate and 1 elsewhere, so
    # the off-diagonal terms add 4e-9 to a total near 1: an inclusive prefix
    # minus w cancels them where the dominant w comes last
    d = np.array([1e6, 1.0, 1.0])[order]
    p = np.array([1e-3, 1.0, 1.0])[order]
    expected = _matrix_norm(d, p, 1.0, 3.0)
    assert expected == pytest.approx(1e9 * (1.0 + 4e-9 + 4e-27) ** (1 / 3), rel=1e-15)
    assert abs(_scale_norm(d, p, 1.0, 3.0) - expected) <= 12 * EPS * expected


def test_scale_norm_of_a_zero_diagonal():
    assert _scale_norm(np.zeros(3), np.full(3, 0.5), 1.0, 2.0) == 0.0
    assert _scale_norm(np.array([0.0, 4.0]), np.array([0.5, 0.25]), 1.0, 2.0) == 16.0


def test_bounds_take_the_norm_without_the_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("scale matrix built")

    monkeypatch.setattr(covest.bounds, "_scale_matrix", refuse)
    cov = rand_psd(np.random.default_rng(16), 5)
    p = MaskDistribution(np.array([0.3, 0.8, 0.5, 0.6, 0.4]))
    report = bound_report(cov, p, samples=100, eta=50.0)
    assert report.scale_norm > 0
    assert error_scale_norm_bound(cov, p) >= report.scale_norm
    assert calibrate_gamma(cov, p, samples=20, eta=10.0, trials=5) > 0


def test_bound_report_contents():
    cov = np.diag([4.0, 1.0])
    p = MaskDistribution(np.array([0.5, 0.5]))
    rep = bound_report(cov, p, samples=100, eta=50.0, gamma=2.0, q=2.0)
    assert rep.scale_norm == pytest.approx(14.0)
    assert rep.erank == pytest.approx(1.25)
    assert rep.bound == pytest.approx(error_bound(14.0, 2, 100, 50.0, gamma=2.0))
    assert error_scale_matrix(cov, p).tolist() == [[8.0, 8.0], [8.0, 2.0]]
    d = rep.to_dict()
    assert "scale_matrix" not in d
    assert d["samples"] == 100 and d["eta"] == 50.0


def test_calibrate_gamma_deterministic_and_positive():
    cov = np.diag([3.0, 1.0, 1.0])
    p = MaskDistribution(np.full(3, 0.5))
    g1 = calibrate_gamma(cov, p, samples=50, eta=10.0, trials=60, seed=5)
    g2 = calibrate_gamma(cov, p, samples=50, eta=10.0, trials=60, seed=5)
    assert g1 == g2
    assert g1 > 0
    assert g1 != calibrate_gamma(cov, p, samples=50, eta=10.0, trials=60, seed=6)


def test_calibrate_gamma_errors():
    p = MaskDistribution(np.full(2, 0.5))
    with pytest.raises(ValueError):
        calibrate_gamma(np.eye(2), p, samples=10, eta=10.0, trials=0)
    with pytest.raises(ValueError):
        calibrate_gamma(np.eye(2), p, samples=10, eta=1.0)
    with pytest.raises(ValueError, match="eta"):  # was "cannot convert float NaN to integer"
        calibrate_gamma(np.eye(2), p, samples=10, eta=np.nan)


def test_calibrate_gamma_rejects_a_zero_covariance(monkeypatch):
    # the zero matrix raised ZeroDivisionError from _implied_gamma; a zero
    # diagonal alone is not it, and [[0, 1], [1, 0]] is not positive semidefinite
    p = MaskDistribution(np.array([0.5, 0.5]))
    trials = _count_trials(monkeypatch)
    with pytest.raises(ValueError, match=r"^cov must be nonzero$"):
        calibrate_gamma(np.zeros((2, 2)), p, 10, 10.0, trials=5)
    with pytest.raises(ValueError, match=r"^matrix is not positive semidefinite within tolerance$"):
        calibrate_gamma(np.array([[0.0, 1.0], [1.0, 0.0]]), p, 10, 10.0, trials=5)
    assert trials == []
    with pytest.raises(ValueError, match=r"^base_cov must be nonzero$"):
        SyntheticModel(np.zeros((2, 2)))


@pytest.mark.parametrize("kind, expected", [("diagonal", []), ("dense", ["eigh"])])
def test_one_decomposition_per_gaussian_source(monkeypatch, kind, expected):
    # a model roots sigma from its base's eigenpairs, and calibrate_gamma draws
    # through a model: a diagonal cov needs no decomposition, a dense one one eigh
    cov = np.diag([4.0, 1.0, 2.0]) if kind == "diagonal" else rand_psd(np.random.default_rng(2), 3)
    calls = count_decompositions(monkeypatch)
    SyntheticModel(cov, theta=0.5)
    assert calls == expected
    calls.clear()
    calibrate_gamma(cov, MaskDistribution(np.full(3, 0.5)), 20, 10.0, trials=5)
    assert calls == expected


@pytest.mark.parametrize("low, high", [(1e-3, 1.0), (1.0, 1e3)], ids=["sqrt-branch", "linear-branch"])
@settings(max_examples=100, deadline=None)
@given(u=st.floats(0.0, 1.0, exclude_min=True), scale_norm=st.floats(1e-3, 1e3),
       dim=st.integers(1, 1000), samples=st.integers(1, 10_000), eta=st.floats(1.5, 1e4))
def test_implied_gamma_inverts_the_bound(low, high, u, scale_norm, dim, samples, eta):
    # the bound at the implied gamma is the error, on either side of the
    # branch at error == scale_norm
    err = scale_norm * low * (high / low) ** u
    rate_per_gamma = (2.0 * math.log(dim) + math.log(eta)) / samples
    gamma = _implied_gamma(err, scale_norm, rate_per_gamma)
    assert error_bound(scale_norm, dim, samples, eta, gamma) == pytest.approx(err, rel=1e-12)


def test_implied_gamma_example():
    # err = 3 * scale_norm takes the linear branch: 3 / 0.5, and the bound there is 3
    assert _implied_gamma(3.0, 1.0, 0.5) == 6.0
    assert error_bound(1.0, 1, 2, math.exp(1.0), gamma=6.0) == pytest.approx(3.0, rel=1e-15)


def test_calibrated_bound_covers_fresh_trials():
    # semantic check: on fresh trials from the same distribution the
    # calibrated bound should hold at close to the nominal 1 - 2/eta rate
    n, samples, eta = 5, 200, 10.0
    cov = rand_psd(np.random.default_rng(9), n, scale=2.0)
    p = MaskDistribution(np.array([0.3, 0.8, 0.5, 0.6, 0.4]))
    gamma = calibrate_gamma(cov, p, samples=samples, eta=eta, trials=200, seed=0)
    scale_norm = entrywise_norm(error_scale_matrix(cov, p), 2)
    budget = error_bound(scale_norm, n, samples, eta, gamma=gamma)
    factor = psd_sqrt_factor(cov)
    hits = 0
    trials = 300
    for r in range(trials):
        rng = child_rng(991, r)
        xs = rng.standard_normal((samples, n)) @ factor.T
        est = estimate_cov(mask_batch(xs, p, rng), p)
        if entrywise_norm(est.matrix - cov, 2) <= budget:
            hits += 1
    # nominal coverage 0.8; allow generous Monte Carlo slack
    assert hits / trials >= 0.65
