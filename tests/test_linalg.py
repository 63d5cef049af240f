import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covest.bounds import bound_report, calibrate_gamma, effective_rank, error_scale_norm_bound
from covest.data import SyntheticModel
from covest.estimator import CovarianceEstimate
from covest.linalg import check_square, check_symmetric, clamped_sqrt, psd_sqrt_factor, spectral_norm
from covest.sampling import MaskDistribution

from helpers import rand_psd


def test_check_square():
    out = check_square([[1, 2], [3, 4]], "m")
    assert out.dtype == float and out.shape == (2, 2)
    with pytest.raises(ValueError, match="m must be a square"):
        check_square(np.ones((2, 3)), "m")
    with pytest.raises(ValueError):
        check_square(np.ones(4))


def test_spectral_norm():
    assert spectral_norm(np.diag([3.0, -7.0, 1.0])) == 7.0
    assert spectral_norm(np.zeros((2, 2))) == 0.0
    # eigenvalues of [[2,1],[1,2]] are 1 and 3
    assert spectral_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)


def test_psd_sqrt_factor_reproduces_matrix():
    rng = np.random.default_rng(1)
    for n in (1, 3, 8):
        cov = rand_psd(rng, n, scale=5.0)
        f = psd_sqrt_factor(cov)
        assert np.abs(f @ f.T - cov).max() <= 1e-10 * max(1.0, np.abs(cov).max())


def test_psd_sqrt_factor_clamps_noise_but_rejects_negative():
    # a tiny negative eigenvalue is numerical noise
    noisy = np.diag([1.0, -1e-14])
    f = psd_sqrt_factor(noisy)
    assert np.all(np.isfinite(f))
    with pytest.raises(ValueError, match="positive semidefinite"):
        psd_sqrt_factor(np.diag([1.0, -0.5]))


# The covariance contract: symmetric to 1e-12 of the largest entry and PSD to
# 1e-10 of the largest eigenvalue magnitude, at any scale, at every entry point.

def _half(n: int) -> MaskDistribution:
    return MaskDistribution(np.full(n, 0.5))


def _accepts(call) -> bool:
    try:
        call()
    except ValueError:
        return False
    return True


# entry points that take a covariance matrix
COV_ENTRY_POINTS = {
    "SyntheticModel": SyntheticModel,
    "psd_sqrt_factor": psd_sqrt_factor,
    "effective_rank": effective_rank,
    "error_scale_norm_bound": lambda m: error_scale_norm_bound(m, _half(len(m))),
    "bound_report": lambda m: bound_report(m, _half(len(m)), 10, 10.0),
    "calibrate_gamma": lambda m: calibrate_gamma(m, _half(len(m)), 10, 10.0, trials=2),
    "CovarianceEstimate": lambda m: CovarianceEstimate(m, 1),  # symmetry only
}


def _contract_matrix(kind: str, n: int, seed: int) -> np.ndarray:
    """A matrix far from both thresholds: PSD, asymmetric, indefinite or diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    psd = a @ a.T
    psd = (psd + psd.T) / 2
    if kind == "psd":
        return psd
    if kind == "asymmetric":
        psd[0, 1] += 1e-3 * np.abs(psd).max()
        return psd
    if kind == "indefinite":
        return psd - 0.5 * np.linalg.eigvalsh(psd)[-1] * np.eye(n)
    return np.diag(rng.standard_normal(n))  # diagonal, often with negative entries


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["psd", "asymmetric", "indefinite", "diagonal"]),
    n=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(-15, 15),
)
def test_covariance_contract_is_scale_free(kind, n, seed, k):
    # 1e-12 * [[1, 2], [2, 1]] passed the PSD check and 1e-13 * [[1, 2], [0, 1]]
    # the symmetry checks, through an absolute floor of 1 on the scale
    matrix = _contract_matrix(kind, n, seed)
    for name, call in COV_ENTRY_POINTS.items():
        at_one = _accepts(lambda: call(matrix))
        assert _accepts(lambda: call(10.0**k * matrix)) == at_one, (name, kind, k)


def _rotated(w: np.ndarray) -> np.ndarray:
    # a dense symmetric matrix with spectrum w and a positive diagonal
    c = np.sqrt(0.5)
    q = np.array([[c, -c], [c, c]])
    m = (q * w) @ q.T
    return (m + m.T) / 2


def test_psd_entry_points_agree_on_a_spectrum():
    # effective_rank allowed a dip of -1e-8 where psd_sqrt_factor allowed -1e-10
    for k in (-12, 0, 12):
        for dip in (-0.5, -1e-4, -1e-8, -5e-9, -1e-9, -3e-11, -1e-12, -1e-15, 0.0, 1e-6):
            w = 10.0**k * np.array([1.0, dip])
            dense = _rotated(w)
            verdicts = {name: _accepts(lambda: call(dense)) for name, call in COV_ENTRY_POINTS.items()
                        if name != "CovarianceEstimate"}
            verdicts["clamped_sqrt"] = _accepts(lambda: clamped_sqrt(w))
            verdicts["SyntheticModel diagonal"] = _accepts(lambda: SyntheticModel(np.diag(w)))
            assert set(verdicts.values()) == {dip >= -1e-10}, (k, dip, verdicts)


NON_SYMMETRIC = np.array([[2.0, 1.0], [0.0, 2.0]])


@pytest.mark.parametrize("call", [
    lambda m: effective_rank(m),
    lambda m: error_scale_norm_bound(m, _half(2)),
    lambda m: bound_report(m, _half(2), 100, 100.0),
    lambda m: calibrate_gamma(m, _half(2), 50, 100.0, trials=50),
], ids=["effective_rank", "error_scale_norm_bound", "bound_report", "calibrate_gamma"])
def test_non_symmetric_cov_is_rejected(call):
    # each read one triangle: effective_rank gave 2.0 here and 1.33 on the transpose
    for matrix in (NON_SYMMETRIC, NON_SYMMETRIC.T):
        with pytest.raises(ValueError, match="^cov must be symmetric$"):
            call(matrix)


def test_tiny_contract_violations_are_rejected():
    with pytest.raises(ValueError, match="^matrix is not positive semidefinite within tolerance$"):
        SyntheticModel(1e-12 * np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="^matrix is not positive semidefinite within tolerance$"):
        effective_rank(np.diag([1.0, -5e-9]))
    asymmetric = 1e-13 * np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="^matrix must be symmetric$"):
        CovarianceEstimate(asymmetric, 1)
    with pytest.raises(ValueError, match="^base_cov must be symmetric$"):
        SyntheticModel(asymmetric)


def test_check_symmetric():
    out = check_symmetric([[1, 2], [2, 1]], "s")
    assert out.dtype == float and out.tolist() == [[1.0, 2.0], [2.0, 1.0]]
    assert check_symmetric(np.zeros((3, 3))).tolist() == np.zeros((3, 3)).tolist()
    # asymmetry up to 1e-12 of the largest entry is rounding
    check_symmetric(1e-30 * np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="^s must be symmetric$"):
        check_symmetric(1e-30 * np.array([[1.0, 1.0 + 1e-11], [1.0, 1.0]]), "s")
    with pytest.raises(ValueError, match="s must be a square"):
        check_symmetric(np.ones((2, 3)), "s")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"^s must be finite, got .* at \[1, 0\]$"):
            check_symmetric(np.array([[1.0, 0.0], [bad, 1.0]]), "s")
