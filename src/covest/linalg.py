"""Small dense symmetric-matrix helpers shared across the package."""
from __future__ import annotations

import operator

import numpy as np


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """matrix as a finite, nonempty, square 2-D float array; error messages call it name."""
    return _square(name, _check_finite(name, matrix))


def _square(name: str, matrix: np.ndarray) -> np.ndarray:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {matrix.shape}")
    if matrix.size == 0:
        raise ValueError(f"{name} must be nonempty, got shape {matrix.shape}")
    return matrix


def check_symmetric(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """check_square, and |m_ij - m_ji| <= 1e-12 * max |m_ij|: symmetric at any scale."""
    matrix = _square(name, np.asarray(matrix, dtype=float))
    tol = 1e-12 * max(float(matrix.max()), -float(matrix.min()))
    # the one n x n temporary; matrix - matrix.T would add a 64 KB ufunc
    # buffer for the transposed operand
    asym = matrix.T.copy()
    with np.errstate(invalid="ignore"):  # inf - inf is judged below
        asym -= matrix
    # NaN makes asym NaN and inf makes tol inf, so this also finds non-finite entries
    if not max(float(asym.max()), -float(asym.min())) <= tol < np.inf:
        _check_finite(name, matrix)
        raise ValueError(f"{name} must be symmetric")
    return matrix


def check_psd_spectrum(w: np.ndarray) -> None:
    """Raise unless the lowest eigenvalue in w is >= -1e-10 * the largest magnitude."""
    lo, hi = w.min(), w.max()
    if not lo >= -1e-10 * max(abs(lo), abs(hi)):
        raise ValueError("matrix is not positive semidefinite within tolerance")


def _check_finite(name: str, value, **bounds: float) -> np.ndarray:
    """value as a float array, each entry finite and within bounds, else ValueError.

    bounds holds gt or ge and optionally lt or le, comparisons that NaN fails;
    the error names name, the rule and the first bad entry (and its index).
    """
    x = np.asarray(value)
    if not bounds and x.dtype.kind in "biu":  # an integer array holds no NaN or inf
        return x.astype(float)
    x = x.astype(float, copy=False)
    good = np.isfinite(x)
    for op, limit in bounds.items():
        good &= getattr(operator, op)(x, limit)
    if good.all():
        return x
    index = np.argwhere(~good)[0]
    bad = x[tuple(index)]
    rule = "be finite" if np.isinf(bad) or not bounds else _rule(**bounds)
    raise ValueError(f"{name} must {rule}, got {bad}" + (f" at {index.tolist()}" if index.size else ""))


def _check_count(name: str, value, **bounds: float) -> int:
    """_check_finite for one whole number: value as an int, else ValueError naming name."""
    x = _check_finite(name, value, **bounds)
    if x.ndim or not float(x).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(x)


def _rule(gt=None, ge=None, lt=None, le=None) -> str:
    # the range in words: "be positive", "be nonnegative", "lie in (0, 1]", "lie in [1, inf)"
    low = ge if gt is None else gt
    if (low, lt, le) == (0, None, None):
        return "be nonnegative" if gt is None else "be positive"
    high = f"{lt:g})" if lt is not None else f"{le:g}]" if le is not None else "inf)"
    return f"lie in {'[' if gt is None else '('}{low:g}, {high}"


def spectral_norm(sym: np.ndarray) -> float:
    """Largest absolute eigenvalue of a checked symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def psd_sqrt_factor(sym: np.ndarray) -> np.ndarray:
    """Symmetric square root F, F @ F.T = sym, of a matrix that check_symmetric passed.

    Its eigenvalues are rooted by clamped_sqrt, so a non-PSD sym raises.
    """
    return _sqrt_factor(sym)[0]


def _sqrt_factor(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # psd_sqrt_factor(sym), and the ascending eigenvalues of sym it roots
    w, v = np.linalg.eigh(sym)
    return (v * clamped_sqrt(w)) @ v.T, w


def clamped_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of a symmetric matrix's eigenvalues; dips check_psd_spectrum allows become 0.

    For a diagonal matrix the eigenvalues are its diagonal, and the factor is
    diag(clamped_sqrt(diagonal)).
    """
    w = np.asarray(w, dtype=float)
    check_psd_spectrum(w)
    return np.sqrt(np.clip(w, 0.0, None))
