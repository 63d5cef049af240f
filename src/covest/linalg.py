"""Small dense symmetric-matrix helpers shared across the package."""
from __future__ import annotations

import operator

import numpy as np


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """matrix as a finite, square 2-D float array; error messages call it name."""
    matrix = _check_finite(name, matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {matrix.shape}")
    return matrix


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


def _rule(gt=None, ge=None, lt=None, le=None) -> str:
    # the range in words: "be positive", "be nonnegative", "lie in (0, 1]", "lie in [1, inf)"
    low = ge if gt is None else gt
    if (low, lt, le) == (0, None, None):
        return "be nonnegative" if gt is None else "be positive"
    high = f"{lt:g})" if lt is not None else f"{le:g}]" if le is not None else "inf)"
    return f"lie in {'[' if gt is None else '('}{low:g}, {high}"


def spectral_norm(sym: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    sym = check_square(sym)
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def psd_sqrt_factor(sym: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric square root F of a PSD matrix, F @ F.T = sym.

    Eigenvalues in [-tol * scale, 0) are treated as numerical noise and clamped
    to zero; anything more negative raises.
    """
    sym = check_square(sym)
    w, v = np.linalg.eigh(sym)
    return (v * clamped_sqrt(w, tol)) @ v.T


def clamped_sqrt(w: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Square roots of a symmetric matrix's eigenvalues, clamped as in psd_sqrt_factor.

    For a diagonal matrix the eigenvalues are its diagonal, and the factor is
    diag(clamped_sqrt(diagonal)).
    """
    w = np.asarray(w, dtype=float)
    lo, hi = w.min(), w.max()
    scale = max(abs(lo), abs(hi), 1.0)
    if not lo >= -tol * scale:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return np.sqrt(np.clip(w, 0.0, None))
