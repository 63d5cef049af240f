"""Small dense symmetric-matrix helpers shared across the package."""
from __future__ import annotations

import numpy as np


def check_square(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {matrix.shape}")
    return matrix


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
    if lo < -tol * scale:
        raise ValueError("matrix is not positive semidefinite within tolerance")
    return np.sqrt(np.clip(w, 0.0, None))
