"""Small dense symmetric-matrix helpers shared across the package."""
from __future__ import annotations

import ctypes
import operator
import threading
from contextlib import contextmanager

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
    try:
        x = np.asarray(value)
        if not bounds and x.dtype.kind in "biu":  # an integer array holds no NaN or inf
            return x.astype(float)
        x = x.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    good = np.isfinite(x)
    for op, limit in bounds.items():
        good &= getattr(operator, op)(x, limit)
    if good.all():
        return x
    index = np.argwhere(~good)[0]
    bad = x[tuple(index)]
    rule = "be finite" if np.isinf(bad) or not bounds else _rule(**bounds)
    raise ValueError(f"{name} must {rule}, got {bad}" + (f" at {index.tolist()}" if index.size else ""))


def _check_scalar(name: str, value, **bounds: float) -> float:
    """_check_finite for one number: value as a float, else ValueError naming name."""
    x = _check_finite(name, value, **bounds)
    if x.ndim:
        raise ValueError(f"{name} must be a number, got {value}")
    return float(x)


def _check_count(name: str, value, **bounds: float) -> int:
    """_check_finite for one whole number: value as an int (an integer input exactly), else ValueError."""
    if type(value) is int and all(getattr(operator, op)(value, limit) for op, limit in bounds.items()):
        return value  # the common case, without building an array
    x = _check_finite(name, value, **bounds)
    if x.ndim or not float(x).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value) if isinstance(value, (int, np.integer)) else int(x)


def _store_checked(spec, check, names, **bounds: float) -> None:
    """Replace each named field of a frozen dataclass by what check returns for it."""
    for name in names:
        object.__setattr__(spec, name, check(name, getattr(spec, name), **bounds))


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
    w, v = np.linalg.eigh(sym)
    return (v * clamped_sqrt(w)) @ v.T


def clamped_sqrt(w: np.ndarray) -> np.ndarray:
    """Square roots of a symmetric matrix's eigenvalues; dips check_psd_spectrum allows become 0.

    For a diagonal matrix the eigenvalues are its diagonal, and the factor is
    diag(clamped_sqrt(diagonal)).
    """
    w = np.asarray(w, dtype=float)
    check_psd_spectrum(w)
    return np.sqrt(np.clip(w, 0.0, None))


# (get, set) of the thread count of numpy's bundled OpenBLAS, looked up on the
# first _blas_threads; () when numpy links another BLAS
_openblas: tuple | None = None
# the _blas_threads blocks open in any thread, and the count the first one found
_pins = {"open": 0, "before": None}
_pins_lock = threading.Lock()


@contextmanager
def _blas_threads(k: int):
    """Run the block with numpy's BLAS at k threads; without OpenBLAS, do nothing.

    The count is process-wide. Blocks may nest and overlap across threads:
    each sets k, and when the last one ends the count is restored to what
    the first one found.
    """
    global _openblas
    if _openblas is None:
        try:
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            get, set_count = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (AttributeError, OSError):
            _openblas = ()
        else:
            get.argtypes, get.restype = [], ctypes.c_int
            set_count.argtypes, set_count.restype = [ctypes.c_int], None
            _openblas = (get, set_count)
    if not _openblas:
        yield
        return
    get, set_count = _openblas
    with _pins_lock:
        if not _pins["open"]:
            _pins["before"] = get()
        _pins["open"] += 1
        set_count(k)
    try:
        yield
    finally:
        with _pins_lock:
            _pins["open"] -= 1
            if not _pins["open"]:
                set_count(_pins["before"])
