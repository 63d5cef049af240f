"""Shared builders for the test suite."""
import struct

import numpy as np


def rand_psd(rng, n, scale=1.0):
    """Random dense PSD matrix with eigenvalues of order ``scale``."""
    a = rng.standard_normal((n, n))
    cov = a @ a.T / n
    return scale * (cov + cov.T) / 2


def idx_bytes(arr):
    """Serialize a uint8 array in the IDX layout (big-endian sizes)."""
    arr = np.asarray(arr, dtype=np.uint8)
    header = bytes([0, 0, 0x08, arr.ndim])
    header += b"".join(struct.pack(">I", s) for s in arr.shape)
    return header + arr.tobytes()


def grid_project(v, m, lo=0.0, hi=1.0, step=1e-3):
    """Grid-scan oracle for the budgeted box projection.

    Every candidate optimum has the form clip(v - lam, lo, hi); scanning lam
    on a fixed grid and keeping the budget-closest candidate lands within one
    step of the true projection, entrywise. Independent of the implementation.
    """
    lam_grid = np.arange(v.min() - hi, v.max() - lo + step, step)
    candidates = np.clip(v[None, :] - lam_grid[:, None], lo, hi)
    best = np.argmin(np.abs(candidates.sum(axis=1) - m))
    return candidates[best]
