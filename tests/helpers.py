"""Shared builders for the test suite."""
import struct

import numpy as np

from covest.design import project_box_simplex


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


def mask_second_moment(p):
    """Reference second moment of a Bernoulli(p) mask: p_i on the diagonal, p_i p_j off it."""
    moment = np.outer(p.p, p.p)
    np.fill_diagonal(moment, p.p)
    return moment


def reweighted_estimate(observed, p):
    """Reference estimator: obs^T obs / count divided entrywise by the mask second moment."""
    observed = np.asarray(observed, dtype=float)
    return observed.T @ observed / observed.shape[0] / mask_second_moment(p)


def alternating_design(diag_sigma, m, eps=1e-3):
    """Reference joint design by alternation, the solver design_probabilities replaced.

    Alternates p <- P(rho s) and rho <- p.s / s.s from rho = m / sum(s), for
    at most 500 rounds, and stops once the objective falls by less than 1e-12.
    Returns (p, rho, objective history).
    """
    s = np.sqrt(np.asarray(diag_sigma, dtype=float))
    rho = m / s.sum()
    prev_obj = np.inf
    history = []
    for _ in range(500):
        p = project_box_simplex(rho * s, m, lo=eps, hi=1.0)
        obj = 0.5 * float(np.sum((p - rho * s) ** 2))
        history.append(obj)
        if prev_obj - obj < 1e-12:
            break
        prev_obj = obj
        rho = float(p @ s / (s @ s))
    return p, rho, history
