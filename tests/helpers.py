"""Shared builders for the test suite."""
import os
import struct
import subprocess
import sys
from pathlib import Path

import covest
import numpy as np

from covest.design import project_box_simplex


def rand_psd(rng, n, scale=1.0):
    """Random dense PSD matrix with eigenvalues of order ``scale``."""
    a = rng.standard_normal((n, n))
    cov = a @ a.T / n
    return scale * (cov + cov.T) / 2


def count_decompositions(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh and eigh to append their names to the returned list."""
    calls = []
    for name in ("eigvalsh", "eigh"):
        original = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _f=original, _n=name: calls.append(_n) or _f(a))
    return calls


def outputs_at_blas_threads(script: str) -> list:
    """The stdout of script run in two fresh interpreters, with OPENBLAS_NUM_THREADS=1 and =2."""
    src = str(Path(covest.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        outputs.append(proc.stdout)
    return outputs


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
