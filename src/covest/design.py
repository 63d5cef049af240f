"""Budgeted design of observation probabilities.

Given a variance profile, the design problem picks probabilities close (in
least squares) to a common multiple of the per-coordinate standard
deviations, subject to the budget (the probabilities sum to m) and box
constraints (a strictly positive floor, a cap at 1). A positive floor keeps
every coordinate observable, which the unbiased estimator needs. The solver
alternates an exact one-dimensional scale update with a Euclidean projection
onto the budgeted box.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import entrywise_norm, error_scale_matrix
from .estimator import CovarianceEstimate
from .sampling import MaskDistribution

__all__ = [
    "DesignProblem",
    "DesignSolution",
    "project_box_simplex",
    "kkt_residual",
    "design_probabilities",
    "update_design",
    "design_scale_norms",
]

_BUDGET_TOL = 1e-12


@dataclass(frozen=True)
class DesignProblem:
    """Validated inputs for one design solve.

    target is the vector of per-coordinate standard deviations, m the budget,
    and floor the smallest admissible probability.
    """

    target: np.ndarray
    m: float
    floor: float = 1e-3

    def __post_init__(self):
        target = np.asarray(self.target, dtype=float)
        if target.ndim != 1 or target.size == 0:
            raise ValueError("target must be a nonempty 1-D vector")
        if np.any(target < 0):
            raise ValueError("target entries must be nonnegative")
        if not np.any(target > 0):
            raise ValueError("design needs at least one positive target entry")
        if not 0 <= self.floor <= 1:
            raise ValueError("floor must lie in [0, 1]")
        n = target.size
        if self.m <= 0 or self.m > n * (1 + 1e-12):
            raise ValueError(f"budget must lie in (0, {n}]")
        if self.m < n * self.floor - 1e-12:
            raise ValueError("budget is below the floor times the dimension")
        object.__setattr__(self, "target", target)

    @property
    def n(self) -> int:
        return self.target.size


@dataclass(frozen=True)
class DesignSolution:
    """Solver output: the design, the fitted scale, and convergence facts."""

    p: MaskDistribution
    rho: float
    objective: float
    iterations: int
    converged: bool
    objective_history: tuple = ()


def project_box_simplex(v: np.ndarray, m: float, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Euclidean projection of v onto {p : sum(p) = m, lo <= p_i <= hi}.

    Bisects the dual scalar lam in p(lam) = clip(v - lam, lo, hi), whose sum
    is continuous and nonincreasing in lam, then polishes lam exactly on the
    final free set. Raises when the budget is infeasible for the box.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("v must be a nonempty 1-D vector")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    n = v.size
    slack = 1e-9 * max(1.0, abs(m))
    if m < n * lo - slack or m > n * hi + slack:
        raise ValueError(f"budget {m} is infeasible for box [{lo}, {hi}]^{n}")
    if m >= n * hi:
        return np.full(n, hi)
    if m <= n * lo:
        return np.full(n, lo)

    budget_tol = _BUDGET_TOL * max(1.0, abs(m))
    clipped = np.clip(v, lo, hi)
    if abs(clipped.sum() - m) <= budget_tol:
        return clipped  # already feasible, lam = 0

    lam_lo = float(v.min()) - hi  # sum = n*hi here
    lam_hi = float(v.max()) - lo  # sum = n*lo here
    p = clipped
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        p = np.clip(v - lam, lo, hi)
        gap = p.sum() - m
        if abs(gap) <= budget_tol:
            return p
        if gap > 0:
            lam_lo = lam
        else:
            lam_hi = lam
        if lam_hi - lam_lo <= 1e-13 * max(1.0, abs(lam_lo), abs(lam_hi)):
            break
    # Newton polish: the sum is linear in lam while the free set is stable
    for _ in range(4):
        gap = p.sum() - m
        if abs(gap) <= budget_tol:
            break
        free = (p > lo) & (p < hi)
        if not free.any():
            break
        lam += gap / free.sum()
        p = np.clip(v - lam, lo, hi)
    return p


def kkt_residual(p: np.ndarray, v: np.ndarray, m: float, lo: float = 0.0, hi: float = 1.0) -> float:
    """Optimality residual of a candidate projection output.

    A point is the projection of v exactly when some scalar lam reproduces it
    via clip(v - lam, lo, hi) and the budget holds. Returns the larger of the
    budget violation and the entrywise distance to the best such lam.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    budget_dev = abs(float(p.sum()) - m)
    atol = 1e-12 * max(1.0, hi - lo)
    free = (p > lo + atol) & (p < hi - atol)
    if free.any():
        lam = float(np.mean(v[free] - p[free]))
    else:
        # all entries pinned: any lam in the admissible interval works
        upper = np.min(v[p >= hi - atol] - hi) if np.any(p >= hi - atol) else np.inf
        lower = np.max(v[p <= lo + atol] - lo) if np.any(p <= lo + atol) else -np.inf
        lam = min(max(0.0, lower), upper) if lower <= upper else 0.5 * (lower + upper)
    dev = float(np.max(np.abs(p - np.clip(v - lam, lo, hi))))
    return max(dev, budget_dev)


def design_probabilities(diag_sigma: np.ndarray, m: float, eps: float = 1e-3) -> DesignSolution:
    """Fit observation probabilities to a variance profile under a budget.

    Minimizes 0.5 * ||p - rho * target||^2 over the budgeted box jointly in
    (p, rho), where target is sqrt(diag_sigma). Both updates are exact
    partial minimizers, so the objective never increases. When the profile is
    flat the answer is exactly uniform by symmetry.
    """
    diag_sigma = np.asarray(diag_sigma, dtype=float)
    if not np.all(np.isfinite(diag_sigma)):
        raise ValueError("variance profile must be finite (no NaN or inf entries)")
    if np.any(diag_sigma < 0):
        raise ValueError("variance profile must be nonnegative")
    problem = DesignProblem(target=np.sqrt(diag_sigma), m=float(m), floor=float(eps))
    s = problem.target
    n = problem.n

    if np.all(s == s[0]):
        p_uniform = min(problem.m / n, 1.0)
        return DesignSolution(
            p=MaskDistribution(np.full(n, p_uniform)),
            rho=p_uniform / s[0],
            objective=0.0,
            iterations=0,
            converged=True,
            objective_history=(0.0,),
        )

    rho = problem.m / s.sum()
    prev_obj = np.inf
    history = []
    p = None
    converged = False
    iterations = 0
    for iterations in range(1, 501):
        p = project_box_simplex(rho * s, problem.m, lo=problem.floor, hi=1.0)
        rho = float(p @ s / (s @ s))
        obj = 0.5 * float(np.sum((p - rho * s) ** 2))
        assert obj <= prev_obj + 1e-10, "alternating descent must not increase the objective"
        history.append(obj)
        if prev_obj - obj < 1e-12:
            converged = True
            break
        prev_obj = obj

    if np.any(p <= 0.0):
        raise ValueError(
            "design collapsed a coordinate to zero probability; "
            "use a positive floor (eps) to keep every coordinate observable"
        )
    return DesignSolution(
        p=MaskDistribution(p),
        rho=rho,
        objective=history[-1],
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
    )


def update_design(estimate, m: float, eps: float = 1e-3) -> DesignSolution:
    """Redesign from an estimated covariance (an estimate or its matrix).

    Negative diagonal entries (possible, since the unbiased estimate need not
    be PSD) are clamped to zero before the solve; clamped coordinates end up
    at the floor.
    """
    if isinstance(estimate, CovarianceEstimate):
        estimate = estimate.matrix
    diag = np.clip(np.diag(np.asarray(estimate, dtype=float)), 0.0, None)
    return design_probabilities(diag, m, eps)


def design_scale_norms(cov, designs, sigma_ratio: float = 1.0, q: float = 2.0) -> list[float]:
    """Score candidate designs by the entrywise q-norm of their error-scale matrix.

    A comparison hook only; nothing optimizes this norm directly.
    """
    return [entrywise_norm(error_scale_matrix(cov, p, sigma_ratio), q) for p in designs]
